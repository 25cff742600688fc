package registry

import (
	"testing"

	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/relstore"
	"xdx/internal/xmltree"
)

// streamedTargetDoc runs a full exchange and reassembles the target
// store's contents into a document.
func streamedTargetDoc(t testing.TB, opts ExecOptions) (*Report, *xmltree.Node, *relstore.Store) {
	t.Helper()
	ag, plan, tgtStore, done := startExchange(t, AlgGreedy)
	defer done()
	report, err := ag.ExecuteOpts("CustomerInfoService", plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	insts := map[string]*core.Instance{}
	for _, f := range tgtStore.Layout.Fragments {
		in, err := tgtStore.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		insts[f.Name] = in
	}
	back, err := core.Document(tgtStore.Layout, insts)
	if err != nil {
		t.Fatal(err)
	}
	return report, back, tgtStore
}

func TestEndToEndExchangeStreamed(t *testing.T) {
	// No envelope tree anywhere: the source's shipment streams onto its
	// response as slices execute, and the agency relays its chunks into
	// the target request as they were scanned.
	report, back, _ := streamedTargetDoc(t, ExecOptions{Link: netsim.Loopback()})
	if report.ShipBytes <= 0 {
		t.Errorf("no bytes shipped")
	}
	if !xmltree.EqualShape(customerDoc(t), back) {
		t.Errorf("document changed in streamed transit:\n%s", xmltree.Marshal(back, xmltree.WriteOptions{}))
	}
}

func TestEndToEndExchangeStreamedPipelined(t *testing.T) {
	// The pipelined executor on both endpoints: records reach the wire
	// while upstream operators still produce.
	report, back, _ := streamedTargetDoc(t, ExecOptions{Link: netsim.Loopback(), Pipelined: true})
	if report.ShipBytes <= 0 {
		t.Errorf("no bytes shipped")
	}
	if !xmltree.EqualShape(customerDoc(t), back) {
		t.Errorf("document changed in streamed pipelined transit:\n%s", xmltree.Marshal(back, xmltree.WriteOptions{}))
	}
}

func TestEndToEndExchangeStreamedFeed(t *testing.T) {
	// Sorted-feed shipments (§4.1).
	_, back, _ := streamedTargetDoc(t, ExecOptions{Link: netsim.Loopback(), Codec: "feed"})
	if !xmltree.EqualShape(customerDoc(t), back) {
		t.Errorf("document changed in streamed feed transit:\n%s", xmltree.Marshal(back, xmltree.WriteOptions{}))
	}
}

func TestEndToEndExchangeNegotiatedBin(t *testing.T) {
	// Binary shipments negotiated per call: the agency advertises the
	// codec on the request envelope, the source stamps its pick on the
	// response envelope, and the report separates what crossed the link
	// from the tree-codec payload size. Run on the auction workload — on a
	// realistically sized shipment the dictionary and delta coding must
	// beat the tree codec despite the base64 transfer text.
	for _, codec := range []string{"bin", "bin+flate"} {
		ag, plan, tgtStore, _, done := startAuctionExchange(t)
		report, err := ag.ExecuteOpts("Auction", plan, ExecOptions{Link: netsim.Loopback(), Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		if report.Codec != codec {
			t.Errorf("negotiation answered %q, want %q", report.Codec, codec)
		}
		if report.WireBytes <= 0 || report.PayloadBytes <= 0 {
			t.Fatalf("%s: wire=%d payload=%d; both must be metered", codec, report.WireBytes, report.PayloadBytes)
		}
		if report.WireBytes >= report.PayloadBytes {
			t.Errorf("%s: wire bytes %d >= tree-codec payload %d; the codec should save",
				codec, report.WireBytes, report.PayloadBytes)
		}
		got := assembleTarget(t, tgtStore)
		if !xmltree.Equal(auctionOracle(t, plan), got) {
			t.Errorf("%s: document changed in negotiated transit", codec)
		}
		done()
	}
}
