package registry

// Source-side deltas: the source reconciles its fresh output against the
// base the agency names, and the agency relays the delta verbatim. These
// tests hold that path to the agency-side diff it replaced, and cover the
// source restarting between exchanges.

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"

	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// swapHandler serves through whichever handler was stored last, so a test
// can restart an endpoint behind an unchanged URL.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// churnRig is the auction exchange of startAuctionExchange with a source
// whose document churns between exchanges and whose endpoint can restart.
type churnRig struct {
	sch  *schema.Schema
	sFr  *core.Fragmentation
	tFr  *core.Fragmentation
	ag   *Agency
	plan *Plan
	doc  *xmltree.Node
	src  *relstore.Store
	tgt  *relstore.Store
	srcH *swapHandler
	rng  *rand.Rand
	done func()
}

// startChurnRig registers the "Auction" service over a churnable source;
// srcWrap and tgtWrap (nil leaves one alone) wrap the hops' handlers.
func startChurnRig(t testing.TB, srcWrap, tgtWrap func(http.Handler) http.Handler) *churnRig {
	t.Helper()
	sch := xmark.Schema()
	sFr, tFr := core.MostFragmented(sch), core.LeastFragmented(sch)
	r := &churnRig{sch: sch, sFr: sFr, tFr: tFr, doc: xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42}), srcH: &swapHandler{}, rng: rand.New(rand.NewSource(5))}
	var err error
	if r.src, err = relstore.NewStore(sFr); err != nil {
		t.Fatal(err)
	}
	if err := r.src.LoadDocument(r.doc.Clone()); err != nil {
		t.Fatal(err)
	}
	if r.tgt, err = relstore.NewStore(tFr); err != nil {
		t.Fatal(err)
	}
	r.restartSource()
	var srcH, tgtH http.Handler = r.srcH, endpoint.New("T", &endpoint.RelBackend{Store: r.tgt, Speed: 1, CanCombine: true}, nil).Handler()
	if srcWrap != nil {
		srcH = srcWrap(srcH)
	}
	if tgtWrap != nil {
		tgtH = tgtWrap(tgtH)
	}
	srcSrv, tgtSrv := httptest.NewServer(srcH), httptest.NewServer(tgtH)
	r.done = func() { srcSrv.Close(); tgtSrv.Close() }
	r.ag = New()
	if err := r.ag.Register("Auction", RoleSource, wsdlFor(t, sch, sFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := r.ag.Register("Auction", RoleTarget, wsdlFor(t, sch, tFr, tgtSrv.URL), tgtSrv.URL); err != nil {
		t.Fatal(err)
	}
	if r.plan, err = r.ag.Plan("Auction", PlanOptions{Algorithm: AlgGreedy}); err != nil {
		t.Fatal(err)
	}
	return r
}

// restartSource replaces the source endpoint with a fresh one over the
// same store: same data and URL, no reconciliation state.
func (r *churnRig) restartSource() {
	r.srcH.set(endpoint.New("S", &endpoint.RelBackend{Store: r.src, Speed: 1, CanCombine: true}, nil).Handler())
}

// churn applies a round of churnAuction to the source's document.
func (r *churnRig) churn(t testing.TB, frac float64, round int) {
	t.Helper()
	churnAuction(r.doc, r.rng, frac, round)
	r.src.Clear()
	if err := r.src.LoadDocument(r.doc.Clone()); err != nil {
		t.Fatal(err)
	}
}

// fullShip exchanges the source's current document in full into a fresh
// target and returns that target's contents in canonical order — the
// ground truth a delta-patched target must equal.
func (r *churnRig) fullShip(t testing.TB) *xmltree.Node {
	t.Helper()
	src, _ := r.ag.parties("Auction")
	st, err := relstore.NewStore(r.tFr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(endpoint.New("C", &endpoint.RelBackend{Store: st, Speed: 1, CanCombine: true}, nil).Handler())
	defer srv.Close()
	ag := New()
	if err := ag.Register("Ctl", RoleSource, wsdlFor(t, r.sch, r.sFr, src.URL), src.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("Ctl", RoleTarget, wsdlFor(t, r.sch, r.tFr, srv.URL), srv.URL); err != nil {
		t.Fatal(err)
	}
	plan, err := ag.Plan("Ctl", PlanOptions{Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ag.ExecuteOpts("Ctl", plan, ExecOptions{Link: netsim.Loopback(), Reliability: &reliable.Config{}}); err != nil {
		t.Fatal(err)
	}
	return canonTree(assembleTarget(t, st))
}

// TestDeltaRelayMatchesAgencyDiff holds the source-side delta to the
// agency-side diff it replaced: under the xml codec, with a batch-executing
// source, the warm delta's ExecuteTarget body equals — apart from the
// session ID — what the agency built by decoding both snapshots, hashing
// the base (HashShipment), diffing the fresh one against it
// (DiffShipment), chunking the delta (ChunkShipment) and rendering it
// with its tombstone chunks. The report's delta counts and payload match.
func TestDeltaRelayMatchesAgencyDiff(t *testing.T) {
	r := startChurnRig(t, nil, nil)
	defer r.done()
	const chunk = 8
	rec := &bodyRecorder{base: http.DefaultTransport, action: "ExecuteTarget"}
	opts := ExecOptions{Link: netsim.Loopback(), Reliability: &reliable.Config{ChunkSize: chunk}, Transport: rec, Delta: true}
	if rep, err := r.ag.ExecuteOpts("Auction", r.plan, opts); err != nil || rep.Delta {
		t.Fatalf("cold exchange: err %v, delta %v", err, rep != nil && rep.Delta)
	}
	baseShip := decodedSource(t, r.ag, r.plan, opts)
	r.churn(t, 0.05, 1)
	rep, err := r.ag.ExecuteOpts("Auction", r.plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delta {
		t.Fatal("warm repeat exchange did not run as a delta")
	}
	if len(rec.bodies) != 2 {
		t.Fatalf("recorded %d ExecuteTarget requests, want 2", len(rec.bodies))
	}

	src, tgt := r.ag.parties("Auction")
	base, keyed := reliable.HashShipment(baseShip)
	if !keyed {
		t.Fatal("base shipment has records without IDs")
	}
	d := reliable.DiffShipment(decodedSource(t, r.ag, r.plan, opts), base)
	progXML, err := wire.EncodeProgram(r.plan.Program, r.plan.Assign)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.WriteString(`<soap:Envelope xmlns:soap="` + soap.EnvelopeNS + `"><soap:Body>`)
	want.WriteString(`<ExecuteTarget session="S" stream="Auction" epoch="` + deltaEpoch(src, tgt) + `" delta="1">`)
	if err := xmltree.Write(&want, progXML, xmltree.WriteOptions{EmitAllIDs: true}); err != nil {
		t.Fatal(err)
	}
	sw := wire.NewShipmentWriterCodec(&want, src.Fragmentation.Schema, wire.Codec{})
	sw.SetDelta(true)
	chunks := reliable.ChunkShipment(d.Ship, chunk)
	for _, c := range chunks {
		if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 0, len(d.Tombs))
	for k := range d.Tombs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if err := sw.EmitTombstones(k, d.Tombs[k], int64(len(chunks)+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	want.WriteString(`</ExecuteTarget></soap:Body></soap:Envelope>`)

	got := regexp.MustCompile(`<ExecuteTarget session="[^"]*"`).ReplaceAllLiteralString(rec.bodies[1], `<ExecuteTarget session="S"`)
	if got != want.String() {
		i := 0
		for i < len(got) && i < want.Len() && got[i] == want.String()[i] {
			i++
		}
		t.Fatalf("relayed delta (%d bytes) differs from the agency-diffed one (%d bytes) at byte %d:\ngot  …%s\nwant …%s",
			len(got), want.Len(), i, excerpt(got, i), excerpt(want.String(), i))
	}
	if d.Records == 0 || d.Tombstones == 0 {
		t.Errorf("churn left %d records and %d tombstones; the comparison should cover both", d.Records, d.Tombstones)
	}
	if rep.DeltaRecords != d.Records || rep.TombstoneRecords != d.Tombstones {
		t.Errorf("report counts %d records, %d tombstones; the agency diff %d, %d",
			rep.DeltaRecords, rep.TombstoneRecords, d.Records, d.Tombstones)
	}
	if wantPayload := wire.ShipmentBytes(d.Ship); rep.PayloadBytes != wantPayload {
		t.Errorf("PayloadBytes = %d, the delta's records measure %d", rep.PayloadBytes, wantPayload)
	}
}

// TestDeltaSourceRestartFallsBackToFull restarts the source between two
// delta-enabled exchanges. The restarted source no longer holds the base
// the agency names, so it ships in full; the target then equals a fresh
// full ship, and the exchange after that runs as a delta again.
func TestDeltaSourceRestartFallsBackToFull(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		r := startChurnRig(t, nil, nil)
		met := obs.NewRegistry()
		opts := ExecOptions{Link: netsim.Loopback(), Reliability: soakConfig(3), Delta: true, Pipelined: pipelined, Metrics: met}
		exchange := func(round int, wantDelta bool) {
			t.Helper()
			rep, err := r.ag.ExecuteOpts("Auction", r.plan, opts)
			if err != nil {
				t.Fatalf("pipelined=%v round %d: %v", pipelined, round, err)
			}
			if rep.Delta != wantDelta {
				t.Fatalf("pipelined=%v round %d: delta = %v, want %v", pipelined, round, rep.Delta, wantDelta)
			}
			if !wantDelta && (rep.DeltaRecords != 0 || rep.TombstoneRecords != 0) {
				t.Errorf("pipelined=%v round %d: full ship reports delta counts %d, %d",
					pipelined, round, rep.DeltaRecords, rep.TombstoneRecords)
			}
			if want, got := r.fullShip(t), canonTree(assembleTarget(t, r.tgt)); !xmltree.Equal(want, got) {
				t.Fatalf("pipelined=%v round %d: target differs from a fresh full ship", pipelined, round)
			}
		}
		exchange(0, false)
		r.churn(t, 0.05, 1)
		exchange(1, true)
		r.churn(t, 0.05, 2)
		r.restartSource()
		cold := met.Counter("exchange.delta.cold").Value()
		exchange(2, false)
		if met.Counter("exchange.delta.cold").Value() != cold+1 {
			t.Errorf("pipelined=%v: the restarted source's full ship was not counted cold", pipelined)
		}
		r.churn(t, 0.05, 3)
		exchange(3, true)
		r.done()
	}
}
