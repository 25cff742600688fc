package registry

// The plain exchange: ExecOptions without a Reliability config is the
// one sessioned relay drive under a one-attempt policy.

import (
	"net/http"
	"sync/atomic"
	"testing"

	"xdx/internal/netsim"
	"xdx/internal/reliable"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// firstCall sends the first request of one SOAP action through faulty and
// every other request through base.
type firstCall struct {
	action       string
	faulty, base http.RoundTripper
	used         atomic.Bool
}

func (r *firstCall) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get("SOAPAction") == `"`+r.action+`"` && r.used.CompareAndSwap(false, true) {
		return r.faulty.RoundTrip(req)
	}
	return r.base.RoundTrip(req)
}

// TestPlainExchangeIsOneAttempt drops the first ExecuteTarget request. The
// plain exchange gets one attempt per call, so it fails without a retry;
// the default reliability policy retries the delivery and completes.
func TestPlainExchangeIsOneAttempt(t *testing.T) {
	for _, cfg := range []*reliable.Config{nil, {}} {
		ag, plan, tgt, _, done := startAuctionExchange(t)
		fl := netsim.NewFaultyLink(netsim.Loopback(), netsim.Faults{Seed: 1, DropProb: 1})
		rep, err := ag.ExecuteOpts("Auction", plan, ExecOptions{
			Link:        netsim.Loopback(),
			Transport:   &firstCall{action: "ExecuteTarget", faulty: fl.RoundTripper(nil), base: http.DefaultTransport},
			Reliability: cfg,
		})
		if c := fl.Counts(); c.Drops != 1 {
			t.Fatalf("reliability=%v: injected %+v, want one drop", cfg != nil, c)
		}
		if cfg == nil {
			if err == nil {
				t.Fatal("plain exchange survived a dropped delivery")
			}
			if rep == nil || rep.Retries != 0 {
				t.Errorf("plain exchange report %+v, want Retries 0", rep)
			}
		} else {
			if err != nil {
				t.Fatalf("default policy did not survive one dropped delivery: %v", err)
			}
			if rep.Retries < 1 {
				t.Errorf("default policy Retries = %d, want >= 1", rep.Retries)
			}
			if !xmltree.Equal(auctionOracle(t, plan), assembleTarget(t, tgt)) {
				t.Error("retried exchange's target differs from the in-test control")
			}
		}
		done()
	}
}

// TestPlainExchangeFaultFree: a clean plain exchange dedups nothing,
// releases its target session, and delivers what the in-test control
// delivers.
func TestPlainExchangeFaultFree(t *testing.T) {
	ag, plan, tgt, tgtEP, done := startAuctionExchange(t)
	defer done()
	rep, err := ag.ExecuteOpts("Auction", plan, ExecOptions{Link: netsim.Loopback()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DedupedRecords != 0 || rep.Retries != 0 || rep.Resumes != 0 {
		t.Errorf("clean plain exchange: deduped=%d retries=%d resumes=%d", rep.DedupedRecords, rep.Retries, rep.Resumes)
	}
	if n := tgtEP.Sessions().Len(); n != 0 {
		t.Errorf("target still holds %d sessions after the exchange", n)
	}
	if !xmltree.Equal(auctionOracle(t, plan), assembleTarget(t, tgt)) {
		t.Error("plain exchange's target differs from the in-test control")
	}
}

// TestDeltaExchangePlainPolicy: a delta needs no reliability config. After
// a churn round the plain exchange ships a delta, and the patched target
// equals the in-test control over the churned document.
func TestDeltaExchangePlainPolicy(t *testing.T) {
	r := startChurnRig(t, nil, nil)
	defer r.done()
	opts := ExecOptions{Link: netsim.Loopback(), Delta: true}
	check := func(round int, wantDelta bool) {
		t.Helper()
		rep, err := r.ag.ExecuteOpts("Auction", r.plan, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep.Delta != wantDelta {
			t.Fatalf("round %d: delta = %v, want %v", round, rep.Delta, wantDelta)
		}
		oracle, _ := oracleTarget(t, r.plan, r.doc.Clone(), r.sFr, r.tFr, wire.Codec{})
		if !xmltree.Equal(canonTree(assembleTarget(t, oracle)), canonTree(assembleTarget(t, r.tgt))) {
			t.Fatalf("round %d: target differs from the in-test control", round)
		}
	}
	check(0, false)
	r.churn(t, 0.05, 1)
	check(1, true)
}
