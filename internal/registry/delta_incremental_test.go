package registry

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/relstore"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// TestDeltaExchangeChurnAppliesIncrementally is the churn property run
// against the target's incremental apply: over the same seeded churn
// rounds as TestDeltaExchangeChurnProperty, every warm delta must be
// applied incrementally (no full-path fallback), and the target must
// equal a retention-off control that re-executes every snapshot in full.
// Both slice executors run it.
func TestDeltaExchangeChurnAppliesIncrementally(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			sch := xmark.Schema()
			doc := xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42})
			sFr, tFr := core.MostFragmented(sch), core.LeastFragmented(sch)
			srcStore, err := relstore.NewStore(sFr)
			if err != nil {
				t.Fatal(err)
			}
			if err := srcStore.LoadDocument(doc.Clone()); err != nil {
				t.Fatal(err)
			}
			tgtD, err := relstore.NewStore(tFr)
			if err != nil {
				t.Fatal(err)
			}
			tgtC, err := relstore.NewStore(tFr)
			if err != nil {
				t.Fatal(err)
			}
			met := obs.NewRegistry()
			srcEP := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil)
			epD := endpoint.New("TD", &endpoint.RelBackend{Store: tgtD, Speed: 1, CanCombine: true}, nil)
			epD.SetObs(nil, met)
			epC := endpoint.New("TC", &endpoint.RelBackend{Store: tgtC, Speed: 1, CanCombine: true}, nil)
			epC.SetDeltaRetention(false)
			srcSrv := httptest.NewServer(srcEP.Handler())
			defer srcSrv.Close()
			srvD := httptest.NewServer(epD.Handler())
			defer srvD.Close()
			srvC := httptest.NewServer(epC.Handler())
			defer srvC.Close()

			ag := New()
			for _, reg := range []struct {
				svc, url string
				fr       *core.Fragmentation
				role     Role
			}{
				{"Churn", srcSrv.URL, sFr, RoleSource},
				{"Churn", srvD.URL, tFr, RoleTarget},
				{"ChurnCtl", srcSrv.URL, sFr, RoleSource},
				{"ChurnCtl", srvC.URL, tFr, RoleTarget},
			} {
				if err := ag.Register(reg.svc, reg.role, wsdlFor(t, sch, reg.fr, reg.url), reg.url); err != nil {
					t.Fatal(err)
				}
			}
			plans := map[string]*Plan{}
			for _, svc := range []string{"Churn", "ChurnCtl"} {
				if plans[svc], err = ag.Plan(svc, PlanOptions{Algorithm: AlgGreedy}); err != nil {
					t.Fatal(err)
				}
			}
			exec := func(svc string, seed int64) *Report {
				t.Helper()
				rep, err := ag.ExecuteOpts(svc, plans[svc], ExecOptions{
					Link: netsim.Loopback(), Reliability: soakConfig(seed), Delta: true, Pipelined: pipelined,
				})
				if err != nil {
					t.Fatalf("%s exchange failed: %v", svc, err)
				}
				return rep
			}

			rng := rand.New(rand.NewSource(11))
			warm := int64(0)
			for round, frac := range []float64{0, 0.01, 0.10, 0.50, 0.01, 0} {
				if frac > 0 {
					churnAuction(doc, rng, frac, round)
					srcStore.Clear()
					if err := srcStore.LoadDocument(doc.Clone()); err != nil {
						t.Fatal(err)
					}
				}
				repD := exec("Churn", int64(round+1))
				exec("ChurnCtl", int64(round+100))
				if round > 0 {
					if !repD.Delta {
						t.Fatalf("round %d: warm repeat exchange did not run as a delta", round)
					}
					warm++
				}
				if v := met.Counter("endpoint.delta.incremental").Value(); v != warm {
					t.Fatalf("round %d (churn %.0f%%): %d incremental applies, want %d (full-path fallbacks: %d)",
						round, frac*100, v, warm, met.Counter("endpoint.delta.full").Value())
				}
				got := canonTree(assembleTarget(t, tgtD))
				want := canonTree(assembleTarget(t, tgtC))
				if !xmltree.Equal(want, got) {
					t.Fatalf("round %d (churn %.0f%%): incrementally applied target differs from full re-execute", round, frac*100)
				}
				if tgtD.Rows() != tgtC.Rows() {
					t.Fatalf("round %d: target holds %d rows, control %d", round, tgtD.Rows(), tgtC.Rows())
				}
			}
			if v := met.Counter("endpoint.delta.full").Value(); v != 0 {
				t.Errorf("endpoint.delta.full = %d, want 0", v)
			}
		})
	}
}
