package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"xdx/internal/xmltree"
)

// exchangeOnce clears the target, runs one exchange and returns the
// response's shipment byte count and the bytes the hop transport saw.
func exchangeOnce(t *testing.T, d *deployment) (ship string, src, tgt int64) {
	t.Helper()
	tn := d.tenants[0]
	tn.tgt.Clear()
	src0, tgt0 := d.hops.srcBytes.Load(), d.hops.tgtBytes.Load()
	resp, err := d.exchange(0, tn)
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.tgt.Rows(); got != tn.expectRows {
		t.Fatalf("target holds %d rows, want %d", got, tn.expectRows)
	}
	ship, _ = resp.Attr("wireBytes")
	return ship, d.hops.srcBytes.Load() - src0, d.hops.tgtBytes.Load() - tgt0
}

// An exchange driven through the timing wrappers (handlers, transport,
// backends) leaves the same target contents and ships the same bytes as
// one driven without them.
func TestTracingWrappersAreTransparent(t *testing.T) {
	wl, err := workloadByName("initial_load")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := newDeployment(wl, 7, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	rec := newRecorder(wl.clients)
	traced, err := newDeployment(wl, 7, rec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer traced.close()

	shipA, srcA, tgtA := exchangeOnce(t, plain)
	rec.on.Store(true)
	rec.cur[0].Store(1)
	shipB, srcB, tgtB := exchangeOnce(t, traced)
	rec.on.Store(false)

	if shipA != shipB {
		t.Errorf("shipment bytes: %s without wrappers, %s with", shipA, shipB)
	}
	// The hop counts also hold a timing attribute and a session ID, whose
	// lengths may differ by a few characters between two exchanges.
	for _, h := range []struct {
		name string
		a, b int64
	}{{"source hop", srcA, srcB}, {"target hop", tgtA, tgtB}} {
		if d := h.a - h.b; h.a == 0 || d < -16 || d > 16 {
			t.Errorf("%s bytes: %d without wrappers, %d with", h.name, h.a, h.b)
		}
	}
	a, err := reassemble(plain.tenants[0].tgt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reassemble(traced.tenants[0].tgt)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(a) != canonical(b) {
		t.Error("target contents differ with the wrappers in place")
	}

	seen := map[string]bool{}
	for _, s := range rec.spans {
		seen[s.Name] = true
	}
	for _, name := range []string{"agency", "hop.ExecuteSource", "hop.ExecuteTarget",
		"endpoint.ExecuteSource", "endpoint.ExecuteTarget", "relstore.scan", "relstore.load", "relstore.index"} {
		if !seen[name] {
			t.Errorf("no %s span recorded; got %v", name, seen)
		}
	}
}

// The hop transport hands both bodies through unchanged and counts them.
func TestHopTransportPassesBytesThrough(t *testing.T) {
	reqBody := bytes.Repeat([]byte("<chunk>payload</chunk>"), 5000)
	respBody := bytes.Repeat([]byte("<record id=\"1\">text</record>"), 7000)
	var got []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.Write(respBody)
	}))
	defer srv.Close()
	host, err := hostOf(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []string{"source", "target"} {
		ht := &hopTransport{base: http.DefaultTransport, peers: map[string]peer{host: {role: role}}, rec: newRecorder(1)}
		ht.rec.on.Store(true)
		ht.rec.cur[0].Store(1)
		action := map[string]string{"source": "ExecuteSource", "target": "ExecuteTarget"}[role]
		req, err := http.NewRequest(http.MethodPost, srv.URL, bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("SOAPAction", `"`+action+`"`)
		resp, err := (&http.Client{Transport: ht}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, reqBody) || !bytes.Equal(body, respBody) {
			t.Fatalf("%s: bodies changed in transit", role)
		}
		want := map[string][2]int64{"source": {int64(len(respBody)), 0}, "target": {0, int64(len(reqBody))}}[role]
		if s, g := ht.srcBytes.Load(), ht.tgtBytes.Load(); s != want[0] || g != want[1] {
			t.Errorf("%s: counted source %d target %d, want %d %d", role, s, g, want[0], want[1])
		}
		if len(ht.rec.spans) != 1 || ht.rec.spans[0].Name != "hop."+action {
			t.Errorf("%s: spans %+v, want one hop.%s", role, ht.rec.spans, action)
		}
	}
}

// The end-of-run output check notices a target that does not hold the
// source's current document, and passes once a delta exchange caught up.
func TestSameContentsDetectsStaleTarget(t *testing.T) {
	wl, err := workloadByName("delta_sync")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDeployment(wl, 3, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	tn := d.tenants[0]
	churn(tn.doc, rand.New(rand.NewSource(1)), churnFraction, 1)
	if err := tn.load([]*xmltree.Node{tn.doc}); err != nil {
		t.Fatal(err)
	}
	if ok, err := sameContents(tn.src, tn.tgt); err != nil || ok {
		t.Fatalf("target still holds the pre-churn document, yet sameContents = %v, %v", ok, err)
	}
	resp, err := d.exchange(0, tn)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := resp.Attr("delta"); v != "1" {
		t.Errorf("repeat exchange ran with delta=%q, want 1", v)
	}
	if ok, err := sameContents(tn.src, tn.tgt); err != nil || !ok {
		t.Fatalf("after the delta exchange sameContents = %v, %v, want true", ok, err)
	}
}

// The percentile helper refuses a tail with fewer than minTail samples
// beyond it and otherwise returns the nearest-rank value.
func TestPercentileTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so the helper must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.95, 0, false}, // 5 beyond
		{199, 0.95, 0, false}, // 9 beyond
		{200, 0.95, 190, true},
		{220, 0.95, 209, true},
		{19, 0.5, 0, false}, // 9 beyond
		{21, 0.5, 11, true},
	} {
		got, err := percentile(samples(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, q=%g): err = %v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
}

// The tenant-to-client partition gives every tenant to exactly one client.
func TestPartitionNeverSharesATenant(t *testing.T) {
	for clients := 1; clients <= 4; clients++ {
		for tenants := clients; tenants <= 64; tenants++ {
			owner := map[int]int{}
			for c, ts := range partition(tenants, clients) {
				for _, i := range ts {
					if prev, dup := owner[i]; dup {
						t.Fatalf("tenants=%d clients=%d: tenant %d given to clients %d and %d", tenants, clients, i, prev, c)
					}
					owner[i] = c
				}
			}
			if len(owner) != tenants {
				t.Fatalf("tenants=%d clients=%d: %d tenants assigned", tenants, clients, len(owner))
			}
		}
	}
}

// The calibration kernel allocates nothing, so its time cannot depend on
// the heap the program under test holds.
func TestCalibrationKernelDoesNotAllocate(t *testing.T) {
	k := newKernelState()
	if n := testing.AllocsPerRun(20, k.run); n != 0 {
		t.Fatalf("kernel allocates %v times per pass", n)
	}
}

// Scaling multiplies times, divides rates and leaves counts alone; CPU
// time takes the kernel factor only.
func TestScaledConvertsTimingsOnly(t *testing.T) {
	raw := metrics{}
	raw.set("exchange_p50_ms", "ms", 10)
	raw.set("cpu_ms_per_exchange", "ms", 10)
	raw.set("setup_s", "s", 2)
	raw.set("exchanges_per_s", "1/s", 100)
	raw.set("wire_bytes_per_exchange", "B", 1000)
	got := scaled(raw, scales{cpu: 0.8, wall: 0.5, setup: 0.25})
	for name, want := range map[string]float64{
		"exchange_p50_ms": 5, "cpu_ms_per_exchange": 8, "setup_s": 0.5, "exchanges_per_s": 200, "wire_bytes_per_exchange": 1000,
	} {
		if got[name].Value != want || got[name].Unit != raw[name].Unit {
			t.Errorf("%s = %+v, want %g %s", name, got[name], want, raw[name].Unit)
		}
	}
}
