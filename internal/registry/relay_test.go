package registry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/reliable"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// bodyRecorder is a client transport that keeps the request bodies of one
// SOAP action and passes every request on unchanged.
type bodyRecorder struct {
	base   http.RoundTripper
	action string

	mu     sync.Mutex
	bodies []string
}

func (r *bodyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get("SOAPAction") != `"`+r.action+`"` || req.Body == nil {
		return r.base.RoundTrip(req)
	}
	b, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.bodies = append(r.bodies, string(b))
	r.mu.Unlock()
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(b))
	out.ContentLength = int64(len(b))
	return r.base.RoundTrip(out)
}

// actionRouter sends the requests of one SOAP action through faulty and
// every other request through base.
type actionRouter struct {
	action       string
	faulty, base http.RoundTripper
}

func (r *actionRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get("SOAPAction") == `"`+r.action+`"` {
		return r.faulty.RoundTrip(req)
	}
	return r.base.RoundTrip(req)
}

// decodedSource asks the service's source for its shipment the way full
// exchanges did before the relay — no chunk size, so one unsequenced chunk
// per edge — and decodes it with the reference decoder.
func decodedSource(t *testing.T, ag *Agency, plan *Plan, opts ExecOptions) map[string]*core.Instance {
	t.Helper()
	src, _ := ag.parties("Auction")
	progXML, err := wire.EncodeProgram(plan.Program, plan.Assign)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := wire.ParseCodec(opts.Codec)
	if err != nil {
		t.Fatal(err)
	}
	cs := &soap.Client{URL: src.URL}
	advertise(cs, codec)
	resp, err := cs.Call("ExecuteSource", sourceRequest(progXML, opts))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range resp.Kids {
		if k.Name == "shipment" {
			inbound, err := wire.ReadShipment(strings.NewReader(xmltree.Marshal(k, xmltree.WriteOptions{EmitAllIDs: true})),
				src.Fragmentation.Schema, edgeFrags(plan.Program))
			if err != nil {
				t.Fatal(err)
			}
			return inbound
		}
	}
	t.Fatal("source returned no shipment")
	return nil
}

// TestRelayTargetRequestMatchesRenderedPath holds the relay to the path it
// replaced: under the xml codec, with a batch-executing source, the
// ExecuteTarget request body equals — apart from the session ID — the one
// the agency built by decoding the source shipment, re-chunking it with
// reliable.ChunkShipment and rendering the chunks.
func TestRelayTargetRequestMatchesRenderedPath(t *testing.T) {
	ag, plan, _, _, done := startAuctionExchange(t)
	defer done()
	const chunk = 8
	rec := &bodyRecorder{base: http.DefaultTransport, action: "ExecuteTarget"}
	opts := ExecOptions{Link: netsim.Loopback(), Reliability: &reliable.Config{ChunkSize: chunk}, Transport: rec}
	if _, err := ag.ExecuteOpts("Auction", plan, opts); err != nil {
		t.Fatal(err)
	}
	if len(rec.bodies) != 1 {
		t.Fatalf("recorded %d ExecuteTarget requests, want 1", len(rec.bodies))
	}

	src, _ := ag.parties("Auction")
	progXML, err := wire.EncodeProgram(plan.Program, plan.Assign)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.WriteString(`<soap:Envelope xmlns:soap="` + soap.EnvelopeNS + `"><soap:Body><ExecuteTarget session="S">`)
	if err := xmltree.Write(&want, progXML, xmltree.WriteOptions{EmitAllIDs: true}); err != nil {
		t.Fatal(err)
	}
	sw := wire.NewShipmentWriterCodec(&want, src.Fragmentation.Schema, wire.Codec{})
	chunks := reliable.ChunkShipment(decodedSource(t, ag, plan, opts), chunk)
	for _, c := range chunks {
		if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	want.WriteString(`</ExecuteTarget></soap:Body></soap:Envelope>`)

	got := regexp.MustCompile(`<ExecuteTarget session="[^"]*"`).ReplaceAllLiteralString(rec.bodies[0], `<ExecuteTarget session="S"`)
	if got != want.String() {
		i := 0
		for i < len(got) && i < want.Len() && got[i] == want.String()[i] {
			i++
		}
		t.Fatalf("relayed request (%d bytes) differs from the rendered one (%d bytes) at byte %d:\ngot  …%s\nwant …%s",
			len(got), want.Len(), i, excerpt(got, i), excerpt(want.String(), i))
	}
	if len(chunks) < 10 {
		t.Errorf("only %d chunks; the comparison should cover a many-chunk shipment", len(chunks))
	}
}

// excerpt returns up to 80 bytes of s around offset i.
func excerpt(s string, i int) string {
	return s[max(0, i-40):min(len(s), i+40)]
}

// TestRelayOutcomesEveryCodec checks that relaying changes no outcome: in
// every codec, with the pipelined executors on and off, the target
// reassembles to the same records as the in-test control (oracleTarget)
// leaves, and Report.PayloadBytes equals the tagged-XML size of the
// control's source shipment.
func TestRelayOutcomesEveryCodec(t *testing.T) {
	sch := xmark.Schema()
	for _, codec := range []string{"xml", "feed", "bin", "bin+flate"} {
		wc, err := wire.ParseCodec(codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, pipelined := range []bool{false, true} {
			ag, plan, tgt, _, done := startAuctionExchange(t)
			opts := ExecOptions{
				Link:        netsim.Loopback(),
				Reliability: &reliable.Config{ChunkSize: 8},
				Codec:       codec,
				Pipelined:   pipelined,
			}
			rep, err := ag.ExecuteOpts("Auction", plan, opts)
			if err != nil {
				t.Fatalf("codec=%s pipelined=%v: %v", codec, pipelined, err)
			}
			if rep.Codec != codec {
				t.Errorf("codec=%s pipelined=%v: report says codec %q", codec, pipelined, rep.Codec)
			}
			oracle, outbound := oracleTarget(t, plan, auctionDoc(), core.MostFragmented(sch), core.LeastFragmented(sch), wc)
			if !xmltree.Equal(assembleTarget(t, oracle), assembleTarget(t, tgt)) {
				t.Errorf("codec=%s pipelined=%v: relayed target differs from the in-test exchange's", codec, pipelined)
			}
			if wantPayload := wire.ShipmentBytes(outbound); rep.PayloadBytes != wantPayload {
				t.Errorf("codec=%s pipelined=%v: PayloadBytes = %d, the in-test source slice's shipment measures %d",
					codec, pipelined, rep.PayloadBytes, wantPayload)
			}
			done()
		}
	}
}

// TestRelayResumesOverRetainedChunks tears target deliveries with a
// FaultyLink (the source hop stays clean) and checks that the agency
// resumes from the target's checkpoint over the raw chunks it retained:
// deliveries resume, no row is loaded twice, and the target equals a
// fault-free run's.
func TestRelayResumesOverRetainedChunks(t *testing.T) {
	sch := xmark.Schema()
	resumes := 0
	for _, seed := range soakSeeds(t) {
		ag, plan, tgt, _, done := startAuctionExchange(t)
		oracle, _ := oracleTarget(t, plan, auctionDoc(), core.MostFragmented(sch), core.LeastFragmented(sch), wire.Codec{})
		want, wantRows := assembleTarget(t, oracle), oracle.Rows()
		fl := netsim.NewFaultyLink(netsim.Loopback(), netsim.Faults{Seed: seed, TruncateProb: 0.6, MaxTruncate: 48 << 10})
		rep, err := ag.ExecuteOpts("Auction", plan, ExecOptions{
			Link:        netsim.Loopback(),
			Transport:   &actionRouter{action: "ExecuteTarget", faulty: fl.RoundTripper(nil), base: http.DefaultTransport},
			Reliability: soakConfig(seed),
		})
		if err != nil {
			t.Fatalf("seed %d: %v (injected %+v)", seed, err, fl.Counts())
		}
		resumes += rep.Resumes
		if rows := tgt.Rows(); rows != wantRows {
			t.Errorf("seed %d: target holds %d rows, a fault-free exchange %d", seed, rows, wantRows)
		}
		if !xmltree.Equal(want, assembleTarget(t, tgt)) {
			t.Errorf("seed %d: target differs from a fault-free exchange", seed)
		}
		done()
	}
	if resumes == 0 {
		t.Error("no torn delivery resumed from a checkpoint across the seeds")
	}
}

// TestRelayRejectsHostileSourceResponses feeds the agency source responses
// a relay must not forward: truncated mid-chunk, unbalanced, with a seq
// gap, a duplicate or a reordering, or without the timing trailer; and,
// on delta-enabled exchanges, a delta nobody asked for, tombstones in a
// full shipment or ahead of a record chunk, a seq gap where the
// tombstones start, or a base echo that does not match. Each fails the
// exchange before any ExecuteTarget call, and the target store stays as
// it was. Untouched responses pass, so the tampering proxy itself is
// sound.
func TestRelayRejectsHostileSourceResponses(t *testing.T) {
	swapSeqs := strings.NewReplacer(`seq="1"`, `seq="2"`, `seq="2"`, `seq="1"`)
	cases := []struct {
		name   string
		mutate func(string) string
	}{
		{"untouched", func(b string) string { return b }},
		{"truncated mid-chunk", func(b string) string { return b[:strings.Index(b, `seq="2"`)+40] }},
		{"unbalanced tags", func(b string) string {
			i := strings.Index(b, `seq="1"`)
			i += strings.Index(b[i:], "</") + len("</")
			return b[:i] + "x" + b[i:]
		}},
		{"seq gap", func(b string) string { return strings.Replace(b, `seq="2"`, `seq="3"`, 1) }},
		{"duplicate seq", func(b string) string { return strings.Replace(b, `seq="2"`, `seq="1"`, 1) }},
		{"reordered seqs", swapSeqs.Replace},
		{"no timing trailer", func(b string) string {
			return regexp.MustCompile(`<timing [^>]*/>`).ReplaceAllLiteralString(b, "")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tamper := func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Header.Get("SOAPAction") != `"ExecuteSource"` {
						h.ServeHTTP(w, r)
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
					w.WriteHeader(rec.Code)
					io.WriteString(w, c.mutate(rec.Body.String()))
				})
			}
			var targetCalls atomic.Int64
			watch := func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Header.Get("SOAPAction") == `"ExecuteTarget"` {
						targetCalls.Add(1)
					}
					h.ServeHTTP(w, r)
				})
			}
			ag, plan, tgt, _, done := startAuctionExchangeWith(t, tamper, watch)
			defer done()
			_, err := ag.ExecuteOpts("Auction", plan, ExecOptions{
				Link: netsim.Loopback(),
				Reliability: &reliable.Config{ChunkSize: 8, Policy: reliable.Policy{
					MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
				}},
			})
			if c.name == "untouched" {
				if err != nil || tgt.Rows() == 0 {
					t.Fatalf("untouched response: err %v, %d target rows", err, tgt.Rows())
				}
				return
			}
			if err == nil {
				t.Fatal("exchange accepted the tampered source response")
			}
			if n := targetCalls.Load(); n != 0 {
				t.Errorf("target saw %d ExecuteTarget calls", n)
			}
			if n := tgt.Rows(); n != 0 {
				t.Errorf("target store holds %d rows", n)
			}
		})
	}
	t.Run("delta", rejectsHostileDeltaResponses)
}

// tamperSource wraps a source handler so that, while armed, every
// ExecuteSource response passes through mutate.
func tamperSource(armed *atomic.Bool, mutate func(string) string) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !armed.Load() || r.Header.Get("SOAPAction") != `"ExecuteSource"` {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
			w.WriteHeader(rec.Code)
			io.WriteString(w, mutate(rec.Body.String()))
		})
	}
}

// countTargetCalls wraps a target handler to count ExecuteTarget calls.
func countTargetCalls(n *atomic.Int64) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("SOAPAction") == `"ExecuteTarget"` {
				n.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
}

// swapTombstoneAhead moves a delta's first tombstone chunk ahead of its
// last instance chunk and swaps their seqs, so the seqs stay contiguous
// and only the order is wrong.
func swapTombstoneAhead(b string) string {
	i := strings.Index(b, "<tombstones ")
	j := strings.LastIndex(b[:i], "<instance ")
	k := i + strings.Index(b[i:], "</tombstones>") + len("</tombstones>")
	seq := regexp.MustCompile(`seq="(\d+)"`)
	inst, tomb := b[j:i], b[i:k]
	is, ts := seq.FindString(inst), seq.FindString(tomb)
	return b[:j] + strings.Replace(tomb, ts, is, 1) + strings.Replace(inst, is, ts, 1) + b[k:]
}

// rejectsHostileDeltaResponses is TestRelayRejectsHostileSourceResponses'
// delta arm. A "cold" case tampers with the first, full exchange of a
// delta-enabled stream; a "warm" case lets that exchange through, churns
// the source and tampers with the delta that follows, which must leave
// the target at the first snapshot.
func rejectsHostileDeltaResponses(t *testing.T) {
	cases := []struct {
		name   string
		warm   bool
		mutate func(string) string
	}{
		{"untouched cold", false, func(b string) string { return b }},
		{"untouched warm", true, func(b string) string { return b }},
		{"delta without a base", false, func(b string) string {
			return strings.Replace(b, "<shipment>", `<shipment delta="1">`, 1)
		}},
		{"tombstones in a full shipment", false, func(b string) string {
			n := strings.Count(b, "<instance ")
			return strings.Replace(b, "</shipment>", `<tombstones edge="x" seq="`+strconv.Itoa(n)+`"><d ID="1"/></tombstones></shipment>`, 1)
		}},
		{"seq gap at the tombstones", true, func(b string) string {
			i := strings.Index(b, "<tombstones ")
			return b[:i] + regexp.MustCompile(`seq="\d+"`).ReplaceAllStringFunc(b[i:], func(m string) string {
				n, _ := strconv.Atoi(m[len(`seq="`) : len(m)-1])
				return `seq="` + strconv.Itoa(n+1) + `"`
			})
		}},
		{"tombstones ahead of a record chunk", true, swapTombstoneAhead},
		{"base echo mismatch", true, func(b string) string {
			return regexp.MustCompile(`(<timing [^>]*) base="[^"]*"`).ReplaceAllString(b, `$1 base="bogus"`)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var armed atomic.Bool
			var targetCalls atomic.Int64
			r := startChurnRig(t, tamperSource(&armed, c.mutate), countTargetCalls(&targetCalls))
			defer r.done()
			opts := ExecOptions{
				Link:  netsim.Loopback(),
				Delta: true,
				Reliability: &reliable.Config{ChunkSize: 8, Policy: reliable.Policy{
					MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond,
				}},
			}
			var before *xmltree.Node
			if c.warm {
				if _, err := r.ag.ExecuteOpts("Auction", r.plan, opts); err != nil {
					t.Fatal(err)
				}
				before = canonTree(assembleTarget(t, r.tgt))
				r.churn(t, 0.05, 1)
			}
			calls := targetCalls.Load()
			armed.Store(true)
			rep, err := r.ag.ExecuteOpts("Auction", r.plan, opts)
			if strings.HasPrefix(c.name, "untouched") {
				if err != nil || rep.Delta != c.warm || r.tgt.Rows() == 0 {
					t.Fatalf("untouched response: err %v, delta %v, %d target rows", err, rep != nil && rep.Delta, r.tgt.Rows())
				}
				return
			}
			if err == nil {
				t.Fatal("exchange accepted the tampered source response")
			}
			t.Logf("rejected: %v", err)
			if n := targetCalls.Load() - calls; n != 0 {
				t.Errorf("target saw %d ExecuteTarget calls", n)
			}
			if !c.warm {
				if n := r.tgt.Rows(); n != 0 {
					t.Errorf("target store holds %d rows", n)
				}
			} else if !xmltree.Equal(before, canonTree(assembleTarget(t, r.tgt))) {
				t.Error("target store changed")
			}
		})
	}
}
