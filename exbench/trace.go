package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xdx/internal/core"
	"xdx/internal/endpoint"
)

// A span is one timed call across a layer boundary. Spans of one benchmark
// operation share Op; they nest by name: exchange > agency > hop.<action> >
// endpoint.<action> > relstore.scan|load|index. The parent of a span is the
// enclosing span of the next level up with the same Op.
type span struct {
	Op    int64   `json:"op"`
	Name  string  `json:"name"`
	Role  string  `json:"role,omitempty"` // "source" or "target" for hop and endpoint spans
	Start float64 `json:"start_ms"`       // since the recorder started
	End   float64 `json:"end_ms"`
	Recs  int     `json:"recs,omitempty"` // records scanned or loaded (relstore spans)
}

func (s span) ms() float64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory. Each client has one
// operation in flight at a time and every tenant belongs to exactly one
// client, so a span timed at a tenant's endpoint or store belongs to the
// operation its client has in flight.
type recorder struct {
	on  atomic.Bool
	t0  time.Time
	cur []atomic.Int64 // per client: the operation in flight, 0 when idle

	mu    sync.Mutex
	spans []span
}

func newRecorder(clients int) *recorder {
	return &recorder{t0: time.Now(), cur: make([]atomic.Int64, clients)}
}

func (r *recorder) since(t time.Time) float64 {
	return float64(t.Sub(r.t0)) / float64(time.Millisecond)
}

// add records a span that started at start and ends now, for the operation
// client has in flight. It does nothing while tracing is off or the client
// is idle.
func (r *recorder) add(client int, name, role string, start time.Time, recs int) {
	if r == nil || !r.on.Load() {
		return
	}
	op := r.cur[client].Load()
	if op == 0 {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: op, Name: name, Role: role, Start: r.since(start), End: r.since(end), Recs: recs})
	r.mu.Unlock()
}

// writeFile writes the spans to path as JSON lines.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// soapAction reads the action a SOAP request names.
func soapAction(h http.Header) string { return strings.Trim(h.Get("SOAPAction"), `"`) }

// clientHeader names the benchmark client that sent a request to the
// agency; only traced runs set it, so the agency's handler span can be
// given to that client's operation.
const clientHeader = "X-Exbench-Client"

// tracedHandler times an endpoint's http.Handler: one endpoint.<action>
// span per request.
func tracedHandler(r *recorder, client int, role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(client, "endpoint."+soapAction(req.Header), role, start, 0)
	})
}

// tracedAgency times the agency's http.Handler: one agency span per
// request, given to the client named by clientHeader.
func tracedAgency(r *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		if c, err := strconv.Atoi(req.Header.Get(clientHeader)); err == nil && c >= 0 && c < len(r.cur) {
			r.add(c, "agency", "", start, 0)
		}
	})
}

// tracedBackend times the endpoint.Backend calls into relstore. Embedding
// the relational backend keeps Layout, Provider and Clear (the Clearer the
// endpoint looks for) unchanged.
type tracedBackend struct {
	*endpoint.RelBackend
	rec    *recorder
	client int
}

func (b *tracedBackend) Scan(f *core.Fragment) (*core.Instance, error) {
	start := time.Now()
	in, err := b.RelBackend.Scan(f)
	n := 0
	if in != nil {
		n = len(in.Records)
	}
	b.rec.add(b.client, "relstore.scan", "", start, n)
	return in, err
}

func (b *tracedBackend) Write(in *core.Instance) error {
	start := time.Now()
	err := b.RelBackend.Write(in)
	b.rec.add(b.client, "relstore.load", "", start, in.Rows())
	return err
}

func (b *tracedBackend) BuildIndexes() error {
	start := time.Now()
	err := b.RelBackend.BuildIndexes()
	b.rec.add(b.client, "relstore.index", "", start, 0)
	return err
}

// peer is what the hop transport knows about one endpoint address.
type peer struct {
	role   string // "source" or "target"
	client int    // the client that owns the endpoint's tenant
}

// hopTransport is the agency's outbound transport (reliable.Config.Transport).
// It always counts the bytes of the two data-carrying hops: the body of the
// source's ExecuteSource response and the body of the agency's
// ExecuteTarget request. In a traced run it also records one hop.<action>
// span per call, from the request until the response body is closed.
type hopTransport struct {
	base  http.RoundTripper
	peers map[string]peer // by host:port; filled during set-up, read-only after
	rec   *recorder

	srcBytes, tgtBytes atomic.Int64
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	action := soapAction(req.Header)
	p := t.peers[req.URL.Host]
	if p.role == "target" && action == "ExecuteTarget" && req.Body != nil {
		r2 := req.Clone(req.Context())
		r2.Body = &countingBody{ReadCloser: req.Body, n: &t.tgtBytes}
		req = r2
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.add(p.client, "hop."+action, p.role, start, 0)
		return resp, err
	}
	cb := &countingBody{ReadCloser: resp.Body}
	if p.role == "source" && action == "ExecuteSource" {
		cb.n = &t.srcBytes
	}
	if t.rec != nil {
		cb.done = func() { t.rec.add(p.client, "hop."+action, p.role, start, 0) }
	}
	if cb.n != nil || cb.done != nil {
		resp.Body = cb
	}
	return resp, nil
}

// countingBody adds the bytes read through it to n (when set) and calls
// done once, on the first Close.
type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	done func()
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	if b.n != nil {
		b.n.Add(int64(k))
	}
	return k, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.once.Do(b.done)
	}
	return err
}
