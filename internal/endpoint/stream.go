package endpoint

// Streaming execution handlers. Both execute operations dispatch through
// the SOAP server's streaming path, so the endpoint never materializes an
// envelope:
//
//   - ExecuteSource consumes the (small) request tree and serializes the
//     outbound shipment directly onto the HTTP response as the slice
//     executes — with the pipelined engine records hit the wire while
//     upstream operators still produce — followed by a <timing> trailer.
//   - ExecuteTarget scans its (large) request as SAX events: the program
//     subtree is materialized, the shipment subtree flows straight into
//     the session's streaming shipment decoder, and the envelope tree is
//     never built. Every delivery names a session (see session.go).

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"xdx/internal/core"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// attrTrue reports whether a flag attribute is set.
func attrTrue(v string) bool { return v == "1" || v == "true" }

// findAttr returns the named attribute from a reused scan-attrs slice.
func findAttr(attrs []xmltree.Attr, name string) string {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// executeSourceStream is the stream dispatch for ExecuteSource: the
// request tree is built, then the response shipment streams.
func (e *Endpoint) executeSourceStream(env soap.Header, attrs []xmltree.Attr) (xmltree.AttrHandler, soap.RespondFunc, error) {
	tb := &xmltree.TreeBuilder{}
	return tb, func(w io.Writer) error { return e.respondSourceStream(env, tb.Root(), w) }, nil
}

// stampCodec records the negotiated codec on the response envelope, when
// the transport exposes one (the streaming SOAP server does; a bare
// io.Writer in tests may not).
func stampCodec(w io.Writer, c wire.Codec) {
	if aw, ok := w.(soap.EnvelopeAttrWriter); ok {
		aw.SetEnvelopeAttr("codec", c.String())
	}
}

// respondSourceStream executes the source slice and streams the shipment
// onto w as it is produced. Since serialization overlaps execution, the
// query time and the shipment's tagged-XML payload size cannot ride on the
// response root's attributes; they follow the shipment as a trailing
// <timing> element. A chunk="N" attribute asks for a sequenced shipment of
// chunks of at most N records — the resumable units of the agency's target
// session, which the agency then relays verbatim. A delta-enabled request
// (see sourceDeltaFor) is reconciled here, so the shipment carries only
// what changed since the base the agency named.
func (e *Endpoint) respondSourceStream(env soap.Header, req *xmltree.Node, w io.Writer) error {
	g, a, err := decodeProgramChild(req, e.backend.Layout())
	if err != nil {
		return err
	}
	codec, negotiated, err := e.pickCodec(env, req)
	if err != nil {
		return err
	}
	if negotiated {
		stampCodec(w, codec)
	}
	scan, err := e.sourceScan(req)
	if err != nil {
		return err
	}
	chunk := 0
	if v, ok := req.Attr("chunk"); ok {
		if chunk, err = strconv.Atoi(v); err != nil || chunk < 1 {
			return &soap.Fault{Code: "soap:Client", String: fmt.Sprintf("bad chunk size %q", v)}
		}
	}
	sd, err := e.sourceDeltaFor(req, chunk)
	if err != nil {
		return err
	}
	sch := e.backend.Layout().Schema
	start := time.Now()
	if _, err := io.WriteString(w, "<ExecuteSourceResponse>"); err != nil {
		return err
	}
	sw := wire.NewShipmentWriterCodec(w, sch, codec)
	sw.SetWorkers(e.codecWorkers)
	sw.SetObs(e.met)
	sw.SetChunkSize(chunk)
	if v, ok := req.Attr("pipelined"); ok && attrTrue(v) {
		// Producers emit straight onto the wire as they finish batches.
		emit := sw.Emit
		if sd != nil {
			sw.SetDelta(sd.delta)
			emit = sd.filter(sw.Emit)
		}
		_, _, err = core.ExecuteSlicePipelined(g, sch, a, core.LocSource, core.SliceIO{
			Scan: scan,
			Emit: emit,
		})
	} else {
		var outbound map[string]*core.Instance
		outbound, _, err = core.ExecuteSlice(g, sch, a, core.LocSource, core.SliceIO{Scan: scan})
		if err == nil && sd != nil {
			outbound = sd.reconcile(sw, outbound)
		}
		if err == nil {
			err = wire.EmitShipment(sw, outbound)
		}
	}
	if err == nil && sd != nil {
		err = sd.emitTombstones(sw)
	}
	if err != nil {
		sw.Close()
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	e.met.Counter("endpoint.source.executes").Inc()
	e.met.Histogram("endpoint.source.millis").Observe(float64(elapsed) / float64(time.Millisecond))
	if _, err := fmt.Fprintf(w, `<timing queryMillis="%s" payloadBytes="%d"`, formatMillis(elapsed), sw.PayloadBytes()); err != nil {
		return err
	}
	if sd != nil {
		if err := sd.commit(e, w); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "/></ExecuteSourceResponse>")
	return err
}

// sourceDelta is the source half of a delta-enabled ExecuteSource. The
// request names the exchange stream (deltaStream), the fragmentation
// epoch, the session (the token the shipped snapshot goes by) and, when
// the target holds one, the base token it last acked. Each record of the
// fresh slice output is hashed once; when this endpoint holds the base
// generation the shipment is a delta against it, otherwise it ships in
// full — always correct, and what a restarted source or agency, or an
// epoch change, gets.
type sourceDelta struct {
	stream, epoch, session, base string

	df    *reliable.Differ
	delta bool
	tombs int
}

// sourceDeltaFor reads a request's delta attributes, nil when it has none.
// A delta needs a sequenced shipment: its tombstone chunks are
// checkpointed by seq like any chunk.
func (e *Endpoint) sourceDeltaFor(req *xmltree.Node, chunk int) (*sourceDelta, error) {
	stream, _ := req.Attr("deltaStream")
	if stream == "" {
		return nil, nil
	}
	sd := &sourceDelta{stream: stream}
	sd.epoch, _ = req.Attr("epoch")
	sd.session, _ = req.Attr("session")
	sd.base, _ = req.Attr("base")
	if sd.session == "" || chunk == 0 {
		return nil, &soap.Fault{Code: "soap:Client", String: "delta stream " + stream + " needs a session and a chunk size"}
	}
	baseHashes, warm := e.recon.Base(stream, sd.epoch, sd.base)
	sd.df = reliable.NewDiffer(baseHashes)
	sd.delta = warm
	if sd.base != "" && !warm {
		e.met.Counter("endpoint.source.delta.cold").Inc()
	}
	return sd, nil
}

// filter wraps a pipelined slice's emit sink: each batch is hashed and
// only its added or changed records pass. A batch left empty is dropped
// unless it is its edge's first — every edge of the fresh output must
// still announce itself, or the target would drop it.
func (sd *sourceDelta) filter(emit func(string, *core.Fragment, []*xmltree.Node) error) func(string, *core.Fragment, []*xmltree.Node) error {
	return func(key string, frag *core.Fragment, recs []*xmltree.Node) error {
		ship, first := sd.df.Filter(key, recs)
		if len(ship) == 0 && !first && sd.delta {
			return nil
		}
		return emit(key, frag, ship)
	}
}

// reconcile hashes a materialized slice output and returns what to ship:
// the delta when warm, the output itself otherwise. Records without IDs
// cannot be reconciled, so such an output ships in full.
func (sd *sourceDelta) reconcile(sw *wire.ShipmentWriter, out map[string]*core.Instance) map[string]*core.Instance {
	ship := make(map[string]*core.Instance, len(out))
	for key, in := range out {
		recs, _ := sd.df.Filter(key, in.Records)
		ship[key] = &core.Instance{Frag: in.Frag, Records: recs}
	}
	if _, keyed := sd.df.Fresh(); !keyed {
		sd.delta = false
	}
	sw.SetDelta(sd.delta)
	if !sd.delta {
		return out
	}
	return ship
}

// emitTombstones closes a delta with one sequenced tombstone chunk per
// edge that lost records, after every record chunk.
func (sd *sourceDelta) emitTombstones(sw *wire.ShipmentWriter) error {
	if !sd.delta {
		return nil
	}
	tombs, n := sd.df.Tombstones()
	sd.tombs = n
	keys := make([]string, 0, len(tombs))
	for key := range tombs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	seq := sw.NextSeq()
	for _, key := range keys {
		if err := sw.EmitTombstones(key, tombs[key], seq); err != nil {
			return err
		}
		seq++
	}
	return nil
}

// commit records the shipped snapshot's hashes as a generation the next
// request may name as its base, and writes the delta attributes of the
// timing trailer: whether the shipment is a delta, the base it patches
// (echoed), its record and tombstone counts, and the token the snapshot
// is held under — absent when records without IDs left nothing to hold.
func (sd *sourceDelta) commit(e *Endpoint, w io.Writer) error {
	fresh, keyed := sd.df.Fresh()
	if !keyed {
		fresh = nil
	}
	e.recon.Record(sd.stream, sd.epoch, sd.base, sd.session, fresh)
	attrs := ` delta="0"`
	if sd.delta {
		attrs = fmt.Sprintf(` delta="1" base="%s" deltaRecords="%d" tombstones="%d"`, xmlAttr(sd.base), sd.df.Records(), sd.tombs)
	}
	if keyed {
		attrs += ` token="` + xmlAttr(sd.session) + `"`
	}
	_, err := io.WriteString(w, attrs)
	return err
}

// xmlAttr escapes a string for a double-quoted XML attribute value.
var xmlAttr = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace

// executeTargetStream is the stream dispatch for ExecuteTarget: one SAX
// pass over the request, program tree materialized, shipment decoded
// incrementally.
func (e *Endpoint) executeTargetStream(env soap.Header, attrs []xmltree.Attr) (xmltree.AttrHandler, soap.RespondFunc, error) {
	h := &targetScan{e: e}
	return h, h.respondSession, nil
}

// targetScan routes an ExecuteTarget request's subtrees: <program> into a
// tree builder (programs are small), <shipment> into the streaming
// shipment decoder, which restores interior PARENT links as elements
// arrive.
type targetScan struct {
	e *Endpoint

	depth int
	skip  int

	sub      xmltree.AttrHandler
	subDepth int
	subProg  bool

	pipelined   bool
	stream      string
	epoch       string
	delta       bool
	ts          *targetSession
	tb          *xmltree.TreeBuilder
	dec         *wire.ShipmentDecoder
	g           *core.Graph
	a           core.Assignment
	sawShipment bool
}

// StartElement implements xmltree.AttrHandler.
func (t *targetScan) StartElement(name string, attrs []xmltree.Attr) error {
	if t.skip > 0 {
		t.skip++
		return nil
	}
	if t.sub != nil {
		t.subDepth++
		return t.sub.StartElement(name, attrs)
	}
	t.depth++
	switch t.depth {
	case 1:
		id := findAttr(attrs, "session")
		if id == "" {
			return &soap.Fault{Code: "soap:Client", String: "ExecuteTarget requires a session"}
		}
		t.ts = t.e.targetSessionFor(id)
		t.ts.beginReceive()
		t.pipelined = attrTrue(findAttr(attrs, "pipelined"))
		t.stream = findAttr(attrs, "stream")
		t.epoch = findAttr(attrs, "epoch")
		t.delta = attrTrue(findAttr(attrs, "delta"))
		if t.delta {
			// Fail the delivery before any chunk flows: without a warm
			// base the delta cannot be applied, and the agency's fallback
			// is a full reship on a fresh session.
			if !t.e.deltaWarm(t.stream, t.epoch) {
				t.e.met.Counter("endpoint.delta.cold").Inc()
				return soap.ColdDeltaFault("stream " + t.stream + " epoch " + t.epoch)
			}
		}
	case 2:
		switch name {
		case "program":
			t.tb = &xmltree.TreeBuilder{}
			t.sub, t.subDepth, t.subProg = t.tb, 1, true
			return t.tb.StartElement(name, attrs)
		case "shipment":
			if t.dec == nil {
				return &soap.Fault{Code: "soap:Client", String: "shipment before program"}
			}
			t.sawShipment = true
			t.sub, t.subDepth, t.subProg = t.dec, 1, false
			return t.dec.StartElement(name, attrs)
		default:
			t.depth--
			t.skip = 1
		}
	}
	return nil
}

// Close implements io.Closer: the SOAP server has stopped reading the
// request, so the session's probes no longer wait for this attempt.
func (t *targetScan) Close() error {
	if t.ts != nil {
		t.ts.endReceive()
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (t *targetScan) Text(data string) error {
	if t.skip > 0 || t.sub == nil {
		return nil
	}
	return t.sub.Text(data)
}

// TextBytes implements xmltree.TextBytesHandler: shipment character data
// (dominant in an ExecuteTarget request — the base64 bodies of binary
// chunks flow through here) reaches the decoder without a string per
// event; the program tree builder takes the plain path.
func (t *targetScan) TextBytes(data []byte) error {
	if t.skip > 0 || t.sub == nil {
		return nil
	}
	if tb, ok := t.sub.(xmltree.TextBytesHandler); ok {
		return tb.TextBytes(data)
	}
	return t.sub.Text(string(data))
}

// EndElement implements xmltree.AttrHandler.
func (t *targetScan) EndElement(name string) error {
	switch {
	case t.skip > 0:
		t.skip--
	case t.sub != nil:
		t.subDepth--
		sub := t.sub
		if t.subDepth == 0 {
			t.sub = nil
			t.depth--
		}
		if err := sub.EndElement(name); err != nil {
			return err
		}
		if t.sub == nil && t.subProg {
			return t.programDone()
		}
	default:
		t.depth--
	}
	return nil
}

// programDone decodes the completed program subtree and prepares the
// shipment decoder with the program's fragment dictionary.
func (t *targetScan) programDone() error {
	g, a, err := wire.DecodeProgram(t.tb.Root(), t.e.backend.Layout().Schema)
	if err != nil {
		return err
	}
	t.g, t.a = g, a
	frags := map[string]*core.Fragment{}
	for _, op := range g.Ops {
		frags[op.Out.Name] = op.Out
		for _, p := range op.Parts {
			frags[p.Name] = p
		}
	}
	for _, ed := range g.Edges {
		frags[ed.Frag.Name] = ed.Frag
	}
	lookup := func(name string) *core.Fragment { return frags[name] }
	// Decode into the session's accumulating map, with the ledger guarding
	// chunk admission and record dedup.
	t.dec = t.ts.decoder(t.e.backend.Layout().Schema, lookup)
	t.dec.Workers = t.e.codecWorkers
	t.dec.Met = t.e.met
	return nil
}

// runTarget executes the target slice over decoded inbound instances,
// loading each Write's instance into the backend as it completes, and
// reports the timing split the agency's cost model is validated against.
func (e *Endpoint) runTarget(g *core.Graph, a core.Assignment, inbound map[string]*core.Instance, pipelined bool) (*xmltree.Node, error) {
	var writeTime time.Duration
	start := time.Now()
	_, _, err := sliceExec(pipelined)(g, e.backend.Layout().Schema, a, core.LocTarget, core.SliceIO{
		Inbound: inbound,
		Write: func(in *core.Instance) error {
			ws := time.Now()
			err := e.backend.Write(in)
			writeTime += time.Since(ws)
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	return e.finishTarget(start, writeTime)
}

// sliceExec returns the pipelined or the batch slice executor.
func sliceExec(pipelined bool) func(*core.Graph, *schema.Schema, core.Assignment, core.Location, core.SliceIO) (map[string]*core.Instance, []core.OpTrace, error) {
	if pipelined {
		return core.ExecuteSlicePipelined
	}
	return core.ExecuteSlice
}

// finishTarget closes a target execution that started at start and spent
// writeTime loading the backend: it builds the indexes (Table 4's separate
// step) and reports the split — everything else since start counts as
// execution.
func (e *Endpoint) finishTarget(start time.Time, writeTime time.Duration) (*xmltree.Node, error) {
	execTime := time.Since(start) - writeTime
	is := time.Now()
	if err := e.backend.BuildIndexes(); err != nil {
		return nil, err
	}
	indexTime := time.Since(is)
	e.met.Counter("endpoint.target.executes").Inc()
	e.met.Histogram("endpoint.target.millis").ObserveSince(start)
	if e.log.Enabled(obs.LevelDebug) {
		e.log.Log(obs.LevelDebug, "target slice executed",
			"endpoint", e.Name, "execMillis", formatMillis(execTime),
			"writeMillis", formatMillis(writeTime), "indexMillis", formatMillis(indexTime))
	}
	resp := &xmltree.Node{Name: "ExecuteTargetResponse"}
	resp.SetAttr("execMillis", formatMillis(execTime))
	resp.SetAttr("writeMillis", formatMillis(writeTime))
	resp.SetAttr("indexMillis", formatMillis(indexTime))
	return resp, nil
}
