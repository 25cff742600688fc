package registry

// Streamed exchange driving. The tree path in ExecuteOpts materializes the
// source's whole response envelope, re-encodes the shipment into the
// target request, and buffers that request too — three copies of the
// exchange's dominant payload. The streamed path keeps exactly one: the
// source response is decoded incrementally into instances as it arrives
// (SAX events straight into the shipment decoder), and the target request
// flows through an io.Pipe with the shipment serialized directly from
// those instances, metered for the communication-cost report as it leaves.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"xdx/internal/bufpool"
	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// scanAttr returns the named attribute from a reused scan-attrs slice.
func scanAttr(attrs []xmltree.Attr, name string) string {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// sourceRespScan consumes an ExecuteSourceResponse stream. With a decoder
// the shipment subtree flows into it; without one the scan relays: each
// sequenced chunk is kept verbatim, as the scanner captured it, for the
// agency to forward to the target byte for byte. The timing rides either
// on the trailing <timing> element (streamed endpoint) or on the root's
// queryMillis attribute (buffered endpoint).
type sourceRespScan struct {
	dec *wire.ShipmentDecoder

	// Relay mode: the chunks back to back in raw (a pooled buffer, handed
	// back by release), chunk i (seq i) ending at ends[i]. base is the
	// delta base the request named: only then may the shipment be a delta
	// (delta), whose tombstone chunks follow every record chunk (tombs is
	// set from the first one on).
	raw      *bytes.Buffer
	ends     []int
	relaying bool
	base     string
	delta    bool
	tombs    bool

	depth int
	skip  int

	sub      bool
	subDepth int

	queryMillis  string
	payloadBytes string
	sawShipment  bool
	sawTiming    bool
	codec        string

	// The timing trailer's delta attributes (delta-enabled requests), and
	// what check parses out of the trailer.
	trailer                        struct{ delta, base, records, tombstones, token string }
	payload                        int64
	deltaRecords, tombstoneRecords int
}

// ObserveEnvelope implements soap.EnvelopeObserver: the response
// envelope's codec attribute is the server's negotiation answer.
func (s *sourceRespScan) ObserveEnvelope(attrs []xmltree.Attr) {
	s.codec = scanAttr(attrs, "codec")
}

// StartElement implements xmltree.AttrHandler.
func (s *sourceRespScan) StartElement(name string, attrs []xmltree.Attr) error {
	if s.skip > 0 {
		s.skip++
		return nil
	}
	if s.sub {
		s.subDepth++
		return s.dec.StartElement(name, attrs)
	}
	s.depth++
	switch s.depth {
	case 1:
		if v := scanAttr(attrs, "queryMillis"); v != "" {
			s.queryMillis = v
		}
	case 2:
		switch name {
		case "shipment":
			s.sawShipment = true
			if s.dec == nil {
				if s.delta = scanAttr(attrs, "delta") == "1"; s.delta && s.base == "" {
					return fmt.Errorf("registry: source shipped a delta but no base was named")
				}
				s.relaying = true
				return nil
			}
			s.sub, s.subDepth = true, 1
			return s.dec.StartElement(name, attrs)
		case "timing":
			s.sawTiming = true
			if v := scanAttr(attrs, "queryMillis"); v != "" {
				s.queryMillis = v
			}
			s.payloadBytes = scanAttr(attrs, "payloadBytes")
			s.trailer.delta = scanAttr(attrs, "delta")
			s.trailer.base = scanAttr(attrs, "base")
			s.trailer.records = scanAttr(attrs, "deltaRecords")
			s.trailer.tombstones = scanAttr(attrs, "tombstones")
			s.trailer.token = scanAttr(attrs, "token")
			s.depth--
			s.skip = 1
		default:
			s.depth--
			s.skip = 1
		}
	}
	return nil
}

// RawChildren implements xmltree.RawHandler: a relayed shipment's chunks
// arrive whole at RawElement.
func (s *sourceRespScan) RawChildren() bool { return s.relaying }

// RawElement implements xmltree.RawHandler, keeping one relayed chunk. The
// chunks must be numbered 0, 1, 2, ... in wire order: a gap, duplicate or
// reordered seq would let the target's checkpoint skip records on a
// resume, so it fails the source call instead. Tombstone chunks belong to
// a delta only, after its last instance chunk.
func (s *sourceRespScan) RawElement(name string, attrs []xmltree.Attr, raw []byte) error {
	switch {
	case name == "tombstones" && !s.delta:
		return fmt.Errorf("registry: tombstones in a full source shipment")
	case name == "tombstones":
		s.tombs = true
	case name != "instance":
		return fmt.Errorf("registry: unexpected <%s> in the source shipment", name)
	case s.tombs:
		return fmt.Errorf("registry: source instance chunk after its tombstones")
	}
	if seq := scanAttr(attrs, "seq"); seq != strconv.Itoa(len(s.ends)) {
		return fmt.Errorf("registry: source chunk seq %q out of order, want %d", seq, len(s.ends))
	}
	if s.raw == nil {
		s.raw = bufpool.RelayBuffer()
	}
	s.raw.Write(raw)
	s.ends = append(s.ends, s.raw.Len())
	return nil
}

// check validates a completed relay scan before anything is delivered,
// and parses its trailer: the shipment and its timing trailer are
// present, and on a delta-enabled request the trailer agrees with the
// shipment — a delta echoes the base the request named and counts its
// records and tombstones, and a held snapshot is held under this session.
func (s *sourceRespScan) check(deltaReq bool, session string) error {
	if !s.sawShipment {
		return fmt.Errorf("registry: source returned no shipment")
	}
	if !s.sawTiming {
		return fmt.Errorf("registry: source response lacks its timing trailer")
	}
	var err error
	if s.payload, err = strconv.ParseInt(s.payloadBytes, 10, 64); err != nil {
		return fmt.Errorf("registry: source timing trailer has bad payloadBytes %q", s.payloadBytes)
	}
	if !deltaReq {
		return nil
	}
	t := s.trailer
	switch {
	case t.delta != "0" && t.delta != "1":
		return fmt.Errorf("registry: source timing trailer has bad delta %q", t.delta)
	case (t.delta == "1") != s.delta:
		return fmt.Errorf("registry: source trailer says delta=%s, its shipment disagrees", t.delta)
	case t.token != "" && t.token != session:
		return fmt.Errorf("registry: source holds the snapshot as %q, not session %q", t.token, session)
	case !s.delta:
		return nil
	case t.base != s.base:
		return fmt.Errorf("registry: source delta patches base %q, the request named %q", t.base, s.base)
	}
	if s.deltaRecords, err = strconv.Atoi(t.records); err != nil {
		return fmt.Errorf("registry: source timing trailer has bad deltaRecords %q", t.records)
	}
	if s.tombstoneRecords, err = strconv.Atoi(t.tombstones); err != nil {
		return fmt.Errorf("registry: source timing trailer has bad tombstones %q", t.tombstones)
	}
	return nil
}

// relay writes the relayed shipment onto w from chunk next on, framed as
// wire.ShipmentWriter frames it: <shipment/> when no chunk is left.
func (s *sourceRespScan) relay(w io.Writer, next int64) error {
	open := "<shipment"
	if s.delta {
		open += ` delta="1"`
	}
	if next >= int64(len(s.ends)) {
		_, err := io.WriteString(w, open+"/>")
		return err
	}
	start := 0
	if next > 0 {
		start = s.ends[next-1]
	}
	if _, err := io.WriteString(w, open+">"); err != nil {
		return err
	}
	if _, err := w.Write(s.raw.Bytes()[start:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, "</shipment>")
	return err
}

// release hands the relay buffer back to the pool. Call it once no
// delivery attempt can relay from the scan any more.
func (s *sourceRespScan) release() {
	if s.raw != nil {
		bufpool.PutRelayBuffer(s.raw)
		s.raw = nil
	}
}

// Text implements xmltree.AttrHandler.
func (s *sourceRespScan) Text(data string) error {
	if s.skip > 0 || !s.sub {
		return nil
	}
	return s.dec.Text(data)
}

// TextBytes implements xmltree.TextBytesHandler, keeping the scanner's
// zero-copy text path intact through to the shipment decoder.
func (s *sourceRespScan) TextBytes(data []byte) error {
	if s.skip > 0 || !s.sub {
		return nil
	}
	return s.dec.TextBytes(data)
}

// EndElement implements xmltree.AttrHandler.
func (s *sourceRespScan) EndElement(name string) error {
	switch {
	case s.skip > 0:
		s.skip--
	case s.sub:
		s.subDepth--
		if s.subDepth == 0 {
			s.sub = false
			s.depth--
		}
		return s.dec.EndElement(name)
	default:
		s.relaying = false
		s.depth--
	}
	return nil
}

// sourceRequest builds the streamed ExecuteSource request for a program
// under the exchange options.
func sourceRequest(progXML *xmltree.Node, opts ExecOptions) *xmltree.Node {
	req := &xmltree.Node{Name: "ExecuteSource"}
	req.SetAttr("stream", "1")
	if opts.Codec != "" {
		req.SetAttr("codec", opts.Codec)
	}
	if opts.Format != "" {
		req.SetAttr("format", opts.Format)
	}
	if opts.FilterElem != "" {
		req.SetAttr("filterElem", opts.FilterElem)
		req.SetAttr("filterValue", opts.FilterValue)
	}
	if opts.Filter != "" {
		req.SetAttr("filter", opts.Filter)
	}
	if opts.Pipelined {
		req.SetAttr("pipelined", "1")
	}
	req.AddKid(progXML)
	return req
}

// fragLookup resolves the fragment names a program's shipments carry.
func fragLookup(prog *core.Graph) func(string) *core.Fragment {
	frags := map[string]*core.Fragment{}
	for _, op := range prog.Ops {
		frags[op.Out.Name] = op.Out
		for _, p := range op.Parts {
			frags[p.Name] = p
		}
	}
	for _, ed := range prog.Edges {
		frags[ed.Frag.Name] = ed.Frag
	}
	return func(name string) *core.Fragment { return frags[name] }
}

// executeStreamed drives an exchange over the zero-materialization wire
// path: streamed source response, piped target request, no envelope trees
// on either hop. The shipment is counted by a meter as it is re-serialized
// toward the target, so ShipBytes reports actual wire bytes (shipment
// framing included — the tree path's per-record count omits the
// <shipment>/<instance> wrappers).
func (a *Agency) executeStreamed(service string, plan *Plan, opts ExecOptions) (*Report, error) {
	link := opts.Link
	src, tgt := a.parties(service)
	if src == nil || tgt == nil {
		return nil, fmt.Errorf("registry: service %q not fully registered", service)
	}
	sch := src.Fragmentation.Schema
	progXML, err := wire.EncodeProgram(plan.Program, plan.Assign)
	if err != nil {
		return nil, err
	}
	codec, err := opts.effectiveCodec()
	if err != nil {
		return nil, err
	}
	trace := newTrace(service, "streamed")
	report := &Report{Plan: plan, Codec: codec.String(), Trace: trace}

	reqS := sourceRequest(progXML, opts)
	dec := wire.NewShipmentDecoder(sch, fragLookup(plan.Program))
	dec.Workers = opts.ParallelChunks
	dec.Met = opts.Metrics
	scanS := &sourceRespScan{dec: dec}

	cs := opts.client(src.URL)
	advertise(cs, codec)
	srcSpan := trace.Child("source")
	err = cs.CallStream("ExecuteSource", func(w io.Writer) error {
		return xmltree.Write(w, reqS, xmltree.WriteOptions{EmitAllIDs: true})
	}, scanS)
	srcSpan.End()
	if err != nil {
		srcSpan.Set("err", err.Error())
		return report, fmt.Errorf("registry: source execution: %w", err)
	}
	if !scanS.sawShipment {
		return report, fmt.Errorf("registry: source returned no shipment")
	}
	if scanS.codec != "" {
		report.Codec = scanS.codec
	}
	report.SourceTime = parseMillis(scanS.queryMillis)
	inbound, err := dec.Result()
	if err != nil {
		return report, fmt.Errorf("registry: source shipment: %w", err)
	}
	report.PayloadBytes = wire.ShipmentBytes(inbound)

	open := `<ExecuteTarget`
	if opts.Pipelined {
		open += ` pipelined="1"`
	}
	open += `>`
	tb := &xmltree.TreeBuilder{}
	ct := opts.client(tgt.URL)
	delSpan := trace.Child("deliver")
	err = ct.CallStream("ExecuteTarget", func(w io.Writer) error {
		if _, err := io.WriteString(w, open); err != nil {
			return err
		}
		if err := xmltree.Write(w, progXML, xmltree.WriteOptions{EmitAllIDs: true}); err != nil {
			return err
		}
		m := netsim.NewMeter(w)
		sw := wire.NewShipmentWriterCodec(m, sch, codec)
		sw.SetWorkers(opts.ParallelChunks)
		sw.SetObs(opts.Metrics)
		if err := wire.EmitShipment(sw, inbound); err != nil {
			sw.Close()
			return err
		}
		if err := sw.Close(); err != nil {
			return err
		}
		report.WireBytes = m.Bytes()
		report.ShipBytes = report.WireBytes
		_, err := io.WriteString(w, `</ExecuteTarget>`)
		return err
	}, tb)
	delSpan.End()
	if err != nil {
		delSpan.Set("err", err.Error())
		return report, fmt.Errorf("registry: target execution: %w", err)
	}
	report.ShipTime = link.TransferTime(report.ShipBytes)
	if respT := tb.Root(); respT != nil {
		if v, ok := respT.Attr("execMillis"); ok {
			report.TargetTime = parseMillis(v)
		}
		if v, ok := respT.Attr("writeMillis"); ok {
			report.WriteTime = parseMillis(v)
		}
		if v, ok := respT.Attr("indexMillis"); ok {
			report.IndexTime = parseMillis(v)
		}
	}
	return report, nil
}
