package registry

// The source hop of the relay drive: the streamed ExecuteSource request,
// and the scan that keeps its sequenced shipment chunks verbatim, checks
// them and the timing trailer, and writes them into the target request
// byte for byte.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"xdx/internal/bufpool"
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

// sourceRespScan consumes an ExecuteSourceResponse stream and relays:
// each sequenced chunk is kept verbatim, as the scanner captured it, for
// the agency to forward to the target byte for byte. The timing rides on
// the trailing <timing> element.
type sourceRespScan struct {
	// The chunks back to back in raw (a pooled buffer, handed back by
	// release), chunk i (seq i) ending at ends[i]. base is the delta base
	// the request named: only then may the shipment be a delta (delta),
	// whose tombstone chunks follow every record chunk (tombs is set from
	// the first one on).
	raw      *bytes.Buffer
	ends     []int
	relaying bool
	base     string
	delta    bool
	tombs    bool

	depth int
	skip  int

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
	s.depth++
	if s.depth == 2 {
		switch name {
		case "shipment":
			s.sawShipment = true
			if s.delta = scanAttr(attrs, "delta") == "1"; s.delta && s.base == "" {
				return fmt.Errorf("registry: source shipped a delta but no base was named")
			}
			s.relaying = true
		case "timing":
			s.sawTiming = true
			s.queryMillis = scanAttr(attrs, "queryMillis")
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

// Text implements xmltree.AttrHandler: the relayed chunks arrive whole
// at RawElement, so there is no loose text to keep.
func (s *sourceRespScan) Text(string) error { return nil }

// EndElement implements xmltree.AttrHandler.
func (s *sourceRespScan) EndElement(string) error {
	if s.skip > 0 {
		s.skip--
		return nil
	}
	s.relaying = false
	s.depth--
	return nil
}

// sourceRequest builds the ExecuteSource request for a program under the
// exchange options.
func sourceRequest(progXML *xmltree.Node, opts ExecOptions) *xmltree.Node {
	req := &xmltree.Node{Name: "ExecuteSource"}
	if opts.Codec != "" {
		req.SetAttr("codec", opts.Codec)
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
