package xmltree

import (
	"io"
)

// Handler receives streaming parse events, in the style of the SAX C API the
// paper implemented over expat for shredding (§5.1).
type Handler interface {
	// StartElement is called for each open tag. attrs holds the ID and
	// PARENT attribute values when present ("" otherwise).
	StartElement(name, id, parent string) error
	// Text is called with trimmed, non-empty character data of the current
	// element.
	Text(data string) error
	// EndElement is called for each close tag.
	EndElement(name string) error
}

// Scan streams XML from r into h. It is single-pass and keeps no tree in
// memory, which is what lets the shredder discard state as soon as tuples
// are flushed.
func Scan(r io.Reader, h Handler) error {
	return scanStream(r, idParentAdapter{h})
}

// idParentAdapter narrows AttrHandler events to the Handler interface,
// extracting the ID/PARENT pair the shredder dispatches on.
type idParentAdapter struct{ h Handler }

// StartElement implements AttrHandler.
func (a idParentAdapter) StartElement(name string, attrs []Attr) error {
	var id, parent string
	for _, at := range attrs {
		switch at.Name {
		case "ID":
			id = at.Value
		case "PARENT":
			parent = at.Value
		}
	}
	return a.h.StartElement(name, id, parent)
}

// Text implements AttrHandler.
func (a idParentAdapter) Text(data string) error { return a.h.Text(data) }

// EndElement implements AttrHandler.
func (a idParentAdapter) EndElement(name string) error { return a.h.EndElement(name) }

// AttrHandler receives streaming parse events carrying the full attribute
// list of each element, for consumers that dispatch on attributes beyond
// ID/PARENT (the wire shipment decoder, the SOAP envelope walker).
type AttrHandler interface {
	// StartElement is called for each open tag. attrs holds every generic
	// attribute in document order; namespace declarations are dropped. The
	// slice is reused between calls — copy it to retain it.
	StartElement(name string, attrs []Attr) error
	// Text is called with trimmed, non-empty character data of the current
	// element.
	Text(data string) error
	// EndElement is called for each close tag.
	EndElement(name string) error
}

// TextBytesHandler is an optional extension of AttrHandler. A handler that
// implements it receives character data as the scanner's raw byte slice
// instead of an allocated string; the slice aliases the scanner's buffers
// and is valid only for the duration of the call — copy (or intern) to
// retain. The shipment decoder uses this to intern repeated leaf values
// and to accumulate base64 chunk bodies without an intermediate string per
// text event. When a handler implements TextBytesHandler the scanner calls
// TextBytes instead of Text; the events and their payloads are otherwise
// identical.
type TextBytesHandler interface {
	TextBytes(data []byte) error
}

// RawHandler is an optional extension of AttrHandler for consumers that
// relay elements verbatim instead of decoding them (the agency forwarding
// a source's shipment chunks to the target). After each StartElement the
// scanner asks RawChildren; when the answer is true, every child element
// of the element just opened arrives whole at RawElement instead of as
// StartElement, Text and EndElement events: the child's name and start-tag
// attributes, and raw, its exact bytes from the '<' of the start tag
// through the '>' of the matching end tag. Inside a captured element the
// scanner only matches tag names down to the end tag — it decodes no
// attributes, entities or text, so the consumer that finally decodes the
// bytes still validates them — but it rejects mismatched end tags and input
// that stops before the element closes. attrs and raw alias the scanner's
// buffers and are valid only for the duration of the call.
type RawHandler interface {
	RawChildren() bool
	RawElement(name string, attrs []Attr, raw []byte) error
}

// ScanAttrs streams XML from r into h, like Scan but delivering the full
// attribute list of every element. It is single-pass and keeps no tree in
// memory; it is what the zero-materialization wire path parses shipments
// with.
func ScanAttrs(r io.Reader, h AttrHandler) error {
	return scanStream(r, h)
}

// TreeBuilder is an AttrHandler that materializes scanned elements into
// Node trees with the same semantics as Parse: ID and PARENT attributes
// become the Node's identifier fields, any other attribute is kept, and
// trimmed character data accumulates on the innermost open element. It lets
// a streaming consumer (the SOAP server) materialize only the small
// subtrees it needs while larger siblings flow through purpose-built
// handlers.
type TreeBuilder struct {
	roots []*Node
	stack []*Node
}

// StartElement implements AttrHandler.
func (b *TreeBuilder) StartElement(name string, attrs []Attr) error {
	n := &Node{Name: name}
	for _, a := range attrs {
		switch a.Name {
		case "ID":
			n.ID = a.Value
		case "PARENT":
			n.Parent = a.Value
		default:
			n.Attrs = append(n.Attrs, a)
		}
	}
	if len(b.stack) == 0 {
		b.roots = append(b.roots, n)
	} else {
		b.stack[len(b.stack)-1].AddKid(n)
	}
	b.stack = append(b.stack, n)
	return nil
}

// Text implements AttrHandler.
func (b *TreeBuilder) Text(data string) error {
	if len(b.stack) > 0 {
		b.stack[len(b.stack)-1].Text += data
	}
	return nil
}

// EndElement implements AttrHandler.
func (b *TreeBuilder) EndElement(string) error {
	if len(b.stack) > 0 {
		b.stack = b.stack[:len(b.stack)-1]
	}
	return nil
}

// Root returns the first completed tree, or nil if no element finished.
func (b *TreeBuilder) Root() *Node {
	if len(b.roots) == 0 || len(b.stack) != 0 {
		return nil
	}
	return b.roots[0]
}

// FuncHandler adapts three closures into a Handler; nil funcs are no-ops.
type FuncHandler struct {
	Start func(name, id, parent string) error
	Data  func(text string) error
	End   func(name string) error
}

// StartElement implements Handler.
func (f FuncHandler) StartElement(name, id, parent string) error {
	if f.Start == nil {
		return nil
	}
	return f.Start(name, id, parent)
}

// Text implements Handler.
func (f FuncHandler) Text(data string) error {
	if f.Data == nil {
		return nil
	}
	return f.Data(data)
}

// EndElement implements Handler.
func (f FuncHandler) EndElement(name string) error {
	if f.End == nil {
		return nil
	}
	return f.End(name)
}
