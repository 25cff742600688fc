package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// FuzzParse checks the parser never panics and that anything it accepts
// round-trips shape-stably through the serializer.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a><b>text</b><c x="1"/></a>`,
		`<a ID="1" PARENT=""><b ID="1.1">x</b></a>`,
		`<a>&lt;&amp;&gt;</a>`,
		`<a><a><a/></a></a>`,
		`<बहु भाषा="हाँ">पाठ</बहु>`,
		`<a`, `<a></b>`, ``, `plain`, `<a>]]></a>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		n, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		out := Marshal(n, WriteOptions{EmitAllIDs: true})
		back, err := Parse(strings.NewReader(out))
		if err != nil {
			t.Fatalf("reserialized document does not parse: %v\ninput: %q\noutput: %q", err, doc, out)
		}
		if !EqualShape(n, back) {
			t.Fatalf("shape changed through round trip\ninput: %q\noutput: %q", doc, out)
		}
	})
}

// FuzzScan checks the SAX scanner never panics and balances events.
func FuzzScan(f *testing.F) {
	f.Add(`<a><b>x</b></a>`)
	f.Add(`<a><b></a></b>`)
	f.Add(`<?xml version="1.0"?><r/>`)
	f.Fuzz(func(t *testing.T, doc string) {
		depth := 0
		h := FuncHandler{
			Start: func(string, string, string) error { depth++; return nil },
			End:   func(string) error { depth--; return nil },
		}
		if err := Scan(strings.NewReader(doc), h); err == nil && depth != 0 {
			t.Fatalf("unbalanced events accepted: depth %d for %q", depth, doc)
		}
	})
}

// eventLog records scan events as strings and checks that end tags match
// their start tags, which the event path itself does not enforce.
type eventLog struct {
	events []string
	open   []string
	bad    bool
}

func (l *eventLog) StartElement(name string, attrs []Attr) error {
	ev := "S " + name
	for _, a := range attrs {
		ev += " " + a.Name + "=" + a.Value
	}
	l.events = append(l.events, ev)
	l.open = append(l.open, name)
	return nil
}

func (l *eventLog) Text(data string) error {
	l.events = append(l.events, "T "+data)
	return nil
}

func (l *eventLog) EndElement(name string) error {
	if n := len(l.open); n == 0 || l.open[n-1] != name {
		l.bad = true
	} else {
		l.open = l.open[:n-1]
	}
	l.events = append(l.events, "E "+name)
	return nil
}

// rawLog captures every child of the elements at depth at, rescans each
// capture with a plain eventLog, and splices the rescanned events in where
// the capture was, so a correct capture reproduces the plain event stream.
type rawLog struct {
	eventLog
	at    int
	depth int
	raws  []string
	rerr  error
}

func (l *rawLog) StartElement(name string, attrs []Attr) error {
	l.depth++
	return l.eventLog.StartElement(name, attrs)
}

func (l *rawLog) EndElement(name string) error {
	l.depth--
	return l.eventLog.EndElement(name)
}

func (l *rawLog) RawChildren() bool { return l.depth == l.at }

func (l *rawLog) RawElement(name string, attrs []Attr, raw []byte) error {
	l.raws = append(l.raws, string(raw))
	var sub eventLog
	if err := ScanAttrs(strings.NewReader(string(raw)), &sub); err != nil && l.rerr == nil {
		l.rerr = err
	}
	if len(sub.events) == 0 || !strings.HasPrefix(sub.events[0], "S "+name) {
		l.rerr = fmt.Errorf("capture of <%s> rescans to %q", name, sub.events)
	}
	l.events = append(l.events, sub.events...)
	return nil
}

// FuzzScanRawCapture checks the scanner's raw-capture mode. For any input
// it must neither panic nor hang. For well-formed input — the plain scan
// accepts it with matching end tags and encoding/xml accepts it too —
// capture must succeed, every captured byte run must be the input's span
// of that element, and rescanning the captures must give the plain scan's
// events.
func FuzzScanRawCapture(f *testing.F) {
	seeds := []string{
		`<r><a x="1">t</a><b/></r>`,
		`<s><instance edge="e" frag="f" seq="0"><p ID="1" PARENT="0"><n>x &amp; y</n></p></instance><instance edge="e" frag="f" seq="1"/></s>`,
		`<r><a><a><a/></a></a>tail<c y='>'/></r>`,
		`<r><a><![CDATA[</a> ]]]></a><b><!-- <b> --></b><?pi ?></r>`,
		`<r><p:a></p:a ><q:a/></r>`,
		`<r><a><b></a></b></r>`,
		`<r><a><b>`, `<r><a x="1></r>`, `<r><a></a/></r>`, `<r><a/ ></r>`,
		`<r><a><!DOCTYPE d [<!ENTITY e "x">]></a></r>`,
	}
	for _, s := range seeds {
		f.Add(s, uint8(1))
	}
	f.Add(`<e><b><s><i seq="0"><x/></i></s></b></e>`, uint8(3))
	f.Fuzz(func(t *testing.T, doc string, at uint8) {
		capt := &rawLog{at: int(at%4) + 1}
		cerr := ScanAttrs(strings.NewReader(doc), capt)

		var plain eventLog
		if err := ScanAttrs(strings.NewReader(doc), &plain); err != nil || plain.bad || !stdlibAccepts(doc) {
			return
		}
		if cerr != nil {
			t.Fatalf("capture at depth %d rejects well-formed input: %v\ninput: %q", capt.at, cerr, doc)
		}
		if capt.rerr != nil {
			t.Fatalf("capture does not rescan: %v\ninput: %q", capt.rerr, doc)
		}
		pos := 0
		for _, raw := range capt.raws {
			i := strings.Index(doc[pos:], raw)
			if i < 0 || !strings.HasPrefix(raw, "<") || !strings.HasSuffix(raw, ">") {
				t.Fatalf("capture %q is not an element span of the input %q", raw, doc)
			}
			pos += i + len(raw)
		}
		if strings.Join(capt.events, "\n") != strings.Join(plain.events, "\n") {
			t.Fatalf("capture events differ\ninput: %q\nplain:   %q\ncapture: %q", doc, plain.events, capt.events)
		}
	})
}

// stdlibAccepts reports whether encoding/xml reads doc without error.
func stdlibAccepts(doc string) bool {
	d := xml.NewDecoder(strings.NewReader(doc))
	for {
		if _, err := d.Token(); err != nil {
			return err == io.EOF
		}
	}
}

// TestScanRawCaptureRejectsMalformed pins what capture mode refuses even
// though it decodes nothing inside a captured element: mismatched end
// tags and input that stops before the element closes.
func TestScanRawCaptureRejectsMalformed(t *testing.T) {
	for _, doc := range []string{
		`<r><a><b></a></b></r>`,
		`<r><a></b></r>`,
		`<r><a><b>`,
		`<r><a x="1`,
		`<r><a>text`,
		`<r><a><!-- open`,
		`<r><a></a/></r>`,
		`<r><a></></a></r>`,
		`<r><a><b x="1"<c/></b></a></r>`,
	} {
		l := &rawLog{at: 1}
		if err := ScanAttrs(strings.NewReader(doc), l); err == nil {
			t.Errorf("capture accepted %q (captured %q)", doc, l.raws)
		}
	}
	l := &rawLog{at: 1}
	doc := `<r> <a x="&lt;">1<b/>&amp;</a> <c/> </r>`
	if err := ScanAttrs(strings.NewReader(doc), l); err != nil {
		t.Fatal(err)
	}
	if want := []string{`<a x="&lt;">1<b/>&amp;</a>`, `<c/>`}; strings.Join(l.raws, "|") != strings.Join(want, "|") {
		t.Errorf("captured %q, want %q", l.raws, want)
	}
}
