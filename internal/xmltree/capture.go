package xmltree

import (
	"bufio"
	"bytes"
	"fmt"
)

// Raw capture: the scanner's RawHandler mode. A captured element is
// recorded byte for byte; only its start tag is parsed, with the event
// path's own tag parser run over the recorded bytes, and below it the
// scanner just matches tag names down to the end tag.

// capture is the scanner's raw-capture scratch, reused across elements.
type capture struct {
	raw   []byte        // the element being captured
	open  []int         // [start, end) offsets in raw of the open tags' names
	tag   bytes.Reader  // the recorded start tag, for parseCapturedTag
	tagBR *bufio.Reader // buffered reader over tag
}

// captureElement records a child of the capturing element whole, from
// the '<' of its start tag through the '>' of its matching end tag, and
// hands it to RawElement with the start tag's name and attributes. The
// leading '<' is already consumed.
func (s *attrScanner) captureElement() error {
	c := &s.capt
	c.raw = append(c.raw[:0], '<')
	nameEnd, term, err := s.captureName(len(c.raw))
	if err != nil {
		return err
	}
	if term != '>' {
		if err := s.captureTagRest(); err != nil {
			return err
		}
	}
	name, selfClose, err := s.parseCapturedTag()
	if err != nil {
		return err
	}
	if !selfClose {
		if err := s.captureContent(nameEnd); err != nil {
			return err
		}
	}
	return s.rh.RawElement(name, s.attrs, c.raw)
}

// parseCapturedTag runs the event path's tag parser over the start tag
// recorded in raw, so a captured element's name and attributes read
// exactly as they would uncaptured. The parse must end where the recorded
// tag does.
func (s *attrScanner) parseCapturedTag() (string, bool, error) {
	c := &s.capt
	c.tag.Reset(c.raw[1:])
	if c.tagBR == nil {
		c.tagBR = bufio.NewReaderSize(&c.tag, 512)
	} else {
		c.tagBR.Reset(&c.tag)
	}
	br := s.br
	s.br = c.tagBR
	name, selfClose, err := s.parseStartTag()
	rest := c.tag.Len() + s.br.Buffered()
	s.br = br
	if err == nil && rest != 0 {
		err = fmt.Errorf("xmltree: scan: malformed start tag <%s", c.raw[1:])
	}
	return name, selfClose, err
}

// recordByte consumes and records one byte.
func (s *attrScanner) recordByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err == nil {
		s.capt.raw = append(s.capt.raw, b)
	}
	return b, err
}

// captureContent records a captured element's content and end tag; the
// element's name sits in raw from offset 1 to nameEnd. Nothing inside is
// decoded, but a mismatched end tag or input that stops before the
// element closes is rejected.
func (s *attrScanner) captureContent(nameEnd int) error {
	c := &s.capt
	open := append(c.open[:0], 1, nameEnd)
	defer func() { c.open = open[:0] }()
	for len(open) > 0 {
		for {
			chunk, err := s.br.ReadSlice('<')
			c.raw = append(c.raw, chunk...)
			if err == nil {
				break
			}
			if err != bufio.ErrBufferFull {
				return errUnterminated
			}
		}
		b, err := s.recordByte()
		if err != nil {
			return errUnterminated
		}
		switch b {
		case '/':
			start := len(c.raw)
			end, term, err := s.captureName(start)
			if err != nil {
				return err
			}
			for b = term; isSpace(b); {
				if b, err = s.recordByte(); err != nil {
					return errUnterminated
				}
			}
			if b != '>' {
				return fmt.Errorf("xmltree: scan: malformed end tag </%s>", c.raw[start:end])
			}
			top := len(open) - 2
			if !bytes.Equal(c.raw[start:end], c.raw[open[top]:open[top+1]]) {
				return fmt.Errorf("xmltree: scan: end tag </%s> does not match <%s>", c.raw[start:end], c.raw[open[top]:open[top+1]])
			}
			open = open[:top]
		case '!':
			if err := s.captureBang(); err != nil {
				return err
			}
		case '?':
			if err := s.captureUntil("?>"); err != nil {
				return err
			}
		default:
			start := len(c.raw) - 1
			s.br.UnreadByte()
			c.raw = c.raw[:start]
			end, term, err := s.captureName(start)
			if err != nil {
				return err
			}
			if term != '>' {
				if err := s.captureTagRest(); err != nil {
					return err
				}
			}
			if c.raw[len(c.raw)-2] != '/' {
				open = append(open, start, end)
			}
		}
	}
	return nil
}

// captureName records a tag name starting at raw offset start and the byte
// that ends it, returning the name's end offset and that byte.
func (s *attrScanner) captureName(start int) (int, byte, error) {
	for {
		b, err := s.recordByte()
		if err != nil {
			return 0, 0, errUnterminated
		}
		switch {
		case isSpace(b) || b == '>' || b == '/':
			end := len(s.capt.raw) - 1
			if end == start {
				return 0, 0, fmt.Errorf("xmltree: scan: empty name")
			}
			return end, b, nil
		case b == '<' || b == '=':
			return 0, 0, fmt.Errorf("xmltree: scan: %q in tag name", b)
		}
	}
}

// captureTagRest records the rest of a start tag through the '>' that
// closes it, skipping quoted attribute values.
func (s *attrScanner) captureTagRest() error {
	var quote byte
	for {
		chunk, err := s.br.ReadSlice('>')
		s.capt.raw = append(s.capt.raw, chunk...)
		if err != nil && err != bufio.ErrBufferFull {
			return errUnterminated
		}
		for _, b := range chunk {
			switch {
			case quote != 0:
				if b == quote {
					quote = 0
				}
			case b == '"' || b == '\'':
				quote = b
			case b == '<':
				return fmt.Errorf("xmltree: scan: '<' in tag")
			}
		}
		if err == nil && quote == 0 {
			return nil
		}
	}
}

// captureBang records a comment, CDATA section or declaration inside a
// captured element; "<!" is already recorded.
func (s *attrScanner) captureBang() error {
	b, err := s.recordByte()
	if err != nil {
		return errUnterminated
	}
	switch b {
	case '-':
		if b, err = s.recordByte(); err != nil || b != '-' {
			return fmt.Errorf("xmltree: scan: malformed comment")
		}
		return s.captureUntil("-->")
	case '[':
		for _, want := range []byte("CDATA[") {
			if b, err = s.recordByte(); err != nil || b != want {
				return fmt.Errorf("xmltree: scan: malformed CDATA section")
			}
		}
		return s.captureUntil("]]>")
	}
	// A declaration: record through the matching '>', tolerating an
	// internal subset in brackets, as the event path skips it.
	bracket := 0
	for {
		if b == '[' {
			bracket++
		} else if b == ']' {
			bracket--
		} else if b == '>' && bracket <= 0 {
			return nil
		}
		if b, err = s.recordByte(); err != nil {
			return errUnterminated
		}
	}
}

// captureUntil records input through the first occurrence of pat after
// the current position.
func (s *attrScanner) captureUntil(pat string) error {
	start := len(s.capt.raw)
	for {
		if _, err := s.recordByte(); err != nil {
			return errUnterminated
		}
		if n := len(s.capt.raw); n-start >= len(pat) && string(s.capt.raw[n-len(pat):]) == pat {
			return nil
		}
	}
}
