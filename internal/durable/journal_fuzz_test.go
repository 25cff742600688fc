package durable

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"xdx/internal/xmltree"
)

// FuzzJournalReplay drives the journal's frame decoders with arbitrary
// payloads. A log frame (snapshot=false) replays over a session holding
// two committed chunks: it must never panic, a malformed frame must come
// back as ErrMalformedFrame with the shadow state untouched, and an
// accepted frame must never rewind the checkpoint. A snapshot
// (snapshot=true) replays into an empty journal: when accepted, every
// session's checkpoint is exactly the next attribute it was written with.
func FuzzJournalReplay(f *testing.F) {
	for _, frame := range []string{
		`<s id="t"/>`,
		`<e id="s"/>`,
		`<c id="s" key="k" frag="f" seq="2"><item ID="c0"/></c>`,
		`<c id="s" key="k" seq="3" del="1"><d ID="a0"/></c>`,
		`<c id="s" key="k" frag="f" seq="notanumber"><item ID="z"/></c>`,
		`<c id="s" key="k" frag="f"><item ID="z"/></c>`,
		`<c key="k" frag="f" seq="5"><item ID="z"/></c>`,
		`<c id="s" key="k`,
		`<zz id="s"/>`,
		`<c id="s" key="k" frag="f" seq="-1"/>`,
	} {
		f.Add(frame, false)
	}
	for _, snap := range []string{
		`<journal><s id="x" next="2"><c key="k" frag="f" seq="0"/><c key="k" frag="f" seq="1"/></s></journal>`,
		`<journal><s id="x"><c key="k" seq="0"/></s></journal>`,
		`<journal><s id="x" next="NaN"><c key="k" seq="0"/></s></journal>`,
		`<journal><s id="x" next="3"><c key="k"/></s></journal>`,
		`<journal><s next="3"/></journal>`,
	} {
		f.Add(snap, true)
	}
	f.Fuzz(func(t *testing.T, payload string, snapshot bool) {
		j := &Journal{sessions: map[string]*JSession{}}
		if snapshot {
			if err := j.replaySnapshot([]byte(payload)); err != nil {
				return
			}
			root, err := xmltree.Parse(strings.NewReader(payload))
			if err != nil {
				t.Fatalf("snapshot accepted but does not parse: %v", err)
			}
			want := map[string]int64{}
			for _, sn := range root.Kids {
				if sn.Name == "s" {
					id, _ := sn.Attr("id")
					v, _ := sn.Attr("next")
					want[id], _ = strconv.ParseInt(v, 10, 64)
				}
			}
			for id, s := range j.sessions {
				if s.Next != want[id] || s.Next < 0 {
					t.Fatalf("session %q recovered checkpoint %d, snapshot says %d", id, s.Next, want[id])
				}
			}
			return
		}
		for _, frame := range []string{
			`<s id="s"/>`,
			`<c id="s" key="k" frag="f" seq="0"><item ID="a0"/></c>`,
			`<c id="s" key="k" frag="f" seq="1"><item ID="b0"/></c>`,
		} {
			if err := j.replayRecord([]byte(frame)); err != nil {
				t.Fatal(err)
			}
		}
		err := j.replayRecord([]byte(payload))
		s := j.sessions["s"]
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("replay error %v is not ErrMalformedFrame", err)
			}
			if len(j.sessions) != 1 || s == nil || s.Next != 2 || len(s.Chunks) != 2 {
				t.Fatalf("malformed frame %q changed the shadow state", payload)
			}
			return
		}
		if s != nil && s.Next < 2 {
			t.Fatalf("frame %q rewound the checkpoint to %d", payload, s.Next)
		}
	})
}
