package reliable

import (
	"reflect"
	"strconv"
	"testing"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

func reconRec(id, text string) *xmltree.Node {
	return &xmltree.Node{Name: "item", ID: id, Kids: []*xmltree.Node{{Name: "v", Text: text}}}
}

func reconShipment(edge string, recs ...*xmltree.Node) map[string]*core.Instance {
	return map[string]*core.Instance{edge: {Records: recs}}
}

func TestHashRecordSensitivity(t *testing.T) {
	base := HashRecord(reconRec("a", "1"))
	if HashRecord(reconRec("a", "1")) != base {
		t.Error("hash not deterministic")
	}
	for name, mut := range map[string]*xmltree.Node{
		"text":   reconRec("a", "2"),
		"id":     reconRec("b", "1"),
		"name":   {Name: "item2", ID: "a", Kids: []*xmltree.Node{{Name: "v", Text: "1"}}},
		"kid":    {Name: "item", ID: "a", Kids: []*xmltree.Node{{Name: "v", Text: "1"}, {Name: "w"}}},
		"attr":   {Name: "item", ID: "a", Attrs: []xmltree.Attr{{Name: "x", Value: "y"}}, Kids: []*xmltree.Node{{Name: "v", Text: "1"}}},
		"parent": {Name: "item", ID: "a", Parent: "p", Kids: []*xmltree.Node{{Name: "v", Text: "1"}}},
	} {
		if HashRecord(mut) == base {
			t.Errorf("%s change did not change hash", name)
		}
	}
	// Shape boundaries must not alias: one kid with text "ab" vs text "a"
	// plus sibling content.
	a := &xmltree.Node{Name: "n", Kids: []*xmltree.Node{{Name: "k", Text: "ab"}}}
	b := &xmltree.Node{Name: "n", Kids: []*xmltree.Node{{Name: "k", Text: "a"}, {Name: "b"}}}
	if HashRecord(a) == HashRecord(b) {
		t.Error("sibling boundary aliased")
	}
}

func TestHashShipmentFlagsMissingIDs(t *testing.T) {
	edges, ok := HashShipment(reconShipment("e", reconRec("a", "1"), reconRec("b", "2")))
	if !ok || len(edges["e"]) != 2 {
		t.Fatalf("complete shipment hashed as %v ok=%v", edges, ok)
	}
	if _, ok := HashShipment(reconShipment("e", &xmltree.Node{Name: "item"})); ok {
		t.Error("ID-less record reported as reconcilable")
	}
}

func TestDiffShipment(t *testing.T) {
	base, _ := HashShipment(reconShipment("e", reconRec("a", "1"), reconRec("b", "2"), reconRec("c", "3")))
	// a unchanged, b updated, c deleted, d added.
	d := DiffShipment(reconShipment("e", reconRec("a", "1"), reconRec("b", "20"), reconRec("d", "4")), base)
	if d.Records != 2 {
		t.Fatalf("Records = %d, want 2 (update+add)", d.Records)
	}
	got := map[string]bool{}
	for _, r := range d.Ship["e"].Records {
		got[r.ID] = true
	}
	if !got["b"] || !got["d"] || got["a"] {
		t.Fatalf("shipped %v, want b and d only", got)
	}
	if d.Tombstones != 1 || len(d.Tombs["e"]) != 1 || d.Tombs["e"][0] != "c" {
		t.Fatalf("tombstones %v, want [c]", d.Tombs)
	}
}

func TestDiffShipmentNoChange(t *testing.T) {
	ship := reconShipment("e", reconRec("a", "1"))
	base, _ := HashShipment(ship)
	d := DiffShipment(ship, base)
	if d.Records != 0 || d.Tombstones != 0 {
		t.Fatalf("no-op churn produced %d records %d tombstones", d.Records, d.Tombstones)
	}
	if in := d.Ship["e"]; in == nil || len(in.Records) != 0 {
		t.Fatal("edge must still announce itself with an empty instance")
	}
}

func TestDiffShipmentVanishedEdge(t *testing.T) {
	base := map[string]EdgeHashes{"gone": {"x": 1, "y": 2}, "empty": {}}
	d := DiffShipment(reconShipment("e", reconRec("a", "1")), base)
	if len(d.Tombs["gone"]) != 2 || d.Tombs["gone"][0] != "x" {
		t.Fatalf("vanished edge tombstones %v", d.Tombs)
	}
	if _, ok := d.Tombs["empty"]; ok {
		t.Error("empty vanished edge produced tombstones")
	}
}

func TestReconIndexEpochGuard(t *testing.T) {
	r := NewReconIndex()
	if _, ok := r.Token("s", "e1"); ok {
		t.Fatal("cold index reported warm")
	}
	r.Commit("s", "e1", "tok1")
	if tok, ok := r.Token("s", "e1"); !ok || tok != "tok1" {
		t.Fatalf("committed token not visible: %q, %v", tok, ok)
	}
	if _, ok := r.Token("s", "e2"); ok {
		t.Fatal("epoch mismatch reported warm")
	}
	r.Invalidate("s")
	if _, ok := r.Token("s", "e1"); ok {
		t.Fatal("invalidated index reported warm")
	}
}

// TestSourceReconEpochGuard holds the source-side hash generations to the
// same epoch guard: a base is served only at the epoch it was recorded
// under, and a request at a new epoch replaces the stream's state.
func TestSourceReconEpochGuard(t *testing.T) {
	r := NewSourceRecon()
	if _, ok := r.Base("s", "e1", "t1"); ok {
		t.Fatal("cold source state reported a base")
	}
	r.Record("s", "e1", "", "t1", map[string]EdgeHashes{"e": {"a": 1}})
	if base, ok := r.Base("s", "e1", "t1"); !ok || base["e"]["a"] != 1 {
		t.Fatal("recorded generation not visible")
	}
	if _, ok := r.Base("s", "e2", "t1"); ok {
		t.Fatal("epoch mismatch served a base")
	}
	if _, ok := r.Base("s", "e1", ""); ok {
		t.Fatal("an empty token served a base")
	}
	// A request under a new epoch that names the old token keeps nothing
	// of the old epoch.
	r.Record("s", "e2", "t1", "t2", map[string]EdgeHashes{"e": {"a": 2}})
	if _, ok := r.Base("s", "e2", "t1"); ok {
		t.Fatal("a generation of the old epoch survived the epoch change")
	}
	if _, ok := r.Base("s", "e2", "t2"); !ok {
		t.Fatal("generation of the new epoch not visible")
	}
	// An unreconcilable shipment forgets the stream.
	r.Record("s", "e2", "t2", "t3", nil)
	if _, ok := r.Base("s", "e2", "t2"); ok {
		t.Fatal("an unkeyed shipment left the stream warm")
	}
}

// TestSourceReconKeepsTwoGenerations checks the source's memory bound: per
// stream it holds the base the latest request named and the snapshot that
// request shipped, never more, and other streams are untouched.
func TestSourceReconKeepsTwoGenerations(t *testing.T) {
	r := NewSourceRecon()
	gen := func(v uint64) map[string]EdgeHashes { return map[string]EdgeHashes{"e": {"a": v}} }
	r.Record("other", "e1", "", "o1", gen(9))
	r.Record("s", "e1", "", "t0", gen(0))
	base := "t0"
	for i := 1; i <= 5; i++ {
		tok := "t" + strconv.Itoa(i)
		r.Record("s", "e1", base, tok, gen(uint64(i)))
		if n := len(r.streams["s"].gens); n > 2 {
			t.Fatalf("after %d exchanges the source holds %d generations", i, n)
		}
		if _, ok := r.Base("s", "e1", base); !ok {
			t.Fatalf("exchange %d: the named base %s was dropped", i, base)
		}
		if _, ok := r.Base("s", "e1", tok); !ok {
			t.Fatalf("exchange %d: the shipped generation %s was dropped", i, tok)
		}
		// Every other exchange the target misses its ack, so the next
		// request names the same base again.
		if i%2 == 0 {
			base = tok
		}
	}
	// A base the source does not hold (an agency restart, another
	// agency) leaves just the fresh generation.
	r.Record("s", "e1", "unknown", "t9", gen(9))
	if n := len(r.streams["s"].gens); n != 1 {
		t.Fatalf("an unknown base left %d generations, want 1", n)
	}
	if _, ok := r.Base("other", "e1", "o1"); !ok {
		t.Fatal("another stream's generation was dropped")
	}
}

// TestDifferMatchesDiffShipment feeds a shipment to a Differ in batches,
// as a pipelined source does, and checks it reconciles exactly as the
// materialized DiffShipment: same shipped records, same tombstones, and
// only the edge's first batch flagged.
func TestDifferMatchesDiffShipment(t *testing.T) {
	base, _ := HashShipment(map[string]*core.Instance{
		"e":    {Records: []*xmltree.Node{reconRec("a", "1"), reconRec("b", "2"), reconRec("c", "3")}},
		"gone": {Records: []*xmltree.Node{reconRec("x", "1")}},
	})
	fresh := []*xmltree.Node{reconRec("a", "1"), reconRec("b", "20"), reconRec("d", "4")}
	want := DiffShipment(reconShipment("e", fresh...), base)

	d := NewDiffer(base)
	var got []*xmltree.Node
	for i, rec := range fresh {
		ship, first := d.Filter("e", []*xmltree.Node{rec})
		if first != (i == 0) {
			t.Errorf("batch %d: first = %v", i, first)
		}
		got = append(got, ship...)
	}
	if len(got) != len(want.Ship["e"].Records) || d.Records() != want.Records {
		t.Fatalf("differ shipped %d records (counted %d), DiffShipment %d", len(got), d.Records(), want.Records)
	}
	for i, rec := range got {
		if rec != want.Ship["e"].Records[i] {
			t.Errorf("record %d: differ shipped %s, DiffShipment %s", i, rec.ID, want.Ship["e"].Records[i].ID)
		}
	}
	tombs, n := d.Tombstones()
	if n != want.Tombstones || !reflect.DeepEqual(tombs, want.Tombs) {
		t.Errorf("differ tombstones %v (%d), DiffShipment %v (%d)", tombs, n, want.Tombs, want.Tombstones)
	}
	if edges, keyed := d.Fresh(); !keyed || len(edges["e"]) != 3 {
		t.Errorf("fresh generation %v keyed=%v, want the 3 fresh records", edges, keyed)
	}
}
