package relstore

import (
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// checkIndexes asserts that every index of tb lists each row exactly once,
// under the row's own value.
func checkIndexes(t *testing.T, tb *Table) {
	t.Helper()
	for _, col := range tb.Indexes() {
		ci := tb.ColIndex(col)
		n := 0
		for key, at := range tb.indexes[col].m {
			for _, p := range at {
				if p >= tb.Len() || tb.Row(p)[ci] != key {
					t.Fatalf("table %q index %q: key %q points at row %d (len %d)", tb.Name, col, key, p, tb.Len())
				}
				n++
			}
		}
		if n != tb.Len() {
			t.Fatalf("table %q index %q lists %d rows, table has %d", tb.Name, col, n, tb.Len())
		}
	}
}

// TestStoreDeleteRootsThenLoad replaces single records in place, the way
// an incremental delta apply does: DeleteRoots drops every row of a
// record (several for the denormalized LINE_FEATURE), Load puts the new
// version back, and BuildIndexes rebuilds only the table whose indexes
// were dropped. Flat tables keep their indexes current throughout, and
// tables nobody touched keep theirs untouched.
func TestStoreDeleteRootsThenLoad(t *testing.T) {
	sch := schema.CustomerInfo()
	fr, err := core.FromPartition(sch, "S", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadDocument(customerDoc()); err != nil {
		t.Fatal(err)
	}
	if err := st.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	lineF, swF := fr.FragmentOf("TelNo"), fr.FragmentOf("SwitchID")
	lines, switches := st.Table(lineF.Name), st.Table(swF.Name)
	type tableCol struct{ table, col string }
	untouched := map[tableCol]*Index{}
	for _, name := range []string{fr.FragmentOf("CustName").Name, fr.FragmentOf("Order").Name, fr.FragmentOf("ServiceName").Name} {
		for _, col := range st.Table(name).Indexes() {
			untouched[tableCol{name, col}] = st.Table(name).indexes[col]
		}
	}
	if len(untouched) != 6 {
		t.Fatalf("expected 3 indexed untouched tables, got %d indexes", len(untouched))
	}

	// The first line has two features: two rows, both dropped.
	recs, err := st.ScanFragment(lineF.Name)
	if err != nil {
		t.Fatal(err)
	}
	first := recs.Records[0]
	gen := st.Generation()
	if n, err := st.DeleteRoots(lineF, []string{first.ID, "no-such-line"}); err != nil || n != 2 {
		t.Fatalf("DeleteRoots(line %s) = %d, %v; want 2 rows", first.ID, n, err)
	}
	if lines.Len() != 2 || len(lines.Indexes()) != 0 {
		t.Fatalf("LINE_FEATURE after delete: %d rows, indexes %v; want 2 rows, none", lines.Len(), lines.Indexes())
	}
	// The new version has three features.
	next := first.Clone()
	next.Find("TelNo").Text = "555-9999"
	f := next.Find("Feature").Clone()
	f.ID, f.Find("FeatureID").ID = first.ID+".9", first.ID+".9.1"
	next.AddKid(f)
	if err := st.Load(&core.Instance{Frag: lineF, Records: []*xmltree.Node{next}}); err != nil {
		t.Fatal(err)
	}

	// A flat table: the dropped switch's hole is filled from the end and
	// both indexes stay current.
	sw, err := st.ScanFragment(swF.Name)
	if err != nil {
		t.Fatal(err)
	}
	doomed := sw.Records[0]
	swIdx := switches.indexes["Switch$id"]
	if n, err := st.DeleteRoots(swF, []string{doomed.ID}); err != nil || n != 1 {
		t.Fatalf("DeleteRoots(switch %s) = %d, %v; want 1 row", doomed.ID, n, err)
	}
	if switches.indexes["Switch$id"] != swIdx {
		t.Fatal("DeleteRoots on a flat indexed table dropped its indexes")
	}
	checkIndexes(t, switches)
	moved := doomed.Clone()
	moved.Parent = sw.Records[1].Parent
	moved.ID, moved.Find("SwitchID").ID = doomed.ID+"x", doomed.ID+"x.1"
	if err := st.Load(&core.Instance{Frag: swF, Records: []*xmltree.Node{moved}}); err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, switches)
	if got := st.Generation(); got != gen+4 {
		t.Errorf("generation advanced by %d over two deletes and two loads, want 4", got-gen)
	}

	if err := st.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	if st.Generation() != gen+4 {
		t.Error("BuildIndexes advanced the mutation generation")
	}
	for tc, idx := range untouched {
		if st.Table(tc.table).indexes[tc.col] != idx {
			t.Errorf("untouched table %s: index %s was rebuilt", tc.table, tc.col)
		}
	}
	if switches.indexes["Switch$id"] != swIdx {
		t.Error("BuildIndexes rebuilt a table whose indexes were current")
	}
	checkIndexes(t, lines)
	checkIndexes(t, switches)

	lookup := func(tb *Table, col, key string, want int) {
		t.Helper()
		rows, err := tb.Lookup(col, key)
		if err != nil || len(rows) != want {
			t.Errorf("%s.Lookup(%s, %q) = %d rows, %v; want %d", tb.Name, col, key, len(rows), err, want)
		}
	}
	lookup(lines, "Line$id", first.ID, 3)
	lookup(lines, "$parent", first.Parent, 4) // its own three rows and its sibling line's one
	lookup(switches, "Switch$id", doomed.ID, 0)
	lookup(switches, "Switch$id", moved.ID, 1)
	lookup(switches, "$parent", doomed.Parent, 0)
	lookup(switches, "$parent", moved.Parent, 2)
	if lines.Len() != 5 || switches.Len() != 3 {
		t.Errorf("rows: LINE_FEATURE %d, SWITCH %d; want 5 and 3", lines.Len(), switches.Len())
	}

	// The denormalized record scans back whole, with its new features.
	recs, err = st.ScanFragment(lineF.Name)
	if err != nil {
		t.Fatal(err)
	}
	var got *xmltree.Node
	for _, r := range recs.Records {
		if r.ID == first.ID {
			got = r
		}
	}
	if len(recs.Records) != 3 || got == nil || len(got.FindAll("Feature", nil)) != 3 || got.Find("TelNo").Text != "555-9999" {
		t.Errorf("replaced line does not scan back: %d records, %s", len(recs.Records), xmltree.Marshal(got, xmltree.WriteOptions{}))
	}
	st.Clear()
	if st.Generation() != gen+5 {
		t.Error("Clear did not advance the mutation generation")
	}
}

// TestRowSlabSizedToLoad pins the slab sizing: a one-record load carves
// exactly one row, so a record that survives later deletes pins nothing
// beyond itself; denormalized records extrapolate their rows per record.
func TestRowSlabSizedToLoad(t *testing.T) {
	sl := rowSlab{width: 3, left: 1}
	sl.row()
	if len(sl.buf) != 0 {
		t.Errorf("one-record slab kept %d spare values, want 0", len(sl.buf))
	}
	sl = rowSlab{width: 2, left: 4, recs: 4, rows: 8}
	sl.row()
	if len(sl.buf) != 2*(4*2-1) {
		t.Errorf("refill at 2 rows per record holds %d spare values, want %d", len(sl.buf), 2*(4*2-1))
	}
}
