package relstore

import (
	"fmt"
	"sync"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Store maps a fragmentation onto relational tables: one table per
// fragment. Columns are, per member element in schema pre-order, an
// identifier column "<elem>$id" and — for leaf elements — a text column
// "<elem>$txt", plus "$parent" holding the foreign key to the parent
// fragment instance. This captures document structure through keys exactly
// as the paper's schemas S, MF and LF do.
//
// A fragment with no internal repetition stores one row per fragment-root
// instance. A fragment with exactly one internally repeated subtree — such
// as §1.1's denormalized LINE_FEATURE relation, one row per (line, feature)
// pair — stores one row per repeated-subtree instance (or a single row with
// empty repeat columns when none exist). Fragments with more than one
// internal repetition are rejected.
//
// Rows change in three ways: Load appends a fragment instance's rows,
// DeleteRoots drops every row of the named fragment-root instances, and
// Clear drops everything. Each call advances the store's mutation
// generation (Generation), so a caller that applied its own changes can
// later tell whether anyone else wrote in between. A Load into an
// unindexed table (say, after Clear) is a bulk load that leaves indexing
// to BuildIndexes, the paper's separate step; a Load into an indexed table
// maintains its indexes row by row, as does DeleteRoots on a flat table.
// BuildIndexes rebuilds only the tables left without indexes.
type Store struct {
	// Layout is the fragmentation the store is organized by.
	Layout *core.Fragmentation

	mu     sync.RWMutex
	tables map[string]*Table
	descs  map[string]*tableDesc
	gen    uint64 // mutation generation: Load, DeleteRoots and Clear count
}

// tableDesc records how a fragment maps onto its table.
type tableDesc struct {
	frag *core.Fragment
	// rootElems are the fragment elements outside the repeated subtree, in
	// schema pre-order.
	rootElems []string
	// repRoot is the internally repeated element ("" when the fragment is
	// flat); repElems its subtree within the fragment, in pre-order.
	repRoot  string
	repElems []string
}

// NewStore creates an empty store laid out per fr.
func NewStore(fr *core.Fragmentation) (*Store, error) {
	s := &Store{
		Layout: fr,
		tables: make(map[string]*Table, fr.Len()),
		descs:  make(map[string]*tableDesc, fr.Len()),
	}
	for _, f := range fr.Fragments {
		desc, err := describeFragment(fr.Schema, f)
		if err != nil {
			return nil, err
		}
		t, err := NewTable(f.Name, desc.columns(fr.Schema))
		if err != nil {
			return nil, err
		}
		s.tables[f.Name] = t
		s.descs[f.Name] = desc
	}
	return s, nil
}

// describeFragment analyses internal repetition.
func describeFragment(sch *schema.Schema, f *core.Fragment) (*tableDesc, error) {
	d := &tableDesc{frag: f}
	for _, e := range sch.Names() {
		if !f.Elems[e] || e == f.Root {
			continue
		}
		repeated := sch.ByName(e).Repeated || len(sch.Parents(e)) > 1
		if !repeated {
			continue
		}
		if d.repRoot != "" {
			return nil, fmt.Errorf("relstore: fragment %q repeats both %q and %q internally; at most one denormalized repetition is supported", f.Name, d.repRoot, e)
		}
		if len(sch.Parents(e)) > 1 {
			return nil, fmt.Errorf("relstore: fragment %q denormalizes multi-parent element %q; not supported", f.Name, e)
		}
		d.repRoot = e
	}
	inRep := func(e string) bool {
		if d.repRoot == "" {
			return false
		}
		if e == d.repRoot {
			return true
		}
		return sch.IsAncestor(d.repRoot, e)
	}
	for _, e := range sch.Names() {
		if !f.Elems[e] {
			continue
		}
		if inRep(e) {
			if e != d.repRoot && (sch.ByName(e).Repeated || len(sch.Parents(e)) > 1) {
				return nil, fmt.Errorf("relstore: fragment %q has nested repetition under %q", f.Name, d.repRoot)
			}
			d.repElems = append(d.repElems, e)
		} else {
			d.rootElems = append(d.rootElems, e)
		}
	}
	return d, nil
}

func (d *tableDesc) columns(sch *schema.Schema) []string {
	cols := []string{"$parent"}
	add := func(elems []string) {
		for _, e := range elems {
			cols = append(cols, e+"$id")
			if sch.ByName(e).IsLeaf() {
				cols = append(cols, e+"$txt")
			}
		}
	}
	add(d.rootElems)
	add(d.repElems)
	return cols
}

// Table returns the table backing the named fragment, or nil.
func (s *Store) Table(fragName string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[fragName]
}

// Tables returns the fragment names in layout order.
func (s *Store) Tables() []string {
	out := make([]string, 0, len(s.tables))
	for _, f := range s.Layout.Fragments {
		out = append(out, f.Name)
	}
	return out
}

// Load shreds a fragment instance into its table (the store-side Write of
// Definition 3.9). The instance's fragment must match a layout fragment by
// element set.
func (s *Store) Load(in *core.Instance) error {
	name := s.layoutName(in.Frag)
	if name == "" {
		return fmt.Errorf("relstore: no layout fragment matching %q", in.Frag.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	t := s.tables[name]
	d := s.descs[name]
	sh := &shredder{t: t, d: d, slab: rowSlab{width: len(t.Cols)}, base: make([]string, len(t.Cols))}
	rows := make([][]string, 0, len(in.Records))
	var err error
	for i, rec := range in.Records {
		sh.slab.left, sh.slab.recs = len(in.Records)-i, i
		if rows, err = sh.record(rec, rows); err != nil {
			return err
		}
	}
	if t.indexes[d.frag.Root+"$id"] != nil && t.indexes["$parent"] != nil {
		// The table is indexed already (an incremental apply): keep the
		// indexes current, O(new rows), instead of dropping them for a
		// rebuild over every row.
		for _, r := range rows {
			if err := t.Insert(r); err != nil {
				return err
			}
		}
		return nil
	}
	return t.BulkLoad(rows)
}

// DeleteRoots drops every row of the named fragment's table whose
// fragment-root identifier is in ids — all rows of a denormalized record.
// An indexed flat table keeps its indexes current (the last rows move into
// the holes, so row order changes); a denormalized or unindexed one is
// compacted in order and its indexes are dropped for BuildIndexes to
// rebuild. The dropped rows' values are cleared so their strings can be
// freed even while a surviving row keeps their shared slab alive. It
// reports how many rows it dropped; unknown identifiers are ignored.
func (s *Store) DeleteRoots(f *core.Fragment, ids []string) (int, error) {
	name := s.layoutName(f)
	if name == "" {
		return 0, fmt.Errorf("relstore: no layout fragment matching %q", f.Name)
	}
	drop := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id == "" {
			id = "-" // how fill stores an instance without identifier
		}
		drop[id] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	d := s.descs[name]
	// Rows of a denormalized record must stay contiguous (ScanFragment
	// regroups them), so only flat tables fill holes from the end.
	return s.tables[name].deleteWhere(d.frag.Root+"$id", drop, d.repRoot != ""), nil
}

// Generation returns the store's mutation generation: it advances on every
// Load, DeleteRoots and Clear, and on nothing else.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

func (s *Store) layoutName(f *core.Fragment) string {
	for _, lf := range s.Layout.Fragments {
		if lf.SameElems(f) {
			return lf.Name
		}
	}
	return ""
}

// rowSlab carves fixed-width rows out of shared backing arrays sized to
// the load, so shredding stops paying one allocation per row. Rows of one
// Load share slabs; DeleteRoots can later drop some of them, and a
// surviving row then keeps its whole slab reachable. Sizing slabs to the
// load (rather than a fixed row count) bounds that: a load of a few
// records — an incremental apply — pins a few rows' worth, not hundreds.
type rowSlab struct {
	buf   []string
	width int
	// left is how many records of the load are still to shred (the one
	// being shredded included), recs how many are done and rows how many
	// rows they took, so a refill can extrapolate the rows per record.
	left       int
	rows, recs int
}

func (sl *rowSlab) row() []string {
	if len(sl.buf) < sl.width {
		// Denormalized records yield several rows each: scale by the rows
		// per record seen so far (or, within the first record, double).
		n := max(sl.left, 1)
		if sl.recs > 0 {
			n *= (sl.rows + sl.recs - 1) / sl.recs
		} else {
			n = max(n, sl.rows)
		}
		sl.buf = make([]string, sl.width*n)
	}
	sl.rows++
	r := sl.buf[:sl.width:sl.width]
	sl.buf = sl.buf[sl.width:]
	return r
}

// shredder flattens record trees into table rows. One shredder serves a
// whole Load: the base scratch row and the rep list are reused across
// records, and finished rows come from the shared slab, so the per-record
// allocation count is (amortized) zero.
type shredder struct {
	t    *Table
	d    *tableDesc
	slab rowSlab
	base []string // scratch for the non-repeated part, cleared per record
	reps []*xmltree.Node
}

// record flattens one record tree and appends its rows.
func (sh *shredder) record(rec *xmltree.Node, rows [][]string) ([][]string, error) {
	if rec.Name != sh.d.frag.Root {
		return nil, fmt.Errorf("relstore: record root %q does not match fragment root %q", rec.Name, sh.d.frag.Root)
	}
	clear(sh.base)
	sh.reps = sh.reps[:0]
	sh.base[sh.t.ColIndex("$parent")] = rec.Parent
	if err := sh.walkBase(rec); err != nil {
		return nil, err
	}
	if len(sh.reps) == 0 {
		row := sh.slab.row()
		copy(row, sh.base)
		return append(rows, row), nil
	}
	for _, rep := range sh.reps {
		row := sh.slab.row()
		copy(row, sh.base)
		if err := sh.walkRep(row, rep); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (sh *shredder) fill(row []string, n *xmltree.Node) error {
	ci := sh.t.ColIndex(n.Name + "$id")
	if ci < 0 {
		return fmt.Errorf("relstore: record for %q contains unexpected element %q", sh.d.frag.Name, n.Name)
	}
	if row[ci] != "" {
		return fmt.Errorf("relstore: record for %q repeats element %q", sh.d.frag.Name, n.Name)
	}
	id := n.ID
	if id == "" {
		id = "-"
	}
	row[ci] = id
	if ti := sh.t.ColIndex(n.Name + "$txt"); ti >= 0 {
		row[ti] = n.Text
	}
	return nil
}

// walkBase fills the scratch row from the non-repeated part of the tree,
// collecting repeated-subtree roots for walkRep.
func (sh *shredder) walkBase(n *xmltree.Node) error {
	if n.Name == sh.d.repRoot {
		sh.reps = append(sh.reps, n)
		return nil
	}
	if err := sh.fill(sh.base, n); err != nil {
		return err
	}
	for _, k := range n.Kids {
		if err := sh.walkBase(k); err != nil {
			return err
		}
	}
	return nil
}

func (sh *shredder) walkRep(row []string, n *xmltree.Node) error {
	if err := sh.fill(row, n); err != nil {
		return err
	}
	for _, k := range n.Kids {
		if err := sh.walkRep(row, k); err != nil {
			return err
		}
	}
	return nil
}

// ScanFragment materializes the instance of the named layout fragment from
// its table (the store-side Scan of Definition 3.6). Rows of a denormalized
// fragment are regrouped by their root identifier (rows of one root are
// stored contiguously by Load).
func (s *Store) ScanFragment(fragName string) (*core.Instance, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f := s.Layout.ByName(fragName)
	if f == nil {
		return nil, fmt.Errorf("relstore: unknown fragment %q", fragName)
	}
	t := s.tables[fragName]
	d := s.descs[fragName]
	sch := s.Layout.Schema
	inst := &core.Instance{Frag: f, Records: make([]*xmltree.Node, 0, t.Len())}
	// The attachment point of repeated subtrees is a fixed element per
	// fragment; resolve it once instead of building a name→node map per row.
	attachElem := ""
	if d.repRoot != "" {
		attachElem = sch.ParentOf(d.repRoot)
	}
	// All records of one scan share an arena: the instance is the decode
	// unit, so its nodes live and die together.
	var arena xmltree.Arena
	var curRoot *xmltree.Node
	var curRootID string
	var attach *xmltree.Node   // the current root's attachment-point node
	var fixups []*xmltree.Node // nodes whose kid order needs restoring
	err := t.Scan(func(row []string) error {
		rootID := row[t.ColIndex(f.Root+"$id")]
		if curRoot == nil || rootID != curRootID {
			rec, at, err := buildPart(sch, d, t, row, f.Root, row[t.ColIndex("$parent")], false, attachElem, &arena)
			if err != nil {
				return err
			}
			curRoot, curRootID, attach = rec, rootID, at
			inst.Records = append(inst.Records, rec)
		}
		if d.repRoot == "" {
			return nil
		}
		repID := row[t.ColIndex(d.repRoot+"$id")]
		if repID == "" {
			return nil // root instance without repeated children
		}
		if attach == nil {
			return fmt.Errorf("relstore: fragment %q: no attachment point %q for %q", f.Name, attachElem, d.repRoot)
		}
		rep, _, err := buildPart(sch, d, t, row, d.repRoot, attach.ID, true, "", &arena)
		if err != nil {
			return err
		}
		if len(attach.Kids) == 0 || attach.Kids[len(attach.Kids)-1].Name != d.repRoot {
			fixups = append(fixups, attach)
		}
		attach.AddKid(rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range fixups {
		core.SortKids(sch, n)
	}
	return inst, nil
}

// buildPart reconstructs either the base part (fromRep=false, stopping at
// the repeated subtree) or the repeated part of one row. It returns the
// subtree root and, when wantNode names an element, that element's node
// (the repeated subtree's attachment point — recording one pointer replaced
// a per-row name→node map).
func buildPart(sch *schema.Schema, d *tableDesc, t *Table, row []string, elem, parentID string, fromRep bool, wantNode string, arena *xmltree.Arena) (*xmltree.Node, *xmltree.Node, error) {
	var want *xmltree.Node
	var build func(elem, parentID string) (*xmltree.Node, error)
	build = func(elem, parentID string) (*xmltree.Node, error) {
		if !fromRep && elem == d.repRoot {
			return nil, nil // attached per-row later
		}
		id := row[t.ColIndex(elem+"$id")]
		if id == "" {
			return nil, nil // optional element absent
		}
		if id == "-" {
			id = ""
		}
		n := arena.New()
		n.Name, n.ID, n.Parent = elem, id, parentID
		if elem == wantNode {
			want = n
		}
		if ti := t.ColIndex(elem + "$txt"); ti >= 0 {
			n.Text = row[ti]
		}
		for _, c := range sch.AllChildren(elem) {
			if !d.frag.Elems[c] {
				continue
			}
			if fromRep && !inElems(d.repElems, c) {
				continue
			}
			k, err := build(c, id)
			if err != nil {
				return nil, err
			}
			if k != nil {
				n.AddKid(k)
			}
		}
		return n, nil
	}
	root, err := build(elem, parentID)
	if err != nil {
		return nil, nil, err
	}
	if root == nil {
		return nil, nil, fmt.Errorf("relstore: row has empty identifier for %q", elem)
	}
	return root, want, nil
}

func inElems(list []string, e string) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

// ScanFragmentWhere is ScanFragment restricted to records whose leaf
// element equals value — the store-side push-down of a service argument
// (§3.2). When the column is indexed and matches the fragment root's
// identifier semantics the index is used; otherwise the scan filters.
func (s *Store) ScanFragmentWhere(fragName, leafElem, value string) (*core.Instance, error) {
	in, err := s.ScanFragment(fragName)
	if err != nil {
		return nil, err
	}
	f := in.Frag
	if !f.Elems[leafElem] {
		return nil, fmt.Errorf("relstore: fragment %q has no element %q", fragName, leafElem)
	}
	if !s.Layout.Schema.ByName(leafElem).IsLeaf() {
		return nil, fmt.Errorf("relstore: predicate element %q is not a leaf", leafElem)
	}
	kept := in.Records[:0:0]
	for _, rec := range in.Records {
		n := rec.Find(leafElem)
		if n != nil && n.Text == value {
			kept = append(kept, rec)
		}
	}
	return &core.Instance{Frag: f, Records: kept}, nil
}

// BuildIndexes creates hash indexes on the root identifier and the parent
// foreign key of every table — the paper's "update indexes at the target"
// step (Table 4). Tables whose indexes are intact (no Load, DeleteRoots or
// Clear since the last build) are skipped, so the step costs what changed.
func (s *Store) BuildIndexes() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.Layout.Fragments {
		t := s.tables[f.Name]
		if t.indexes[f.Root+"$id"] != nil && t.indexes["$parent"] != nil {
			continue
		}
		if _, err := t.CreateIndex(f.Root + "$id"); err != nil {
			return err
		}
		if _, err := t.CreateIndex("$parent"); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the total number of rows across all tables.
func (s *Store) Rows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, t := range s.tables {
		n += t.Len()
	}
	return n
}

// ByteSize returns the total stored bytes across all tables.
func (s *Store) ByteSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.ByteSize()
	}
	return n
}

// Clear drops all rows and indexes, keeping the layout ("the target
// database was initially empty", §5).
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	for name, t := range s.tables {
		nt, _ := NewTable(t.Name, t.Cols)
		s.tables[name] = nt
	}
}

// LoadDocument shreds a whole document into the store by splitting it per
// the layout; a convenience for fixtures and tests.
func (s *Store) LoadDocument(doc *xmltree.Node) error {
	insts, err := core.FromDocument(s.Layout, doc)
	if err != nil {
		return err
	}
	for _, f := range s.Layout.Fragments {
		if err := s.Load(insts[f.Name]); err != nil {
			return err
		}
	}
	return nil
}

// Stats computes per-element cardinalities and average serialized sizes
// from the stored data, which back the endpoint's cost interface.
func (s *Store) Stats() (card, bytes map[string]float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	card = make(map[string]float64)
	bytes = make(map[string]float64)
	for _, f := range s.Layout.Fragments {
		t := s.tables[f.Name]
		d := s.descs[f.Name]
		for e := range f.Elems {
			n := 0
			var sz float64
			idCol := t.ColIndex(e + "$id")
			txtCol := t.ColIndex(e + "$txt")
			lastRoot := ""
			rootCol := t.ColIndex(f.Root + "$id")
			inRep := inElems(d.repElems, e)
			for i := 0; i < t.Len(); i++ {
				row := t.Row(i)
				if row[idCol] == "" {
					continue
				}
				// Base-part values repeat across denormalized rows; count
				// them once per root instance.
				if !inRep && d.repRoot != "" {
					if row[rootCol] == lastRoot {
						continue
					}
				}
				if !inRep {
					lastRoot = row[rootCol]
				}
				n++
				sz += float64(2*len(e) + 5)
				if txtCol >= 0 {
					sz += float64(len(row[txtCol]))
				}
			}
			card[e] = float64(n)
			if n > 0 {
				bytes[e] = sz / float64(n)
			} else {
				bytes[e] = float64(2*len(e) + 5)
			}
		}
	}
	return card, bytes
}
