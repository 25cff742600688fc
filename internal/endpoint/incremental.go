package endpoint

// Incremental apply of warm deltas at the target. The cost model charges
// the target for the operations placed there (§4.1), and Table 4 counts its
// load and index steps separately; on a delta none of them should scale
// with the snapshot.
//
// Without a Split, the target slice is one Combine tree per Write: every
// output record of a Write is one record of the tree's top inbound edge
// with records of the other edges attached beneath it. A Combine output
// record therefore changes only if a record it is built from changed — the
// join delta rule Δ(A⋈B) = ΔA⋈B ∪ A⋈ΔB ∪ ΔA⋈ΔB at record granularity. Per
// retained delta base the endpoint keeps a root index: the output record
// (root) every element instance lies in, and per root the inbound records
// it is built from. A warm delta then re-runs the unchanged slice executor
// over just the patched records of the roots it touches, deletes those
// roots' rows from the store, loads the recomputed rows and re-indexes the
// tables it touched.

import (
	"strings"
	"time"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// RootDeleter marks backends a warm delta can update in place: it drops
// every stored row of the given output records (by the ID of their
// fragment-root instance) and counts mutations, so the endpoint can tell
// whether anything else wrote since its last apply. Backends without it
// take the full path: clear, then re-execute the whole patched snapshot.
type RootDeleter interface {
	// DeleteRoots drops every row of f's records whose root ID is in ids.
	DeleteRoots(f *core.Fragment, ids []string) error
	// Generation advances on every change to the stored rows.
	Generation() uint64
}

// Reasons a warm delta takes the full path instead of the incremental one;
// each is counted as endpoint.delta.full.<reason>.
const (
	fullSplit      = "split"      // the target slice splits: one inbound record may feed several roots
	fullBackend    = "backend"    // the backend is no RootDeleter
	fullMutated    = "mutated"    // the store changed since the stream's last apply
	fullEdge       = "edge"       // an inbound edge is absent from the delta
	fullUnresolved = "unresolved" // a record's output root cannot be resolved
	fullExec       = "exec"       // the restricted run failed (the full run reports why)
)

// rootRef names one output record of the target slice: its Write (an
// index into targetShape.writes) and the ID of its root element.
type rootRef struct {
	w  int
	id string
}

// nodeKey identifies an element instance. IDs are compared per element
// name, as Combine joins them.
type nodeKey struct{ name, id string }

// shapeEdge is one inbound edge of the target slice.
type shapeEdge struct {
	key string
	w   int // the Write its records end up in
	// top marks the edge whose records are the Write's output records;
	// parents are the schema parents of the edge fragment's root, which
	// the records of every other edge attach under.
	top     bool
	root    string
	parents []string
}

// targetShape is what the incremental apply needs to know of a program's
// target slice: its Writes and, per Write, the inbound edges its Combine
// tree joins, parent side first.
type targetShape struct {
	writes []*core.Op
	edges  []shapeEdge
	sig    string // identifies the shape; a root index is only reused under it
}

// analyzeTarget derives the target slice's shape; false when the slice is
// not a forest of Combine trees over distinct inbound edges (a Split at the
// target, or an edge or Combine output consumed twice).
func analyzeTarget(g *core.Graph, a core.Assignment, sch *schema.Schema) (*targetShape, bool) {
	sh := &targetShape{}
	for _, op := range g.Ops {
		if a[op.ID] != core.LocTarget {
			continue
		}
		switch op.Kind {
		case core.OpSplit:
			return nil, false
		case core.OpWrite:
			sh.writes = append(sh.writes, op)
		}
	}
	seen := map[string]bool{}
	var follow func(e *core.Edge, w int, top bool) bool
	follow = func(e *core.Edge, w int, top bool) bool {
		if a[e.From.ID] != core.LocTarget {
			key := core.EdgeKey(e)
			if seen[key] {
				return false
			}
			seen[key] = true
			sh.edges = append(sh.edges, shapeEdge{key: key, w: w, top: top, root: e.Frag.Root, parents: sch.Parents(e.Frag.Root)})
			return true
		}
		if e.From.Kind != core.OpCombine {
			return false
		}
		ins := g.In(e.From)
		x, y := ins[0], ins[1]
		if !parentSide(sch, x.Frag, y.Frag) {
			x, y = y, x
		}
		// The merged record keeps the parent side's root.
		return follow(x, w, top) && follow(y, w, false)
	}
	var sig strings.Builder
	for w, op := range sh.writes {
		if !follow(g.In(op)[0], w, true) {
			return nil, false
		}
		sig.WriteString(op.Out.Name)
		sig.WriteByte(0)
	}
	for _, se := range sh.edges {
		sig.WriteString(se.key)
		sig.WriteByte(0)
	}
	sh.sig = sig.String()
	return sh, true
}

// parentSide reports whether b's records attach under a's in a Combine:
// every schema parent of b's root lies inside a.
func parentSide(sch *schema.Schema, a, b *core.Fragment) bool {
	ps := sch.Parents(b.Root)
	for _, p := range ps {
		if !a.Elems[p] {
			return false
		}
	}
	return len(ps) > 0
}

// member is one inbound record an output record is built from.
type member struct {
	edge int // index into targetShape.edges
	rec  *xmltree.Node
}

// rootIndex maps the retained base onto the target's output records: the
// root every element instance lies in, and per root its inbound records in
// patched-snapshot order. It is built once per base lineage, at the first
// warm delta, and kept exact across applies.
type rootIndex struct {
	sig     string
	owner   map[nodeKey]rootRef
	members map[rootRef][]member
}

// buildRootIndex indexes a retained snapshot: edges are visited parent
// side first, so every record's parent element is already placed. False
// when a record has no ID, its parent cannot be found, or an element
// instance occurs twice.
func buildRootIndex(sh *targetShape, base map[string]*core.Instance) (*rootIndex, bool) {
	ix := &rootIndex{sig: sh.sig, owner: map[nodeKey]rootRef{}, members: map[rootRef][]member{}}
	for i := range sh.edges {
		in := base[sh.edges[i].key]
		if in == nil {
			continue
		}
		for _, rec := range in.Records {
			r, ok := ix.rootOf(&sh.edges[i], rec)
			if !ok || !ix.place(r, rec) {
				return nil, false
			}
			ix.members[r] = append(ix.members[r], member{edge: i, rec: rec})
		}
	}
	return ix, true
}

// rootOf resolves the root an inbound record of edge se lies under in the
// indexed snapshot: its own ID for the top edge, else its parent's root.
func (ix *rootIndex) rootOf(se *shapeEdge, rec *xmltree.Node) (rootRef, bool) {
	if rec.ID == "" {
		return rootRef{}, false
	}
	if se.top {
		return rootRef{w: se.w, id: rec.ID}, true
	}
	for _, p := range se.parents {
		if r, ok := ix.owner[nodeKey{p, rec.Parent}]; ok {
			return r, true
		}
	}
	return rootRef{}, false
}

// place records every identified element instance of the subtree as lying
// under r; false when one is already placed elsewhere.
func (ix *rootIndex) place(r rootRef, n *xmltree.Node) bool {
	if n.ID != "" {
		k := nodeKey{n.Name, n.ID}
		if old, dup := ix.owner[k]; dup && old != r {
			return false
		}
		ix.owner[k] = r
	}
	for _, kid := range n.Kids {
		if !ix.place(r, kid) {
			return false
		}
	}
	return true
}

// forget removes the subtree's element instances placed under r.
func (ix *rootIndex) forget(r rootRef, n *xmltree.Node) {
	if n.ID != "" {
		k := nodeKey{n.Name, n.ID}
		if ix.owner[k] == r {
			delete(ix.owner, k)
		}
	}
	for _, kid := range n.Kids {
		ix.forget(r, kid)
	}
}

// touched is what a delta changes: the output records to recompute (in
// discovery order, deduplicated) and, per edge, the IDs of base records
// that leave the snapshot or are replaced.
type touched struct {
	roots []rootRef
	set   map[rootRef]bool
	drop  []map[string]bool
}

func (t *touched) add(r rootRef) {
	if !t.set[r] {
		t.set[r] = true
		t.roots = append(t.roots, r)
	}
}

// affected works out which output records a delta touches: the old root
// of every tombstoned and every re-shipped record, and the root every
// shipped record lands under — resolved through records shipped in the
// same delta first (an inserted item arrives with its children), then
// through the index. A record whose ancestor moved may resolve to a stale
// root here, but the moved ancestor is itself shipped, so both its old and
// its new root are touched, and with them every record under either. A
// superset is safe: recomputing an unchanged root yields the same rows.
// False when some root cannot be resolved.
func (ix *rootIndex) affected(sh *targetShape, delta map[string]*core.Instance, tombs map[string][]string) (*touched, bool) {
	t := &touched{set: map[rootRef]bool{}, drop: make([]map[string]bool, len(sh.edges))}
	type shippedRec struct {
		se  *shapeEdge
		rec *xmltree.Node
	}
	shipped := map[nodeKey]shippedRec{}
	var index func(se *shapeEdge, rec, n *xmltree.Node)
	index = func(se *shapeEdge, rec, n *xmltree.Node) {
		if n.ID != "" {
			shipped[nodeKey{n.Name, n.ID}] = shippedRec{se, rec}
		}
		for _, k := range n.Kids {
			index(se, rec, k)
		}
	}
	for i := range sh.edges {
		se := &sh.edges[i]
		ids, recs := tombs[se.key], delta[se.key].Records
		if len(ids)+len(recs) == 0 {
			continue
		}
		t.drop[i] = make(map[string]bool, len(ids)+len(recs))
		for _, id := range ids {
			r, ok := ix.owner[nodeKey{se.root, id}]
			if !ok {
				return nil, false
			}
			t.drop[i][id] = true
			t.add(r)
		}
		for _, rec := range recs {
			if rec.ID == "" {
				return nil, false
			}
			if r, ok := ix.owner[nodeKey{rec.Name, rec.ID}]; ok {
				t.add(r) // re-shipped: its old root loses the old version
			}
			t.drop[i][rec.ID] = true
			index(se, rec, rec)
		}
	}
	resolved := map[*xmltree.Node]rootRef{}
	var resolve func(se *shapeEdge, rec *xmltree.Node, depth int) (rootRef, bool)
	resolve = func(se *shapeEdge, rec *xmltree.Node, depth int) (rootRef, bool) {
		if se.top {
			return rootRef{w: se.w, id: rec.ID}, true
		}
		if r, ok := resolved[rec]; ok {
			return r, true
		}
		if depth > len(sh.edges) {
			return rootRef{}, false // a parent cycle among shipped records
		}
		for _, p := range se.parents {
			k := nodeKey{p, rec.Parent}
			if s, ok := shipped[k]; ok {
				r, ok := resolve(s.se, s.rec, depth+1)
				if ok {
					resolved[rec] = r
				}
				return r, ok
			}
			if r, ok := ix.owner[k]; ok {
				resolved[rec] = r
				return r, true
			}
		}
		return rootRef{}, false
	}
	for i := range sh.edges {
		se := &sh.edges[i]
		for _, rec := range delta[se.key].Records {
			r, ok := resolve(se, rec, 0)
			if !ok {
				return nil, false
			}
			t.add(r)
		}
	}
	return t, true
}

// restrict builds the restricted run's inbound map: per edge, the patched
// records under the touched roots — surviving base members in their order,
// then the shipped records — as copy-on-write views, so the retained base
// never sees the executor's mutations. It also returns the plain record
// lists, which become the touched roots' new members.
func (ix *rootIndex) restrict(sh *targetShape, t *touched, delta map[string]*core.Instance) (map[string]*core.Instance, [][]*xmltree.Node) {
	recs := make([][]*xmltree.Node, len(sh.edges))
	for _, r := range t.roots {
		for _, m := range ix.members[r] {
			if !t.drop[m.edge][m.rec.ID] {
				recs[m.edge] = append(recs[m.edge], m.rec)
			}
		}
	}
	inbound := make(map[string]*core.Instance, len(sh.edges))
	for i, se := range sh.edges {
		din := delta[se.key]
		recs[i] = append(recs[i], din.Records...)
		inbound[se.key] = (&core.Instance{Frag: din.Frag, Records: recs[i]}).Share()
	}
	return inbound, recs
}

// update re-indexes the touched roots after an apply: their old element
// instances and members go first (IDs may be reused), then the recomputed
// output records are placed and the restricted records become members.
// False when the result is inconsistent — the index must then be rebuilt.
func (ix *rootIndex) update(t *touched, outs []*core.Instance, recs [][]*xmltree.Node) bool {
	for _, r := range t.roots {
		for _, m := range ix.members[r] {
			ix.forget(r, m.rec)
		}
		delete(ix.members, r)
	}
	for w, out := range outs {
		if out == nil {
			continue
		}
		for _, rec := range out.Records {
			if !ix.place(rootRef{w: w, id: rec.ID}, rec) {
				return false
			}
		}
	}
	for i, rs := range recs {
		for _, rec := range rs {
			r, ok := ix.owner[nodeKey{rec.Name, rec.ID}]
			if !ok {
				return false
			}
			ix.members[r] = append(ix.members[r], member{edge: i, rec: rec})
		}
	}
	return true
}

// applyIncremental applies a warm delta by recomputing only the output
// records it touches. A non-empty reason means the delta cannot be applied
// this way and the store is untouched; the caller takes the full path. An
// error means the store update itself failed part way. On success it
// returns the response and the base's root index, updated in place (nil
// when it must be rebuilt at the next delta).
func (e *Endpoint) applyIncremental(g *core.Graph, a core.Assignment, base *deltaBase, delta map[string]*core.Instance, tombs map[string][]string, pipelined bool) (*xmltree.Node, *rootIndex, string, error) {
	start := time.Now()
	sch := e.backend.Layout().Schema
	sh, ok := analyzeTarget(g, a, sch)
	if !ok {
		return nil, nil, fullSplit, nil
	}
	rd, ok := e.backend.(RootDeleter)
	if !ok {
		return nil, nil, fullBackend, nil
	}
	if rd.Generation() != base.gen {
		return nil, nil, fullMutated, nil
	}
	for _, se := range sh.edges {
		if delta[se.key] == nil {
			return nil, nil, fullEdge, nil
		}
	}
	ix := base.roots
	if ix == nil || ix.sig != sh.sig {
		if ix, ok = buildRootIndex(sh, base.out); !ok {
			return nil, nil, fullUnresolved, nil
		}
	}
	t, ok := ix.affected(sh, delta, tombs)
	if !ok {
		return nil, nil, fullUnresolved, nil
	}
	inbound, recs := ix.restrict(sh, t, delta)
	writeOf := make(map[*core.Fragment]int, len(sh.writes))
	for w, op := range sh.writes {
		writeOf[op.Out] = w
	}
	outs := make([]*core.Instance, len(sh.writes))
	_, _, err := sliceExec(pipelined)(g, sch, a, core.LocTarget, core.SliceIO{
		Inbound: inbound,
		Write: func(in *core.Instance) error {
			outs[writeOf[in.Frag]] = in
			return nil
		},
	})
	if err != nil {
		return nil, nil, fullExec, nil
	}
	ids := make([][]string, len(sh.writes))
	for _, r := range t.roots {
		ids[r.w] = append(ids[r.w], r.id)
	}
	for w, out := range outs {
		if out == nil {
			continue
		}
		for _, rec := range out.Records {
			if !t.set[rootRef{w: w, id: rec.ID}] {
				// Only touched roots' rows are replaced; anything else
				// would duplicate rows. The full run reports what is wrong.
				return nil, nil, fullExec, nil
			}
		}
	}

	ws := time.Now()
	for w, op := range sh.writes {
		if len(ids[w]) == 0 {
			continue
		}
		if err := rd.DeleteRoots(op.Out, ids[w]); err != nil {
			return nil, nil, "", err
		}
		if out := outs[w]; out != nil && len(out.Records) > 0 {
			if err := e.backend.Write(out); err != nil {
				return nil, nil, "", err
			}
		}
	}
	writeTime := time.Since(ws)
	if !ix.update(t, outs, recs) {
		ix = nil
	}
	resp, err := e.finishTarget(start, writeTime)
	return resp, ix, "", err
}
