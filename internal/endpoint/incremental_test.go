package endpoint

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"xdx/internal/core"
	"xdx/internal/obs"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/telgen"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// incRig drives a target endpoint with stream-tagged ExecuteTarget
// deliveries built by the test: the source slice runs in-process over the
// churned documents, the first delivery ships its output in full, and every
// later one ships the delta against the previous output — added or changed
// records (by ID and content) plus tombstones. After each delivery the
// target's rows are compared with a full re-execute of the target slice
// over the fresh output into an empty store.
type incRig struct {
	t         *testing.T
	sch       *schema.Schema
	sFr, tFr  *core.Fragmentation
	g         *core.Graph
	a         core.Assignment
	prog      string
	pipelined bool
	docs      []*xmltree.Node

	ep     *Endpoint
	store  *relstore.Store
	client *soap.Client
	met    *obs.Registry
	done   func()

	stream string
	prev   map[string]map[string]string // per edge key: record ID -> content
	round  int
	// force ships these record IDs in the next delta even if unchanged.
	force map[string]bool
	// edit, when set, rewrites the next delta before it is sent.
	edit func(recs map[string]*core.Instance, tombs map[string][]string)
}

// newIncRig plans sFr -> tFr with every Scan (and, unless splitAtTarget,
// every Split) at the source and the rest at the target, and stands up a
// target endpoint over be (a fresh relational store when be is nil).
func newIncRig(t *testing.T, sch *schema.Schema, sFr, tFr *core.Fragmentation, docs []*xmltree.Node, splitAtTarget bool, be func(*relstore.Store) Backend) *incRig {
	t.Helper()
	m, err := core.NewMapping(sFr, tFr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		a[op.ID] = core.LocTarget
		if op.Kind == core.OpScan || (op.Kind == core.OpSplit && !splitAtTarget) {
			a[op.ID] = core.LocSource
		}
	}
	if !a.Monotone(g) {
		t.Fatal("placement ships data back to the source")
	}
	progXML, err := wire.EncodeProgram(g, a)
	if err != nil {
		t.Fatal(err)
	}
	st, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}
	var backend Backend = &RelBackend{Store: st, Speed: 1, CanCombine: true}
	if be != nil {
		backend = be(st)
	}
	r := &incRig{t: t, sch: sch, sFr: sFr, tFr: tFr, g: g, a: a, docs: docs, store: st, met: obs.NewRegistry(), stream: "s",
		prog: xmltree.Marshal(progXML, xmltree.WriteOptions{EmitAllIDs: true})}
	r.ep = New("T", backend, nil)
	r.ep.SetObs(nil, r.met)
	srv := httptest.NewServer(r.ep.Handler())
	r.client, r.done = &soap.Client{URL: srv.URL}, srv.Close
	return r
}

// output runs the source slice over the current documents.
func (r *incRig) output() map[string]*core.Instance {
	r.t.Helper()
	src := map[string]*core.Instance{}
	for _, f := range r.sFr.Fragments {
		src[f.Name] = &core.Instance{Frag: f}
	}
	for _, doc := range r.docs {
		insts, err := core.FromDocument(r.sFr, doc.Clone())
		if err != nil {
			r.t.Fatal(err)
		}
		for name, in := range insts {
			src[name].Records = append(src[name].Records, in.Records...)
		}
	}
	out, _, err := core.ExecuteSlice(r.g, r.sch, r.a, core.LocSource, core.SliceIO{
		Scan: func(f *core.Fragment) (*core.Instance, error) {
			for _, lf := range r.sFr.Fragments {
				if lf.SameElems(f) {
					return &core.Instance{Frag: f, Records: src[lf.Name].Records}, nil
				}
			}
			return nil, fmt.Errorf("no source fragment %q", f.Name)
		},
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return out
}

// content renders a record with every ID, parent link and text it holds.
func content(n *xmltree.Node) string {
	var b strings.Builder
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		fmt.Fprintf(&b, "<%s %q %q %q", n.Name, n.ID, n.Parent, n.Text)
		for _, k := range n.Kids {
			walk(k)
		}
		b.WriteString(">")
	}
	walk(n)
	return b.String()
}

// shipment is one prepared delivery: the records and tombstones to send
// and the output state it leaves the target in.
type shipment struct {
	delta bool
	recs  map[string]*core.Instance
	tombs map[string][]string
	cur   map[string]map[string]string
}

// prepare diffs the current output against the last delivered one: the
// whole output on the first call, a delta afterwards.
func (r *incRig) prepare() *shipment {
	r.t.Helper()
	sh := &shipment{delta: r.prev != nil, recs: map[string]*core.Instance{}, tombs: map[string][]string{}, cur: map[string]map[string]string{}}
	for key, in := range r.output() {
		sh.cur[key] = map[string]string{}
		ship := &core.Instance{Frag: in.Frag}
		for _, rec := range in.Records {
			c := content(rec)
			sh.cur[key][rec.ID] = c
			if old, ok := r.prev[key][rec.ID]; !sh.delta || !ok || old != c || r.force[rec.ID] {
				ship.Records = append(ship.Records, rec)
			}
		}
		sh.recs[key] = ship
		for id := range r.prev[key] {
			if _, ok := sh.cur[key][id]; !ok {
				sh.tombs[key] = append(sh.tombs[key], id)
			}
		}
		sort.Strings(sh.tombs[key])
	}
	if r.edit != nil {
		r.edit(sh.recs, sh.tombs)
		r.edit = nil
	}
	r.force = nil
	r.round++
	return sh
}

// exchange ships the current output (in full on the first call, as a
// delta afterwards) and returns the delivery's error.
func (r *incRig) exchange() error {
	r.t.Helper()
	sh := r.prepare()
	err := r.deliver(sh, r.round)
	if err == nil {
		r.prev = sh.cur
	}
	return err
}

// deliver sends one stream-tagged ExecuteTarget request. It may run on
// any goroutine.
func (r *incRig) deliver(sh *shipment, round int) error {
	var ship bytes.Buffer
	sw := wire.NewShipmentWriter(&ship, r.sch, false)
	sw.SetChunkSize(8)
	sw.SetDelta(sh.delta)
	keys := make([]string, 0, len(sh.recs))
	for k := range sh.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := sw.Emit(k, sh.recs[k].Frag, sh.recs[k].Records); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range sh.tombs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seq := sw.NextSeq()
	for _, k := range keys {
		if len(sh.tombs[k]) == 0 {
			continue
		}
		if err := sw.EmitTombstones(k, sh.tombs[k], seq); err != nil {
			return err
		}
		seq++
	}
	if err := sw.Close(); err != nil {
		return err
	}
	attrs := fmt.Sprintf(` session="%s-%d" stream="%s" epoch="e1"`, r.stream, round, r.stream)
	if sh.delta {
		attrs += ` delta="1"`
	}
	if r.pipelined {
		attrs += ` pipelined="1"`
	}
	return r.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, "<ExecuteTarget"+attrs+">")
		io.WriteString(w, r.prog)
		_, err := w.Write(ship.Bytes())
		io.WriteString(w, "</ExecuteTarget>")
		return err
	}, &xmltree.TreeBuilder{})
}

// tableRows renders every table of st as sorted row strings.
func tableRows(st *relstore.Store) map[string][]string {
	out := map[string][]string{}
	for _, name := range st.Tables() {
		tb := st.Table(name)
		rows := make([]string, 0, tb.Len())
		for i := 0; i < tb.Len(); i++ {
			rows = append(rows, strings.Join(tb.Row(i), "\x1f"))
		}
		sort.Strings(rows)
		out[name] = rows
	}
	return out
}

// check compares the target with a full re-execute of the current output.
func (r *incRig) check(what string) {
	r.t.Helper()
	ref, err := relstore.NewStore(r.tFr)
	if err != nil {
		r.t.Fatal(err)
	}
	// The reference sees the output as the target does: through the
	// codec, which drops IDs of leaves inside records.
	var ship bytes.Buffer
	if err := wire.StreamShipment(&ship, r.output(), r.sch, false); err != nil {
		r.t.Fatal(err)
	}
	out, err := wire.ReadShipment(&ship, r.sch, fragDict(r.g))
	if err != nil {
		r.t.Fatal(err)
	}
	if _, _, err := core.ExecuteSlice(r.g, r.sch, r.a, core.LocTarget, core.SliceIO{Inbound: out, Write: ref.Load}); err != nil {
		r.t.Fatal(err)
	}
	got, want := tableRows(r.store), tableRows(ref)
	for name, w := range want {
		g := got[name]
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			r.t.Fatalf("%s: table %s holds %d rows, full re-execute %d; contents differ", what, name, len(g), len(w))
		}
	}
	for _, name := range r.store.Tables() {
		tb := r.store.Table(name)
		if len(tb.Indexes()) != 2 {
			r.t.Fatalf("%s: table %s has indexes %v after the apply", what, name, tb.Indexes())
		}
		f := r.tFr.ByName(name)
		for i := 0; i < tb.Len(); i++ {
			id := tb.Row(i)[tb.ColIndex(f.Root+"$id")]
			rows, err := tb.Lookup(f.Root+"$id", id)
			if err != nil || len(rows) == 0 {
				r.t.Fatalf("%s: table %s: index misses root %s", what, name, id)
			}
		}
	}
}

// checkRootIndex asserts the stream's root index is exact: it equals an
// index built afresh from the retained snapshot — same owner of every
// element instance, same members per output record.
func (r *incRig) checkRootIndex(what string) {
	r.t.Helper()
	base := r.ep.deltaBaseFor(r.stream, "e1")
	if base == nil || base.roots == nil {
		r.t.Fatalf("%s: no root index retained", what)
	}
	sh, ok := analyzeTarget(r.g, r.a, r.sch)
	if !ok {
		r.t.Fatal("target slice not analyzable")
	}
	fresh, ok := buildRootIndex(sh, base.out)
	if !ok {
		r.t.Fatalf("%s: retained snapshot does not index", what)
	}
	if !reflect.DeepEqual(base.roots.owner, fresh.owner) {
		r.t.Fatalf("%s: root index owners drifted from the snapshot (%d vs %d entries)", what, len(base.roots.owner), len(fresh.owner))
	}
	count := func(ms []member) map[member]int {
		c := map[member]int{}
		for _, m := range ms {
			c[m]++
		}
		return c
	}
	if len(base.roots.members) != len(fresh.members) {
		r.t.Fatalf("%s: root index has %d roots, snapshot %d", what, len(base.roots.members), len(fresh.members))
	}
	for root, ms := range fresh.members {
		if !reflect.DeepEqual(count(base.roots.members[root]), count(ms)) {
			r.t.Fatalf("%s: members of root %v drifted from the snapshot", what, root)
		}
	}
}

func (r *incRig) counter(name string) int64 { return r.met.Counter(name).Value() }

// churner edits documents by element name. Only elements whose siblings
// may repeat are deleted, inserted or moved; inserts and moves append
// after the parent's existing kids, which keeps schema order for the
// schemas here (the repeated element is always the last child).
type churner struct {
	docs *[]*xmltree.Node
	rng  *rand.Rand
	next int
}

type placed struct{ parent, n *xmltree.Node }

func (c *churner) all(name string) []placed {
	var out []placed
	var walk func(p, n *xmltree.Node)
	walk = func(p, n *xmltree.Node) {
		if n.Name == name {
			out = append(out, placed{p, n})
		}
		for _, k := range n.Kids {
			walk(n, k)
		}
	}
	for _, d := range *c.docs {
		walk(nil, d)
	}
	return out
}

func (c *churner) pick(name string) placed {
	all := c.all(name)
	return all[c.rng.Intn(len(all))]
}

func (c *churner) fresh() string {
	c.next++
	return fmt.Sprintf("n%d", c.next)
}

func (c *churner) detach(p placed) {
	if p.parent == nil {
		// A document root: drop the whole document.
		docs := (*c.docs)[:0]
		for _, d := range *c.docs {
			if d != p.n {
				docs = append(docs, d)
			}
		}
		*c.docs = docs
		return
	}
	kids := p.parent.Kids[:0]
	for _, k := range p.parent.Kids {
		if k != p.n {
			kids = append(kids, k)
		}
	}
	p.parent.Kids = kids
}

// otherParent picks a node named like p's parent, other than it.
func (c *churner) otherParent(p placed) *xmltree.Node {
	for {
		q := c.pick(p.parent.Name).n
		if q != p.parent || len(c.all(p.parent.Name)) == 1 {
			return q
		}
	}
}

func (c *churner) renumber(n *xmltree.Node, parent string) {
	n.ID, n.Parent = c.fresh(), parent
	for _, k := range n.Kids {
		c.renumber(k, n.ID)
	}
}

// del removes a random name element with its subtree; it returns its ID.
func (c *churner) del(name string) string {
	p := c.pick(name)
	c.detach(p)
	return p.n.ID
}

// upd rewrites the text of a random name element.
func (c *churner) upd(name string) {
	p := c.pick(name)
	p.n.Text = fmt.Sprintf("%s rev %s", p.n.Text, c.fresh())
}

// ins appends a copy of a random name element, under fresh IDs, to a
// random parent of its kind; id, when set, is the copy's own ID.
func (c *churner) ins(name, id string) {
	p := c.pick(name)
	to := c.otherParent(p)
	cp := p.n.Clone()
	c.renumber(cp, to.ID)
	if id != "" {
		cp.ID = id
		for _, k := range cp.Kids {
			k.Parent = id
		}
	}
	to.AddKid(cp)
}

// move re-parents a random name element under another parent of its kind.
func (c *churner) move(name string) {
	p := c.pick(name)
	to := c.otherParent(p)
	c.detach(p)
	p.n.Parent = to.ID
	to.AddKid(p.n)
}

// swap exchanges the name children (not repeated) of two parents.
func (c *churner) swap(name string) {
	a, b := c.pick(name), c.pick(name)
	if a.parent == b.parent {
		return
	}
	for i, k := range a.parent.Kids {
		if k == a.n {
			a.parent.Kids[i] = b.n
		}
	}
	for i, k := range b.parent.Kids {
		if k == b.n {
			b.parent.Kids[i] = a.n
		}
	}
	a.n.Parent, b.n.Parent = b.parent.ID, a.parent.ID
}

// incCase is one layout pair of the churn property.
type incCase struct {
	name     string
	sch      *schema.Schema
	sFr, tFr *core.Fragmentation
	docs     func() []*xmltree.Node
	// rounds lists, per churn round, the edits: op:element, with op one
	// of del, upd, ins, reuse (delete one and insert a new one under the
	// deleted ID, elsewhere), move, swap, force (re-ship unchanged).
	rounds [][]string
}

func incCases(t *testing.T) []incCase {
	xsch := xmark.Schema()
	csch := telgen.Schema()
	part := func(name string, p [][]string) *core.Fragmentation {
		fr, err := core.FromPartition(csch, name, p)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	s := part("S", [][]string{
		{"Customer", "CustName"}, {"Order"}, {"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"}, {"Switch", "SwitchID"},
	})
	tf := part("T", [][]string{
		{"Customer", "CustName"}, {"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"}, {"Feature", "FeatureID"},
	})
	customers := func() []*xmltree.Node { return telgen.Customers(telgen.Config{Customers: 6, MaxFeatures: 3, Seed: 4}) }
	telRounds := [][]string{
		{},
		{"del:Line", "upd:TelNo", "ins:Line", "upd:FeatureID"},
		{"reuse:Feature", "move:Feature", "move:Line"},
		{"upd:CustName", "force:Customer", "del:Feature"},
		{"del:Order", "ins:Order", "reuse:Line", "upd:SwitchID"},
		{"del:Customer", "ins:Feature", "move:Line", "move:Feature", "upd:ServiceName"},
		{},
	}
	return []incCase{
		{
			name: "xmark MF-LF", sch: xsch, sFr: core.MostFragmented(xsch), tFr: core.LeastFragmented(xsch),
			docs: func() []*xmltree.Node {
				return []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 40_000, Seed: 9})}
			},
			rounds: [][]string{
				{},
				{"del:item", "del:item", "upd:idescription", "upd:iname", "ins:item", "ins:item"},
				{"reuse:item", "move:item", "swap:mailbox"},
				{"upd:site", "upd:people", "force:site", "upd:quantity"},
				{"del:category", "ins:category", "reuse:item", "move:item", "swap:location", "upd:cname"},
				{},
			},
		},
		{name: "telgen S-T", sch: csch, sFr: s, tFr: tf, docs: customers, rounds: telRounds},
		{name: "telgen T-S", sch: csch, sFr: tf, tFr: s, docs: customers, rounds: telRounds},
	}
}

// apply runs one round's edits.
func (r *incRig) apply(c *churner, edits []string) {
	for _, e := range edits {
		op, name, _ := strings.Cut(e, ":")
		switch op {
		case "del":
			c.del(name)
		case "upd":
			c.upd(name)
		case "ins":
			c.ins(name, "")
		case "reuse":
			c.ins(name, c.del(name))
		case "move":
			c.move(name)
		case "swap":
			c.swap(name)
		case "force":
			if r.force == nil {
				r.force = map[string]bool{}
			}
			r.force[c.pick(name).n.ID] = true
		default:
			r.t.Fatalf("unknown edit %q", e)
		}
	}
}

// TestIncrementalApplyChurnProperty is the endpoint-level property of the
// incremental target apply: across seeded churn rounds on xmark MF→LF and
// on telgen's S→T and T→S layouts (the last with the denormalized
// LINE_FEATURE as a target table), covering deletes, updates, inserts, an
// insert reusing a deleted ID under another parent, parent moves within
// and across output records, changes to root records and 0% churn, every
// warm delta must take the incremental path and leave the target equal to
// a full re-execute, row for row, with intact indexes. Both slice
// executors run it.
func TestIncrementalApplyChurnProperty(t *testing.T) {
	for _, tc := range incCases(t) {
		for _, pipelined := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pipelined=%v", tc.name, pipelined), func(t *testing.T) {
				r := newIncRig(t, tc.sch, tc.sFr, tc.tFr, tc.docs(), false, nil)
				defer r.done()
				r.pipelined = pipelined
				c := &churner{docs: &r.docs, rng: rand.New(rand.NewSource(17))}
				if err := r.exchange(); err != nil {
					t.Fatal(err)
				}
				r.check("full")
				for i, edits := range tc.rounds {
					r.apply(c, edits)
					if err := r.exchange(); err != nil {
						t.Fatalf("round %d %v: %v", i, edits, err)
					}
					if got := r.counter("endpoint.delta.incremental"); got != int64(i+1) {
						t.Fatalf("round %d %v: %d incremental applies, want %d (full-path fallbacks %d)",
							i, edits, got, i+1, r.counter("endpoint.delta.full"))
					}
					r.check(fmt.Sprintf("round %d %v", i, edits))
					r.checkRootIndex(fmt.Sprintf("round %d %v", i, edits))
				}
				if n := r.counter("endpoint.delta.full"); n != 0 {
					t.Errorf("endpoint.delta.full = %d, want 0", n)
				}
			})
		}
	}
}

// fallbackRig is the xmark MF→LF rig after one full exchange and one
// incremental delta, so every fallback below starts from a warm, indexed
// base.
func fallbackRig(t *testing.T, splitAtTarget bool, be func(*relstore.Store) Backend) (*incRig, *churner) {
	t.Helper()
	var r *incRig
	if splitAtTarget {
		tc := incCases(t)[1]
		r = newIncRig(t, tc.sch, tc.sFr, tc.tFr, tc.docs(), true, be)
	} else {
		sch := xmark.Schema()
		r = newIncRig(t, sch, core.MostFragmented(sch), core.LeastFragmented(sch),
			[]*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 30_000, Seed: 3})}, false, be)
	}
	c := &churner{docs: &r.docs, rng: rand.New(rand.NewSource(5))}
	for i := 0; i < 2; i++ {
		if err := r.exchange(); err != nil {
			t.Fatal(err)
		}
	}
	r.check("warm-up")
	return r, c
}

// expectFull asserts the last delta took the full path for reason.
func (r *incRig) expectFull(reason string, n int64) {
	r.t.Helper()
	if got := r.counter("endpoint.delta.full." + reason); got != n {
		r.t.Fatalf("endpoint.delta.full.%s = %d, want %d (incremental %d, full %d)", reason, got, n,
			r.counter("endpoint.delta.incremental"), r.counter("endpoint.delta.full"))
	}
}

// TestIncrementalFallbackSplit: a target slice with a Split can feed one
// inbound record into several output records; the delta takes the full
// path and the target still equals a full re-execute.
func TestIncrementalFallbackSplit(t *testing.T) {
	r, c := fallbackRig(t, true, nil)
	defer r.done()
	r.expectFull(fullSplit, 1)
	r.apply(c, []string{"del:Line", "upd:TelNo", "ins:Feature"})
	if err := r.exchange(); err != nil {
		t.Fatal(err)
	}
	r.expectFull(fullSplit, 2)
	r.check("split fallback")
	if n := r.counter("endpoint.delta.incremental"); n != 0 {
		t.Errorf("%d incremental applies over a splitting target slice", n)
	}
}

// TestIncrementalFallbackBackend: a backend without DeleteRoots (here a
// virtual backend over the store) takes the full path.
func TestIncrementalFallbackBackend(t *testing.T) {
	r, c := fallbackRig(t, false, func(st *relstore.Store) Backend {
		return &VirtualBackend{Base: &RelBackend{Store: st, Speed: 1, CanCombine: true}}
	})
	defer r.done()
	r.expectFull(fullBackend, 1)
	r.apply(c, []string{"del:item", "ins:item"})
	if err := r.exchange(); err != nil {
		t.Fatal(err)
	}
	r.expectFull(fullBackend, 2)
	r.check("backend fallback")
}

// TestIncrementalFallbackMutated: rows written or dropped behind the
// stream's back — another writer's load, a clear — send the next delta
// down the full path, which replaces the snapshot as it always did; the
// delta after that is incremental again.
func TestIncrementalFallbackMutated(t *testing.T) {
	r, c := fallbackRig(t, false, nil)
	defer r.done()
	for i, mutate := range []func(){
		func() { r.store.Clear() },
		func() {
			// Another writer appends an unrelated site record.
			site := r.tFr.Fragments[0]
			rec := &xmltree.Node{Name: site.Root, ID: "foreign"}
			if err := r.store.Load(&core.Instance{Frag: site, Records: []*xmltree.Node{rec}}); err != nil {
				t.Fatal(err)
			}
		},
	} {
		mutate()
		r.apply(c, []string{"upd:iname", "del:item"})
		if err := r.exchange(); err != nil {
			t.Fatal(err)
		}
		r.expectFull(fullMutated, int64(i+1))
		r.check("mutated fallback")
		inc := r.counter("endpoint.delta.incremental")
		r.apply(c, []string{"ins:item"})
		if err := r.exchange(); err != nil {
			t.Fatal(err)
		}
		if r.counter("endpoint.delta.incremental") != inc+1 {
			t.Fatal("the delta after a fallback did not apply incrementally")
		}
		r.check("after mutated fallback")
	}
}

// dropEdge makes the next delta lack the slice's mailbox edge.
func (r *incRig) dropEdge() {
	r.edit = func(recs map[string]*core.Instance, _ map[string][]string) {
		for k := range recs {
			if strings.HasSuffix(k, "mailbox") {
				delete(recs, k)
			}
		}
	}
}

// TestIncrementalFallbackEdge: a delta without one of the slice's inbound
// edges cannot be applied by root; it takes the full path, which fails
// the delivery as it always did.
func TestIncrementalFallbackEdge(t *testing.T) {
	r, c := fallbackRig(t, false, nil)
	defer r.done()
	r.apply(c, []string{"upd:iname"})
	r.dropEdge()
	if err := r.exchange(); err == nil {
		t.Fatal("a delta without an inbound edge was applied")
	}
	r.expectFull(fullEdge, 1)
}

// TestFullApplyFailureDropsBase: the full path clears the store before it
// executes, so a stream-tagged delivery whose execute fails leaves the
// store without the base's rows. The stream must turn cold at once —
// DeltaStatus answers cold, not warm over a near-empty store — and the
// full re-ship the agency then sends must restore the snapshot.
func TestFullApplyFailureDropsBase(t *testing.T) {
	r, c := fallbackRig(t, false, nil)
	defer r.done()
	r.apply(c, []string{"upd:iname", "del:item"})
	r.dropEdge()
	if err := r.exchange(); err == nil {
		t.Fatal("a delta without an inbound edge was applied")
	}
	req := &xmltree.Node{Name: "DeltaStatus"}
	req.SetAttr("stream", r.stream)
	req.SetAttr("epoch", "e1")
	resp, err := r.client.Call("DeltaStatus", req)
	if err != nil {
		t.Fatal(err)
	}
	if warm, _ := resp.Attr("warm"); warm != "0" {
		t.Fatalf("DeltaStatus warm=%q after a failed full apply, want cold", warm)
	}
	r.prev = nil // the agency's answer to a cold target: ship in full
	if err := r.exchange(); err != nil {
		t.Fatal(err)
	}
	r.check("full reship after a failed full apply")
	if n := r.counter("endpoint.delta.full." + fullMutated); n != 0 {
		t.Errorf("the full re-ship was counted as a delta fallback (%d)", n)
	}
}

// TestIncrementalFallbackUnresolved: a tombstone naming an ID the base
// never held has no output record to resolve to; the delta takes the
// full path, which ignores it, and the target stays correct. A shipped
// record whose parent exists nowhere fails the delivery on either path.
func TestIncrementalFallbackUnresolved(t *testing.T) {
	r, c := fallbackRig(t, false, nil)
	defer r.done()
	r.apply(c, []string{"upd:iname"})
	r.edit = func(recs map[string]*core.Instance, tombs map[string][]string) {
		for k := range recs {
			if strings.HasSuffix(k, ":item") {
				tombs[k] = append(tombs[k], "no-such-item")
			}
		}
	}
	if err := r.exchange(); err != nil {
		t.Fatal(err)
	}
	r.expectFull(fullUnresolved, 1)
	r.check("unknown tombstone")

	r.edit = func(recs map[string]*core.Instance, _ map[string][]string) {
		for k, in := range recs {
			if strings.HasSuffix(k, ":location") {
				in.Records = append(in.Records, &xmltree.Node{Name: "location", ID: "orphan", Parent: "no-such-item", Text: "x"})
			}
		}
	}
	if err := r.exchange(); err == nil {
		t.Fatal("an orphan record was applied")
	}
	r.expectFull(fullUnresolved, 2)
}

// TestIncrementalFallbackExec: a shipped record under a parent the same
// delta deletes resolves (to the deleted parent's root) but orphans in
// the restricted run; the delta takes the full path, which fails the
// delivery with the same orphan, as it always did.
func TestIncrementalFallbackExec(t *testing.T) {
	r, c := fallbackRig(t, false, nil)
	defer r.done()
	doomed := c.pick("item")
	c.detach(doomed)
	gone := doomed.n
	r.edit = func(recs map[string]*core.Instance, _ map[string][]string) {
		for k, in := range recs {
			if strings.HasSuffix(k, ":location") {
				in.Records = append(in.Records, &xmltree.Node{Name: "location", ID: "stray", Parent: gone.ID, Text: "x"})
			}
		}
	}
	if err := r.exchange(); err == nil {
		t.Fatal("a record under a deleted parent was applied")
	}
	r.expectFull(fullExec, 1)
}

// failingBackend fails Write on demand.
type failingBackend struct {
	*RelBackend
	fail bool
}

func (b *failingBackend) Write(in *core.Instance) error {
	if b.fail {
		return fmt.Errorf("injected write failure")
	}
	return b.RelBackend.Write(in)
}

// TestIncrementalStoreFailureDropsBase: when the store update of an
// incremental apply fails part way, the stream's base is dropped, so the
// next exchange ships in full instead of patching a store it cannot
// trust.
func TestIncrementalStoreFailureDropsBase(t *testing.T) {
	var fb *failingBackend
	r, c := fallbackRig(t, false, func(st *relstore.Store) Backend {
		fb = &failingBackend{RelBackend: &RelBackend{Store: st, Speed: 1, CanCombine: true}}
		return fb
	})
	defer r.done()
	if !r.ep.deltaWarm(r.stream, "e1") {
		t.Fatal("stream not warm after warm-up")
	}
	fb.fail = true
	r.apply(c, []string{"upd:iname"})
	if err := r.exchange(); err == nil {
		t.Fatal("failed store update reported success")
	}
	if r.ep.deltaWarm(r.stream, "e1") {
		t.Fatal("stream still warm after a failed store update")
	}
	fb.fail = false
	r.prev = nil // the agency's answer to a cold target: ship in full
	if err := r.exchange(); err != nil {
		t.Fatal(err)
	}
	r.check("full reship after failure")
}

// TestIncrementalConcurrentStreams races two streams' deliveries into one
// target endpoint. Stream applies serialize, and each stream finds the
// store written by the other since its own last apply, so its delta takes
// the full path — the snapshot replace a shared target always had. Run
// under -race this checks the root index and base handling for data
// races; the last stream to apply must leave exactly its snapshot.
func TestIncrementalConcurrentStreams(t *testing.T) {
	sch := xmark.Schema()
	gen := func(seed int64) []*xmltree.Node {
		return []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 20_000, Seed: seed})}
	}
	a := newIncRig(t, sch, core.MostFragmented(sch), core.LeastFragmented(sch), gen(1), false, nil)
	defer a.done()
	b := &incRig{t: t, sch: a.sch, sFr: a.sFr, tFr: a.tFr, g: a.g, a: a.a, prog: a.prog, docs: gen(2),
		ep: a.ep, store: a.store, client: a.client, met: a.met, stream: "s2"}
	rigs := []*incRig{a, b}
	churn := []*churner{{docs: &a.docs, rng: rand.New(rand.NewSource(1))}, {docs: &b.docs, rng: rand.New(rand.NewSource(2))}}
	for round := 0; round < 5; round++ {
		ships := make([]*shipment, len(rigs))
		for i, r := range rigs {
			if round > 0 {
				r.apply(churn[i], []string{"del:item", "upd:iname", "ins:item"})
			}
			ships[i] = r.prepare()
		}
		errs := make([]error, len(rigs))
		var wg sync.WaitGroup
		for i, r := range rigs {
			wg.Add(1)
			go func(i int, r *incRig) {
				defer wg.Done()
				errs[i] = r.deliver(ships[i], r.round)
			}(i, r)
		}
		wg.Wait()
		for i, r := range rigs {
			if errs[i] != nil {
				t.Fatalf("round %d stream %s: %v", round, r.stream, errs[i])
			}
			r.prev = ships[i].cur
		}
	}
	if n := a.counter("endpoint.delta.full." + fullMutated); n == 0 {
		t.Error("no delta found the store written by the other stream")
	}
	a.apply(churn[0], []string{"upd:iname"})
	if err := a.exchange(); err != nil {
		t.Fatal(err)
	}
	a.check("after concurrent streams")
}
