package core

import (
	"math/rand"
	"strings"
	"testing"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Property: the pipelined executor is semantics-identical to the reference
// executor on randomized schemas, fragmentations, and enumerated programs
// (which include Split fan-out and chained Combines).
func TestPipelinedMatchesExecuteRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3)
		src := Random(sch, rng, rng.Intn(5)+2)
		tgt := Random(sch, rng, rng.Intn(5)+2)
		m, err := NewMapping(src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := GeneratePrograms(m, GenOptions{MaxPrograms: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		doc := randomDoc(sch, rng, 3)
		for i, g := range progs {
			srcs, err := FromDocument(src, doc)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Execute(g, sch, srcs)
			if err != nil {
				t.Fatalf("seed %d program %d: execute: %v", seed, i, err)
			}
			srcs2, err := FromDocument(src, doc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExecutePipelined(g, sch, srcs2)
			if err != nil {
				t.Fatalf("seed %d program %d: pipelined: %v", seed, i, err)
			}
			if !EqualWritten(ref, res) {
				t.Errorf("seed %d: pipelined program %d wrote different data than Execute:\n%s", seed, i, g)
			}
		}
	}
}

// The pipelined executor emits one trace per op, in topological order, with
// the row counts of the reference executor.
func TestPipelinedCustomerProgramTraces(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Execute(g, sch, mustSources(t, sFragmentation(t, sch)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecutePipelined(g, sch, mustSources(t, sFragmentation(t, sch)))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWritten(ref, res) {
		t.Fatal("pipelined canonical program wrote different data than Execute")
	}
	if len(res.Traces) != len(g.Ops) {
		t.Fatalf("got %d traces, want %d", len(res.Traces), len(g.Ops))
	}
	for i, tr := range res.Traces {
		if i > 0 && tr.Op.ID <= res.Traces[i-1].Op.ID {
			t.Fatalf("traces out of topological order at %d: %v", i, tr.Op)
		}
	}
	for i := range res.Traces {
		if res.Traces[i].Op != ref.Traces[i].Op || res.Traces[i].OutRows != ref.Traces[i].OutRows {
			t.Errorf("trace %d: pipelined %v/%d rows, reference %v/%d rows",
				i, res.Traces[i].Op, res.Traces[i].OutRows, ref.Traces[i].Op, ref.Traces[i].OutRows)
		}
	}
}

// Fan-out copy-on-write: a scanned fragment consumed by both a Write and a
// Combine chain must reach the Write untouched, even though downstream
// Combines attach grandchildren into (copies of) the very same records.
func TestPipelinedFanOutCopyOnWrite(t *testing.T) {
	sch := customerSchema()
	fr, err := FromPartition(sch, "fanout", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName", "Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fa, fb, fc := fr.Fragments[0], fr.Fragments[1], fr.Fragments[2]
	fab, err := NewFragment(sch, "ab", []string{"Customer", "CustName", "Order"})
	if err != nil {
		t.Fatal(err)
	}
	fabc, err := NewFragment(sch, "abc", sch.Names())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	s1 := g.AddOp(OpScan, fa)
	s2 := g.AddOp(OpScan, fb)
	s3 := g.AddOp(OpScan, fc)
	w0 := g.AddOp(OpWrite, fb) // duplicate consumer of the Order fragment
	c1 := g.AddOp(OpCombine, fab)
	c2 := g.AddOp(OpCombine, fabc)
	w1 := g.AddOp(OpWrite, fabc)
	g.Connect(s2, w0, fb)
	g.Connect(s1, c1, fa)
	g.Connect(s2, c1, fb)
	g.Connect(c1, c2, fab)
	g.Connect(s3, c2, fc)
	g.Connect(c2, w1, fabc)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	run := func(name string, exec func(*Graph, *schema.Schema, map[string]*Instance) (*ExecResult, error)) {
		srcs, err := FromDocument(fr, customerDoc())
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec(g, sch, srcs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, err := FromDocument(fr, customerDoc())
		if err != nil {
			t.Fatal(err)
		}
		dup := res.Written[fb.Name]
		want := fresh[fb.Name]
		if dup == nil || dup.Rows() != want.Rows() {
			t.Fatalf("%s: duplicate write has %v records, want %d", name, dup, want.Rows())
		}
		for i := range want.Records {
			if !xmltree.EqualShape(dup.Records[i], want.Records[i]) {
				t.Errorf("%s: record %d of the duplicated fragment was mutated by the combine chain", name, i)
			}
		}
		whole := res.Written[fabc.Name]
		if whole == nil || whole.Rows() != 1 || !xmltree.EqualShape(whole.Records[0], customerDoc()) {
			t.Errorf("%s: combined document does not match the original", name)
		}
	}
	run("execute", Execute)
	run("pipelined", ExecutePipelined)
}

// The pipelined slice executor interoperates with the batch one: any mix of
// the two across source and target delivers what local execution delivers.
func TestExecuteSlicePipelinedMatchesExecuteSlice(t *testing.T) {
	sch := customerSchema()
	src := sFragmentation(t, sch)
	tgt := tFragmentation(t, sch)
	m, _ := NewMapping(src, tgt)
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	model := modelFor(sch, 1, 4)
	best, worst, err := MinMaxPlacement(g, model)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Execute(g, sch, mustSources(t, src))
	if err != nil {
		t.Fatal(err)
	}
	type sliceFn func(*Graph, *schema.Schema, Assignment, Location, SliceIO) (map[string]*Instance, []OpTrace, error)
	combos := []struct {
		name             string
		srcExec, tgtExec sliceFn
	}{
		{"pipelined/pipelined", ExecuteSlicePipelined, ExecuteSlicePipelined},
		{"pipelined/batch", ExecuteSlicePipelined, ExecuteSlice},
		{"batch/pipelined", ExecuteSlice, ExecuteSlicePipelined},
	}
	for _, a := range []Assignment{best.Assign, worst.Assign} {
		for _, combo := range combos {
			srcs := mustSources(t, src)
			scan := func(f *Fragment) (*Instance, error) {
				for _, in := range srcs {
					if in.Frag.SameElems(f) {
						return &Instance{Frag: f, Records: in.Records}, nil
					}
				}
				t.Fatalf("no source %q", f.Name)
				return nil, nil
			}
			outbound, traces, err := combo.srcExec(g, sch, a, LocSource, SliceIO{Scan: scan})
			if err != nil {
				t.Fatalf("%s: source slice: %v", combo.name, err)
			}
			for i := 1; i < len(traces); i++ {
				if traces[i].Op.ID <= traces[i-1].Op.ID {
					t.Fatalf("%s: source slice traces out of topological order", combo.name)
				}
			}
			written := map[string]*Instance{}
			_, _, err = combo.tgtExec(g, sch, a, LocTarget, SliceIO{
				Inbound: outbound,
				Write: func(in *Instance) error {
					written[in.Frag.Name] = in
					return nil
				},
			})
			if err != nil {
				t.Fatalf("%s: target slice: %v", combo.name, err)
			}
			res := &ExecResult{Written: written}
			if !EqualWritten(local, res) {
				t.Errorf("%s: sliced execution differs from local under placement %v", combo.name, a)
			}
		}
	}
}

// ExecutePipelined must emit traces in topological op order regardless of
// goroutine completion order, or SummarizeTraces output would flap across
// runs.
func TestPipelinedTraceOrder(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		res, err := ExecutePipelined(g, sch, mustSources(t, sFragmentation(t, sch)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Traces) != len(g.Ops) {
			t.Fatalf("round %d: got %d traces, want %d", round, len(res.Traces), len(g.Ops))
		}
		for i := 1; i < len(res.Traces); i++ {
			if res.Traces[i].Op.ID <= res.Traces[i-1].Op.ID {
				t.Fatalf("round %d: traces out of topological order at %d", round, i)
			}
		}
	}
}

// Error paths: a missing source must fail the whole pipeline promptly, and
// the error must name the fragment.
func TestPipelinedErrors(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecutePipelined(g, sch, map[string]*Instance{})
	if err == nil {
		t.Fatal("pipelined execution with no sources succeeded")
	}
	if !strings.Contains(err.Error(), "no source instance") {
		t.Fatalf("unexpected error: %v", err)
	}
}
