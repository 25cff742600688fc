package core

import (
	"slices"
	"strings"
	"testing"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func TestCompileFilterValidation(t *testing.T) {
	sch := customerSchema()
	for _, expr := range []string{
		"CustName = 'Ann'",
		`CustName = "Ann"`,
		"CustName",
		"Customer/CustName != Ann",
		"CustName >= 'A'",
	} {
		if _, err := CompileFilter(expr, sch); err != nil {
			t.Errorf("CompileFilter(%q) = %v", expr, err)
		}
	}
	for _, expr := range []string{
		"",
		"NoSuchElem = 'x'",
		"CustName/Customer = 'x'", // wrong direction: CustName is not a parent
		"CustName = ",
		"CustName = 'unterminated",
		"Customer = 'x'", // interior element has no comparable text
		"Customer//CustName = 'x'",
	} {
		if _, err := CompileFilter(expr, sch); err == nil {
			t.Errorf("CompileFilter(%q) compiled, want error", expr)
		}
	}
}

func TestFilterCheckRoot(t *testing.T) {
	sch := customerSchema()
	fr := sFragmentation(t, sch) // root fragment: {Customer, CustName}
	for _, expr := range []string{"CustName = 'Ann'", "Customer/CustName", "CustName"} {
		f, err := CompileFilter(expr, sch)
		if err != nil {
			t.Fatalf("CompileFilter(%q): %v", expr, err)
		}
		if err := f.CheckRoot(fr); err != nil {
			t.Errorf("CheckRoot(%q) = %v, want nil", expr, err)
		}
	}
	// ServiceName is a real schema leaf but lives in another fragment: a
	// filter on it can never match a root record and must be rejected.
	f, err := CompileFilter("ServiceName = 'x'", sch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckRoot(fr); err == nil {
		t.Error("CheckRoot accepted a path outside the root fragment")
	}
	// Most-fragmented layouts have a bare root fragment; even CustName is
	// out of reach there.
	f, err = CompileFilter("CustName = 'Ann'", sch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckRoot(MostFragmented(sch)); err == nil {
		t.Error("CheckRoot accepted a leaf outside a most-fragmented root")
	}
	var nilf *Filter
	if err := nilf.CheckRoot(fr); err != nil {
		t.Errorf("nil filter CheckRoot = %v", err)
	}
}

func rec(name, text string, kids ...*xmltree.Node) *xmltree.Node {
	return &xmltree.Node{Name: name, Text: text, Kids: kids}
}

func TestFilterMatch(t *testing.T) {
	r := rec("Customer", "",
		rec("CustName", "Ann"),
		rec("Account", "",
			rec("AcctNum", "17")),
		rec("Account", "",
			rec("AcctNum", "42")))
	cases := []struct {
		expr string
		want bool
	}{
		{"CustName = 'Ann'", true},
		{"CustName = 'Bob'", false},
		{"CustName != Bob", true},
		{"CustName", true},
		{"Account/AcctNum = 17", true},
		{"Account/AcctNum > 40", true},
		{"Account/AcctNum > 42", false},
		{"Account/AcctNum <= 17", true},
		{"Account/AcctNum < 17", false},
		{"AcctNum >= 42", true},
		{"Customer/CustName = Ann", true}, // anchor may be the record itself
		{"CustName < 'B'", true},          // lexicographic for string literals
	}
	for _, c := range cases {
		f, err := CompileFilter(c.expr, nil)
		if err != nil {
			t.Fatalf("CompileFilter(%q): %v", c.expr, err)
		}
		if got := f.Match(r); got != c.want {
			t.Errorf("Match(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestFilterNumericLiteralRejectsNonNumericText(t *testing.T) {
	f, err := CompileFilter("AcctNum > 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Match(rec("Customer", "", rec("AcctNum", "many"))) {
		t.Error("non-numeric leaf matched a numeric comparison")
	}
}

func TestFilterPredicateNil(t *testing.T) {
	var f *Filter
	if f.Predicate() != nil {
		t.Error("nil filter must yield nil predicate")
	}
}

func TestFilterSourcesWithCompiledFilter(t *testing.T) {
	sch := customerSchema()
	fr := sFragmentation(t, sch)
	src, _ := FromDocument(fr, customerDoc())
	f, err := CompileFilter("CustName = 'Nobody'", sch)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := FilterSources(fr, src, f.Predicate())
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range kept {
		if in.Rows() != 0 {
			t.Errorf("fragment %q kept %d rows for a non-matching filter", name, in.Rows())
		}
	}
}

// TestCompileFilterOperatorInLiteral pins the split point: a quoted
// literal may contain operator characters, so the expression splits at its
// earliest operator, never at one found inside the literal.
func TestCompileFilterOperatorInLiteral(t *testing.T) {
	sch := schema.Auction()
	for _, tc := range []struct{ expr, op, value string }{
		{`iname = "a<=b"`, "=", "a<=b"},
		{`iname > "a=b"`, ">", "a=b"},
		{`iname = "x!=y"`, "=", "x!=y"},
		{`iname >= 'p<q'`, ">=", "p<q"},
		{`item/iname != "=="`, "!=", "=="},
	} {
		f, err := CompileFilter(tc.expr, sch)
		if err != nil {
			t.Errorf("CompileFilter(%q) = %v", tc.expr, err)
			continue
		}
		if f.op != tc.op || f.value != tc.value {
			t.Errorf("CompileFilter(%q): op %q value %q, want %q %q", tc.expr, f.op, f.value, tc.op, tc.value)
		}
	}
}

// FuzzCompileFilter feeds CompileFilter arbitrary expressions — the
// endpoint compiles the filter attribute another process sends. It must
// never panic, and an accepted filter must be stable: its Expr recompiles
// to the same steps, op and value, and so does its canonical rendering
// (steps joined by '/', the op, the value double-quoted).
func FuzzCompileFilter(f *testing.F) {
	for _, s := range []string{
		`CustName = "Nobody"`, `CustName = "Ann"`, "NoSuchElem = 3", "ServiceName = 'x'",
		`iname = "a<=b"`, `iname > "a=b"`, `iname = "x!=y"`,
		"item/iname", "price >= 40.5", "quantity != 1", "", "= x", "iname = ",
	} {
		f.Add(s)
	}
	schemas := []*schema.Schema{schema.CustomerInfo(), schema.Auction()}
	same := func(a, b *Filter) bool {
		return a.op == b.op && a.value == b.value && slices.Equal(a.steps, b.steps)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		for _, sch := range schemas {
			got, err := CompileFilter(expr, sch)
			if err != nil {
				continue
			}
			again, err := CompileFilter(got.Expr, sch)
			if err != nil || !same(got, again) {
				t.Fatalf("Expr %q of accepted %q does not recompile the same: %v", got.Expr, expr, err)
			}
			canon := strings.Join(got.steps, "/")
			if got.op != "" {
				canon += " " + got.op + ` "` + got.value + `"`
			}
			again, err = CompileFilter(canon, sch)
			if err != nil || !same(got, again) {
				t.Fatalf("canonical form %q of accepted %q does not recompile the same: %v", canon, expr, err)
			}
		}
	})
}
