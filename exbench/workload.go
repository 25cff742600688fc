package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"xdx/internal/core"
	"xdx/internal/relstore"
	"xdx/internal/xmltree"
)

// workload is one traffic mix driven through the deployment as a closed
// loop: each client sends its next operation only after the previous one
// answered.
type workload struct {
	name    string
	why     string // the one-line reason the workload was chosen
	clients int
	tenants int
	delta   bool // exchanges request delta="1" and the source churns before each
	fleet   bool // CustomerInfo tenants with renegotiations
}

var workloads = []*workload{
	{
		name:    "initial_load",
		why:     "Full 250 KB XMark exchanges into an empty target: wire codec, agency re-chunk, relstore load and index build, and the journal carry the work.",
		clients: 1, tenants: 1,
	},
	{
		name:    "delta_sync",
		why:     "Repeat delta exchanges after 1% churn: agency hash/diff, source scan and slice, and target patch carry the work; codec, target hop and journal do little.",
		clients: 1, tenants: 1, delta: true,
	},
	{
		name:    "tenant_fleet",
		why:     "32 small tenants on 2 clients with plan renegotiations: per-call fixed costs (envelopes, sessions, scheduler, plan derivation) carry the work.",
		clients: 2, tenants: fleetTenants, fleet: true,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// churn mutates an XMark auction document in place. Of its n items,
// max(1, frac*n/3) each are deleted, get a rewritten description, and are
// inserted again as copies under fresh IDs. Surviving nodes keep their IDs,
// as rows in a store keep their keys, so a delta can be computed by key.
func churn(doc *xmltree.Node, rng *rand.Rand, frac float64, round int) {
	regions := doc.Find("regions")
	type slot struct{ region, item *xmltree.Node }
	var slots []slot
	for _, region := range regions.Kids {
		for _, it := range region.Kids {
			if it.Name == "item" {
				slots = append(slots, slot{region, it})
			}
		}
	}
	per := int(frac * float64(len(slots)) / 3)
	if per < 1 {
		per = 1
	}
	perm := rng.Perm(len(slots))

	gone := map[*xmltree.Node]bool{}
	for _, i := range perm[:per] {
		gone[slots[i].item] = true
	}
	for _, region := range regions.Kids {
		kept := region.Kids[:0]
		for _, k := range region.Kids {
			if !gone[k] {
				kept = append(kept, k)
			}
		}
		region.Kids = kept
	}
	for _, i := range perm[per : 2*per] {
		if d := slots[i].item.Find("idescription"); d != nil {
			d.Text = fmt.Sprintf("revised in round %d", round)
		}
	}
	next := maxID(doc)
	for _, i := range perm[2*per : 3*per] {
		s := slots[i]
		s.region.AddKid(copyWithIDs(s.item, s.region.ID, &next))
	}
}

// maxID is the largest integer instance ID in the subtree.
func maxID(n *xmltree.Node) int {
	m, _ := strconv.Atoi(n.ID)
	for _, k := range n.Kids {
		if v := maxID(k); v > m {
			m = v
		}
	}
	return m
}

// copyWithIDs deep-copies a subtree under fresh sequential IDs.
func copyWithIDs(n *xmltree.Node, parent string, next *int) *xmltree.Node {
	*next++
	c := &xmltree.Node{Name: n.Name, Text: n.Text, ID: strconv.Itoa(*next), Parent: parent}
	for _, k := range n.Kids {
		c.AddKid(copyWithIDs(k, c.ID, next))
	}
	return c
}

// reassemble combines every fragment a store holds back into its root
// records, the way core.Document does for a single-rooted document.
func reassemble(st *relstore.Store) ([]*xmltree.Node, error) {
	fr := st.Layout
	insts := map[string]*core.Instance{}
	for _, f := range fr.Fragments {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			return nil, err
		}
		insts[f.Name] = in
	}
	cur := &core.Instance{Frag: fr.Fragments[0], Records: insts[fr.Fragments[0].Name].Records}
	remaining := append([]*core.Fragment(nil), fr.Fragments[1:]...)
	for len(remaining) > 0 {
		merged := -1
		for i, f := range remaining {
			ready := true
			for _, p := range fr.Schema.Parents(f.Root) {
				ready = ready && cur.Frag.Elems[p]
			}
			if !ready {
				continue
			}
			var err error
			if cur, err = core.Combine(fr.Schema, cur, insts[f.Name]); err != nil {
				return nil, err
			}
			merged = i
			break
		}
		if merged < 0 {
			return nil, fmt.Errorf("fragments %v cannot be merged", remaining)
		}
		remaining = append(remaining[:merged], remaining[merged+1:]...)
	}
	return cur.Records, nil
}

// canonical renders records in a canonical order: siblings sorted by their
// own canonical form. Leaf IDs are left out because the shipment codec does
// not carry them; record IDs, names and text are kept.
func canonical(recs []*xmltree.Node) string {
	parts := make([]string, len(recs))
	for i, r := range recs {
		parts[i] = canonNode(r)
	}
	sort.Strings(parts)
	return strings.Join(parts, "")
}

func canonNode(n *xmltree.Node) string {
	var b strings.Builder
	b.WriteString("<" + n.Name)
	if len(n.Kids) > 0 {
		b.WriteString(" id=" + strconv.Quote(n.ID))
	}
	b.WriteString(">" + strconv.Quote(n.Text))
	b.WriteString(canonical(n.Kids))
	b.WriteString("</>")
	return b.String()
}

// sameContents reports whether the target store reassembles to the same
// documents as the source store holds.
func sameContents(src, tgt *relstore.Store) (bool, error) {
	a, err := reassemble(src)
	if err != nil {
		return false, fmt.Errorf("source: %w", err)
	}
	b, err := reassemble(tgt)
	if err != nil {
		return false, fmt.Errorf("target: %w", err)
	}
	return canonical(a) == canonical(b), nil
}
