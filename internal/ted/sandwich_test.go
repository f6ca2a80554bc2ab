package ted

// Tests for the bound sandwich (bounds.go): the label lower bound and the
// top-down upper bound must bracket the seed Zhang–Shasha distance on
// every input, and the gate built on them must fire — with the DP's own
// answer — on the near-duplicate pairs it exists for.

import (
	"fmt"
	"math/rand"
	"testing"

	"silvervale/internal/tree"
)

// sandwichCosts are the cost models of TestEquivalenceWithSeedImplementation:
// unit, Insert ≠ Delete both ways, and Rename ≥ Insert+Delete.
var sandwichCosts = []Costs{
	UnitCosts(),
	{Insert: 2, Delete: 1, Rename: 1},
	{Insert: 1, Delete: 3, Rename: 2},
	{Insert: 2, Delete: 2, Rename: 5},
}

// nearDuplicateEdits name the one-edit mutations nearDuplicate applies.
var nearDuplicateEdits = []string{"append", "insert", "delete", "relabel", "leaf"}

// nearDuplicate returns a copy of t with one edit applied: a subtree
// appended to the root, a subtree inserted mid-sequence under a random
// node, a random non-root subtree deleted, one node relabelled, or one
// leaf given a fresh label (a literal edit).
func nearDuplicate(r *rand.Rand, t *tree.Node, edit string) *tree.Node {
	c := t.Clone()
	nodes := postorderNodes(c, nil)
	switch edit {
	case "append":
		c.Add(randTree(r, 1+r.Intn(6)))
	case "insert":
		p := nodes[r.Intn(len(nodes))]
		at := r.Intn(len(p.Children) + 1)
		kids := append([]*tree.Node{}, p.Children[:at]...)
		kids = append(kids, randTree(r, 1+r.Intn(6)))
		p.Children = append(kids, p.Children[at:]...)
	case "delete":
		var parents []*tree.Node
		for _, n := range nodes {
			if len(n.Children) > 0 {
				parents = append(parents, n)
			}
		}
		if len(parents) == 0 {
			return c
		}
		p := parents[r.Intn(len(parents))]
		at := r.Intn(len(p.Children))
		p.Children = append(p.Children[:at:at], p.Children[at+1:]...)
	case "relabel":
		nodes[r.Intn(len(nodes))].Label = []string{"A", "B", "C", "D", "E"}[r.Intn(5)]
	case "leaf":
		var leaves []*tree.Node
		for _, n := range nodes {
			if len(n.Children) == 0 {
				leaves = append(leaves, n)
			}
		}
		leaves[r.Intn(len(leaves))].Label = fmt.Sprintf("lit%d", r.Intn(1000))
	}
	return c
}

// sandwichCheck asserts lb ≤ seed ≤ ub for the pair and that a gate
// answer, if any, is the seed's; it reports whether the gate fired.
func sandwichCheck(t *testing.T, t1, t2 *tree.Node, c Costs) bool {
	t.Helper()
	want := refDistanceWithCosts(t1, t2, c)
	a, b := newFlat(t1, newMemoIDs()), newFlat(t2, newMemoIDs())
	sc := getScratch()
	defer putScratch(sc)
	lb := labelLowerBound(len(a.labels), len(b.labels), multisetIntersection(a.labels, b.labels, sc), c)
	ub := topDownBound(a, b, c, sc)
	if lb > want || want > ub {
		t.Fatalf("costs %+v: lb %d, seed %d, ub %d: not a sandwich\na=%s\nb=%s", c, lb, want, ub, t1, t2)
	}
	d, fired := boundGate(a, b, c, sc)
	if fired && d != want {
		t.Fatalf("costs %+v: gate answered %d, seed %d\na=%s\nb=%s", c, d, want, t1, t2)
	}
	return fired
}

// TestBoundSandwich checks the sandwich on every pairing of the
// equivalence shapes and on near-duplicate pairs of every edit kind,
// under all four cost models, and requires the gate to fire on most
// near-duplicate pairs so the test cannot pass vacuously.
func TestBoundSandwich(t *testing.T) {
	for _, sa := range equivalenceShapes {
		for _, sb := range equivalenceShapes {
			r := rand.New(rand.NewSource(int64(len(sa.name)*17 + len(sb.name))))
			for i := 0; i < 8; i++ {
				a, b := sa.gen(r, 2+r.Intn(40)), sb.gen(r, 2+r.Intn(40))
				for _, c := range sandwichCosts {
					sandwichCheck(t, a, b, c)
				}
			}
		}
	}
	// Near duplicates are drawn large enough for the gate's guard
	// (10·lb ≤ max(n1, n2)·max(Insert, Delete)) to admit a few-node edit,
	// as it does on real units of hundreds to thousands of nodes.
	r := rand.New(rand.NewSource(29))
	for _, edit := range nearDuplicateEdits {
		var pairs, fired int
		for _, s := range equivalenceShapes {
			for i := 0; i < 6; i++ {
				a := s.gen(r, 60+r.Intn(40))
				b := nearDuplicate(r, a, edit)
				for _, c := range sandwichCosts {
					for _, p := range [][2]*tree.Node{{a, b}, {b, a}} {
						pairs++
						if sandwichCheck(t, p[0], p[1], c) {
							fired++
						}
					}
				}
			}
		}
		t.Logf("%s: gate fired on %d of %d near-duplicate pairs", edit, fired, pairs)
		if 2*fired <= pairs {
			t.Errorf("%s: gate fired on only %d of %d near-duplicate pairs", edit, fired, pairs)
		}
	}
}

// FuzzBoundSandwich is the sandwich tripwire: any tree, edit and cost
// model on which the lower bound exceeds the seed distance, the seed
// exceeds the top-down bound, or the gate answers wrong is a soundness
// bug.
func FuzzBoundSandwich(f *testing.F) {
	f.Add(int64(1), 30, 0, 1, 1, 1, false)
	f.Add(int64(2), 60, 1, 2, 1, 1, false)
	f.Add(int64(3), 45, 2, 1, 3, 2, true)
	f.Add(int64(4), 12, 3, 2, 2, 5, false)
	f.Add(int64(5), 80, 4, 1, 1, 1, true)
	f.Fuzz(func(t *testing.T, seed int64, n, edit, ci, cd, cr int, far bool) {
		if n < 1 || n > 120 || edit < 0 || edit >= len(nearDuplicateEdits) {
			t.Skip()
		}
		if ci < 1 || ci > 5 || cd < 1 || cd > 5 || cr < 1 || cr > 9 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		a := randTree(r, n)
		b := nearDuplicate(r, a, nearDuplicateEdits[edit])
		if far {
			b = randTree(r, 1+r.Intn(120))
		}
		c := Costs{Insert: ci, Delete: cd, Rename: cr}
		sandwichCheck(t, a, b, c)
		sandwichCheck(t, b, a, c)
		if got, want := DistanceWithCosts(a, b, c), refDistanceWithCosts(a, b, c); got != want {
			t.Fatalf("uncached %d != seed %d", got, want)
		}
		if got, want := NewCache().DistanceWithCosts(a, b, c), refDistanceWithCosts(a, b, c); got != want {
			t.Fatalf("cached %d != seed %d", got, want)
		}
	})
}

// TestBoundGateAllocationFree pins the gate's scratch discipline: once a
// scratch has grown to a pair's high-water mark, answering the pair from
// the sandwich allocates nothing.
func TestBoundGateAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	a := randTree(r, 400)
	b := nearDuplicate(r, a, "insert")
	fa, fb := newFlat(a, newMemoIDs()), newFlat(b, newMemoIDs())
	sc := new(dpScratch)
	if _, fired := boundGate(fa, fb, UnitCosts(), sc); !fired {
		t.Fatal("gate did not answer the near-duplicate pair")
	}
	if n := testing.AllocsPerRun(20, func() { boundGate(fa, fb, UnitCosts(), sc) }); n != 0 {
		t.Fatalf("warm gate allocated %.1f times per call", n)
	}
}
