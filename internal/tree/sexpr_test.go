package tree

// ParseSexpr carves every node of a tree from one slice and every child
// list from one shared slice. These tests pin what that layout must not
// change: the parsed tree, the inputs that fail, and the independence of
// sibling child lists under append.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// refParseSexpr is the one-allocation-per-node recursive parser the
// carving parser replaced, kept as the oracle for which inputs parse and
// to what.
func refParseSexpr(s string) (*Node, error) {
	pos := 0
	skip := func() {
		for pos < len(s) && s[pos] == ' ' {
			pos++
		}
	}
	atom := func() string {
		start := pos
		for pos < len(s) && s[pos] != ' ' && s[pos] != '(' && s[pos] != ')' {
			pos++
		}
		return s[start:pos]
	}
	var parse func() (*Node, error)
	parse = func() (*Node, error) {
		skip()
		if pos >= len(s) {
			return nil, fmt.Errorf("end of input")
		}
		if s[pos] != '(' {
			return &Node{Label: atom()}, nil
		}
		pos++
		skip()
		label := atom()
		if label == "" {
			return nil, fmt.Errorf("empty label")
		}
		n := &Node{Label: label}
		for {
			skip()
			if pos >= len(s) {
				return nil, fmt.Errorf("unbalanced")
			}
			if s[pos] == ')' {
				pos++
				return n, nil
			}
			c, err := parse()
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
		}
	}
	n, err := parse()
	if err != nil {
		return nil, err
	}
	skip()
	if pos != len(s) {
		return nil, fmt.Errorf("trailing input")
	}
	return n, nil
}

// checkTightChildren reports a node whose Children slice has spare
// capacity, or a leaf that carries a non-nil empty slice.
func checkTightChildren(n *Node) error {
	var bad error
	n.Walk(func(m *Node) bool {
		switch {
		case len(m.Children) != cap(m.Children):
			bad = fmt.Errorf("%s: len %d, cap %d", m.Label, len(m.Children), cap(m.Children))
		case m.Children != nil && len(m.Children) == 0:
			bad = fmt.Errorf("%s: empty non-nil children", m.Label)
		}
		return bad == nil
	})
	return bad
}

// TestParseSexprCarvedChildren: every parsed node's child list is full
// (len == cap), so appending to one node's children never writes into
// the shared slice another node's children live in.
func TestParseSexprCarvedChildren(t *testing.T) {
	f := func(seed int64) bool {
		src := randomTree(rand.New(rand.NewSource(seed)), 40)
		n, err := ParseSexpr(src.String())
		if err != nil || checkTightChildren(n) != nil {
			return false
		}
		// Append to every internal node, then check that every node kept
		// its own children and gained exactly the one appended.
		before := map[*Node][]*Node{}
		n.Walk(func(m *Node) bool {
			if len(m.Children) > 0 {
				before[m] = append([]*Node(nil), m.Children...)
			}
			return true
		})
		for m := range before {
			m.Children = append(m.Children, New("appended"))
		}
		for m, kids := range before {
			if len(m.Children) != len(kids)+1 || m.Children[len(kids)].Label != "appended" {
				return false
			}
			for i, c := range kids {
				if m.Children[i] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestParseSexprAllocations: a tree of any size costs two allocations, its
// node slice and its shared child-pointer slice.
func TestParseSexprAllocations(t *testing.T) {
	s := "(unit" + strings.Repeat(" (fn (body (stmt x y) (stmt (call f z) w)) leaf)", 50) + ")"
	if n := testing.AllocsPerRun(20, func() { _, _ = ParseSexpr(s) }); n > 2 {
		t.Fatalf("ParseSexpr made %v allocations, want 2", n)
	}
}

// FuzzParseSexpr: the carving parser accepts exactly the inputs the
// recursive parser accepts, builds the same tree with full child lists,
// and its trees survive a String round trip with the same fingerprint.
func FuzzParseSexpr(f *testing.F) {
	for _, s := range []string{
		"(A (B (C) (D)) (E))", "A", "(A)", "(A B C)", "  (A  (B C)  D ) ",
		"(unit (fn (body (stmt x) (stmt y))) (fn (body)))",
		// the malformed inputs TestParseSexprErrors pins
		"", "(", "(A", "(A))", "()", "(A) junk", ")", "(A ( ))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseSexpr(s)
		want, refErr := refParseSexpr(s)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: error %v, reference error %v", s, err, refErr)
		}
		if err != nil {
			return
		}
		if !Equal(got, want) {
			t.Fatalf("%q: parsed %s, reference %s", s, got, want)
		}
		if err := checkTightChildren(got); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		again, err := ParseSexpr(got.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", got.String(), err)
		}
		if !Equal(again, got) || again.Fingerprint() != got.Fingerprint() {
			t.Fatalf("String round trip of %q changed the tree", s)
		}
	})
}
