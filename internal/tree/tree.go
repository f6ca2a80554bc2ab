// Package tree provides the generic labelled n-ary tree that underlies every
// semantic-bearing tree in the framework (T_src, T_sem, T_sem+i, T_ir).
//
// A tree node carries a label (already normalised: programmer-introduced
// names are removed, only token/node types, literals, and operator names
// remain) and a back-reference to its source location. Trees are compared
// with Tree Edit Distance (package ted) and pruned with coverage masks
// (package coverage).
package tree

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"silvervale/internal/srcloc"
)

// Node is a labelled n-ary tree node.
type Node struct {
	Label    string
	Pos      srcloc.Pos
	Children []*Node
}

// New constructs a node with the given label and children.
func New(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// NewAt constructs a node with a source back-reference.
func NewAt(label string, pos srcloc.Pos, children ...*Node) *Node {
	return &Node{Label: label, Pos: pos, Children: children}
}

// Add appends children and returns the receiver for chaining.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Size returns the total number of nodes in the tree (|T| in Eq. 7).
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Depth returns the height of the tree (a single node has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Leaves returns the number of leaf nodes.
func (n *Node) Leaves() int {
	if n == nil {
		return 0
	}
	if len(n.Children) == 0 {
		return 1
	}
	s := 0
	for _, c := range n.Children {
		s += c.Leaves()
	}
	return s
}

// Clone returns a deep copy of the tree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := &Node{Label: n.Label, Pos: n.Pos}
	if len(n.Children) > 0 {
		out.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = c.Clone()
		}
	}
	return out
}

// Walk visits every node in pre-order. If fn returns false the subtree below
// the node is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Postorder appends all nodes in post-order to dst and returns it.
func (n *Node) Postorder(dst []*Node) []*Node {
	if n == nil {
		return dst
	}
	for _, c := range n.Children {
		dst = c.Postorder(dst)
	}
	return append(dst, n)
}

// Filter returns a copy of the tree with every node for which keep returns
// false removed; the children of a removed node are spliced into its
// parent's child list (hoisted), preserving order. If the root itself is
// removed, its surviving children are re-rooted under a synthetic node
// labelled "pruned-root". Filter is how coverage masks and system-header
// masks are applied to trees.
func (n *Node) Filter(keep func(*Node) bool) *Node {
	if n == nil {
		return nil
	}
	kids := n.filterChildren(keep)
	if keep(n) {
		return &Node{Label: n.Label, Pos: n.Pos, Children: kids}
	}
	switch len(kids) {
	case 0:
		return nil
	case 1:
		return kids[0]
	default:
		return &Node{Label: "pruned-root", Pos: n.Pos, Children: kids}
	}
}

func (n *Node) filterChildren(keep func(*Node) bool) []*Node {
	var out []*Node
	for _, c := range n.Children {
		kids := c.filterChildren(keep)
		if keep(c) {
			out = append(out, &Node{Label: c.Label, Pos: c.Pos, Children: kids})
		} else {
			out = append(out, kids...)
		}
	}
	return out
}

// Hash returns a structural FNV-1a hash over labels and shape. Identical
// trees hash identically; the hash ignores source positions.
func (n *Node) Hash() uint64 {
	h := fnv.New64a()
	n.hashInto(h)
	return h.Sum64()
}

func (n *Node) hashInto(h interface{ Write([]byte) (int, error) }) {
	if n == nil {
		return
	}
	_, _ = h.Write([]byte(n.Label))
	_, _ = h.Write([]byte{'('})
	for _, c := range n.Children {
		c.hashInto(h)
		_, _ = h.Write([]byte{','})
	}
	_, _ = h.Write([]byte{')'})
}

// Equal reports whether two trees have identical structure and labels
// (positions are ignored).
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Label != b.Label || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the tree in a compact one-line s-expression form.
func (n *Node) String() string {
	var b strings.Builder
	n.sexpr(&b)
	return b.String()
}

func (n *Node) sexpr(b *strings.Builder) {
	if n == nil {
		b.WriteString("()")
		return
	}
	if len(n.Children) == 0 {
		b.WriteString(n.Label)
		return
	}
	b.WriteByte('(')
	b.WriteString(n.Label)
	for _, c := range n.Children {
		b.WriteByte(' ')
		c.sexpr(b)
	}
	b.WriteByte(')')
}

// Pretty renders the tree with indentation, one node per line, useful for
// debugging and for the CLI `dump` command.
func (n *Node) Pretty() string {
	var b strings.Builder
	n.pretty(&b, 0)
	return b.String()
}

func (n *Node) pretty(b *strings.Builder, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Label)
	if n.Pos.IsValid() {
		fmt.Fprintf(b, "  @%s", n.Pos)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.pretty(b, depth+1)
	}
}

// LabelHistogram returns label -> count over the whole tree.
func (n *Node) LabelHistogram() map[string]int {
	h := make(map[string]int)
	n.Walk(func(m *Node) bool {
		h[m.Label]++
		return true
	})
	return h
}

// Labels returns the sorted distinct labels used in the tree.
func (n *Node) Labels() []string {
	h := n.LabelHistogram()
	out := make([]string, 0, len(h))
	for l := range h {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// ParseSexpr parses the one-line s-expression form produced by String.
// Labels may contain any rune except space and parentheses. It is the
// inverse of String for trees whose labels obey that restriction and is
// used by tests and the DB round-trip, where it decodes every tree of a
// stored index.
//
// The parse makes two allocations per tree. A first pass counts the label
// atoms, one per node. The second carves every Node, in pre-order, from
// one []Node, and every Children list from one shared []*Node. Each
// Children slice has cap == len, so an append to one node's children
// copies them out instead of writing into a sibling's.
func ParseSexpr(s string) (*Node, error) {
	n := countAtoms(s)
	p := &sexprParser{src: s, nodes: make([]Node, n)}
	if n > 1 {
		p.kids = make([]*Node, n-1)
		p.low = n - 1
	}
	root, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("tree: trailing input at %d in %q", p.pos, s)
	}
	return root, nil
}

// countAtoms counts the maximal runs of label characters in s: a bound on
// the nodes any parse of s creates, and their exact number when the parse
// succeeds.
func countAtoms(s string) int {
	n := 0
	in := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		atom := c != ' ' && c != '(' && c != ')'
		if atom && !in {
			n++
		}
		in = atom
	}
	return n
}

// sexprParser carves nodes from nodes (next is the first free one) and
// child lists from kids. kids holds two regions: finished child lists
// fill it downward from the end (low is the start of the lowest one), and
// the children of the open nodes are stacked upward from the start (top
// is the stack height). Every node but the root sits in at most one of
// the two, so the regions never meet.
type sexprParser struct {
	src      string
	pos      int
	nodes    []Node
	next     int
	kids     []*Node
	top, low int
}

func (p *sexprParser) skipSpace() {
	for p.pos < len(p.src) && p.src[p.pos] == ' ' {
		p.pos++
	}
}

func (p *sexprParser) node(label string) *Node {
	n := &p.nodes[p.next]
	p.next++
	n.Label = label
	return n
}

func (p *sexprParser) parse() (*Node, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("tree: unexpected end of input")
	}
	if p.src[p.pos] != '(' {
		label := p.atom()
		if label == "" {
			// Only a top-level ')' gets here: nothing parses, all trails.
			return nil, fmt.Errorf("tree: trailing input at %d in %q", p.pos, p.src)
		}
		return p.node(label), nil
	}
	p.pos++ // consume '('
	p.skipSpace()
	label := p.atom()
	if label == "" {
		return nil, fmt.Errorf("tree: empty label at %d", p.pos)
	}
	n := p.node(label)
	base := p.top
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("tree: unbalanced parens")
		}
		if p.src[p.pos] == ')' {
			p.pos++
			if k := p.top - base; k > 0 {
				lo := p.low - k
				copy(p.kids[lo:p.low], p.kids[base:p.top])
				n.Children = p.kids[lo:p.low:p.low]
				p.low, p.top = lo, base
			}
			return n, nil
		}
		c, err := p.parse()
		if err != nil {
			return nil, err
		}
		p.kids[p.top] = c
		p.top++
	}
}

func (p *sexprParser) atom() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '(' || c == ')' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}
