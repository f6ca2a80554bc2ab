package tree

import "strconv"

// Fingerprint is a content address for a tree: a stable structural hash
// over node labels and shape. Source positions are ignored, exactly like
// Equal. Structurally equal trees always produce the same Fingerprint;
// distinct trees are separated by two independent 64-bit hashes plus the
// node count, so accidental collisions need a simultaneous collision in a
// ~128-bit space. The zero Fingerprint is reserved for the nil tree.
//
// Fingerprints are comparable and compact, which makes them usable as map
// keys — the content-addressing scheme behind ted.Cache, which keys both
// its distance memo (per pair) and its flat memo of Zhang–Shasha
// post-order forms (per tree) on fingerprints. That second use relies on
// the same invariant: a mutated tree gets a new fingerprint, so memoised
// derived forms can never go stale, only unreachable.
type Fingerprint struct {
	H1   uint64 // FNV-1a over the serialised structure
	H2   uint64 // independent multiplicative hash over the same bytes
	Size uint32 // node count, a cheap third separator
}

// IsZero reports whether the fingerprint is the nil-tree fingerprint.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// String renders the fingerprint as the fixed-width external form the CLI
// emits in -json output: 32 hex digits of hash, a colon, the node count.
// External tools diff these strings to detect per-unit tree changes
// between runs.
func (f Fingerprint) String() string {
	return string(f.AppendHex(make([]byte, 0, 48)))
}

// AppendHex appends the String form to dst without an intermediate
// string: each hash as 16 zero-padded lowercase hex digits, a colon, then
// the node count in decimal.
func (f Fingerprint) AppendHex(dst []byte) []byte {
	const digits = "0123456789abcdef"
	for _, h := range [2]uint64{f.H1, f.H2} {
		for shift := 60; shift >= 0; shift -= 4 {
			dst = append(dst, digits[h>>uint(shift)&0xf])
		}
	}
	dst = append(dst, ':')
	return strconv.AppendUint(dst, uint64(f.Size), 10)
}

// Less orders fingerprints lexicographically by (H1, H2, Size). The order
// carries no meaning beyond being total and deterministic; ted.Cache uses
// it to canonicalise symmetric pair keys.
func (f Fingerprint) Less(g Fingerprint) bool {
	if f.H1 != g.H1 {
		return f.H1 < g.H1
	}
	if f.H2 != g.H2 {
		return f.H2 < g.H2
	}
	return f.Size < g.Size
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	djbOffset64 = 5381
)

// fpState accumulates both hashes in a single tree walk.
type fpState struct {
	h1, h2 uint64
	size   uint32
}

func (s *fpState) writeByte(b byte) {
	s.h1 = (s.h1 ^ uint64(b)) * fnvPrime64
	s.h2 = s.h2*33 + uint64(b)
}

func (s *fpState) writeString(str string) {
	for i := 0; i < len(str); i++ {
		s.writeByte(str[i])
	}
}

// Fingerprint computes the tree's content address in one pre-order walk.
// A nil tree returns the zero Fingerprint.
func (n *Node) Fingerprint() Fingerprint {
	if n == nil {
		return Fingerprint{}
	}
	s := fpState{h1: fnvOffset64, h2: djbOffset64}
	n.fingerprintInto(&s)
	return Fingerprint{H1: s.h1, H2: s.h2, Size: s.size}
}

// fingerprintInto serialises the node as label '(' children ')' — the same
// shape encoding Hash uses — into both running hashes.
func (n *Node) fingerprintInto(s *fpState) {
	s.size++
	s.writeString(n.Label)
	s.writeByte('(')
	for _, c := range n.Children {
		c.fingerprintInto(s)
		s.writeByte(',')
	}
	s.writeByte(')')
}

// SubtreeFingerprints returns the Fingerprint of every subtree of n,
// indexed by post-order position — SubtreeFingerprints(n)[i] equals
// calling Fingerprint on the subtree rooted at post-order node i, with the
// whole tree's own fingerprint last. A nil tree returns nil.
//
// Each subtree's serialisation is a contiguous substring of its ancestors'
// (the separator after a child belongs to the parent), so one walk feeds
// every byte to a stack of live ancestor hash states instead of
// re-serialising each subtree from scratch: O(n·depth) byte feeds total,
// against O(n²) for per-node Fingerprint calls. This is what makes
// per-keyroot content addressing affordable in ted's subtree-block memo
// (DESIGN.md §13): the whole array is amortised into the one flatten pass
// a memoised tree already pays.
func (n *Node) SubtreeFingerprints() []Fingerprint {
	if n == nil {
		return nil
	}
	out := make([]Fingerprint, 0, 64)
	stack := make([]fpState, 0, 32)
	feed := func(b byte) {
		for i := range stack {
			s := &stack[i]
			s.h1 = (s.h1 ^ uint64(b)) * fnvPrime64
			s.h2 = s.h2*33 + uint64(b)
		}
	}
	var walk func(nd *Node) uint32
	walk = func(nd *Node) uint32 {
		stack = append(stack, fpState{h1: fnvOffset64, h2: djbOffset64})
		for i := 0; i < len(nd.Label); i++ {
			feed(nd.Label[i])
		}
		feed('(')
		size := uint32(1)
		for _, c := range nd.Children {
			// The child's state is popped inside the recursive call before
			// the ',' separator is fed: the separator is part of the
			// parent's serialisation, not the child's standalone form.
			size += walk(c)
			feed(',')
		}
		feed(')')
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, Fingerprint{H1: s.h1, H2: s.h2, Size: size})
		return size
	}
	walk(n)
	return out
}
