package ted

// Tests for twin keyroot pairs (DESIGN.md §13): within one memoised DP a
// keyroot pair whose twin pair, the first keyroots with the same subtrees,
// is already produced copies the twin's td cells instead of running its
// DP. Every distance must still equal the seed oracle's.

import (
	"math/rand"
	"testing"

	"silvervale/internal/tree"
)

// twinPool is the stock of root children twin trees draw from: leaves,
// small expressions over them and right-heavy statements, which the path
// strategy runs mirrored. Drawing several children from it repeats
// subtrees under the root, inside each other and across the two trees.
func twinPool(r *rand.Rand) []*tree.Node {
	x, y := tree.New("x"), tree.New("y")
	sum := tree.New("+", x.Clone(), y.Clone())
	return []*tree.Node{
		x, y, sum,
		tree.New("call", tree.New("f"), x.Clone(), sum.Clone(), x.Clone()),
		tree.New("=", y.Clone(), tree.New("*", sum.Clone(), sum.Clone())),
		heavyTree(r, 8+r.Intn(10), true),
		heavyTree(r, 8+r.Intn(10), true),
	}
}

// twinTree is a root over kids children drawn from pool.
func twinTree(r *rand.Rand, pool []*tree.Node, kids int) *tree.Node {
	root := tree.New("F")
	for k := 0; k < kids; k++ {
		root.Add(pool[r.Intn(len(pool))].Clone())
	}
	return root
}

// twinCache defers the small pairs (kernelMinCells), so materialise meets
// twin pairs, and takes the path strategy on any saving, so mirrored
// sub-DPs run on the twin trees' right-heavy children.
func twinCache() *Cache {
	c := NewCache()
	c.subMin = kernelMinCells
	c.pathMin = 1
	return c
}

// TestTwinPairsMatchOracle drives pairs of twin trees, whose root rows meet
// twin b keyroots, through the memoised DP under unit costs and the kernel
// cost models: cold, warm after a b-side relabel, with the roles swapped,
// and after an a-side append that resumes the root row from checkpoints.
// It requires twin copies, mirrored sub-DPs and resumed root rows to have
// run.
func TestTwinPairsMatchOracle(t *testing.T) {
	trials := 80
	if raceEnabled {
		trials = 16
	}
	r := rand.New(rand.NewSource(30))
	var twins, mirrored, resumed int64
	for trial := 0; trial < trials; trial++ {
		costs := kernelCostModels[trial%len(kernelCostModels)]
		pool := twinPool(r)
		a := twinTree(r, pool, 4+r.Intn(6))
		b := twinTree(r, pool, 4+r.Intn(6))
		c := twinCache()
		check := func(phase string, x, y *tree.Node) {
			t.Helper()
			if got, want := dpDistance(c, x, y, costs), refDistanceWithCosts(x, y, costs); got != want {
				t.Fatalf("%s: memoised %d != oracle %d\na=%s\nb=%s costs=%+v", phase, got, want, x, y, costs)
			}
		}
		check("cold", a, b)
		check("warm relabel", a, relabelSome(r, b, 1+r.Intn(3)))
		check("swapped", b, a)
		a2 := appendChild(a, pool[r.Intn(len(pool))])
		check("resumed", a2, b)
		check("resumed again", appendChild(a2, pool[r.Intn(len(pool))]), b)
		k := c.counts
		twins += k.twinBlocks.Value()
		mirrored += k.subdpMirror.Value()
		resumed += k.ckptHits.Value()
	}
	if twins == 0 || mirrored == 0 || resumed == 0 {
		t.Fatalf("%d twin blocks, %d mirrored sub-DPs, %d resumed root-row pairs: want all above 0", twins, mirrored, resumed)
	}
	t.Logf("%d twin blocks, %d mirrored sub-DPs, %d resumed root-row pairs", twins, mirrored, resumed)
}

// collideKeyroots gives every keyroot of f the id of the first keyroot
// with the same subtree size and rebuilds the twin index, as if all those
// subtrees' fingerprints collided. It reports how many keyroots took an id
// that addresses a different subtree.
func collideKeyroots(f *flat) int {
	first := map[int]int{}
	n := 0
	for ki, i := range f.kr {
		size := i - int(f.lmld[i]) + 1
		p, ok := first[size]
		if !ok {
			first[size] = ki
			continue
		}
		if !f.sameSubtree(f.kr[p], i) {
			n++
		}
		f.krID[ki] = f.krID[p]
	}
	f.buildTwins()
	return n
}

// TestTwinIndexChecksStructure gives keyroots of different subtrees the
// same id before a cold DP: the twin index must not pair them, so every
// distance still equals the oracle's. (Only cold runs: the block memo
// itself trusts ids, so a warm run would serve colliding blocks.)
func TestTwinIndexChecksStructure(t *testing.T) {
	trials := 60
	if raceEnabled {
		trials = 12
	}
	r := rand.New(rand.NewSource(31))
	collided := 0
	for trial := 0; trial < trials; trial++ {
		costs := kernelCostModels[trial%len(kernelCostModels)]
		pool := twinPool(r)
		a := twinTree(r, pool, 4+r.Intn(6))
		b := twinTree(r, pool, 4+r.Intn(6))
		c := twinCache()
		collided += collideKeyroots(c.flatFor(a, a.Fingerprint()))
		collided += collideKeyroots(c.flatFor(b, b.Fingerprint()))
		if got, want := dpDistance(c, a, b, costs), refDistanceWithCosts(a, b, costs); got != want {
			t.Fatalf("colliding ids: memoised %d != oracle %d\na=%s\nb=%s costs=%+v", got, want, a, b, costs)
		}
	}
	if collided == 0 {
		t.Fatal("no keyroot took the id of a different subtree")
	}
}
