package ted

// Tests for the shape-split DP kernel (DESIGN.md §6): treedist runs a
// leaf a keyroot as one row (leafRow), a leaf b keyroot as one column
// (leafCol) and everything else on the general kernel, and a
// checkpoint-eligible root-row pair always runs the general kernel because
// checkpoint capture reads its fd rows. Every path must compute the cells
// the seed oracle computes.

import (
	"math/rand"
	"testing"

	"silvervale/internal/tree"
)

// kernelMinCells is the memo threshold of the kernel test caches: low
// enough that the root row is checkpoint-eligible on every test tree, high
// enough that the small pairs (1×1 up to 3×5) are deferred and run at
// materialise time.
const kernelMinCells = 16

// kernelCostModels are unit costs plus three models with Insert ≠ Delete,
// under which the row and column ramps differ.
var kernelCostModels = []Costs{
	UnitCosts(),
	{Insert: 1, Delete: 2, Rename: 1},
	{Insert: 3, Delete: 1, Rename: 2},
	{Insert: 2, Delete: 5, Rename: 3},
}

// kernelTree is a function-shaped tree: a root whose children are a mix of
// leaves and small random subtrees. Every child but the first that is a
// leaf is a leaf keyroot, so a grid over two such trees has 1×1, 1×N and
// N×1 keyroot pairs, and the root row meets leaf b keyroots.
func kernelTree(r *rand.Rand, kids int) *tree.Node {
	labels := []string{"A", "B", "C", "D"}
	root := tree.New("F")
	for k := 0; k < kids; k++ {
		if r.Intn(2) == 0 {
			root.Add(tree.New(labels[r.Intn(len(labels))]))
		} else {
			root.Add(randTree(r, 2+r.Intn(10)))
		}
	}
	return root
}

// kernelShapes counts the grid of a × b by the kernel each keyroot pair
// runs on. rootLeafCols counts the checkpoint-eligible root-row pairs
// whose b keyroot is a leaf: the pairs that must stay on the general
// kernel.
type kernelShapes struct {
	oneByOne, oneByN, nByOne, deferred, rootLeafCols int
}

func (s *kernelShapes) add(a, b *flat, minCells int) {
	root := a.kr[len(a.kr)-1]
	ckEligible := len(a.ckptRow) > 0 && len(a.labels) >= minCells
	for _, i := range a.kr {
		m1 := i - int(a.lmld[i]) + 1
		for _, j := range b.kr {
			m2 := j - int(b.lmld[j]) + 1
			switch {
			case m1 == 1 && m2 == 1:
				s.oneByOne++
			case m1 == 1:
				s.oneByN++
			case m2 == 1:
				s.nByOne++
			}
			if m1*m2 < minCells {
				s.deferred++
			}
			if i == root && ckEligible && m2 == 1 {
				s.rootLeafCols++
			}
		}
	}
}

// TestKernelShapesMatchOracle drives grids holding every kernel shape
// through the memoised DP (dpDistance, so no bound gate answers a pair
// first) and the monolithic one, under four cost models, and checks each
// against the seed oracle: a cold pair, an append edit that resumes the
// root row from the checkpoints the cold pair captured (including those of
// leaf b keyroots), and a second append that resumes from checkpoints the
// first edit's resumed row captured.
func TestKernelShapesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	var shapes kernelShapes
	var resumed uint64
	for trial := 0; trial < 200; trial++ {
		costs := kernelCostModels[trial%len(kernelCostModels)]
		a := kernelTree(r, 3+r.Intn(6))
		var b *tree.Node
		if trial%3 == 0 {
			b = kernelTree(r, 3+r.Intn(6))
		} else {
			b = relabelSome(r, a, 1+r.Intn(4))
		}
		c := NewCache()
		c.subMin = kernelMinCells
		shapes.add(c.flatFor(a, a.Fingerprint()), c.flatFor(b, b.Fingerprint()), kernelMinCells)

		want := refDistanceWithCosts(a, b, costs)
		sc := getScratch()
		mono := zsDistance(newFlat(a, newMemoIDs()), newFlat(b, newMemoIDs()), costs, sc)
		putScratch(sc)
		if mono != want {
			t.Fatalf("monolithic %d != oracle %d\na=%s\nb=%s costs=%+v", mono, want, a, b, costs)
		}
		if got := dpDistance(c, a, b, costs); got != want {
			t.Fatalf("cold memoised %d != oracle %d\na=%s\nb=%s costs=%+v", got, want, a, b, costs)
		}

		ck0 := c.Stats().CheckpointHits
		a2 := appendChild(a, kernelTree(r, 1+r.Intn(3)))
		if got, want := dpDistance(c, a2, b, costs), refDistanceWithCosts(a2, b, costs); got != want {
			t.Fatalf("first append %d != oracle %d\na2=%s\nb=%s costs=%+v", got, want, a2, b, costs)
		}
		a3 := appendChild(a2, tree.New("A"))
		if got, want := dpDistance(c, a3, b, costs), refDistanceWithCosts(a3, b, costs); got != want {
			t.Fatalf("second append %d != oracle %d\na3=%s\nb=%s costs=%+v", got, want, a3, b, costs)
		}
		resumed += c.Stats().CheckpointHits - ck0
	}
	if shapes.oneByOne == 0 || shapes.oneByN == 0 || shapes.nByOne == 0 ||
		shapes.deferred == 0 || shapes.rootLeafCols == 0 {
		t.Fatalf("grids miss a kernel shape: %+v", shapes)
	}
	if resumed == 0 {
		t.Fatal("no append edit resumed the root row from a checkpoint")
	}
	t.Logf("keyroot pairs: %+v; %d root-row pairs resumed", shapes, resumed)
}
