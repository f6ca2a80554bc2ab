package ted

// Property tests for the tier routing layer: the pq-gram prefilter and
// LSH signatures may only ever send provably-boring pairs to the
// estimated tiers — a pair that is actually close (small exact TED
// relative to tree size) must always route exact — and every routing
// decision must be a pure, symmetric, deterministic function of the two
// trees.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"silvervale/internal/store"
	"silvervale/internal/tree"
)

// relabelSome clones t and relabels at most k nodes — a pair (t, mutant)
// has exact TED <= k by the k-rename edit script.
func relabelSome(r *rand.Rand, t *tree.Node, k int) *tree.Node {
	c := t.Clone()
	var nodes []*tree.Node
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		nodes = append(nodes, n)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(c)
	for i := 0; i < k; i++ {
		nodes[r.Intn(len(nodes))].Label = "Z" + string(rune('a'+r.Intn(26)))
	}
	return c
}

// disjointTree builds a random tree over a label alphabet disjoint from
// randTree's — pairs against randTree output share no pq-grams beyond
// padding, the far regime the estimated tiers exist for.
func disjointTree(r *rand.Rand, n int) *tree.Node {
	labels := []string{"V", "W", "X", "Y", "Zq"}
	root := tree.New(labels[r.Intn(len(labels))])
	nodes := []*tree.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[r.Intn(len(nodes))]
		child := tree.New(labels[r.Intn(len(labels))])
		parent.Add(child)
		nodes = append(nodes, child)
	}
	return root
}

// screening is the one policy that routes pairs away from exact.
var screening = TierPolicy{Budget: ScreeningBudget}

// TestTierRouteLeavesStoreUntouched: screening estimates are recomputed
// from the per-tree memo entries, so routing a batch of estimated and
// far pairs on a store-backed cache neither reads nor writes a record.
func TestTierRouteLeavesStoreUntouched(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := NewCache()
	c.SetStore(st)
	r := rand.New(rand.NewSource(5))
	routed := map[Tier]int{}
	for i := 0; i < 24; i++ {
		t1 := randTree(r, 200)
		t2 := disjointTree(r, 220)
		if i%2 == 1 {
			t2 = relabelSome(r, t1, 30+i)
		}
		_, tier := c.TierRoute(t1, t2, screening)
		routed[tier]++
	}
	if routed[TierEstimated] == 0 || routed[TierFar] == 0 {
		t.Fatalf("batch routed %v, want estimated and far pairs", routed)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 0 || s.BytesRead != 0 || s.BytesWritten != 0 {
		t.Fatalf("routing touched the store: %+v", s)
	}
}

// TestTierRouteNeverEstimatesClosePairs: the lower-bound property of the
// prefilter — a pair whose exact TED is small relative to its size (a
// few renames) sits far below the screening threshold and must always
// route exact.
func TestTierRouteNeverEstimatesClosePairs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := NewCache()
	for i := 0; i < 80; i++ {
		// Small pairs sit below the size floor and must route exact no
		// matter what their pq-gram distance does; large pairs are above
		// it, and a few relabels must keep them below the threshold.
		n := 20 + r.Intn(80)
		if i%2 == 1 {
			n = 150 + r.Intn(100)
		}
		t1 := randTree(r, n)
		t2 := relabelSome(r, t1, 1+r.Intn(3))
		if est, tier := c.TierRoute(t1, t2, screening); tier != TierExact {
			t.Fatalf("close pair (%d nodes, approx %.3f) routed %v (est %v) under %v",
				n, c.ApproxDistance(t1, t2), tier, est, screening)
		}
	}
}

// TestTierRouteEstimateInvariants: on far pairs (disjoint label
// alphabets) the routing must (a) only estimate pairs whose pq-gram
// distance clears the threshold, (b) keep every estimate inside the
// provable [|n1-n2|, n1+n2] interval for unit costs, and (c) be symmetric
// and deterministic, under the screening policy.
func TestTierRouteEstimateInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	p := screening
	estimated := 0
	for i := 0; i < 60; i++ {
		c := NewCache()
		// Above the tierMinNodes floor so routing can actually estimate.
		t1 := randTree(r, 150+r.Intn(150))
		t2 := disjointTree(r, 150+r.Intn(150))
		est, tier := c.TierRoute(t1, t2, p)
		estBA, tierBA := c.TierRoute(t2, t1, p)
		if tier != tierBA || est != estBA {
			t.Fatalf("asymmetric route: (%v,%v) vs (%v,%v)", est, tier, estBA, tierBA)
		}
		est2, tier2 := c.TierRoute(t1, t2, p)
		if est2 != est || tier2 != tier {
			t.Fatalf("unstable route: (%v,%v) then (%v,%v)", est, tier, est2, tier2)
		}
		if tier == TierExact {
			continue
		}
		estimated++
		if tier == TierEstimated && c.ApproxDistance(t1, t2) < screeningThreshold {
			t.Fatalf("estimated pair below threshold: approx %.3f < %.3f",
				c.ApproxDistance(t1, t2), screeningThreshold)
		}
		n1, n2 := t1.Size(), t2.Size()
		lo, hi := n1-n2, n1+n2
		if lo < 0 {
			lo = -lo
		}
		if est < float64(lo) || est > float64(hi) {
			t.Fatalf("estimate %v outside provable [%d, %d]", est, lo, hi)
		}
		exact := float64(Distance(t1, t2))
		if est < float64(lo) || exact > float64(hi) {
			t.Fatalf("interval broken: est %v exact %v bounds [%d,%d]", est, exact, lo, hi)
		}
	}
	if estimated == 0 {
		t.Fatal("no far pair was estimated: the invariants were never exercised")
	}
}

// TestSignatureDeterministicAcrossCachesAndGoroutines: LSH bucket
// assignment must be a pure function of the tree — identical rows from a
// fresh serial computation, a memoised cache, and many goroutines racing
// on one cache (the worker-count independence the matrix relies on).
func TestSignatureDeterministicAcrossCachesAndGoroutines(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var trees []*tree.Node
	for i := 0; i < 24; i++ {
		trees = append(trees, randTree(r, 1+r.Intn(100)))
	}
	serial := make([]Signature, len(trees))
	for i, tr := range trees {
		serial[i] = NewSignature(NewPQGramProfile(tr), sigBands, sigRows)
	}
	shared := NewCache()
	var wg sync.WaitGroup
	got := make([][]Signature, 8)
	for g := range got {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]Signature, len(trees))
			for i, tr := range trees {
				got[g][i] = shared.SignatureFor(tr)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range trees {
			if !reflect.DeepEqual(got[g][i], serial[i]) {
				t.Fatalf("goroutine %d tree %d: cached signature differs from serial", g, i)
			}
		}
	}
	// Self-collision sanity: a tree always lands in its own buckets.
	for i := range trees {
		if !SharesBand(serial[i], serial[i]) {
			t.Fatalf("tree %d does not share a band with itself", i)
		}
		if d := EstimateDistance(serial[i], serial[i]); d != 0 {
			t.Fatalf("self estimate %v, want 0", d)
		}
	}
}

// FuzzTierRouting drives the router with fuzzed tree shapes, sizes, and
// budgets, asserting the routing invariants on every input: symmetry,
// determinism, interval clamping, and exactness below ScreeningBudget.
// The seeds sit on the screening policy, plus one just below it.
func FuzzTierRouting(f *testing.F) {
	f.Add(int64(1), 10, 20, 0.5, 2)
	f.Add(int64(2), 50, 5, 0.5, 0)
	f.Add(int64(3), 1, 1, 0.75, 1)
	f.Add(int64(4), 80, 80, 1.5, 30)
	f.Add(int64(5), 200, 250, 0.5, 0)
	f.Add(int64(6), 290, 140, 0.5, 0)
	f.Add(int64(7), 290, 140, 0.49, 0)
	f.Fuzz(func(t *testing.T, seed int64, n1, n2 int, budget float64, mutate int) {
		if n1 < 1 || n1 > 300 || n2 < 1 || n2 > 300 {
			t.Skip()
		}
		if budget < 0 || budget > 10 || mutate < 0 || mutate > 200 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		t1 := randTree(r, n1)
		var t2 *tree.Node
		if mutate > 0 {
			t2 = relabelSome(r, t1, mutate)
		} else {
			t2 = disjointTree(r, n2)
		}
		c := NewCache()
		p := TierPolicy{Budget: budget}
		est, tier := c.TierRoute(t1, t2, p)
		estBA, tierBA := c.TierRoute(t2, t1, p)
		if est != estBA || tier != tierBA {
			t.Fatalf("asymmetric: (%v,%v) vs (%v,%v)", est, tier, estBA, tierBA)
		}
		est2, tier2 := NewCache().TierRoute(t1, t2, p)
		if est2 != est || tier2 != tier {
			t.Fatalf("cache-dependent route: (%v,%v) vs (%v,%v)", est, tier, est2, tier2)
		}
		if !p.Enabled() && tier != TierExact {
			t.Fatalf("budget %g routed %v", budget, tier)
		}
		if tier != TierExact {
			s1, s2 := t1.Size(), t2.Size()
			lo, hi := s1-s2, s1+s2
			if lo < 0 {
				lo = -lo
			}
			if est < float64(lo) || est > float64(hi) {
				t.Fatalf("estimate %v outside [%d,%d]", est, lo, hi)
			}
		}
	})
}
