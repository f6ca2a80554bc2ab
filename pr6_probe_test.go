package silvervale

// Tier-policy calibration harness (skipped unless explicitly invoked):
// dumps per-pair statistics for the corpus-scale all-units sweep —
// sizes, label-multiset intersection, pq-gram distance, exact TED, DP
// wall-clock — as CSV so the screening threshold τ and the structural
// estimator's coefficients (internal/ted/tier.go), the only tunables
// left in the tier policy, can be refit offline when the corpus or the
// tree builders change. Gated by
// SILVERVALE_PR6_PROBE=<out.csv>; SILVERVALE_PR6_METRIC selects the
// tree metric (default tsem); SILVERVALE_PR6_APPROX_ONLY=1 skips the
// exact column for a fast approximate-distance survey. The full tsem
// probe runs the exact DP on all ~4.4k pairs (~10 min).

import (
	"fmt"
	"os"
	"testing"
	"time"

	"silvervale/internal/core"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

func labelMultiset(t *tree.Node) map[string]int {
	m := map[string]int{}
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		m[n.Label]++
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t)
	return m
}

func labelIsect(a, b *tree.Node) int {
	ma, mb := labelMultiset(a), labelMultiset(b)
	n := 0
	for l, ca := range ma {
		if cb := mb[l]; cb < ca {
			n += cb
		} else {
			n += ca
		}
	}
	return n
}

func TestPR6Probe(t *testing.T) {
	out := os.Getenv("SILVERVALE_PR6_PROBE")
	if out == "" {
		t.Skip("set SILVERVALE_PR6_PROBE=<path.csv>")
	}
	metric := os.Getenv("SILVERVALE_PR6_METRIC")
	if metric == "" {
		metric = core.MetricTsem
	}
	approxOnly := os.Getenv("SILVERVALE_PR6_APPROX_ONLY") != ""
	idxs, order := pr6Units(t)
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, "i,j,n1,n2,isect,approx,exact,ns")
	c := ted.NewCache()
	for i := 0; i < len(order); i++ {
		ta := idxs[order[i]].Units[0].Trees[metric]
		if ta == nil {
			continue
		}
		for j := i + 1; j < len(order); j++ {
			tb := idxs[order[j]].Units[0].Trees[metric]
			if tb == nil {
				continue
			}
			approx := c.ApproxDistance(ta, tb)
			isect := labelIsect(ta, tb)
			exact, ns := -1, int64(0)
			if !approxOnly {
				start := time.Now()
				exact = ted.Distance(ta, tb)
				ns = time.Since(start).Nanoseconds()
			}
			fmt.Fprintf(f, "%d,%d,%d,%d,%d,%.6f,%d,%d\n",
				i, j, ta.Size(), tb.Size(), isect, approx, exact, ns)
		}
	}
}
