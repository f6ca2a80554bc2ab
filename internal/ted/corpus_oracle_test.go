package ted_test

// The oracle fuzzers in this package draw synthetic shapes. This test
// feeds the memoised DP the trees it actually serves: the tsem unit trees
// of the generated babelstream corpus, whose shapes (deep statement
// spines, wide argument lists, many leaf keyroots) no generator here
// imitates.

import (
	"testing"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// corpusOracleMaxNodes caps the trees the corpus oracle test pairs. The
// seed oracle allocates and runs the whole keyroot DP for every pair: the
// 15 babelstream trees up to this size take about 5 s together, and the
// five larger ones (786 to 1,375 nodes) would add about 13 s more. Under
// -race the test keeps the 8 trees up to corpusOracleRaceMaxNodes.
const (
	corpusOracleMaxNodes     = 700
	corpusOracleRaceMaxNodes = 350
)

// corpusTsemTrees returns the tsem unit trees of one corpus app with at
// most maxNodes nodes, in the corpus's model order.
func corpusTsemTrees(t *testing.T, appName string, maxNodes int) []*tree.Node {
	t.Helper()
	var trees []*tree.Node
	for _, app := range corpus.Apps() {
		if app.Name != appName {
			continue
		}
		for _, m := range corpus.ModelsFor(app) {
			cb, err := corpus.Generate(app, m)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := core.IndexCodebase(cb, core.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range idx.Units {
				if tr := u.Trees[core.MetricTsem]; tr != nil && tr.Size() <= maxNodes {
					trees = append(trees, tr)
				}
			}
		}
	}
	if len(trees) == 0 {
		t.Fatalf("corpus app %s has no tsem trees", appName)
	}
	return trees
}

// TestCorpusTreesMatchOracle runs every unordered pair of babelstream tsem
// unit trees up to corpusOracleMaxNodes through the memoised DP of one
// shared default-threshold cache and through the seed oracle. The cache
// warms as the pairs go by, so later pairs restore blocks and resume root
// rows from checkpoints that earlier pairs captured. Each pair runs under
// one of the kernel test's cost models, in rotation, so every model sees
// pairs of every size class.
func TestCorpusTreesMatchOracle(t *testing.T) {
	maxNodes := corpusOracleMaxNodes
	if ted.RaceEnabled {
		maxNodes = corpusOracleRaceMaxNodes
	}
	trees := corpusTsemTrees(t, "babelstream", maxNodes)
	models := ted.KernelCostModels
	c := ted.NewCache()
	pairs := 0
	for x := range trees {
		for y := x + 1; y < len(trees); y++ {
			costs := models[pairs%len(models)]
			pairs++
			want := ted.RefDistance(trees[x], trees[y], costs)
			if got := ted.DPDistance(c, trees[x], trees[y], costs); got != want {
				t.Fatalf("pair (%d, %d) costs %+v: memoised %d != oracle %d", x, y, costs, got, want)
			}
		}
	}
	t.Logf("%d trees, %d pairs, %+v", len(trees), pairs, c.Stats())
}
