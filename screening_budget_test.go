// Corpus-scale screening budget (DESIGN.md §10): the tiered engine's one
// promise is that every cell of a screening sweep stays within
// ted.ScreeningBudget of the exact sweep. Its hardest form is the
// all-units sweep: every tsem unit tree of every app × model as a
// single-unit index, all pairs. Running that sweep exactly takes minutes,
// so the test routes every pair with Cache.TierRoute and checks each
// routed-away estimate against a committed file of recorded exact
// distances (testdata/screening_exact.txt). Pairs routed exact need no
// entry: their cells are exact by construction.
//
// The file regenerates without a knob: delete it and run
//
//	go test -run '^TestCorpusScreeningWithinBudget$' -timeout 30m .
//
// (not under -race). The test then runs the exact DP for every
// routed-away pair on all CPUs (about 5 CPU-minutes), writes the file and
// fails so that it gets committed.
package silvervale

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"silvervale/internal/core"
	"silvervale/internal/corpus"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

const screeningRefPath = "testdata/screening_exact.txt"

// screeningDriftPairs is how many of the cheapest recorded pairs every run
// re-derives with the exact DP, so a wrong or stale value cannot pass.
const screeningDriftPairs = 8

// screeningUnit is one member of the corpus-scale population.
type screeningUnit struct {
	name string
	tree *tree.Node
	size int // node count (Node.Size walks the tree)
}

// screeningPair is one routed-away pair: order indices (i < j) and the
// estimate TierRoute produced for it.
type screeningPair struct {
	i, j int
	est  float64
}

// screeningUnits builds the population in the deterministic corpus
// iteration order: every unit with a tsem tree, of every app × model.
func screeningUnits(t *testing.T) []screeningUnit {
	t.Helper()
	var units []screeningUnit
	for _, app := range corpus.Apps() {
		for _, m := range corpus.ModelsFor(app) {
			cb, err := corpus.Generate(app, m)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := core.IndexCodebase(cb, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range idx.Units {
				if tr := u.Trees[core.MetricTsem]; tr != nil {
					units = append(units, screeningUnit{fmt.Sprintf("%s/%s/%s", app.Name, m, u.File), tr, tr.Size()})
				}
			}
		}
	}
	return units
}

// screeningRef is the parsed reference file: the header's unit lines and
// the recorded exact distance of each routed-away pair.
type screeningRef struct {
	units []string // "name fingerprint", in order
	dist  map[[2]int]int
}

func readScreeningRef(path string) (*screeningRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref := &screeningRef{dist: map[[2]int]int{}}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(text, "unit "); ok {
			ref.units = append(ref.units, rest)
			continue
		}
		var i, j, d int
		if _, err := fmt.Sscanf(text, "%d %d %d", &i, &j, &d); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if i < 0 || i >= j || j >= len(ref.units) {
			return nil, fmt.Errorf("%s:%d: pair %d %d outside the %d header units", path, line, i, j, len(ref.units))
		}
		ref.dist[[2]int{i, j}] = d
	}
	return ref, sc.Err()
}

// writeScreeningRef computes the exact distance of every routed-away pair
// on all CPUs and writes the reference file.
func writeScreeningRef(path string, units []screeningUnit, routed []screeningPair) error {
	dist := make([]int, len(routed))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				dist[k] = ted.Distance(units[routed[k].i].tree, units[routed[k].j].tree)
			}
		}()
	}
	for k := range routed {
		next <- k
	}
	close(next)
	wg.Wait()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("# Exact unit-cost tsem TED of every corpus unit pair that Cache.TierRoute\n")
	b.WriteString("# routes away from the exact DP under ted.ScreeningBudget.\n")
	b.WriteString("# Header: one \"unit <name> <tsem fingerprint>\" line per unit, in order.\n")
	b.WriteString("# Body: one \"<i> <j> <distance>\" line per routed-away pair.\n")
	b.WriteString("# Regenerate: see screening_budget_test.go.\n")
	for _, u := range units {
		fmt.Fprintf(&b, "unit %s %s\n", u.name, u.tree.Fingerprint())
	}
	for k, p := range routed {
		fmt.Fprintf(&b, "%d %d %d\n", p.i, p.j, dist[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// TestCorpusScreeningWithinBudget: on the all-units tsem sweep, both
// normalised cells of every routed-away pair — |est − exact| / |t_b| and
// |est − exact| / |t_a|, the two cells MatrixTiered writes for a
// single-unit pair — stay within ted.ScreeningBudget.
func TestCorpusScreeningWithinBudget(t *testing.T) {
	units := screeningUnits(t)
	cache := ted.NewCache()
	policy := ted.TierPolicy{Budget: ted.ScreeningBudget}
	var routed []screeningPair
	var pairs, exact, estimated, far int
	for i := range units {
		for j := i + 1; j < len(units); j++ {
			pairs++
			est, tier := cache.TierRoute(units[i].tree, units[j].tree, policy)
			switch tier {
			case ted.TierExact:
				exact++
				continue
			case ted.TierEstimated:
				estimated++
			case ted.TierFar:
				far++
			}
			routed = append(routed, screeningPair{i, j, est})
		}
	}
	t.Logf("%d units, %d pairs: %d exact, %d estimated, %d far", len(units), pairs, exact, estimated, far)
	if estimated == 0 || far == 0 {
		t.Fatalf("screening routed %d pairs estimated and %d far; the budget check would be vacuous", estimated, far)
	}

	regen := fmt.Sprintf("delete %s and run `go test -run '^TestCorpusScreeningWithinBudget$' -timeout 30m .` to regenerate it", screeningRefPath)
	ref, err := readScreeningRef(screeningRefPath)
	if os.IsNotExist(err) {
		if err := writeScreeningRef(screeningRefPath, units, routed); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d routed-away pairs); commit it and rerun", screeningRefPath, len(routed))
	}
	if err != nil {
		t.Fatalf("%v; %s", err, regen)
	}
	if len(ref.units) != len(units) {
		t.Fatalf("%s records %d units, the corpus has %d; %s", screeningRefPath, len(ref.units), len(units), regen)
	}
	for i, u := range units {
		if want := u.name + " " + u.tree.Fingerprint().String(); ref.units[i] != want {
			t.Fatalf("%s unit %d is %q, the corpus has %q; %s", screeningRefPath, i, ref.units[i], want, regen)
		}
	}

	// Drift guard: the cheapest recorded pairs are re-derived exactly.
	drift := make([][2]int, 0, len(ref.dist))
	for k := range ref.dist {
		drift = append(drift, k)
	}
	cost := func(k [2]int) int { return units[k[0]].size * units[k[1]].size }
	sort.Slice(drift, func(a, b int) bool {
		if ca, cb := cost(drift[a]), cost(drift[b]); ca != cb {
			return ca < cb
		}
		return drift[a][0] < drift[b][0] || drift[a][0] == drift[b][0] && drift[a][1] < drift[b][1]
	})
	if len(drift) < screeningDriftPairs {
		t.Fatalf("%s records %d pairs, want at least %d; %s", screeningRefPath, len(drift), screeningDriftPairs, regen)
	}
	for _, k := range drift[:screeningDriftPairs] {
		if got := ted.Distance(units[k[0]].tree, units[k[1]].tree); got != ref.dist[k] {
			t.Fatalf("pair %d %d: exact TED %d, %s records %d; %s", k[0], k[1], got, screeningRefPath, ref.dist[k], regen)
		}
	}

	var maxErr float64
	var worst screeningPair
	over := 0
	for _, p := range routed {
		d, ok := ref.dist[[2]int{p.i, p.j}]
		if !ok {
			t.Fatalf("pair %d %d (%s vs %s) routes away from exact but %s records no distance; %s",
				p.i, p.j, units[p.i].name, units[p.j].name, screeningRefPath, regen)
		}
		// The pair's two cells: normalised by |t_b| and by |t_a|.
		diff := math.Abs(p.est - float64(d))
		e := max(diff/float64(units[p.j].size), diff/float64(units[p.i].size))
		if e > ted.ScreeningBudget {
			if over++; over <= 10 {
				t.Errorf("%s vs %s: estimate %.1f, exact %d, cell error %.3f > budget %g",
					units[p.i].name, units[p.j].name, p.est, d, e, ted.ScreeningBudget)
			}
		}
		if e > maxErr {
			maxErr, worst = e, p
		}
	}
	t.Logf("max cell error %.3f (budget %g) at %s vs %s", maxErr, ted.ScreeningBudget, units[worst.i].name, units[worst.j].name)
	if over > 0 {
		t.Errorf("%d of %d routed-away pairs have a cell over budget %g", over, len(routed), ted.ScreeningBudget)
	}
}
