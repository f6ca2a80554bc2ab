package core

import (
	"fmt"
	"math"
	"sort"

	"silvervale/internal/seqdiff"
	"silvervale/internal/ted"
	"silvervale/internal/tree"
)

// distFunc computes an exact TED between two trees whose fingerprints
// the caller already holds; approxFunc a pq-gram distance. The divergence
// recurrences are written against these so the serial one-shot path
// (plainDist) and the cached engine path (ted.Cache.DistanceFP) share one
// implementation and produce bit-identical results.
type distFunc func(t1, t2 *tree.Node, f1, f2 tree.Fingerprint, c ted.Costs) int

type approxFunc func(t1, t2 *tree.Node) float64

// plainDist is the one-shot distFunc: ted.DistanceWithCosts, which has no
// memo to key and so ignores the fingerprints.
func plainDist(t1, t2 *tree.Node, _, _ tree.Fingerprint, c ted.Costs) int {
	return ted.DistanceWithCosts(t1, t2, c)
}

// Divergence is the result of comparing two indexed codebases under one
// metric.
type Divergence struct {
	Metric string
	// Raw is the summed distance d(C1, C2) over matched unit pairs
	// (Eq. 4/6), or the absolute difference for the absolute metrics.
	Raw float64
	// DMax is dmax(C1, C2) (Eq. 7): the distance at which C2 counts as an
	// entirely different codebase.
	DMax float64
	// Norm is Raw / DMax — the value plotted in the paper's heatmaps.
	// A value of zero means the codebases are identical under the metric;
	// values may exceed 1 because dmax is not a strict upper bound.
	Norm float64
}

// match pairs units across two indexes by role — the match function of
// Eq. (4): "it should pair units with the same purpose". Unmatched units
// on either side contribute their full weight (everything must be inserted
// or deleted).
func match(a, b *Index) (pairs [][2]*UnitIndex, onlyA, onlyB []*UnitIndex) {
	bByRole := map[string]*UnitIndex{}
	for i := range b.Units {
		bByRole[b.Units[i].Role] = &b.Units[i]
	}
	seen := map[string]bool{}
	for i := range a.Units {
		ua := &a.Units[i]
		if ub, ok := bByRole[ua.Role]; ok {
			pairs = append(pairs, [2]*UnitIndex{ua, ub})
			seen[ua.Role] = true
		} else {
			onlyA = append(onlyA, ua)
		}
	}
	for i := range b.Units {
		if !seen[b.Units[i].Role] {
			onlyB = append(onlyB, &b.Units[i])
		}
	}
	return pairs, onlyA, onlyB
}

// Diverge computes the divergence of codebase b from codebase a under the
// named metric.
func Diverge(a, b *Index, metric string) (Divergence, error) {
	return divergeWith(a, b, metric, plainDist)
}

func divergeWith(a, b *Index, metric string, dist distFunc) (Divergence, error) {
	switch metric {
	case MetricSLOC, MetricLLOC:
		return divergeAbsolute(a, b, metric), nil
	case MetricSource, MetricSourcePP:
		return divergeSource(a, b, metric), nil
	case MetricTsrc, MetricTsrcPP, MetricTsem, MetricTsemI, MetricTir:
		return divergeWithCosts(a, b, metric, ted.UnitCosts(), dist)
	default:
		return Divergence{}, fmt.Errorf("core: unknown metric %q", metric)
	}
}

// divergeAbsolute: SLOC/LLOC are absolute measures; as a relative distance
// for clustering we use the absolute difference normalised by the larger
// codebase — the only comparison the measure supports, and the reason the
// paper finds its clustering "appears random".
func divergeAbsolute(a, b *Index, metric string) Divergence {
	va, vb := 0, 0
	for i := range a.Units {
		if metric == MetricSLOC {
			va += a.Units[i].SLOC
		} else {
			va += a.Units[i].LLOC
		}
	}
	for i := range b.Units {
		if metric == MetricSLOC {
			vb += b.Units[i].SLOC
		} else {
			vb += b.Units[i].LLOC
		}
	}
	raw := math.Abs(float64(va - vb))
	dmax := math.Max(float64(va), float64(vb))
	return Divergence{Metric: metric, Raw: raw, DMax: dmax, Norm: safeDiv(raw, dmax)}
}

func unitLines(u *UnitIndex, pp bool) []string {
	if pp {
		return u.SourceLinesPP
	}
	return u.SourceLines
}

// divergeSource: Eq. (4) — the LCS-based textual distance over matched
// unit pairs. Raw is the edit distance (lines to delete plus insert);
// dmax is the total line count of b.
func divergeSource(a, b *Index, metric string) Divergence {
	pp := metric == MetricSourcePP
	pairs, onlyA, onlyB := match(a, b)
	raw, dmax := 0.0, 0.0
	for _, p := range pairs {
		la := unitLines(p[0], pp)
		lb := unitLines(p[1], pp)
		lcs := seqdiff.LCSStrings(la, lb)
		raw += float64(len(la) + len(lb) - 2*lcs)
		dmax += float64(len(lb))
	}
	for _, u := range onlyA {
		raw += float64(len(unitLines(u, pp)))
	}
	for _, u := range onlyB {
		n := float64(len(unitLines(u, pp)))
		raw += n
		dmax += n
	}
	return Divergence{Metric: metric, Raw: raw, DMax: dmax, Norm: safeDiv(raw, dmax)}
}

// divergeTrees: Eq. (6)/(7) — summed TED over matched tree pairs,
// normalised by the total node count of b's trees, under a TED cost model
// (inserting b's nodes and deleting a's). pair yields one matched pair's
// distance — exact TED, or a tier-routed estimate. This is the one
// accumulation every tree-metric cell runs: matched pairs, then only-A,
// then only-B. Under unit costs every multiplier is 1, so the sums are
// bit-identical to the unweighted Eq. 6/7. pair also receives both trees'
// recorded fingerprints, so a memoised distance costs no tree walk.
func divergeTrees(a, b *Index, metric string, costs ted.Costs, pair func(ta, tb *tree.Node, fa, fb tree.Fingerprint) float64) Divergence {
	pairs, onlyA, onlyB := match(a, b)
	raw, dmax := 0.0, 0.0
	for _, p := range pairs {
		ta := p[0].Trees[metric]
		tb := p[1].Trees[metric]
		raw += pair(ta, tb, p[0].TreeFingerprint(metric), p[1].TreeFingerprint(metric))
		dmax += float64(p[1].treeSize(metric) * costs.Insert)
	}
	for _, u := range onlyA {
		raw += float64(u.treeSize(metric) * costs.Delete)
	}
	for _, u := range onlyB {
		n := float64(u.treeSize(metric) * costs.Insert)
		raw += n
		dmax += n
	}
	return Divergence{Metric: metric, Raw: raw, DMax: dmax, Norm: safeDiv(raw, dmax)}
}

// DivergeWithCosts computes a tree-metric divergence under a non-unit TED
// cost model — the ablation the paper leaves as future work: "adding new
// code may have a different productivity impact than removing existing
// code".
func DivergeWithCosts(a, b *Index, metric string, costs ted.Costs) (Divergence, error) {
	return divergeWithCosts(a, b, metric, costs, plainDist)
}

func divergeWithCosts(a, b *Index, metric string, costs ted.Costs, dist distFunc) (Divergence, error) {
	if !isTreeMetric(metric) {
		return Divergence{}, fmt.Errorf("core: weighted divergence needs a tree metric, got %q", metric)
	}
	return divergeTrees(a, b, metric, costs, func(ta, tb *tree.Node, fa, fb tree.Fingerprint) float64 {
		return float64(dist(ta, tb, fa, fb, costs))
	}), nil
}

// ApproxDiverge computes a tree-metric divergence with the pq-gram
// approximation instead of exact TED — the linear-memory mode the paper's
// future-work section calls for so that production-scale codebases (e.g.
// GROMACS) fit in workstation memory. The result is already normalised to
// [0, 1]; Raw/DMax report the weighted profile sizes.
func ApproxDiverge(a, b *Index, metric string) (Divergence, error) {
	return approxDivergeWith(a, b, metric, ted.ApproxDistance)
}

func approxDivergeWith(a, b *Index, metric string, approx approxFunc) (Divergence, error) {
	if !isTreeMetric(metric) {
		return Divergence{}, fmt.Errorf("core: approximate divergence needs a tree metric, got %q", metric)
	}
	pairs, onlyA, onlyB := match(a, b)
	num, den := 0.0, 0.0
	for _, p := range pairs {
		w := float64(p[1].treeSize(metric))
		num += approx(p[0].Trees[metric], p[1].Trees[metric]) * w
		den += w
	}
	for _, u := range onlyA {
		w := float64(u.treeSize(metric))
		num += w
		den += w
	}
	for _, u := range onlyB {
		w := float64(u.treeSize(metric))
		num += w
		den += w
	}
	return Divergence{Metric: metric, Raw: num, DMax: den, Norm: safeDiv(num, den)}, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	return a / b
}

// TreeSizes returns the per-metric total node counts of an index, used by
// reports and by memory estimates. Iteration is over sorted metric keys so
// the computation order is reproducible across runs and schedulers.
func TreeSizes(idx *Index) map[string]int {
	out := map[string]int{}
	for i := range idx.Units {
		for _, k := range sortedTreeKeys(idx.Units[i].Trees) {
			out[k] += idx.Units[i].Trees[k].Size()
		}
	}
	return out
}

// sortedTreeKeys returns the metric keys of a unit's tree map in sorted
// order — the fix for map-iteration nondeterminism anywhere per-metric
// work or output depends on visit order.
func sortedTreeKeys(m map[string]*tree.Node) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Weight returns the dmax denominator a codebase contributes when it is
// the right-hand side of a comparison: its total tree node count (tree
// metrics) or total normalised line count (Source).
func Weight(idx *Index, metric string) float64 {
	w := 0.0
	for i := range idx.Units {
		u := &idx.Units[i]
		switch metric {
		case MetricSource:
			w += float64(len(u.SourceLines))
		case MetricSourcePP:
			w += float64(len(u.SourceLinesPP))
		default:
			w += float64(u.treeSize(metric)) // 0 for a unit without the tree
		}
	}
	return w
}

// Matrix computes the full pairwise normalised-divergence matrix over the
// given model order — "we run the comparison step over the cartesian
// product of all models to yield a correlation matrix". Raw distances are
// symmetric under unit costs, so each unordered pair is computed once and
// normalised per direction by the right-hand codebase's weight (Eq. 7).
func Matrix(idxs map[string]*Index, order []string, metric string) ([][]float64, error) {
	n := len(order)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		ia, ok := idxs[order[i]]
		if !ok {
			return nil, fmt.Errorf("core: no index for model %q", order[i])
		}
		for j := i + 1; j < n; j++ {
			ib, ok := idxs[order[j]]
			if !ok {
				return nil, fmt.Errorf("core: no index for model %q", order[j])
			}
			d, err := Diverge(ia, ib, metric)
			if err != nil {
				return nil, err
			}
			switch metric {
			case MetricSLOC, MetricLLOC:
				m[i][j] = d.Norm
				m[j][i] = d.Norm
			default:
				m[i][j] = d.Norm
				m[j][i] = safeDiv(d.Raw, Weight(ia, metric))
			}
		}
	}
	return m, nil
}

// FromBase computes the divergence of every model from one base model
// (serial for Fig. 7–9, CUDA for the Fig. 10 migration study).
func FromBase(idxs map[string]*Index, base string, order []string, metric string) (map[string]float64, error) {
	ib, ok := idxs[base]
	if !ok {
		return nil, fmt.Errorf("core: no index for base model %q", base)
	}
	out := map[string]float64{}
	for _, m := range order {
		im, ok := idxs[m]
		if !ok {
			return nil, fmt.Errorf("core: no index for model %q", m)
		}
		d, err := Diverge(ib, im, metric)
		if err != nil {
			return nil, err
		}
		out[m] = d.Norm
	}
	return out, nil
}

// SelfCheck verifies that a codebase compared against itself yields zero
// divergence for every metric — the runtime validation the artefact
// description requires ("SilverVale compares the base model against
// itself; non-zero results will indicate an error").
func SelfCheck(idx *Index) error {
	for _, m := range Metrics() {
		d, err := Diverge(idx, idx, m)
		if err != nil {
			return err
		}
		if d.Norm != 0 {
			return fmt.Errorf("core: self-divergence %v under %s", d.Norm, m)
		}
	}
	return nil
}
