package ted

import (
	"fmt"
	"math"

	"silvervale/internal/tree"
)

// Tiered distance evaluation (DESIGN.md §10). The all-pairs divergence
// matrices are O(n²) pairs of quadratic-DP Zhang–Shasha cells, which caps
// how many units a sweep can hold. Program-tree distance distributions are
// structured enough that a cheap approximate pass can route most pairs
// away from the exact DP: under a TierPolicy each tree pair is first
// routed by an LSH minhash signature over its pq-gram profile, then — for
// borderline pairs — by the full pq-gram distance, and only pairs the
// approximation (or the exact bound gates inside the DP path) flag as
// close or borderline pay for exact Zhang–Shasha. Far pairs receive a
// deterministic estimate derived from the approximate distance, clamped
// into the exact distance's provable [lower, upper] interval.
//
// The contract is an error budget with one operating point. Below
// ScreeningBudget every pair routes exact and results are byte-identical
// to the untiered path (the equivalence gate in internal/core pins this);
// at or above it the screening regime runs, and the exact-vs-tiered
// harness records per-cell |tiered − exact| and asserts it stays within
// the budget on every seed corpus.

// Tier identifies how one pair's distance was produced.
type Tier uint8

const (
	// TierExact: the pair was (or must be) computed with exact
	// Zhang–Shasha — either the budget is below ScreeningBudget, the
	// pair routed "close or borderline", or the trees are identical
	// (distance 0 is exact by the empty edit script).
	TierExact Tier = iota
	// TierEstimated: the full pq-gram distance flagged the pair as far;
	// the value is the clamped pq-gram estimate.
	TierEstimated
	// TierFar: the LSH signatures alone flagged the pair as provably-far
	// (no shared band and a signature-estimated distance well past the
	// threshold); the profiles were never merged. The value is the
	// clamped signature estimate.
	TierFar
)

// String names the tier for provenance output.
func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierEstimated:
		return "estimated"
	case TierFar:
		return "far"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// The screening regime's fixed settings. The LSH signature is 16 bands
// of 4 rows: 64 minhash rows keep the Jaccard estimator's noise around
// ±0.06, and a 4-row band fires with probability J⁴ — near-duplicates
// (J ≳ 0.8) collide in some band almost surely while far pairs (J ≲ 0.2)
// almost never do. screeningThreshold τ is the pq-gram distance at or
// above which a pair may be estimated instead of refined: the structural
// estimator's worst observed per-cell error on the all-units corpus probe
// (4371 pairs, every unit of every seed app × model, worst normalisation)
// is ~0.41 at τ = 0.45, and BENCH_PR6 measured 0.471 on the full sweep,
// which the 0.5 ScreeningBudget covers.
const (
	sigBands           = 16
	sigRows            = 4
	screeningThreshold = 0.45
)

// ScreeningBudget is the smallest budget that engages screening. Smaller
// budgets run the exact path, which honours every budget: estimating at
// a stricter threshold saves little DP on app-level sweeps and still
// breaks tight budgets (τ = 0.85 left a 0.0875 error on a babelstream
// cell under a 0.05 budget).
const ScreeningBudget = 0.5

// farMargin is how far past the routing threshold the noisier
// signature-only estimate must sit before a pair is declared far without
// merging profiles. Borderline signatures always fall through to the full
// pq-gram distance.
const farMargin = 0.05

// tierMinNodes: pairs where either tree is smaller than this are always
// refined exactly. Small trees sit outside the estimator's calibration
// population (the smallest seed unit tree has >150 nodes), a handful of
// edits can push their pq-gram distance across any threshold, and their
// DP is microseconds — estimation carries all of the risk and none of
// the savings.
const tierMinNodes = 128

// TierPolicy configures tiered evaluation. A Budget below ScreeningBudget
// (including the zero value) routes every pair exact; at or above it the
// screening regime estimates far pairs.
type TierPolicy struct {
	// Budget is the per-matrix-cell error tolerance: the recorded bound
	// on |tiered − exact| for every normalised divergence cell.
	Budget float64
}

// Enabled reports whether the policy routes any pair away from exact.
func (p TierPolicy) Enabled() bool { return p.Budget >= ScreeningBudget }

// String renders the policy for stats lines and provenance reports.
func (p TierPolicy) String() string {
	if !p.Enabled() {
		return fmt.Sprintf("budget %g (exact)", p.Budget)
	}
	return fmt.Sprintf("budget %g, threshold %.3f, lsh %dx%d", p.Budget, screeningThreshold, sigBands, sigRows)
}

// Signature is a minhash signature over a pq-gram profile: Bands×Rows
// row minima under independent hash seeds. Signatures are pure functions
// of the profile (the gram slice is sorted, so no map-order leaks), which
// is what makes LSH bucket assignment bit-identical across runs and
// worker counts.
type Signature struct {
	rows  []uint64
	bands int
}

// splitmix64 is the finaliser of the splitmix64 generator — a cheap,
// well-mixed 64-bit permutation used both to derive per-row seeds and to
// rehash grams per row.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewSignature computes the minhash signature of a profile. An empty
// profile yields all-max rows (two empties estimate distance 0).
func NewSignature(p PQGramProfile, bands, rows int) Signature {
	n := bands * rows
	sig := Signature{rows: make([]uint64, n), bands: bands}
	for i := range sig.rows {
		sig.rows[i] = math.MaxUint64
	}
	prev := uint64(0)
	first := true
	for _, g := range p.grams {
		if !first && g == prev {
			continue // minhash is over the gram set; duplicates cannot lower a min
		}
		first = false
		prev = g
		for i := range sig.rows {
			if h := splitmix64(g ^ splitmix64(uint64(i)+1)); h < sig.rows[i] {
				sig.rows[i] = h
			}
		}
	}
	return sig
}

// SharesBand reports whether any band of r rows matches in full — the LSH
// bucket collision test: colliding pairs are near-duplicate candidates
// and must be refined exactly.
func SharesBand(a, b Signature) bool {
	if len(a.rows) != len(b.rows) || a.bands != b.bands || a.bands == 0 {
		return false
	}
	rows := len(a.rows) / a.bands
	for band := 0; band < a.bands; band++ {
		match := true
		for r := band * rows; r < (band+1)*rows; r++ {
			if a.rows[r] != b.rows[r] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// EstimateDistance converts two signatures into a pq-gram-distance
// estimate: the row-match fraction estimates Jaccard similarity Ĵ, and
// for set profiles the normalised pq-gram distance is exactly
// (1−J)/(1+J).
func EstimateDistance(a, b Signature) float64 {
	if len(a.rows) == 0 || len(a.rows) != len(b.rows) {
		return 1
	}
	match := 0
	for i := range a.rows {
		if a.rows[i] == b.rows[i] {
			match++
		}
	}
	j := float64(match) / float64(len(a.rows))
	return (1 - j) / (1 + j)
}

// Structural estimator coefficients: constants, the recorded fit on the
// all-units corpus probe (4371 cross-unit pairs, every unit of every
// seed app × model, weighted least squares under the per-cell error
// norm, residuals stable under even/odd holdout — see EXPERIMENTS.md).
// With mx/mn the larger/smaller node count and I the label-multiset
// intersection:
//
//	est ≈ 0.96·(mx−I) − 0.19·I + (0.60 + 0.12·approx)·mn
//
// Read as: each node whose label has no counterpart must be deleted,
// inserted, or renamed (≈1 op each); the smaller tree's mass costs
// ~0.6–0.7 ops per node even when labels match, because semantic trees
// over small label alphabets are structurally scrambled; a matched label
// recovers only ~0.19 ops. The estimate is clamped into the provable
// [max(|n1−n2|, mx−I), n1+n2] interval (mx−I is a valid unit-cost lower
// bound: any mapping of m pairs has ≥ m−I renames, so cost ≥
// n1+n2−m−I ≥ mx−I).
const (
	calUnmatched = 0.96
	calMatched   = -0.19
	calApprox    = 0.12
	calMin       = 0.60
)

// calibratedRaw is the screening-grade estimate for a far-routed pair,
// in unit edit ops. The label-multiset intersection runs over the two
// screening entries' label ids, so no flat is built.
func calibratedRaw(a, b *screen, approx float64) float64 {
	sc := getScratch()
	isect := multisetIntersection(a.labels, b.labels, sc)
	putScratch(sc)
	n1, n2 := len(a.labels), len(b.labels)
	mx, mn := n1, n2
	if mx < mn {
		mx, mn = mn, mx
	}
	est := calUnmatched*float64(mx-isect) + calMatched*float64(isect) + (calMin+calApprox*approx)*float64(mn)
	lo := float64(mx - mn)
	if l := float64(mx - isect); l > lo {
		lo = l
	}
	if est < lo {
		est = lo
	}
	if hi := float64(n1 + n2); est > hi {
		est = hi
	}
	return est
}

// screen is one tree's screening state, memoised by content fingerprint:
// its pq-gram profile, the minhash signature over that profile, and its
// interned label ids (in pre-order; the estimate uses them only as a
// multiset). Entries are immutable once built and shared across
// goroutines.
type screen struct {
	profile PQGramProfile
	sig     Signature
	labels  []int32
}

// screenFor returns the memoised screening entry of t (fp =
// t.Fingerprint()), building it on first sight. Racing builders keep the
// first, like flatFor.
func (c *Cache) screenFor(t *tree.Node, fp tree.Fingerprint) *screen {
	c.mu.RLock()
	s, ok := c.screens[fp]
	c.mu.RUnlock()
	if ok {
		return s
	}
	p := NewPQGramProfile(t)
	s = &screen{
		profile: p,
		sig:     NewSignature(p, sigBands, sigRows),
		labels:  appendLabelIDs(make([]int32, 0, fp.Size), t),
	}
	c.mu.Lock()
	if prior, ok := c.screens[fp]; ok {
		s = prior
	} else {
		c.screens[fp] = s
	}
	c.mu.Unlock()
	return s
}

// appendLabelIDs appends the interned label id of every node of t, in
// pre-order.
func appendLabelIDs(ids []int32, t *tree.Node) []int32 {
	if t == nil {
		return ids
	}
	ids = append(ids, internID(t.Label))
	for _, c := range t.Children {
		ids = appendLabelIDs(ids, c)
	}
	return ids
}

// SignatureFor returns the memoised minhash signature of a tree.
func (c *Cache) SignatureFor(t *tree.Node) Signature {
	return c.screenFor(t, t.Fingerprint()).sig
}

// TierRoute decides how a pair should be evaluated under a policy without
// running the exact DP. It returns (0, TierExact) when the pair must be
// refined exactly (including every policy below ScreeningBudget), and
// (estimate, tier) when the pair is far enough that the estimate honours
// the budget. The decision and the estimate are pure functions of the two
// trees — bit-identical across runs, schedulers, and worker counts. Each
// tree's profile, signature and label ids are memoised in one entry keyed
// by its content fingerprint, so a repeated route recomputes only the two
// fingerprints, the signature comparison, the pq-gram merge and the
// multiset intersection. The fingerprints are the only tree walks a
// repeated route makes, and TierRouteFP skips even those. Routing reads
// and writes nothing in a persistent store.
func (c *Cache) TierRoute(t1, t2 *tree.Node, p TierPolicy) (float64, Tier) {
	if !p.Enabled() {
		return 0, TierExact
	}
	return c.TierRouteFP(t1, t2, t1.Fingerprint(), t2.Fingerprint(), p)
}

// TierRouteFP is TierRoute for callers that already hold both trees'
// fingerprints (fa = t1.Fingerprint(), fb = t2.Fingerprint()): a repeated
// route then walks neither tree.
func (c *Cache) TierRouteFP(t1, t2 *tree.Node, fa, fb tree.Fingerprint, p TierPolicy) (float64, Tier) {
	if !p.Enabled() || t1 == nil || t2 == nil {
		return 0, TierExact
	}
	if fa == fb && tree.Equal(t1, t2) {
		return 0, TierExact // identity: exact distance 0, no DP needed anyway
	}
	if fa.Size < tierMinNodes || fb.Size < tierMinNodes {
		return 0, TierExact // below the calibration population; DP is cheap
	}
	sa := c.screenFor(t1, fa)
	sb := c.screenFor(t2, fb)
	if !SharesBand(sa.sig, sb.sig) {
		if d := EstimateDistance(sa.sig, sb.sig); d >= screeningThreshold+farMargin {
			// Provably-far bucket: no band collision and the signature
			// estimate clears the threshold with margin — skip even the
			// profile merge.
			return calibratedRaw(sa, sb, d), TierFar
		}
	}
	approx := c.approxDistance(sa, sb)
	if approx >= screeningThreshold {
		return calibratedRaw(sa, sb, approx), TierEstimated
	}
	return 0, TierExact
}
