package ted

import (
	"fmt"
	"math"

	"silvervale/internal/store"
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
// in unit edit ops.
func (c *Cache) calibratedRaw(t1, t2 *tree.Node, fa, fb tree.Fingerprint, approx float64) float64 {
	a := c.flatFor(t1, fa)
	b := c.flatFor(t2, fb)
	sc := getScratch()
	isect := multisetIntersection(a, b, sc)
	putScratch(sc)
	n1, n2 := int(fa.Size), int(fb.Size)
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

// SignatureFor returns the memoised minhash signature of a tree, building
// profile and signature on first sight.
func (c *Cache) SignatureFor(t *tree.Node) Signature {
	return c.signature(t, t.Fingerprint())
}

// signature is SignatureFor with the tree's fingerprint already in hand,
// so a memo hit does not walk the tree.
func (c *Cache) signature(t *tree.Node, fp tree.Fingerprint) Signature {
	c.mu.RLock()
	s, ok := c.sigs[fp]
	c.mu.RUnlock()
	if ok {
		return s
	}
	s = NewSignature(c.profile(t, fp), sigBands, sigRows)
	c.mu.Lock()
	c.sigs[fp] = s
	c.mu.Unlock()
	return s
}

// TierRoute decides how a pair should be evaluated under a policy without
// running the exact DP. It returns (0, TierExact) when the pair must be
// refined exactly (including every policy below ScreeningBudget), and
// (estimate, tier) when the pair is far enough that the estimate honours
// the budget. The decision and the estimate are pure functions of the two
// trees — bit-identical across runs, schedulers, and worker counts — and
// every step beneath it (signatures, pq-gram distance, flats) is memoised
// by content fingerprint, so a repeated route recomputes only the two
// fingerprints, the signature comparison and the multiset intersection
// (or, with a store attached, re-reads the estimate's record). The
// fingerprints are the only tree walks a repeated route makes: every
// memo beneath is keyed by them, and TierRouteFP skips even those.
//
// With a persistent store attached, estimated values read through the
// store's tier records, keyed by the canonical fingerprint pair and the
// routing tier that fired: the screening settings are constants, so a
// warm start can never serve an estimate produced under other settings,
// and the records live apart from the exact tier.
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
	sa := c.signature(t1, fa)
	sb := c.signature(t2, fb)
	if !SharesBand(sa, sb) {
		if d := EstimateDistance(sa, sb); d >= screeningThreshold+farMargin {
			// Provably-far bucket: no band collision and the signature
			// estimate clears the threshold with margin — skip even the
			// profile merge.
			return c.tieredEstimate(t1, t2, fa, fb, d, TierFar), TierFar
		}
	}
	approx := c.approxDistance(t1, t2, fa, fb)
	if approx >= screeningThreshold {
		return c.tieredEstimate(t1, t2, fa, fb, approx, TierEstimated), TierEstimated
	}
	return 0, TierExact
}

// tieredEstimate produces the estimate for a far-routed pair, reading
// through (and writing into) the store's tier records when a store
// is attached. The store key carries the routing tier, so records from
// the two estimated tiers never mix.
func (c *Cache) tieredEstimate(t1, t2 *tree.Node, fa, fb tree.Fingerprint, approx float64, tier Tier) float64 {
	st := c.backing.Load()
	if st == nil {
		return c.calibratedRaw(t1, t2, fa, fb, approx)
	}
	a, b := fa, fb
	if b.Less(a) {
		a, b = b, a // unit-cost estimates are symmetric, as exact TED is
	}
	tk := store.TierKey{A: a, B: b, Tier: uint8(tier)}
	if d, ok := st.LookupTierDist(tk); ok {
		return d
	}
	est := c.calibratedRaw(t1, t2, fa, fb, approx)
	st.PutTierDist(tk, est)
	return est
}
