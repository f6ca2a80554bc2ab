package ted

// Tests for the subtree-block memo (DESIGN.md §13). The load-bearing
// property is bit-identity: the memoised decomposition replays the
// monolithic Zhang–Shasha DP's own subproblem results, so every distance
// it returns must equal the monolithic one exactly — on first sight
// (miss path), on repeats (hit path), across orientations, under any
// cost model, and under concurrent sharing. The structural tests pin the
// flatten-side plumbing the soundness argument leans on: the keyroot
// enumeration order and the spine partition.

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"silvervale/internal/tree"
)

// memoCache returns a cache whose subtree memo and checkpoint memo fire
// on every keyroot pair: the default threshold exists to skip work too
// small to profit, which would leave the fuzz-sized trees below it and
// the memos untested.
func memoCache() *Cache {
	c := NewCache()
	c.subMin = 1
	return c
}

// dpDistance runs one pair through the cache's memoised DP
// (zsDistanceMemo) on its memoised flats, skipping the distance memo and
// the bound gates. The memo tests drive their pairs through it: their
// append and relabel edits are near duplicates, which the bound sandwich
// answers without a DP, and a gated pair captures no blocks or
// checkpoint rows to test.
func dpDistance(c *Cache, t1, t2 *tree.Node, costs Costs) int {
	a := c.flatFor(t1, t1.Fingerprint())
	b := c.flatFor(t2, t2.Fingerprint())
	sc := getScratch()
	defer putScratch(sc)
	return c.zsDistanceMemo(a, b, costs, sc, t1, t2)
}

// postorderNodes collects t's nodes in post-order, the index space the
// flat arrays live in.
func postorderNodes(t *tree.Node, out []*tree.Node) []*tree.Node {
	for _, c := range t.Children {
		out = postorderNodes(c, out)
	}
	return append(out, t)
}

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

// TestKeyrootSpineInvariants pins the flatten-side contract zsDistanceMemo
// depends on: keyroots ascending with the root last, each the highest node
// of its lmld class; krID the interned content address of the keyroot's
// subtree;
// the spine partition covering every post-order index exactly once, each
// spine ascending and containing exactly its keyroot's lmld class; and the
// whole structure reproducible from a re-flatten (content addressing is
// meaningless if flattening the same tree twice disagrees).
func TestKeyrootSpineInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		tr := randTree(r, 1+r.Intn(120))
		n := tr.Size()
		ids := newMemoIDs()
		f := newFlat(tr, ids)
		nodes := postorderNodes(tr, nil)

		if len(f.kr) == 0 || f.kr[len(f.kr)-1] != n-1 {
			t.Fatalf("keyroots %v do not end at the root (n=%d)", f.kr, n)
		}
		seenLmld := map[int32]bool{}
		for ki, k := range f.kr {
			if ki > 0 && f.kr[ki-1] >= k {
				t.Fatalf("keyroots not strictly ascending: %v", f.kr)
			}
			l := f.lmld[k]
			if seenLmld[l] {
				t.Fatalf("two keyroots share lmld %d: %v", l, f.kr)
			}
			seenLmld[l] = true
			// highest of its class: no later node may share the lmld value
			for x := k + 1; x < n; x++ {
				if f.lmld[x] == l {
					t.Fatalf("keyroot %d is not the highest of lmld class %d (node %d above)", k, l, x)
				}
			}
			if want, ok := ids.ids[nodes[k].Fingerprint()]; !ok || f.krID[ki] != want {
				t.Fatalf("krID[%d] = %d, want the id of the subtree fingerprint (%d, interned %v)", ki, f.krID[ki], want, ok)
			}
		}

		if f.spineOff[0] != 0 || int(f.spineOff[len(f.kr)]) != n {
			t.Fatalf("spine offsets %v do not span [0,%d)", f.spineOff, n)
		}
		covered := make([]bool, n)
		for ki, k := range f.kr {
			sp := f.spine[f.spineOff[ki]:f.spineOff[ki+1]]
			if len(sp) == 0 {
				t.Fatalf("keyroot %d has an empty spine", k)
			}
			for si, x := range sp {
				if si > 0 && sp[si-1] >= x {
					t.Fatalf("spine of keyroot %d not ascending: %v", k, sp)
				}
				if f.lmld[x] != f.lmld[k] {
					t.Fatalf("node %d on spine of keyroot %d has lmld %d, want %d",
						x, k, f.lmld[x], f.lmld[k])
				}
				if covered[x] {
					t.Fatalf("node %d appears on two spines", x)
				}
				covered[x] = true
			}
			if sp[len(sp)-1] != int32(k) {
				t.Fatalf("spine of keyroot %d does not end at the keyroot: %v", k, sp)
			}
		}
		for x, ok := range covered {
			if !ok {
				t.Fatalf("node %d belongs to no spine", x)
			}
		}

		// re-flatten stability: a second newFlat of the same tree must
		// reproduce keyroots, subtree ids, and the partition exactly
		g := newFlat(tr, ids)
		if len(g.kr) != len(f.kr) {
			t.Fatalf("re-flatten changed keyroot count: %d vs %d", len(g.kr), len(f.kr))
		}
		for ki := range f.kr {
			if g.kr[ki] != f.kr[ki] || g.krID[ki] != f.krID[ki] {
				t.Fatalf("re-flatten diverged at keyroot %d", ki)
			}
		}
		for i := range f.spine {
			if g.spine[i] != f.spine[i] {
				t.Fatalf("re-flatten diverged at spine slot %d", i)
			}
		}
		for i := range f.spineOff {
			if g.spineOff[i] != f.spineOff[i] {
				t.Fatalf("re-flatten diverged at spine offset %d", i)
			}
		}
	}
}

// TestSubtreeMemoMatchesMonolithic drives the memoised path against the
// monolithic DP over random pairs and cost models. Each pair is followed
// by a near-copy (relabelSome) — distinct enough to miss the whole-pair
// distance memo, alike enough that clean keyroot blocks restore — plus
// the reversed orientation (blocks are oriented; the reverse pair must
// build or hit its own keys, never transpose).
func TestSubtreeMemoMatchesMonolithic(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	c := memoCache()
	for trial := 0; trial < 60; trial++ {
		a := randTree(r, 1+r.Intn(80))
		b := randTree(r, 1+r.Intn(80))
		costs := Costs{Insert: 1 + r.Intn(3), Delete: 1 + r.Intn(3), Rename: 1 + r.Intn(3)}
		want := DistanceWithCosts(a, b, costs)
		if got := c.DistanceWithCosts(a, b, costs); got != want {
			t.Fatalf("memoised %d != monolithic %d\na=%s\nb=%s costs=%+v", got, want, a, b, costs)
		}
		// mutate a copy so the distance memo misses but clean subtrees hit
		b2 := relabelSome(r, b, 1+r.Intn(5))
		want2 := DistanceWithCosts(a, b2, costs)
		if got := c.DistanceWithCosts(a, b2, costs); got != want2 {
			t.Fatalf("memoised %d != monolithic %d after relabel\na=%s\nb=%s", got, want2, a, b2)
		}
		wantRev := DistanceWithCosts(b, a, costs)
		if got := c.DistanceWithCosts(b, a, costs); got != wantRev {
			t.Fatalf("reversed memoised %d != monolithic %d", got, wantRev)
		}
	}
	// the mixed regime under default thresholds: some pairs memoise, the
	// rest defer to materialise-time recompute
	cd := NewCache()
	for trial := 0; trial < 30; trial++ {
		a := randTree(r, 60+r.Intn(90))
		b := relabelSome(r, a, 1+r.Intn(6))
		want := DistanceWithCosts(a, b, UnitCosts())
		if got := cd.DistanceWithCosts(a, b, UnitCosts()); got != want {
			t.Fatalf("default-threshold memoised %d != monolithic %d", got, want)
		}
	}
	s := c.Stats()
	if s.SubtreeHits == 0 || s.SubtreeMisses == 0 {
		t.Fatalf("memo never exercised both paths: %d hits, %d misses", s.SubtreeHits, s.SubtreeMisses)
	}
}

// TestSubtreeMemoConcurrent shares one cache across 8 goroutines computing
// overlapping pairs — racing builders of the same block must keep-first
// without torn payloads, and every answer must stay bit-identical to the
// monolithic DP. The second cache takes the path strategy for any saving,
// so goroutines also race on mirrored flats and mirrored sub-DP blocks.
// Run under -race this also proves the publication discipline.
func TestSubtreeMemoConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	var trees []*tree.Node
	base := rootOf(heavyTree(r, 40, true), randTree(r, 40), heavyTree(r, 40, true))
	trees = append(trees, base)
	for i := 0; i < 5; i++ {
		trees = append(trees, relabelSome(r, base, 1+r.Intn(8)))
	}
	costs := UnitCosts()
	type pair struct{ a, b int }
	var pairs []pair
	want := map[pair]int{}
	for i := range trees {
		for j := range trees {
			p := pair{i, j}
			pairs = append(pairs, p)
			want[p] = DistanceWithCosts(trees[i], trees[j], costs)
		}
	}
	pc := pathCache()
	for _, c := range []*Cache{memoCache(), pc} {
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for _, p := range pairs {
						if got := c.DistanceWithCosts(trees[p.a], trees[p.b], costs); got != want[p] {
							select {
							case errs <- "": // detail printed by the main goroutine
							default:
							}
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		if _, bad := <-errs; bad {
			t.Fatal("concurrent memoised distance diverged from monolithic DP")
		}
		if s := c.Stats(); s.SubtreeHits == 0 {
			t.Fatalf("shared cache never hit: %+v", s)
		}
	}
	if pc.counts.subdpMirror.Value() == 0 {
		t.Fatal("the path-strategy cache ran no mirrored sub-DP")
	}
}

// TestSubtreeMemoEviction squeezes the byte bound until publishes evict,
// then re-verifies distances: eviction may cost recomputes, never wrong
// answers, and the accounting must stay consistent with residency.
func TestSubtreeMemoEviction(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	c := memoCache()
	c.subMax = 4 << 10
	for trial := 0; trial < 30; trial++ {
		a := randTree(r, 40+r.Intn(80))
		b := randTree(r, 40+r.Intn(80))
		want := DistanceWithCosts(a, b, UnitCosts())
		if got := c.DistanceWithCosts(a, b, UnitCosts()); got != want {
			t.Fatalf("memoised %d != monolithic %d under eviction pressure", got, want)
		}
	}
	s := c.Stats()
	if s.SubtreeEvicted == 0 {
		t.Fatalf("no evictions under a %dB bound: %+v", c.subMax, s)
	}
	if s.SubtreeBytes > c.subMax {
		t.Fatalf("resident bytes %d exceed bound %d after eviction", s.SubtreeBytes, c.subMax)
	}
}

// TestSubtreeBlockExportImportRoundTrip: blocks exported from one cache
// and imported into a fresh one must serve hits there with bit-identical
// distances — the snapshot path watch -since rides on.
func TestSubtreeBlockExportImportRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	src := memoCache()
	var pairs [][2]*tree.Node
	for i := 0; i < 12; i++ {
		a := randTree(r, 30+r.Intn(60))
		b := relabelSome(r, a, 1+r.Intn(6))
		pairs = append(pairs, [2]*tree.Node{a, b})
		src.DistanceWithCosts(a, b, UnitCosts())
	}
	recs := src.ExportSubtreeBlocks()
	if len(recs) == 0 {
		t.Fatal("nothing exported from a warmed cache")
	}
	dst := memoCache()
	if installed := dst.ImportSubtreeBlocks(recs); installed != len(recs) {
		t.Fatalf("imported %d of %d records into an empty cache", installed, len(recs))
	}
	for _, p := range pairs {
		want := DistanceWithCosts(p[0], p[1], UnitCosts())
		if got := dst.DistanceWithCosts(p[0], p[1], UnitCosts()); got != want {
			t.Fatalf("restored cache returned %d, monolithic %d", got, want)
		}
	}
	if s := dst.Stats(); s.SubtreeHits == 0 {
		t.Fatalf("imported blocks never hit: %+v", s)
	}
	// malformed records are skipped, not installed
	bad := []SubtreeBlockRecord{{L1: 2, L2: 2, Vals: []int32{1, 2, 3}}}
	if n := memoCache().ImportSubtreeBlocks(bad); n != 0 {
		t.Fatalf("installed %d malformed records", n)
	}
}

// TestImportedShapeMismatchIsAMiss imports records under real keys whose
// shape does not match the spines of the keyroot pair they are keyed
// under. Served as blocks they would return a wrong root distance (the
// record's cell) or index past a short payload on restore; the probe must
// count them as misses, so the distance equals the monolithic DP and no
// block is served.
func TestImportedShapeMismatchIsAMiss(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	a := randTree(r, 181)
	b := randTree(r, 184)
	costs := UnitCosts()
	want := DistanceWithCosts(a, b, costs)
	src := memoCache()
	dpDistance(src, a, b, costs)
	recs := src.ExportSubtreeBlocks()
	rootA, rootB := a.Fingerprint(), b.Fingerprint()
	reshapes := []struct {
		name string
		f    func(SubtreeBlockRecord) SubtreeBlockRecord
	}{
		{"1x1", func(rec SubtreeBlockRecord) SubtreeBlockRecord {
			rec.L1, rec.L2, rec.Vals = 1, 1, []int32{12345}
			return rec
		}},
		{"transposed", func(rec SubtreeBlockRecord) SubtreeBlockRecord {
			rec.L1, rec.L2 = rec.L2, rec.L1
			return rec
		}},
	}
	for _, rs := range reshapes {
		name, f := rs.name, rs.f
		for _, withRoot := range []bool{true, false} {
			var bad []SubtreeBlockRecord
			for _, rec := range recs {
				if g := f(rec); g.L1 == rec.L1 && g.L2 == rec.L2 {
					continue // already that shape: a wrong value, not a wrong shape
				}
				if !withRoot && rec.A == rootA && rec.B == rootB {
					continue // inner pairs only: the root pair recomputes and restores them
				}
				bad = append(bad, f(rec))
			}
			dst := memoCache()
			dst.ImportSubtreeBlocks(bad)
			if got := dpDistance(dst, a, b, costs); got != want {
				t.Fatalf("%s records (root pair %v): distance %d, monolithic %d", name, withRoot, got, want)
			}
			if s := dst.Stats(); s.SubtreeHits != 0 {
				t.Fatalf("%s records (root pair %v): %d mis-shaped blocks served", name, withRoot, s.SubtreeHits)
			}
		}
	}
}

// TestExportImportAcrossInterners moves blocks between caches whose
// interners assign different ids: the destination interns other trees and
// another cost model first. Exporting the destination must give back the
// source's records exactly, narrow and wide cells alike.
func TestExportImportAcrossInterners(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	wide := Costs{Insert: 1000, Delete: 900, Rename: 1200}
	src := memoCache()
	for i := 0; i < 6; i++ {
		a := randTree(r, 40+r.Intn(60))
		b := relabelSome(r, a, 1+r.Intn(6))
		dpDistance(src, a, b, UnitCosts())
		dpDistance(src, b, a, wide)
	}
	recs := src.ExportSubtreeBlocks()
	dst := memoCache()
	for i := 0; i < 4; i++ {
		tr := randTree(r, 30+r.Intn(30))
		dst.flatFor(tr, tr.Fingerprint())
	}
	dst.ids.costID(Costs{Insert: 2, Delete: 3, Rename: 4})
	if n := dst.ImportSubtreeBlocks(recs); n != len(recs) {
		t.Fatalf("imported %d of %d records", n, len(recs))
	}
	if got := dst.ExportSubtreeBlocks(); !reflect.DeepEqual(got, recs) {
		t.Fatalf("re-export differs from the imported records (%d vs %d records)", len(got), len(recs))
	}
	var narrow, wideCells int
	for _, rec := range recs {
		if slices.ContainsFunc(rec.Vals, func(v int32) bool { return v > 0xffff }) {
			wideCells++
		} else {
			narrow++
		}
	}
	if narrow == 0 || wideCells == 0 {
		t.Fatalf("round trip covered %d narrow and %d wide blocks, want both", narrow, wideCells)
	}
}

// appendChild returns a clone of t with extra grafted on as a new last
// child of the root — the append-edit shape the root-row checkpoint memo
// exists for: every old root-child boundary's prefix fold is unchanged,
// so a warm cache can resume the root row past the old children.
func appendChild(t, extra *tree.Node) *tree.Node {
	c := t.Clone()
	c.Add(extra.Clone())
	return c
}

// TestRootRowCheckpointResume pins the checkpoint fast path end to end:
// after warming a pair, an append-only edit to the a-side root must be
// served by resuming the root keyroot's DP row from a memoised boundary
// (CheckpointHits advances) and still return the monolithic distance
// bit-identically. A second, different append on the now-warm cache must
// also equal the monolithic DP: its grid probe meets rows whose every
// block hit. A b-side append must also stay correct even though
// checkpoints are a-side-only (no resume, just block-level reuse).
func TestRootRowCheckpointResume(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	for trial := 0; trial < 25; trial++ {
		a := randTree(r, 40+r.Intn(80))
		if len(a.Children) == 0 {
			continue
		}
		b := relabelSome(r, a, 1+r.Intn(6))
		costs := Costs{Insert: 1 + r.Intn(2), Delete: 1 + r.Intn(2), Rename: 1 + r.Intn(2)}
		c := memoCache()
		if got, want := dpDistance(c, a, b, costs), refDistanceWithCosts(a, b, costs); got != want {
			t.Fatalf("warming pass diverged: %d != %d", got, want)
		}
		warm := c.Stats()
		if warm.CheckpointRows == 0 {
			t.Fatalf("warming pass captured no checkpoint rows (a has %d children)", len(a.Children))
		}

		a2 := appendChild(a, randTree(r, 1+r.Intn(10)))
		want := refDistanceWithCosts(a2, b, costs)
		if got := dpDistance(c, a2, b, costs); got != want {
			t.Fatalf("resumed distance %d != monolithic %d\na2=%s\nb=%s costs=%+v",
				got, want, a2, b, costs)
		}
		edited := c.Stats()
		if edited.CheckpointHits == warm.CheckpointHits {
			t.Fatalf("append edit did not resume from a checkpoint: %+v", edited)
		}

		a3 := appendChild(a, randTree(r, 1+r.Intn(10)))
		if got, want := dpDistance(c, a3, b, costs), refDistanceWithCosts(a3, b, costs); got != want {
			t.Fatalf("second append on a warm cache: %d != monolithic %d\na3=%s\nb=%s costs=%+v",
				got, want, a3, b, costs)
		}

		b2 := appendChild(b, randTree(r, 1+r.Intn(10)))
		if got, want := dpDistance(c, a2, b2, costs), refDistanceWithCosts(a2, b2, costs); got != want {
			t.Fatalf("b-side append diverged: %d != %d", got, want)
		}
	}
}

// TestPathStrategyKeepsCheckpoints is the edit-path regression test for
// the path strategy: appending one function (root child) to the row-side
// tree of a pair whose root children run mirrored must still resume the
// left-path root row from a forest-prefix checkpoint, and must run the
// sub-DP of the appended child only — never those of the unchanged
// children before the resume boundary. Mirroring whole trees loses both.
func TestPathStrategyKeepsCheckpoints(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	var newMirrored int64
	for trial := 0; trial < 20; trial++ {
		var kids []*tree.Node
		for k := 3 + r.Intn(4); k > 0; k-- {
			kids = append(kids, heavyTree(r, 10+r.Intn(20), true))
		}
		a := rootOf(kids...)
		b := relabelSome(r, a, 1+r.Intn(4))
		costs := Costs{Insert: 1 + r.Intn(2), Delete: 1 + r.Intn(2), Rename: 1 + r.Intn(2)}
		c := pathCache()
		mirrored, left := &c.counts.subdpMirror, &c.counts.subdpLeft
		if got, want := dpDistance(c, a, b, costs), refDistanceWithCosts(a, b, costs); got != want {
			t.Fatalf("warming pass: %d != seed %d", got, want)
		}
		if mirrored.Value() == 0 {
			t.Fatalf("warming pass ran no mirrored sub-DP: the strategy was not engaged\na=%s", a)
		}
		m0, l0, ck0 := mirrored.Value(), left.Value(), c.Stats().CheckpointHits

		a2 := appendChild(a, heavyTree(r, 20+r.Intn(10), true))
		if got, want := dpDistance(c, a2, b, costs), refDistanceWithCosts(a2, b, costs); got != want {
			t.Fatalf("append edit: %d != seed %d\na2=%s\nb=%s", got, want, a2, b)
		}
		if s := c.Stats(); s.CheckpointHits == ck0 {
			t.Fatalf("append edit did not resume the root row from a checkpoint: %+v", s)
		}
		dm, dl := mirrored.Value()-m0, left.Value()-l0
		if dm+dl != 1 {
			t.Fatalf("append edit ran %d mirrored and %d left sub-DPs, want only the appended child's", dm, dl)
		}
		newMirrored += dm
	}
	if newMirrored == 0 {
		t.Fatal("no appended child ever ran mirrored")
	}
}

// TestGridProbeServesWarmBlocks pins the warm-cache edit sequence the
// grid probe exists for: after a cold sweep and a first append edit, a
// second, different append meets keyroot rows whose every block is
// already memoised. The probe must serve those blocks (SubtreeHits
// advances) and the distance must still equal the monolithic DP bit for
// bit.
func TestGridProbeServesWarmBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 25; trial++ {
		a := randTree(r, 40+r.Intn(80))
		if len(a.Children) == 0 {
			continue
		}
		b := relabelSome(r, a, 1+r.Intn(6))
		costs := Costs{Insert: 1 + r.Intn(2), Delete: 1 + r.Intn(2), Rename: 1 + r.Intn(2)}
		c := memoCache()
		dpDistance(c, a, b, costs)

		a2 := appendChild(a, randTree(r, 1+r.Intn(10)))
		if got, want := dpDistance(c, a2, b, costs), refDistanceWithCosts(a2, b, costs); got != want {
			t.Fatalf("first append: %d != monolithic %d", got, want)
		}
		warm := c.Stats()

		a3 := appendChild(a, randTree(r, 1+r.Intn(10)))
		want := refDistanceWithCosts(a3, b, costs)
		if got := dpDistance(c, a3, b, costs); got != want {
			t.Fatalf("second append on a warm cache: %d != monolithic %d\na3=%s\nb=%s costs=%+v",
				got, want, a3, b, costs)
		}
		if s := c.Stats(); s.SubtreeHits == warm.SubtreeHits {
			t.Fatalf("second append served no memoised blocks: %+v", s)
		}
	}
}

// FuzzSubtreeMemo is the byte-identity tripwire: any fuzzer-found tree
// shapes and cost model where the memoised decomposition disagrees with
// the monolithic Zhang–Shasha DP is a soundness bug (DESIGN.md §13).
func FuzzSubtreeMemo(f *testing.F) {
	f.Add(int64(1), 10, 20, 1, 1, 1, 3)
	f.Add(int64(2), 60, 60, 2, 1, 3, 0)
	f.Add(int64(3), 1, 1, 1, 1, 1, 0)
	f.Add(int64(4), 90, 15, 3, 2, 1, 12)
	f.Add(int64(5), 45, 45, 1, 2, 2, 40)
	f.Fuzz(func(t *testing.T, seed int64, n1, n2, ci, cd, cr, mutate int) {
		if n1 < 1 || n1 > 150 || n2 < 1 || n2 > 150 || mutate < 0 || mutate > 150 {
			t.Skip()
		}
		if ci < 1 || ci > 5 || cd < 1 || cd > 5 || cr < 1 || cr > 5 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		a := randTree(r, n1)
		var b *tree.Node
		if mutate > 0 {
			b = relabelSome(r, a, mutate) // overlapping content: hits likely
		} else {
			b = randTree(r, n2)
		}
		costs := Costs{Insert: ci, Delete: cd, Rename: cr}
		want := DistanceWithCosts(a, b, costs)
		c := memoCache()
		if got := c.DistanceWithCosts(a, b, costs); got != want {
			t.Fatalf("memoised %d != monolithic %d\na=%s\nb=%s costs=%+v",
				got, want, a, b, costs)
		}
		if got := c.DistanceWithCosts(b, a, costs); got != DistanceWithCosts(b, a, costs) {
			t.Fatalf("reversed orientation diverged")
		}
		// restore path: a fresh cache seeded only with the first cache's
		// exported blocks must reproduce the distance bit-identically
		c2 := memoCache()
		c2.ImportSubtreeBlocks(c.ExportSubtreeBlocks())
		if got := c2.DistanceWithCosts(a, b, costs); got != want {
			t.Fatalf("restored blocks gave %d, monolithic %d\na=%s\nb=%s costs=%+v",
				got, want, a, b, costs)
		}
		// checkpoint resume path: an append-only root edit against the warm
		// cache exercises the root-row resume whenever a has children, and
		// must stay bit-identical either way
		a2 := appendChild(a, randTree(r, 1+r.Intn(8)))
		want2 := DistanceWithCosts(a2, b, costs)
		if got := c.DistanceWithCosts(a2, b, costs); got != want2 {
			t.Fatalf("resumed memoised %d != monolithic %d\na2=%s\nb=%s costs=%+v",
				got, want2, a2, b, costs)
		}
		// the same pair and append edit with the path strategy engaged:
		// mirrored root-child sub-DPs on the warm pass, the left-path root
		// row resuming from a checkpoint on the edit
		cp := pathCache()
		if got := cp.DistanceWithCosts(a, b, costs); got != want {
			t.Fatalf("path strategy %d != monolithic %d\na=%s\nb=%s costs=%+v",
				got, want, a, b, costs)
		}
		if got := cp.DistanceWithCosts(a2, b, costs); got != want2 {
			t.Fatalf("path strategy resumed %d != monolithic %d\na2=%s\nb=%s costs=%+v",
				got, want2, a2, b, costs)
		}
		// default thresholds: trees this size straddle subMin, so this is
		// the mixed regime where below-threshold pairs are deferred to
		// materialise-time and memoised pairs sit above them
		cdef := NewCache()
		if got := cdef.DistanceWithCosts(a, b, costs); got != want {
			t.Fatalf("default-threshold memoised %d != monolithic %d\na=%s\nb=%s costs=%+v",
				got, want, a, b, costs)
		}
		if got := cdef.DistanceWithCosts(a2, b, costs); got != want2 {
			t.Fatalf("default-threshold resumed %d != monolithic %d\na2=%s\nb=%s costs=%+v",
				got, want2, a2, b, costs)
		}
	})
}
