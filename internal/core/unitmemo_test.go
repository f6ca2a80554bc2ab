package core

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"

	"silvervale/internal/corpus"
	"silvervale/internal/coverage"
	"silvervale/internal/srcloc"
)

// cloneCodebase returns a deep copy of cb that can be edited freely.
func cloneCodebase(cb *corpus.Codebase) *corpus.Codebase {
	out := *cb
	out.Files = maps.Clone(cb.Files)
	out.System = maps.Clone(cb.System)
	out.Units = append([]corpus.Unit(nil), cb.Units...)
	return &out
}

// memoIndex indexes cb on e and checks the answer against the cold
// oracle: reflect.DeepEqual to the package-level IndexCodebase of the same
// sources under the same options, with exactly wantReparsed units run
// through the frontend and every other unit served from the memo.
func memoIndex(t *testing.T, e *Engine, cb *corpus.Codebase, opts Options, wantReparsed int, what string) *Index {
	t.Helper()
	before := e.IncrStats()
	got, err := e.IndexCodebase(cb, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	d := e.IncrStats().Delta(before)
	if d.UnitsReparsed != wantReparsed || d.UnitsReused != len(cb.Units)-wantReparsed {
		t.Fatalf("%s: %d units reused, %d reparsed; want %d of %d reparsed",
			what, d.UnitsReused, d.UnitsReparsed, wantReparsed, len(cb.Units))
	}
	opts.Workers = 1
	want, err := IndexCodebase(cb, opts)
	if err != nil {
		t.Fatalf("%s: cold oracle: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: memo-served index differs from IndexCodebase", what)
	}
	return got
}

// unitFile returns the root file of cb's unit with the given role.
func unitFile(t *testing.T, cb *corpus.Codebase, role string) string {
	t.Helper()
	for _, u := range cb.Units {
		if u.Role == role {
			return u.File
		}
	}
	t.Fatalf("%s/%s has no %s unit", cb.App, cb.Model, role)
	return ""
}

// TestUnitMemoEquivalence walks the unit memo through every way a unit's
// closure can change, on C++ (babelstream, tealeaf) and Fortran
// (babelstream-fortran): each index is DeepEqual to the cold oracle, and
// exactly the units whose closure changed miss.
func TestUnitMemoEquivalence(t *testing.T) {
	for _, appName := range []string{"babelstream", "tealeaf", "babelstream-fortran"} {
		t.Run(appName, func(t *testing.T) {
			cbs, order := generateAll(t, appName)
			e := NewEngine(2)
			cb := cloneCodebase(cbs[order[0]])
			n := len(cb.Units)
			cxx := cb.Lang == corpus.LangCXX

			memoIndex(t, e, cb, Options{}, n, "cold index")
			memoIndex(t, e, cb, Options{}, 0, "identical re-index")

			kernels := unitFile(t, cb, "kernels")
			if cxx {
				cb.Files[kernels] += pr8ExtraFn
			} else {
				cb.Files[kernels] += "\n! unit memo edit\n"
			}
			memoIndex(t, e, cb, Options{}, 1, "root-file edit")

			if cxx {
				// kernels.h is in main.cpp's closure only; cmath is in
				// both units' closures.
				cb.Files["kernels.h"] += "\n// header edit\n"
				memoIndex(t, e, cb, Options{}, 1, "header edit")
				cb.Files["cmath"] += "\n// system header edit\n"
				memoIndex(t, e, cb, Options{}, n, "shared header edit")

				cb.Files["kernels.h"] += "\n#include \"tuning.h\"\n"
				memoIndex(t, e, cb, Options{}, 1, "include of a missing file")
				cb.Files["tuning.h"] = "#define TUNING 1\n"
				memoIndex(t, e, cb, Options{}, 1, "missing include target appears")

				cb.System["kernels.h"] = true
				memoIndex(t, e, cb, Options{}, 1, "system flag flip on a dependency")
				memoIndex(t, e, cb, Options{KeepSystemHeaders: true}, n, "KeepSystemHeaders")
			}
			mask := srcloc.NewLineMask()
			mask.Set(kernels, 3, true)
			memoIndex(t, e, cb, Options{Coverage: coverage.NewProfile(mask)}, n, "coverage mask")
			memoIndex(t, e, cb, Options{}, 0, "default options again")

			// Same unit file names and root bytes in another codebase whose
			// dependency differs: no cross-serving, and the first
			// codebase's candidates still serve it afterwards.
			other := cloneCodebase(cb)
			other.Model = "memo-twin"
			if cxx {
				other.Files["tuning.h"] = "#define TUNING 2\n"
				memoIndex(t, e, other, Options{}, 1, "twin codebase, header differs")
			} else {
				memoIndex(t, e, other, Options{}, 0, "twin codebase, same closure")
			}
			memoIndex(t, e, cb, Options{}, 0, "first codebase after its twin")

			// The windows: a candidate lives exactly unitMemoWindow index
			// calls past its last use, or unitMemoHotWindow calls once it
			// has served two lookups, then is dropped and re-parsed with
			// the same answer.
			fillerApp := "babelstream-fortran"
			if !cxx {
				fillerApp = "babelstream"
			}
			filler := generateAllOne(t, fillerApp)
			fill := func(calls int) {
				for i := 0; i < calls; i++ {
					if _, err := e.IndexCodebase(filler, Options{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			cb.Files[kernels] += "\n"
			memoIndex(t, e, cb, Options{}, 1, "new root version")
			fill(unitMemoWindow - 1)
			memoIndex(t, e, cb, Options{}, 0, "within the window")
			fill(unitMemoWindow)
			memoIndex(t, e, cb, Options{}, 1, "one call past the window")
			memoIndex(t, e, cb, Options{}, 0, "first hit after re-parse")
			memoIndex(t, e, cb, Options{}, 0, "second hit after re-parse")
			fill(unitMemoHotWindow - 1)
			memoIndex(t, e, cb, Options{}, 0, "twice-served, within the hot window")
			fill(unitMemoHotWindow)
			memoIndex(t, e, cb, Options{}, n, "one call past the hot window")
		})
	}
}

// TestUnitMemoRetentionLevelsOff is the distinct-upload soak: a stream
// of new versions of one unit, each indexed a few times (an upload
// diverged, repeated, and diverged again) and then never again, grows the
// memo only until its window starts dropping them. From then on it holds
// one window's worth of versions, plus the unchanged unit every call
// shares, however long the stream: unitMemoWindow calls' worth for
// versions used once, unitMemoHotWindow calls' worth for versions used
// three times, which have served two lookups.
func TestUnitMemoRetentionLevelsOff(t *testing.T) {
	base := generateAllOne(t, "babelstream-fortran")
	kernels := unitFile(t, base, "kernels")
	for _, tc := range []struct{ uses, window int }{{1, unitMemoWindow}, {3, unitMemoHotWindow}} {
		t.Run(fmt.Sprintf("%d uses", tc.uses), func(t *testing.T) {
			e := NewEngine(1)
			held := func() int {
				e.units.mu.Lock()
				defer e.units.mu.Unlock()
				n := 0
				for _, cands := range e.units.m {
					n += len(cands)
				}
				return n
			}
			// After each upload's last use, the versions whose last use is
			// within the window are held: window/uses + 1 of them.
			level := tc.window/tc.uses + 1 + len(base.Units) - 1
			for i := 0; i < 3*level; i++ {
				cb := cloneCodebase(base)
				cb.Files[kernels] += fmt.Sprintf("\n! upload %d\n", i)
				for u := 0; u < tc.uses; u++ {
					if _, err := e.IndexCodebase(cb, Options{}); err != nil {
						t.Fatal(err)
					}
				}
				if got := held(); got > level {
					t.Fatalf("after %d distinct uploads the memo holds %d units, want at most %d", i+1, got, level)
				} else if i >= level && got != level {
					t.Fatalf("after %d distinct uploads the memo holds %d units, want the level %d", i+1, got, level)
				}
			}
		})
	}
}

// generateAllOne returns the first port of an app.
func generateAllOne(t *testing.T, appName string) *corpus.Codebase {
	t.Helper()
	cbs, order := generateAll(t, appName)
	return cbs[order[0]]
}

// TestUnitMemoConcurrentIndexes: overlapping IndexCodebaseCtx calls on
// one engine, many on the same codebases at once, each return exactly
// the cold oracle's index, and every unit is counted once, reused or
// reparsed. Under -race this is the memo's data-race gate.
func TestUnitMemoConcurrentIndexes(t *testing.T) {
	var cbs []*corpus.Codebase
	for _, appName := range []string{"babelstream-fortran", "babelstream"} {
		all, order := generateAll(t, appName)
		for _, m := range order[:3] {
			cbs = append(cbs, all[m])
		}
	}
	want := make([]*Index, len(cbs))
	units := 0
	for i, cb := range cbs {
		idx, err := IndexCodebase(cb, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = idx
		units += len(cb.Units)
	}
	const rounds = 4
	e := NewEngine(2)
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(cbs))
	for r := 0; r < rounds; r++ {
		for i, cb := range cbs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := e.IndexCodebaseCtx(context.Background(), cb, Options{})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("round %d: %s/%s differs from the cold oracle", r, cb.App, cb.Model)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.IncrStats()
	if st.UnitsReused+st.UnitsReparsed != rounds*units || st.UnitsReparsed < units {
		t.Fatalf("%d units reused, %d reparsed over %d rounds of %d units",
			st.UnitsReused, st.UnitsReparsed, rounds, units)
	}
}

// TestFailedIndexCountsNothing: an engine index that fails — here a unit
// that does not parse, next to a unit the memo or the prior index could
// serve — returns no Index and leaves IncrStats unchanged, on both engine
// index paths and the package-level incremental one.
func TestFailedIndexCountsNothing(t *testing.T) {
	cb := generateAllOne(t, "babelstream")
	e := NewEngine(1)
	prior, err := e.IndexCodebase(cb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	broken := cloneCodebase(cb)
	broken.Files[unitFile(t, broken, "kernels")] += "\ndouble broken( {\n"
	before := e.IncrStats()
	if idx, st, err := e.IndexCodebaseIncremental(broken, prior, Options{}); err == nil || idx != nil || st != (IncrStats{}) {
		t.Fatalf("incremental index of a broken unit: idx %v, stats %+v, err %v", idx != nil, st, err)
	}
	if idx, err := e.IndexCodebase(broken, Options{}); err == nil || idx != nil {
		t.Fatalf("index of a broken unit: idx %v, err %v", idx != nil, err)
	}
	if idx, st, err := IndexCodebaseIncremental(broken, prior, Options{}); err == nil || idx != nil || st != (IncrStats{}) {
		t.Fatalf("package-level incremental index of a broken unit: idx %v, stats %+v, err %v", idx != nil, st, err)
	}
	if d := e.IncrStats().Delta(before); d != (IncrStats{}) {
		t.Fatalf("failed indexes moved IncrStats: %+v", d)
	}
	memoIndex(t, e, cb, Options{}, 0, "original after the failures")
}
