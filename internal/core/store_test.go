package core

import (
	"math"
	"strings"
	"testing"

	"silvervale/internal/corpus"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// buildMatrixWithStore generates every babelstream model, indexes it
// through an engine backed by st, and returns the T_sem divergence matrix
// plus the model order.
func buildMatrixWithStore(t *testing.T, workers int, st *store.Store) ([][]float64, []string) {
	t.Helper()
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineStore(workers, ted.NewCache(), nil, st)
	idxs := map[string]*Index{}
	var order []string
	for _, m := range corpus.ModelsFor(app) {
		cb, err := corpus.Generate(app, m)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := e.IndexCodebase(cb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idxs[string(m)] = idx
		order = append(order, string(m))
	}
	mat, err := e.Matrix(idxs, order, MetricTsem)
	if err != nil {
		t.Fatal(err)
	}
	return mat, order
}

// sameBits reports bit-exact equality of two matrices — stricter than ==
// (it distinguishes -0 from 0), which is the determinism contract the
// warm start must honour: a store-served distance feeds the exact same
// float pipeline as a computed one.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestWarmStartMatrixDeterminism is the determinism gate the artifact
// store ships under: a matrix warm-started from disk must be bit-identical
// to the cold matrix at every worker count, and through a readonly handle.
// Run under -race this also exercises concurrent store lookups/promotions
// from the worker pool.
func TestWarmStartMatrixDeterminism(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldOrder := buildMatrixWithStore(t, 2, st)
	// A cold run must not hit the store in any tier, even with two
	// workers racing on the same records.
	if s := st.Stats(); s.Hits != 0 || s.BytesRead != 0 {
		t.Fatalf("cold run hit the store: %+v", s)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, order := buildMatrixWithStore(t, workers, st)
		stats := st.Stats()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if len(order) != len(coldOrder) {
			t.Fatalf("workers=%d: order length changed", workers)
		}
		for i := range order {
			if order[i] != coldOrder[i] {
				t.Fatalf("workers=%d: model order changed", workers)
			}
		}
		if !sameBits(cold, warm) {
			t.Fatalf("workers=%d: warm matrix differs from cold", workers)
		}
		if stats.Hits == 0 {
			t.Fatalf("workers=%d: warm run never hit the store: %+v", workers, stats)
		}
		if stats.CorruptSkipped != 0 {
			t.Fatalf("workers=%d: corrupt records on a clean store: %+v", workers, stats)
		}
	}

	// A readonly handle serves the same bits and writes nothing.
	ro, err := store.Open(dir, store.Options{Readonly: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := buildMatrixWithStore(t, 2, ro)
	stats := ro.Stats()
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameBits(cold, warm) {
		t.Fatal("readonly warm matrix differs from cold")
	}
	if stats.Hits == 0 || stats.BytesWritten != 0 {
		t.Fatalf("readonly warm run missed the store or wrote to it: %+v", stats)
	}
}

// TestEngineIndexWarmStart pins the index tier: the second engine serves
// the codebase from the store (one index-tier hit) and the reloaded index
// diverges identically from a fresh one under every metric.
func TestEngineIndexWarmStart(t *testing.T) {
	dir := t.TempDir()
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	other, err := corpus.Generate(app, corpus.Serial)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineStore(0, ted.NewCache(), nil, st)
	if e.Store() != st {
		t.Fatal("engine does not expose its store")
	}
	cold, err := e.IndexCodebase(cb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldBase, err := e.IndexCodebase(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := NewEngineStore(0, ted.NewCache(), nil, st2)
	warm, err := e2.IndexCodebase(cb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmBase, err := e2.IndexCodebase(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Hits < 2 {
		t.Fatalf("warm run should hit the index tier twice, got %+v", s)
	}
	for _, metric := range Metrics() {
		dc, err := Diverge(coldBase, cold, metric)
		if err != nil {
			t.Fatal(err)
		}
		dw, err := Diverge(warmBase, warm, metric)
		if err != nil {
			t.Fatal(err)
		}
		if dc != dw {
			t.Fatalf("%s: warm divergence %+v differs from cold %+v", metric, dw, dc)
		}
	}
}

// TestIndexWarmStartPerOptionsDigest pins the per-options keying that
// replaced the old all-or-nothing gate: idx records carry the options
// digest, so KeepSystemHeaders (and coverage-masked) runs warm-start from
// their own records — and a record written under one option set is never
// served to another.
func TestIndexWarmStartPerOptionsDigest(t *testing.T) {
	dir := t.TempDir()
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.Serial)
	if err != nil {
		t.Fatal(err)
	}
	optsA := Options{}
	optsB := Options{KeepSystemHeaders: true}
	if optsA.Digest() == optsB.Digest() {
		t.Fatal("option digests must distinguish KeepSystemHeaders")
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineStore(0, ted.NewCache(), nil, st)
	coldA, err := e.IndexCodebase(cb, optsA)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The default-options record must not satisfy a KeepSystemHeaders
	// lookup: cross-contamination here would serve the wrong index.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngineStore(0, ted.NewCache(), nil, st2)
	coldB, err := e2.IndexCodebase(cb, optsB)
	if err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Hits != 0 {
		t.Fatalf("KeepSystemHeaders lookup was served another option set's record: %+v", s)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Each option set warm-starts from its own record.
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	e3 := NewEngineStore(0, ted.NewCache(), nil, st3)
	warmA, err := e3.IndexCodebase(cb, optsA)
	if err != nil {
		t.Fatal(err)
	}
	warmB, err := e3.IndexCodebase(cb, optsB)
	if err != nil {
		t.Fatal(err)
	}
	if s := st3.Stats(); s.Hits < 2 {
		t.Fatalf("warm run should hit the index tier once per option set: %+v", s)
	}
	if warmA.Opts != coldA.Opts || warmB.Opts != coldB.Opts {
		t.Fatal("warm index carries the wrong options digest")
	}
	for i := range coldA.Units {
		if warmA.Units[i].SrcHash != coldA.Units[i].SrcHash {
			t.Fatalf("default-options unit %d changed identity across warm start", i)
		}
	}
	for i := range coldB.Units {
		if warmB.Units[i].SrcHash != coldB.Units[i].SrcHash {
			t.Fatalf("keep-system unit %d changed identity across warm start", i)
		}
	}
}

// TestCodebaseContentHashSensitivity: the hash must move when anything
// that determines the index moves, and stay put when nothing does.
func TestCodebaseContentHashSensitivity(t *testing.T) {
	app, err := corpus.AppByName("babelstream")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := corpus.Generate(app, corpus.Serial)
	if err != nil {
		t.Fatal(err)
	}
	base := CodebaseContentHash(cb)
	again, err := corpus.Generate(app, corpus.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if CodebaseContentHash(again) != base {
		t.Fatal("regenerating the same codebase changed the hash")
	}
	for name := range cb.Files {
		cb.Files[name] += "\n// touched"
		if CodebaseContentHash(cb) == base {
			t.Fatalf("editing %s did not change the hash", name)
		}
		break
	}
	cb2, err := corpus.Generate(app, corpus.CUDA)
	if err != nil {
		t.Fatal(err)
	}
	if CodebaseContentHash(cb2) == base {
		t.Fatal("different model hashed equal")
	}
}

// TestCodebaseContentHashPrefixFree: file contents may hold 0 bytes, so
// a field boundary must not be movable by shifting bytes between a file
// and its neighbours. These two codebases split the same byte stream into
// different files; a terminator-based encoding hashed them alike.
func TestCodebaseContentHashPrefixFree(t *testing.T) {
	pad := strings.Repeat("\x00", 8)
	a := &corpus.Codebase{App: "app", Model: corpus.Serial, Lang: corpus.LangCXX,
		Units: []corpus.Unit{{File: "a.cpp", Role: "main"}},
		Files: map[string]string{
			"a.cpp": "int x;\x00" + pad + "c.cpp\x00int y;",
			"e.cpp": "int z;",
		}}
	b := &corpus.Codebase{App: "app", Model: corpus.Serial, Lang: corpus.LangCXX,
		Units: []corpus.Unit{{File: "a.cpp", Role: "main"}},
		Files: map[string]string{
			"a.cpp": "int x;",
			"c.cpp": "int y;\x00" + pad + "e.cpp\x00int z;",
		}}
	if CodebaseContentHash(a) == CodebaseContentHash(b) {
		t.Fatal("codebases with different files share a content hash")
	}
}
