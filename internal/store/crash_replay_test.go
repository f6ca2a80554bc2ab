package store

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"silvervale/internal/faultfs"
	"silvervale/internal/faultfs/replay"
)

// replayKeys is the fixed put set the crash-replay workload commits; the
// values are what a reopened store must either serve exactly or miss.
var replayKeys = []struct {
	seed uint64
	dist int
}{
	{101, 7},
	{202, 13},
	{303, 4096},
}

// storeWorkload is the put→commit→Close sequence under test, expressed
// over an injectable filesystem. Injected commit faults are swallowed by
// the store by design, so the workload itself only fails if Open does.
func storeWorkload(fsys *faultfs.FaultFS, dir string) error {
	s, err := Open(dir, Options{FS: fsys, DegradeThreshold: 1 << 30})
	if err != nil {
		if faultfs.IsInjected(err) {
			return nil // Open itself was the kill point; nothing written
		}
		return err
	}
	for _, k := range replayKeys {
		s.PutDist(distKey(k.seed), k.dist)
	}
	s.Close()
	return nil
}

// countRecordFiles walks the distance tier of a frozen store directory
// and splits the committed final-name files from abandoned temp files.
func countRecordFiles(t *testing.T, dir string) (records, temps []string) {
	t.Helper()
	root := filepath.Join(dir, distDir)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), "tmp-") {
			temps = append(temps, path)
		} else {
			records = append(records, path)
		}
		return nil
	})
	if err != nil && !strings.Contains(err.Error(), "no such file") {
		t.Fatal(err)
	}
	return records, temps
}

// TestCrashReplayStoreWritePath is the crash-consistency gate of ISSUE 5:
// every kill point of the put→commit→Close sequence × every fault class.
// After each replay the frozen tree is reopened with the real filesystem
// and the three invariants are asserted: (1) no wrong answers — every
// lookup either misses or returns the exact committed value; (2) every
// damaged final-name record is accounted for in corrupt_skipped; (3) a
// recompute-and-rewrite pass heals the store to fully warm, i.e. a
// subsequent sweep is bit-identical to a cold one.
func TestCrashReplayStoreWritePath(t *testing.T) {
	templates := []faultfs.Fault{
		{Class: faultfs.ENOSPC},
		{Class: faultfs.EIO},
		{Class: faultfs.Crash},
		{Class: faultfs.TornRename},
		{Class: faultfs.Crash, Op: faultfs.OpWrite, ShortWrite: 5},
	}
	replay.Sweep(t, templates, storeWorkload, func(t *testing.T, dir string, p replay.Point) {
		// Reopen the frozen tree the way a restarted process would.
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		servable := map[uint64]bool{}
		for _, k := range replayKeys {
			if d, ok := s.LookupDist(distKey(k.seed)); ok {
				if d != k.dist {
					t.Fatalf("wrong answer served after kill point: key %d = %d, want %d", k.seed, d, k.dist)
				}
				servable[k.seed] = true
			}
		}
		records, _ := countRecordFiles(t, dir)
		// Invariant 2: files present under final names but not servable
		// are exactly the damaged ones, and each was counted.
		damaged := len(records) - len(servable)
		if damaged < 0 {
			t.Fatalf("%d servable keys but only %d record files", len(servable), len(records))
		}
		if got := s.Stats().CorruptSkipped; got != uint64(damaged) {
			t.Fatalf("corrupt_skipped = %d, want %d (records %d, servable %d)",
				got, damaged, len(records), len(servable))
		}
		// Invariant 3: recompute-and-rewrite heals every key.
		for _, k := range replayKeys {
			s.PutDist(distKey(k.seed), k.dist)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		healed, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer healed.Close()
		for _, k := range replayKeys {
			d, ok := healed.LookupDist(distKey(k.seed))
			if !ok || d != k.dist {
				t.Fatalf("healed store: key %d = %d, %v; want %d", k.seed, d, ok, k.dist)
			}
		}
		if cs := healed.Stats().CorruptSkipped; cs != 0 {
			t.Fatalf("healed store still skips corrupt records: %d", cs)
		}
	})
}
