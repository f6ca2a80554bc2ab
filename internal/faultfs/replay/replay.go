// Package replay is a reusable crash-consistency harness over faultfs: it
// enumerates every kill point in a filesystem workload (each operation
// index × each failure class), replays the workload into a fresh
// directory with that single fault injected, and hands the resulting
// tree — frozen mid-flight for crash classes — to an invariant check
// that reopens it the way a restarted process would. The artifact
// store's crash-replay suite (internal/store) drives its put→commit→Close
// sequence through this harness; any workload expressible as
// func(FS, dir) can be swept the same way.
package replay

import (
	"fmt"
	"os"
	"testing"

	"silvervale/internal/faultfs"
)

// Workload runs the filesystem sequence under test against fsys, rooted
// at dir. Errors surfaced by the workload itself are expected under
// injection (the store swallows commit faults by design), so the harness
// ignores its return — the invariants live in the Check.
type Workload func(fsys *faultfs.FaultFS, dir string) error

// Point identifies one replay: the fault that was injected, with
// Fault.N set to the operation index it fired at.
type Point struct {
	Index int
	Fault faultfs.Fault
}

// Check asserts the post-fault invariants over the (possibly frozen)
// tree at dir. It runs once per kill point; failures should be reported
// on t so each point surfaces as its own subtest failure.
type Check func(t *testing.T, dir string, p Point)

// Count runs the workload once over a fault-free passthrough in a
// scratch directory and returns how many filesystem operations it
// performs — the kill-point space Sweep enumerates.
func Count(work Workload) (int, error) {
	dir, err := os.MkdirTemp("", "replay-count-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	fsys := faultfs.New(faultfs.OS{})
	if err := work(fsys, dir); err != nil {
		return 0, fmt.Errorf("replay: fault-free workload failed: %w", err)
	}
	return fsys.Ops(), nil
}

// Sweep replays the workload once per (kill point × fault template):
// each template's N is pinned to every operation index in turn, the
// workload runs in a fresh directory with exactly that fault scheduled,
// and check then asserts the invariants on whatever the tree holds. A
// template's Op restriction is preserved — an Op-restricted template
// simply never fires at indexes whose operation does not match, which
// still exercises "fault absent" replays of the same schedule length.
func Sweep(t *testing.T, templates []faultfs.Fault, work Workload, check Check) {
	t.Helper()
	n, err := Count(work)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("replay: workload performs no filesystem operations")
	}
	for _, tpl := range templates {
		for k := 1; k <= n; k++ {
			fault := tpl
			fault.N = k
			name := fmt.Sprintf("%s@%d", fault.Class, k)
			if fault.Op != faultfs.OpAny {
				name = fmt.Sprintf("%s:%s", fault.Op, name)
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				fsys := faultfs.New(faultfs.OS{}, fault)
				_ = work(fsys, dir) // injected failures are the point
				check(t, dir, Point{Index: k, Fault: fault})
			})
		}
	}
}
