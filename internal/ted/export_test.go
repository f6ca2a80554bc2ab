package ted

import "silvervale/internal/tree"

// Hooks for the external ted_test package. Its corpus oracle test indexes
// real codebases through internal/core, which imports this package, so it
// cannot live inside it.

// DPDistance runs one pair through the cache's memoised DP (dpDistance).
func DPDistance(c *Cache, t1, t2 *tree.Node, costs Costs) int { return dpDistance(c, t1, t2, costs) }

// RefDistance is the seed Zhang–Shasha oracle (refDistanceWithCosts).
func RefDistance(t1, t2 *tree.Node, costs Costs) int { return refDistanceWithCosts(t1, t2, costs) }

// RaceEnabled reports whether the race detector is on (raceEnabled).
const RaceEnabled = raceEnabled

// KernelCostModels are the kernel test's cost models (kernelCostModels).
var KernelCostModels = kernelCostModels

// DropMemos empties the subtree-block and checkpoint memos, so a test can
// measure the heap they held.
func DropMemos(c *Cache) {
	c.subMu.Lock()
	c.subs, c.ckpts = map[subKey]subBlock{}, map[ckptKey]string{}
	c.subBytes, c.ckptBytes = 0, 0
	c.subMu.Unlock()
}

// WideMemoEntries counts the memo entries stored on the wide path: blocks
// whose cells take four bytes each and checkpoint rows holding a
// multi-byte cell.
func WideMemoEntries(c *Cache) (blocks, rows int) {
	c.subMu.RLock()
	defer c.subMu.RUnlock()
	for _, b := range c.subs {
		if len(b.cells) != 2*int(b.l1)*int(b.l2) {
			blocks++
		}
	}
	for _, cells := range c.ckpts {
		for i := 0; i < len(cells); i++ {
			if cells[i] >= 0x80 { // a varint continuation byte
				rows++
				break
			}
		}
	}
	return blocks, rows
}
