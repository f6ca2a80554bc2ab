package ted

import "silvervale/internal/tree"

// Hooks for the external ted_test package. Its corpus oracle test indexes
// real codebases through internal/core, which imports this package, so it
// cannot live inside it.

// DPDistance runs one pair through the cache's memoised DP (dpDistance).
func DPDistance(c *Cache, t1, t2 *tree.Node, costs Costs) int { return dpDistance(c, t1, t2, costs) }

// RefDistance is the seed Zhang–Shasha oracle (refDistanceWithCosts).
func RefDistance(t1, t2 *tree.Node, costs Costs) int { return refDistanceWithCosts(t1, t2, costs) }

// KernelCostModels are the kernel test's cost models (kernelCostModels).
var KernelCostModels = kernelCostModels
