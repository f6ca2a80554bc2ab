//go:build race

package main

// The race detector multiplies the exact-TED DP cost ~10x, and the
// C++-corpus CLI flows (full BabelStream matrices, TeaLeaf figure
// sweeps) push this package far past the default 10m test timeout on
// small runners (~986s measured on 1 CPU). Under -race the smoke tests
// therefore drive the same CLI paths with the Fortran fixtures, which
// exercise identical wiring (store, fault injection, cache stats) at a
// fraction of the tree sizes. The full-size fixtures still run in the
// plain suite, and the heavy flows stay fully race-covered at the
// library layer (internal/core, internal/experiments).
const (
	raceEnabled = true

	trimApp        = "babelstream-fortran"
	trimAppMarker  = "f-sequential"
	trimExperiment = "fig6"
)
