//go:build race

package ted

// raceEnabled mirrors the race detector state so the oracle tests can trim
// their trees: the detector multiplies the seed oracle's cost about
// tenfold, and most of them run on one goroutine, so they have no race to
// find.
const raceEnabled = true
