//go:build race

package ted_test

// raceEnabled mirrors the race detector state so the corpus oracle test
// can trim its trees: the detector multiplies the seed oracle's cost about
// tenfold, and the test runs on one goroutine, so it has no race to find.
const raceEnabled = true
