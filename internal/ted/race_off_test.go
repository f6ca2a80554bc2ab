//go:build !race

package ted_test

const raceEnabled = false
