//go:build !race

package ted

const raceEnabled = false
