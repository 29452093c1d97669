//go:build race

package hutucker

// raceEnabled reports whether the race detector is active; it slows the
// quadratic differential oracle about tenfold.
const raceEnabled = true
