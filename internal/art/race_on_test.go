//go:build race

package art

// raceEnabled reports whether the race detector is active. Under -race
// allocation counts and heap growth do not match a normal build, so the
// bounds in TestBulkLoadHeap do not hold.
const raceEnabled = true
