//go:build race

package btree

// raceEnabled reports whether the race detector is active. Under -race
// the compiler does not fuse slices.Grow's append(s, make(...)...), so
// newArena allocates a temporary beside the arena and allocation-count
// bounds do not hold.
const raceEnabled = true
