//go:build race

package server

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool deliberately drops a fraction of puts, so steady-state
// allocation counts over pooled buffers do not hold.
const raceEnabled = true
