package server

import "strconv"

// ServerStats wraps one stats-verb reply with typed accessors over the
// flat name → string map the wire carries. Missing names read as zero
// values — a client of a newer server degrades gracefully against an
// older one, and vice versa.
type ServerStats struct {
	raw map[string]string
}

// StatsTyped fetches the server's counters and wraps them for typed
// access; Raw exposes the underlying map for anything not covered.
func (c *Client) StatsTyped() (*ServerStats, error) {
	raw, err := c.Stats()
	if err != nil {
		return nil, err
	}
	return &ServerStats{raw: raw}, nil
}

// Raw returns the underlying name → value map.
func (s *ServerStats) Raw() map[string]string { return s.raw }

// Has reports whether the server exported the named stat.
func (s *ServerStats) Has(name string) bool {
	_, ok := s.raw[name]
	return ok
}

// Uint reads one stat as an unsigned integer (0 when absent or
// unparsable). Float-rendered integers ("1.2e+06") parse too.
func (s *ServerStats) Uint(name string) uint64 {
	v, ok := s.raw[name]
	if !ok {
		return 0
	}
	if n, err := strconv.ParseUint(v, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 0 {
		return uint64(f)
	}
	return 0
}

// Float reads one stat as a float64 (0 when absent or unparsable).
func (s *ServerStats) Float(name string) float64 {
	f, err := strconv.ParseFloat(s.raw[name], 64)
	if err != nil {
		return 0
	}
	return f
}

// Bool reads one stat as a boolean: "true" and nonzero numbers are true.
func (s *ServerStats) Bool(name string) bool {
	v, ok := s.raw[name]
	if !ok {
		return false
	}
	if v == "true" {
		return true
	}
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		return f != 0
	}
	return false
}

// Draining reports whether the server has begun its shutdown drain.
func (s *ServerStats) Draining() bool { return s.Bool("draining") }

// CmdCount returns the invocation count of one command verb ("get",
// "set", "del", "range", "stats").
func (s *ServerStats) CmdCount(op string) uint64 {
	return s.Uint("hope_server_" + op + "_total")
}

// LatencyUs returns one command's latency statistic in microseconds.
// quantile is "p50", "p99", "p999", "mean", or "max"; 0 when the server
// has not yet sampled that command.
func (s *ServerStats) LatencyUs(op, quantile string) float64 {
	return s.Float("hope_server_" + op + "_" + quantile + "_us")
}

// LifecycleHealth is the adaptive store's health surface as exported
// through the stats verb; the zero value means the store exports no
// lifecycle metrics (a plain Index or ShardedIndex).
type LifecycleHealth struct {
	State               int
	Generation          int
	Seen                uint64
	RecentCPR           float64
	BuildCPR            float64
	Rebuilds            uint64
	Aborts              uint64
	Degraded            bool
	ConsecutiveFailures int
}

// Lifecycle extracts the adaptive store's lifecycle health. Check
// s.Has("hope_lifecycle_state") to distinguish a zero-valued report from
// a store that exports none.
func (s *ServerStats) Lifecycle() LifecycleHealth {
	return LifecycleHealth{
		State:               int(s.Float("hope_lifecycle_state")),
		Generation:          int(s.Float("hope_lifecycle_generation")),
		Seen:                s.Uint("hope_lifecycle_seen"),
		RecentCPR:           s.Float("hope_lifecycle_recent_cpr"),
		BuildCPR:            s.Float("hope_lifecycle_build_cpr"),
		Rebuilds:            s.Uint("hope_lifecycle_rebuilds_total"),
		Aborts:              s.Uint("hope_lifecycle_aborts_total"),
		Degraded:            s.Bool("hope_lifecycle_degraded"),
		ConsecutiveFailures: int(s.Float("hope_lifecycle_consecutive_failures")),
	}
}
