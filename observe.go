package hope

import (
	"repro/internal/lifecycle"
	"repro/internal/telemetry"
)

// Instrumented is implemented by stores that maintain always-on metrics:
// RegisterMetrics exposes them through the given registry. The server
// layer asserts to this interface so any instrumented store shows up in
// its stats verb and /metrics exposition with no wiring.
type Instrumented interface {
	RegisterMetrics(reg *telemetry.Registry) error
}

// Traced is implemented by stores that keep a structured lifecycle event
// trace (AdaptiveIndex rebuilds: triggers, builds, cutovers, aborts).
type Traced interface {
	Trace() *telemetry.EventTrace
}

// Op latencies are sampled 1-in-sampleEvery so the always-on recorder
// costs one striped atomic add on the unsampled invocations: Get stays
// zero-alloc, and a short scan does not pay two clock reads and a
// histogram record, which were a fifth of a 10-key B+tree scan.
const sampleEvery = 64

// opMetrics is the per-op instrument bundle an index layer maintains from
// construction (always-on; a registry only makes it visible).
type opMetrics struct {
	get, put, del, scan *telemetry.OpStats
}

func newOpMetrics() opMetrics {
	return opMetrics{
		get:  telemetry.NewOpStats(sampleEvery),
		put:  telemetry.NewOpStats(sampleEvery),
		del:  telemetry.NewOpStats(sampleEvery),
		scan: telemetry.NewOpStats(sampleEvery),
	}
}

func (m *opMetrics) register(reg *telemetry.Registry) error {
	for _, e := range []struct {
		name string
		op   *telemetry.OpStats
	}{
		{"hope_index_get", m.get},
		{"hope_index_put", m.put},
		{"hope_index_delete", m.del},
		{"hope_index_scan", m.scan},
	} {
		if err := reg.Register(e.name, e.op); err != nil {
			return err
		}
	}
	return nil
}

func registerGauges(reg *telemetry.Registry, gauges []namedGauge) error {
	for _, g := range gauges {
		if err := reg.GaugeFunc(g.name, g.fn); err != nil {
			return err
		}
	}
	return nil
}

type namedGauge struct {
	name string
	fn   func() float64
}

// RegisterMetrics exposes the sharded index's op counters, latency
// histograms, and size/skew gauges through reg.
func (s *ShardedIndex) RegisterMetrics(reg *telemetry.Registry) error {
	if err := s.met.register(reg); err != nil {
		return err
	}
	return registerGauges(reg, []namedGauge{
		{"hope_index_len", func() float64 { return float64(s.Len()) }},
		{"hope_index_memory_bytes", func() float64 { return float64(s.MemoryUsage()) }},
		{"hope_index_shards", func() float64 { return float64(s.NumShards()) }},
		{"hope_index_max_shard_frac", s.MaxShardFrac},
	})
}

// RegisterMetrics exposes the adaptive index's op instruments plus the
// full lifecycle health surface: state, generation, rolling vs build CPR
// (the drift baseline), rebuild/abort counters, breaker and backoff
// state, and partition skew.
func (a *AdaptiveIndex) RegisterMetrics(reg *telemetry.Registry) error {
	if err := a.met.register(reg); err != nil {
		return err
	}
	return registerGauges(reg, []namedGauge{
		{"hope_index_len", func() float64 { return float64(a.Len()) }},
		{"hope_index_memory_bytes", func() float64 { return float64(a.MemoryUsage()) }},
		{"hope_index_shards", func() float64 { return float64(a.NumShards()) }},
		{"hope_index_max_shard_frac", a.MaxShardFrac},
		{"hope_lifecycle_state", func() float64 { return float64(a.ctl.State()) }},
		{"hope_lifecycle_generation", func() float64 { return float64(a.ctl.Generation()) }},
		{"hope_lifecycle_seen", func() float64 { return float64(a.ctl.Stats().Seen) }},
		{"hope_lifecycle_reservoir", func() float64 { return float64(a.ctl.Stats().Reservoir) }},
		{"hope_lifecycle_build_cpr", func() float64 { return a.ctl.Stats().BuildCPR }},
		{"hope_lifecycle_recent_cpr", func() float64 { return a.ctl.Stats().RecentCPR }},
		{"hope_lifecycle_rebuilds_total", func() float64 { return float64(a.ctl.Stats().Rebuilds) }},
		{"hope_lifecycle_aborts_total", func() float64 { return float64(a.ctl.Stats().Aborts) }},
		{"hope_lifecycle_degraded", func() float64 { return boolGauge(a.ctl.Degraded()) }},
		{"hope_lifecycle_consecutive_failures", func() float64 { return float64(a.ctl.Stats().ConsecutiveFailures) }},
	})
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Trace returns the index's lifecycle event trace: a bounded ring of
// typed rebuild events (trigger, build, migration, cutover, abort,
// backoff) that replaces log-free debugging of migrations.
func (a *AdaptiveIndex) Trace() *telemetry.EventTrace { return a.trace }

// driftReason names a lifecycle signal for the event trace.
func driftReason(sig lifecycle.Signal) string {
	switch sig {
	case lifecycle.FirstBuild:
		return "first-build"
	case lifecycle.Drift:
		return "drift"
	}
	return "signal"
}
