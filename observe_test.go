package hope

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/telemetry"
)

// TestShardedRegisterMetrics wires a ShardedIndex into a registry, drives
// traffic, and checks the exported surface: op totals count every call,
// sampled latency series exist, and the size gauges report live state.
func TestShardedRegisterMetrics(t *testing.T) {
	encs := testEncoders(t)
	s := openSharded(t, ART, encs[core.SingleChar], 4)
	reg := telemetry.NewRegistry()
	if err := s.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("reg-key-%04d", i))
		if err := s.Put(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		s.Get(k)
	}
	s.Scan(nil, nil, func(_ []byte, _ uint64) bool { return true })
	snap := reg.Snapshot()
	if got := snap["hope_index_get_total"]; got != n {
		t.Fatalf("hope_index_get_total = %v, want %d", got, n)
	}
	if got := snap["hope_index_put_total"]; got != n {
		t.Fatalf("hope_index_put_total = %v, want %d", got, n)
	}
	if got := snap["hope_index_scan_total"]; got != 1 {
		t.Fatalf("hope_index_scan_total = %v, want 1", got)
	}
	// Scans record every invocation, so the latency series must be live.
	if snap["hope_index_scan_max_us"] <= 0 {
		t.Fatalf("hope_index_scan_max_us = %v, want > 0", snap["hope_index_scan_max_us"])
	}
	if got := snap["hope_index_len"]; got != n {
		t.Fatalf("hope_index_len = %v, want %d", got, n)
	}
	if snap["hope_index_shards"] != 4 {
		t.Fatalf("hope_index_shards = %v, want 4", snap["hope_index_shards"])
	}
	// Double registration must fail loudly, not shadow.
	if err := s.RegisterMetrics(reg); err == nil {
		t.Fatal("second RegisterMetrics on the same registry succeeded, want duplicate error")
	}
}

// TestInstrumentedGetZeroAlloc pins the always-on instrumentation cost on
// the hottest path: ShardedIndex.Get and AdaptiveIndex.Get stay zero-alloc
// with metrics recording (one striped atomic add per op, a clock read on
// the 1-in-64 sampled ops).
func TestInstrumentedGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; zero-alloc steady state not reachable")
	}
	keys := adversarialCorpus()
	encs := testEncoders(t)

	s := loadSharded(t, ART, encs[core.DoubleChar], 8, keys)
	for _, k := range keys {
		s.Get(k)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Get(keys[i%len(keys)])
		i++
	})
	if allocs >= 0.5 {
		t.Fatalf("instrumented ShardedIndex.Get allocates %.2f/op, want 0", allocs)
	}

	a := openAdaptive(t, ART, AdaptiveOptions{
		Scheme: core.SingleChar, Shards: 8, Manual: true,
		Lifecycle: lifecycle.Config{ReservoirSize: 256, Seed: 7},
	})
	for j, k := range keys {
		if err := a.Put(k, uint64(j)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		a.Get(k)
	}
	i = 0
	allocs = testing.AllocsPerRun(2000, func() {
		a.Get(keys[i%len(keys)])
		i++
	})
	if allocs >= 0.5 {
		t.Fatalf("instrumented AdaptiveIndex.Get allocates %.2f/op, want 0", allocs)
	}
}

// eventTypes compresses a trace to "type" or "type@shard" tokens for
// exact-sequence assertions.
func eventTypes(evs []telemetry.Event) []string {
	out := make([]string, 0, len(evs))
	for _, e := range evs {
		if e.Shard >= 0 {
			out = append(out, fmt.Sprintf("%s@%d", e.Type, e.Shard))
		} else {
			out = append(out, e.Type)
		}
	}
	return out
}

// TestAdaptiveEventTraceFaultedRebuild asserts the exact event sequence a
// faulted-then-recovered rebuild leaves behind: the first Rebuild is
// killed at the cutover checkpoint (the next generation built and every
// stripe replayed) and must trace through abort into backoff; after
// disarming the plan, the second completes and ends in cutover. The same
// trace must be retrievable over the HTTP debug surface.
func TestAdaptiveEventTraceFaultedRebuild(t *testing.T) {
	a := openAdaptive(t, BTree, AdaptiveOptions{
		Scheme: core.SingleChar, Shards: 2, Manual: true,
		Lifecycle: lifecycle.Config{ReservoirSize: 256, Seed: 11},
	})
	plan := fault.NewPlan(1, fault.Rule{Point: "cutover", Shard: -1, Kind: fault.Error, Once: true})
	a.injector = plan
	for i := 0; i < 400; i++ {
		if err := a.Put([]byte(fmt.Sprintf("evt-key-%05d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Trace().Snapshot()) != 0 {
		t.Fatalf("trace not empty before any rebuild: %v", eventTypes(a.Trace().Snapshot()))
	}

	if err := a.Rebuild(); err == nil {
		t.Fatal("faulted rebuild succeeded, want injected error")
	}
	want := []string{"trigger", "build-start", "build-done", "migrate-start", "built", "abort", "backoff"}
	got := eventTypes(a.Trace().Snapshot())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("faulted rebuild trace = %v, want %v", got, want)
	}
	evs := a.Trace().Snapshot()
	checkTriggerDetail(t, evs[0].Detail, "explicit")
	if !strings.Contains(evs[0].Detail, " samples=256 ") {
		t.Fatalf("trigger detail = %q, want the full reservoir's 256 samples", evs[0].Detail)
	}
	if !strings.Contains(evs[5].Detail, "injected") {
		t.Fatalf("abort detail = %q, want the injected error", evs[5].Detail)
	}
	if !strings.Contains(evs[6].Detail, "failures=1") {
		t.Fatalf("backoff detail = %q, want failures=1", evs[6].Detail)
	}

	plan.Disarm()
	if err := a.Rebuild(); err != nil {
		t.Fatalf("recovered rebuild: %v", err)
	}
	want = append(want, "trigger", "build-start", "build-done", "migrate-start", "built", "cutover")
	got = eventTypes(a.Trace().Snapshot())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered rebuild trace = %v, want %v", got, want)
	}
	all := a.Trace().Snapshot()
	if cut := all[len(all)-1]; !strings.Contains(cut.Detail, "gen=1") || !strings.Contains(cut.Detail, "replayed=0 pause_ns=") || cut.DurNs <= 0 {
		t.Fatalf("cutover event = %+v, want gen=1, replayed=0 and pause_ns detail and positive duration", cut)
	}
	for i, e := range all {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d, want gap-free ordering", i, e.Seq)
		}
	}

	// The same story must be visible over the wire.
	reg := telemetry.NewRegistry()
	if err := a.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetry.Handler(reg, a.Trace()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire []telemetry.Event
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(eventTypes(wire)) != fmt.Sprint(want) {
		t.Fatalf("/debug/events trace = %v, want %v", eventTypes(wire), want)
	}
	m, err := telemetry.Scrape(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if m["hope_lifecycle_rebuilds_total"] != 1 {
		t.Fatalf("hope_lifecycle_rebuilds_total = %v, want 1", m["hope_lifecycle_rebuilds_total"])
	}
	if m["hope_lifecycle_aborts_total"] != 1 {
		t.Fatalf("hope_lifecycle_aborts_total = %v, want 1", m["hope_lifecycle_aborts_total"])
	}
	if m["hope_lifecycle_generation"] != 1 {
		t.Fatalf("hope_lifecycle_generation = %v, want 1", m["hope_lifecycle_generation"])
	}
}

// checkTriggerDetail asserts that a trigger event names its reason and
// carries the evidence the decision saw.
func checkTriggerDetail(t *testing.T, detail, reason string) {
	t.Helper()
	if !strings.HasPrefix(detail, reason+" ") {
		t.Fatalf("trigger detail = %q, want reason %q first", detail, reason)
	}
	for _, field := range []string{"baseline_cpr=", "recent_cpr=", "threshold=", "samples=", "max_shard_frac="} {
		if !strings.Contains(detail, " "+field) {
			t.Fatalf("trigger detail = %q, missing %s", detail, field)
		}
	}
}

// TestAdaptiveTraceDriftReason checks that an automatic first-build
// trigger records its lifecycle reason rather than "explicit".
func TestAdaptiveTraceDriftReason(t *testing.T) {
	a := openAdaptive(t, ART, AdaptiveOptions{
		Scheme: core.SingleChar, Shards: 2,
		Lifecycle: lifecycle.Config{ReservoirSize: 128, BuildAfter: 200, CheckEvery: 64, Seed: 3},
	})
	for i := 0; i < 2000 && a.Generation() == 0; i++ {
		if err := a.Put([]byte(fmt.Sprintf("drift-key-%05d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	a.Quiesce()
	evs := a.Trace().Snapshot()
	if len(evs) == 0 {
		t.Fatal("no events after automatic first build")
	}
	if evs[0].Type != "trigger" {
		t.Fatalf("first event = %+v, want trigger", evs[0])
	}
	checkTriggerDetail(t, evs[0].Detail, "first-build")
	if last := evs[len(evs)-1]; last.Type != "cutover" {
		t.Fatalf("last event = %+v, want cutover", last)
	}
}
