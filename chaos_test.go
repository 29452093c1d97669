package hope

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lifecycle"
)

// ---------------------------------------------------------------------------
// Quiesce/Close semantics: background rebuilds must not outlive either.
// ---------------------------------------------------------------------------

// TestAdaptiveQuiesceWaitsForTriggeredRebuild pins the trigger/Quiesce
// race: a lifecycle signal CASes the rebuilding flag and spawns a
// goroutine, and a Quiesce issued in that window — before the goroutine
// has reached rebuildMu — must still wait for it. Before asyncWG was
// registered synchronously at trigger time, Quiesce could return with the
// first build still pending and this test fails its generation check
// (run under -race to also catch the unsynchronized window).
func TestAdaptiveQuiesceWaitsForTriggeredRebuild(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		a := openAdaptive(t, BTree, AdaptiveOptions{
			Scheme: core.SingleChar,
			Build:  core.Options{DictLimit: 1 << 10, MaxPatternLen: 16},
			Shards: 4,
			Lifecycle: lifecycle.Config{
				ReservoirSize: 256, BuildAfter: 64, CheckEvery: 16, Seed: int64(iter + 1),
			},
		})
		// Crossing BuildAfter signals the first build; the trigger fires
		// inside one of these Puts.
		for i := 0; i < 96; i++ {
			if err := a.Put([]byte(fmt.Sprintf("com.quiesce.%02d.%04d", iter, i)), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		a.Quiesce()
		if a.rebuilding.Load() {
			t.Fatalf("iter %d: rebuild still in flight after Quiesce", iter)
		}
		if g, s := a.Generation(), a.State(); g != 1 || s != StateSteady {
			t.Fatalf("iter %d: gen %d state %v after Quiesce, want the triggered first build completed", iter, g, s)
		}
	}
}

// TestAdaptiveCloseCancelsInFlightRebuild wedges a migration in an
// unbounded stall, then requires Close to wake it, abort it down the
// restore path, and refuse further rebuilds — while point ops and scans
// keep serving the frozen generation.
func TestAdaptiveCloseCancelsInFlightRebuild(t *testing.T) {
	encs := testEncoders(t)
	a := openAdaptive(t, ART, manualOpts(core.SingleChar, encs[core.SingleChar].Clone()))
	model := seedAdaptive(t, a, adversarialCorpus())

	plan := fault.NewPlan(1, fault.Rule{Point: "gathered", Shard: -1, Kind: fault.Stall, Stall: -1, Once: true})
	a.injector = plan
	done := make(chan error, 1)
	go func() { done <- a.Rebuild() }()
	deadline := time.Now().Add(5 * time.Second)
	for plan.Fired(fault.Stall) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stall fault never fired")
		}
		time.Sleep(time.Millisecond)
	}

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("wedged Rebuild returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the wedged rebuild")
	}
	if s := a.Stats(); s.Aborts != 1 {
		t.Fatalf("stats after cancelled rebuild: %+v", s)
	}
	if g, s := a.Generation(), a.State(); g != 0 || s != StateSteady {
		t.Fatalf("gen %d state %v after Close-cancelled rebuild", g, s)
	}
	if !errors.Is(a.Err(), ErrClosed) {
		t.Fatalf("Err() = %v after Close", a.Err())
	}
	if err := a.Rebuild(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rebuild after Close returned %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// The index still serves — only the dictionary is frozen.
	checkDifferential(t, "after Close", a, model)
}

// ---------------------------------------------------------------------------
// Watchdog: wedged migrations abort with ErrMigrationTimeout.
// ---------------------------------------------------------------------------

func TestAdaptiveWatchdogTimesOutWedgedMigration(t *testing.T) {
	encs := testEncoders(t)
	cases := []struct {
		name     string
		point    string
		progress time.Duration
		deadline time.Duration
	}{
		// mid-replay wedges with every tree-shard lock held — the worst spot;
		// the watchdog must wake the stall so the deferred unlocks run.
		{"progress-timeout-mid-replay", "mid-replay", 75 * time.Millisecond, 0},
		{"rebuild-deadline-gathered", "gathered", 0, 75 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := manualOpts(core.SingleChar, encs[core.SingleChar].Clone())
			opts.MigrationTimeout = tc.progress
			opts.RebuildDeadline = tc.deadline
			a := openAdaptive(t, BTree, opts)
			model := seedAdaptive(t, a, adversarialCorpus())

			plan := fault.NewPlan(1, fault.Rule{Point: tc.point, Shard: -1, Kind: fault.Stall, Stall: -1, Once: true})
			a.injector = plan
			start := time.Now()
			err := a.Rebuild()
			if !errors.Is(err, ErrMigrationTimeout) {
				t.Fatalf("Rebuild returned %v, want ErrMigrationTimeout", err)
			}
			if wedged := time.Since(start); wedged > 5*time.Second {
				t.Fatalf("watchdog took %v to abort a wedged migration", wedged)
			}
			s := a.Stats()
			if s.ConsecutiveFailures != 1 || !errors.Is(s.LastError, ErrMigrationTimeout) {
				t.Fatalf("health after timeout: failures=%d lastErr=%v", s.ConsecutiveFailures, s.LastError)
			}
			if s.NextRetryAt.IsZero() {
				t.Fatal("failed rebuild did not arm the retry backoff")
			}
			if a.Generation() != 0 || a.State() != StateSteady {
				t.Fatalf("gen %d state %v after watchdog abort", a.Generation(), a.State())
			}
			checkDifferential(t, tc.name+" after abort", a, model)

			plan.Disarm()
			if err := a.Rebuild(); err != nil {
				t.Fatalf("fault-free rebuild after timeout: %v", err)
			}
			s = a.Stats()
			if s.ConsecutiveFailures != 0 || s.LastError != nil || !s.NextRetryAt.IsZero() {
				t.Fatalf("health not reset by successful cutover: %+v", s)
			}
			checkDifferential(t, tc.name+" after recovery", a, model)
		})
	}
}

// ---------------------------------------------------------------------------
// Panic isolation: a panic at any checkpoint converts to *ErrRebuildPanic,
// leaks no locks, and leaves the old generation serving.
// ---------------------------------------------------------------------------

func TestAdaptivePanicIsolationAtEveryCheckpoint(t *testing.T) {
	encs := testEncoders(t)
	stages := []struct {
		stage string
		shard int
	}{
		{"build-start", -1},
		{"gathered", 2},
		{"built", -1},
		{"mid-replay", 4}, // every tree-shard lock held when the panic fires
		{"cutover", -1},
	}
	for _, backend := range []Backend{ART, SuRF} {
		t.Run(string(backend), func(t *testing.T) {
			for _, st := range stages {
				a := openAdaptive(t, backend, manualOpts(core.SingleChar, encs[core.SingleChar].Clone()))
				model := seedAdaptive(t, a, adversarialCorpus())
				memBefore := a.MemoryUsage()
				plan := fault.NewPlan(1, fault.Rule{Point: st.stage, Shard: st.shard, Kind: fault.Panic, Once: true})
				a.injector = plan

				err := a.Rebuild()
				var rp *ErrRebuildPanic
				if !errors.As(err, &rp) {
					t.Fatalf("%s/%d: Rebuild returned %v, want *ErrRebuildPanic", st.stage, st.shard, err)
				}
				if rp.Stage != st.stage {
					t.Fatalf("%s/%d: panic attributed to checkpoint %s/%d", st.stage, st.shard, rp.Stage, rp.Shard)
				}
				if len(rp.Stack) == 0 || !bytes.Contains(rp.Stack, []byte("goroutine")) {
					t.Fatalf("%s/%d: no stack captured", st.stage, st.shard)
				}
				if _, ok := rp.Value.(*fault.Injected); !ok {
					t.Fatalf("%s/%d: panic value %v, want *fault.Injected", st.stage, st.shard, rp.Value)
				}
				if s := a.Stats(); s.Aborts != 1 || s.ConsecutiveFailures != 1 {
					t.Fatalf("%s/%d: stats %+v", st.stage, st.shard, s)
				}
				if got := a.MemoryUsage(); got != memBefore {
					t.Fatalf("%s/%d: MemoryUsage %d after panic abort, want %d", st.stage, st.shard, got, memBefore)
				}
				// No leaked locks: writes, reads, and scans all acquire shard locks.
				if backend != SuRF {
					k := []byte(fmt.Sprintf("post-panic-%s", st.stage))
					if err := a.Put(k, 42); err != nil {
						t.Fatal(err)
					}
					model[string(k)] = 42
				}
				checkDifferential(t, fmt.Sprintf("panic at %s/%d", st.stage, st.shard), a, model)

				plan.Disarm()
				if err := a.Rebuild(); err != nil {
					t.Fatalf("%s/%d: clean rebuild after panic: %v", st.stage, st.shard, err)
				}
				if a.Generation() != 1 {
					t.Fatalf("%s/%d: generation %d after recovery", st.stage, st.shard, a.Generation())
				}
				checkDifferential(t, fmt.Sprintf("recovered from panic at %s/%d", st.stage, st.shard), a, model)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Circuit breaker: consecutive failures open it, a clean rebuild closes it.
// ---------------------------------------------------------------------------

func TestAdaptiveBreakerOpensAndExplicitRebuildCloses(t *testing.T) {
	encs := testEncoders(t)
	opts := manualOpts(core.SingleChar, encs[core.SingleChar].Clone())
	opts.Lifecycle.BreakerAfter = 3
	opts.Lifecycle.RetryJitter = -1
	a := openAdaptive(t, BTree, opts)
	model := seedAdaptive(t, a, adversarialCorpus())

	boom := errors.New("boom")
	a.injector = fault.Func(func(stage string, shard int) error {
		if stage == "build-start" {
			return boom
		}
		return nil
	})
	for i := 1; i <= 3; i++ {
		err := a.Rebuild()
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: %v", i, err)
		}
		if wantOpen := i >= 3; errors.Is(err, ErrDegraded) != wantOpen {
			t.Fatalf("attempt %d: ErrDegraded match = %v, want %v (err %v)", i, !wantOpen, wantOpen, err)
		}
		s := a.Stats()
		if s.ConsecutiveFailures != i || s.Degraded != (i >= 3) || !errors.Is(s.LastError, boom) {
			t.Fatalf("attempt %d: health %+v", i, s)
		}
	}
	if err := a.Err(); !errors.Is(err, ErrDegraded) || !errors.Is(err, boom) {
		t.Fatalf("Err() = %v while degraded", err)
	}
	// Degraded is frozen-dictionary serving, not an outage.
	k := []byte("written-while-degraded")
	if err := a.Put(k, 99); err != nil {
		t.Fatal(err)
	}
	model[string(k)] = 99
	checkDifferential(t, "degraded serving", a, model)

	a.injector = nil
	if err := a.Rebuild(); err != nil {
		t.Fatalf("reviving rebuild: %v", err)
	}
	s := a.Stats()
	if s.Degraded || s.ConsecutiveFailures != 0 || s.LastError != nil || !s.NextRetryAt.IsZero() {
		t.Fatalf("health after revival: %+v", s)
	}
	if a.Err() != nil || a.Generation() != 1 {
		t.Fatalf("Err=%v gen=%d after revival", a.Err(), a.Generation())
	}
	checkDifferential(t, "revived", a, model)
}

// TestAdaptiveAutoBackoffAndHalfOpenProbe drives the automatic path: a
// failed first build arms the backoff (drift/build signals are swallowed
// until it expires), then the half-open probe fires and a fault-free
// attempt recovers.
func TestAdaptiveAutoBackoffAndHalfOpenProbe(t *testing.T) {
	a := openAdaptive(t, BTree, AdaptiveOptions{
		Scheme: core.SingleChar,
		Build:  core.Options{DictLimit: 1 << 10, MaxPatternLen: 16},
		Shards: 4,
		Lifecycle: lifecycle.Config{
			ReservoirSize: 256, BuildAfter: 64, CheckEvery: 16, Seed: 3,
			RetryBackoff: 250 * time.Millisecond, RetryJitter: -1,
		},
	})
	plan := fault.NewPlan(1, fault.Rule{Point: "build-start", Shard: -1, Kind: fault.Error, Once: true})
	a.injector = plan

	put := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := a.Put([]byte(fmt.Sprintf("com.backoff.%05d", i)), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 96) // crosses BuildAfter: triggers the first build, which fails
	a.Quiesce()
	s := a.Stats()
	if a.Generation() != 0 || s.ConsecutiveFailures != 1 || s.NextRetryAt.IsZero() {
		t.Fatalf("after failed auto build: gen %d health %+v", a.Generation(), s)
	}
	// Inside the backoff window the standing first-build signal is
	// swallowed: more traffic must not re-trigger.
	put(96, 160)
	a.Quiesce()
	if a.Generation() != 0 {
		t.Fatal("rebuild re-fired inside the backoff window")
	}
	// Past the window the half-open probe re-arms; the fault was Once, so
	// the probe succeeds and resets the health counters.
	time.Sleep(350 * time.Millisecond)
	put(160, 224)
	a.Quiesce()
	s = a.Stats()
	if a.Generation() != 1 || s.ConsecutiveFailures != 0 || !s.NextRetryAt.IsZero() {
		t.Fatalf("after half-open probe: gen %d health %+v", a.Generation(), s)
	}
}

// ---------------------------------------------------------------------------
// Skew-triggered re-split.
// ---------------------------------------------------------------------------

func TestAdaptiveSkewResplitRebalancesRangePartition(t *testing.T) {
	encs := testEncoders(t)
	opts := AdaptiveOptions{
		Scheme:       core.SingleChar,
		Build:        core.Options{DictLimit: 1 << 10, MaxPatternLen: 16},
		Encoder:      encs[core.SingleChar].Clone(),
		Shards:       8,
		ResplitAbove: 0.6,
		Lifecycle: lifecycle.Config{
			ReservoirSize: 2048, CheckEvery: 32, Cooldown: 32,
			WindowSize: 128, DriftThreshold: 0.99, // CPR drift effectively disabled
			Seed: 11, RetryJitter: -1,
		},
	}
	a := openAdaptive(t, BTree, opts, WithRangePartitioner(nil))
	// A balanced bulk corpus seeds the range partition.
	var keys [][]byte
	for i := 0; i < 512; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%c%04d", 'a'+byte(i%23), i)))
	}
	if err := a.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	a.Quiesce()
	if a.Generation() != 0 {
		t.Fatalf("generation %d after bulk", a.Generation())
	}
	// Hammer a keyspace beyond every split point: all inserts land in the
	// last tree shard until the skew trigger re-splits.
	for i := 0; i < 1200 && a.Generation() == 0; i++ {
		if err := a.Put([]byte(fmt.Sprintf("zzz-hot-%06d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			a.Quiesce() // let a triggered re-split finish before more load
		}
	}
	a.Quiesce()
	if a.Generation() != 1 {
		t.Fatalf("skewed load never triggered a re-split (gen %d, frac %.2f)",
			a.Generation(), a.MaxShardFrac())
	}
	if frac := a.MaxShardFrac(); frac > opts.ResplitAbove {
		t.Fatalf("re-split left max shard fraction at %.2f, want <= %.2f", frac, opts.ResplitAbove)
	}
	if s := a.Stats(); s.Rebuilds != 1 || s.Aborts != 0 {
		t.Fatalf("stats after re-split: %+v", s)
	}
}

func TestShardedMaxShardFrac(t *testing.T) {
	idx, err := NewShardedIndexWithPartitioner(BTree, nil, NewRangePartitioner([][]byte{[]byte("m")}))
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.MaxShardFrac(); got != 0 {
		t.Fatalf("empty index MaxShardFrac = %v", got)
	}
	for _, k := range []string{"a", "b", "c", "z"} {
		if err := idx.Put([]byte(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := idx.MaxShardFrac(); got != 0.75 {
		t.Fatalf("MaxShardFrac = %v, want 0.75", got)
	}
}

// ---------------------------------------------------------------------------
// Chaos soak: seeded faults at every checkpoint under concurrent traffic,
// differentially verified against a plain rebuilt one-shard store at the end.
// ---------------------------------------------------------------------------

// chaosSoak drives one backend × partitioner combination: concurrent
// writers on disjoint keyspaces, a scanner asserting global order, and a
// rebuild driver hammering the lifecycle while a seeded fault plan fires
// errors, bounded stalls, and panics at every checkpoint. Every failure
// must match the typed taxonomy; after disarming, one fault-free rebuild
// must close any open breaker and the surviving state must be
// byte-identical to a plain one-shard store rebuilt from the merged models.
func chaosSoak(t *testing.T, backend Backend, partition string, seed int64, writers, ops int) {
	plan := fault.NewPlan(seed,
		fault.Rule{Point: "build-start", Shard: -1, Kind: fault.Error, Prob: 0.05},
		fault.Rule{Point: "gathered", Shard: -1, Kind: fault.Error, Prob: 0.01},
		fault.Rule{Point: "gathered", Shard: -1, Kind: fault.Stall, Prob: 0.02, Stall: time.Millisecond},
		fault.Rule{Point: "built", Shard: -1, Kind: fault.Error, Prob: 0.05},
		fault.Rule{Point: "mid-replay", Shard: -1, Kind: fault.Stall, Prob: 0.02, Stall: time.Millisecond},
		fault.Rule{Point: "mid-replay", Shard: -1, Kind: fault.Panic, Prob: 0.02},
		fault.Rule{Point: "cutover", Shard: -1, Kind: fault.Error, Prob: 0.3},
	)
	var shape []Option
	if partition == "range" {
		shape = append(shape, WithRangePartitioner(nil))
	}
	a := openAdaptive(t, backend, AdaptiveOptions{
		Scheme:           core.SingleChar,
		Build:            core.Options{DictLimit: 1 << 10, MaxPatternLen: 16},
		Shards:           8,
		Manual:           true,
		MigrationTimeout: 30 * time.Second, // watchdog armed; must not fire on 1ms stalls
		Lifecycle:        lifecycle.Config{ReservoirSize: 2048, Seed: seed},
	}, shape...)
	a.injector = plan

	// Seed before arming concurrency so the first rebuild has a reservoir.
	seedModel := map[string]uint64{}
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("com.seed.%c%04d", 'a'+byte(i%19), i)
		if err := a.Put([]byte(k), uint64(i)); err != nil {
			t.Fatal(err)
		}
		seedModel[k] = uint64(i)
	}

	models := make([]map[string]uint64, writers)
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		models[wi] = map[string]uint64{}
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(wi)))
			m := models[wi]
			var mine [][]byte
			for j := 0; j < ops; j++ {
				switch r := rng.Float64(); {
				case r < 0.65 || len(mine) == 0:
					k := []byte(fmt.Sprintf("com.w%d.%c%05d", wi, 'a'+byte(j%17), j))
					v := uint64(wi)<<32 | uint64(j)
					if err := a.Put(k, v); err != nil {
						t.Errorf("w%d Put: %v", wi, err)
						return
					}
					m[string(k)] = v
					mine = append(mine, k)
				case r < 0.85:
					k := mine[rng.Intn(len(mine))]
					v := uint64(wi)<<32 | uint64(j) | 1<<63
					if err := a.Put(k, v); err != nil {
						t.Errorf("w%d overwrite: %v", wi, err)
						return
					}
					m[string(k)] = v
				default:
					k := mine[rng.Intn(len(mine))]
					if _, err := a.Delete(k); err != nil {
						t.Errorf("w%d Delete: %v", wi, err)
						return
					}
					delete(m, string(k))
				}
			}
		}(wi)
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup

	// Scanner: the merged stream must stay strictly ascending no matter
	// which generations are serving.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var prev []byte
			a.Scan(nil, nil, func(k []byte, _ uint64) bool {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Errorf("scan order violated: %q then %q", prev, k)
					return false
				}
				prev = append(prev[:0], k...)
				return true
			})
			time.Sleep(time.Millisecond)
		}
	}()

	// Every rebuild failure must be a typed, expected fault.
	classify := func(err error) bool {
		var inj *fault.Injected
		var rp *ErrRebuildPanic
		switch {
		case err == nil:
		case errors.Is(err, ErrMigrationTimeout):
		case errors.As(err, &rp):
		case errors.As(err, &inj):
		case errors.Is(err, ErrDegraded):
		default:
			t.Errorf("rebuild failed outside the taxonomy: %v", err)
			return false
		}
		return true
	}

	// Rebuild driver, racing the writers.
	attempts := 0
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !classify(a.Rebuild()) {
				return
			}
			attempts++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	aux.Wait()
	a.Quiesce()

	// On a fast machine the writers can finish before the driver got many
	// attempts in; top up so every combo takes a meaningful number of
	// faulted rebuilds (the plan is still armed).
	for ; attempts < 12; attempts++ {
		if !classify(a.Rebuild()) {
			t.FailNow()
		}
	}

	// The plan must actually have exercised the abort paths.
	if fired := plan.Fired(fault.Error) + plan.Fired(fault.Panic); fired == 0 {
		t.Fatalf("seed %d fired no aborting faults; strengthen the plan", seed)
	}
	if a.Stats().Aborts == 0 {
		t.Fatal("no rebuild aborted during the soak")
	}

	plan.Disarm()
	if err := a.Rebuild(); err != nil {
		t.Fatalf("fault-free rebuild after soak: %v", err)
	}
	s := a.Stats()
	if s.Degraded || s.ConsecutiveFailures != 0 || a.Err() != nil {
		t.Fatalf("health not restored after soak: %+v Err=%v", s, a.Err())
	}
	if s.Rebuilds == 0 {
		t.Fatal("no rebuild completed during the soak")
	}

	model := map[string]uint64{}
	for k, v := range seedModel {
		model[k] = v
	}
	for _, m := range models {
		for k, v := range m {
			model[k] = v
		}
	}
	checkDifferential(t, fmt.Sprintf("%s/%s soak", backend, partition), a, model)
	t.Logf("%s/%s: %d events (%d errors, %d stalls, %d panics), %d rebuilds, %d aborts",
		backend, partition, len(plan.Events()), plan.Fired(fault.Error),
		plan.Fired(fault.Stall), plan.Fired(fault.Panic), s.Rebuilds, s.Aborts)
}

func TestAdaptiveChaosSoak(t *testing.T) {
	combos := []struct {
		backend   Backend
		partition string // "hash", or "range" (WithRangePartitioner)
	}{
		{ART, "hash"},
		{ART, "range"},
		{BTree, "hash"},
		{BTree, "range"},
		{HOT, "hash"},
		{PrefixBTree, "range"},
	}
	writers, ops := 4, 1200
	if testing.Short() {
		combos = combos[:2]
		ops = 400
	}
	for i, c := range combos {
		c := c
		seed := int64(0xC4A05) + int64(i)
		t.Run(fmt.Sprintf("%s_%s", c.backend, c.partition), func(t *testing.T) {
			chaosSoak(t, c.backend, c.partition, seed, writers, ops)
		})
	}
}
