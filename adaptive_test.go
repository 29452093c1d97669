package hope

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/lifecycle"
)

// ---------------------------------------------------------------------------
// Helpers: a model-backed differential harness. The reference for every
// comparison is an uncompressed one-shard store rebuilt from the model — its scan
// callbacks hand out original keys, exactly AdaptiveIndex's contract, so
// result streams must be byte-identical.
// ---------------------------------------------------------------------------

type kv struct {
	k string
	v uint64
}

func referenceIndex(t *testing.T, backend Backend, model map[string]uint64) *ShardedIndex {
	t.Helper()
	ref := openIndex(t, backend, nil)
	if backend == SuRF {
		keys := make([][]byte, 0, len(model))
		vals := make([]uint64, 0, len(model))
		for k, v := range model {
			keys = append(keys, []byte(k))
			vals = append(vals, v)
		}
		if err := ref.Bulk(keys, vals); err != nil {
			t.Fatal(err)
		}
		return ref
	}
	for k, v := range model {
		if err := ref.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func collectAdaptiveScan(a *AdaptiveIndex, lo, hi []byte) []kv {
	var out []kv
	a.Scan(lo, hi, func(k []byte, v uint64) bool {
		out = append(out, kv{string(k), v})
		return true
	})
	return out
}

func collectIndexScan(x *ShardedIndex, lo, hi []byte) []kv {
	var out []kv
	x.Scan(lo, hi, func(k []byte, v uint64) bool {
		out = append(out, kv{string(k), v})
		return true
	})
	return out
}

func equalKV(a, b []kv) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkDifferential compares the adaptive index against an uncompressed
// reference rebuilt from the model: every Get (present and absent), every
// Scan over the bound sweep, and every ScanPrefix.
func checkDifferential(t *testing.T, label string, a *AdaptiveIndex, model map[string]uint64) {
	t.Helper()
	ref := referenceIndex(t, BTree, model)
	if a.Len() != len(model) {
		t.Fatalf("%s: Len %d want %d", label, a.Len(), len(model))
	}
	probes := make([][]byte, 0, len(model)+4)
	for k := range model {
		probes = append(probes, []byte(k))
	}
	probes = append(probes, []byte("absent"), []byte("zzzzzz"), []byte{0x03, 0x80}, []byte("com.gmail@nobody"))
	for _, k := range probes {
		wantV, wantOK := model[string(k)]
		gotV, gotOK := a.Get(k)
		if gotOK != wantOK || (wantOK && gotV != wantV) {
			t.Fatalf("%s: Get(%q) = %d,%v want %d,%v", label, k, gotV, gotOK, wantV, wantOK)
		}
	}
	bounds := scanBounds()
	pairs := [][2][]byte{{nil, nil}}
	for _, b := range bounds {
		pairs = append(pairs, [2][]byte{b, nil}, [2][]byte{nil, b})
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			pairs = append(pairs, [2][]byte{lo, hi})
		}
	}
	for _, p := range pairs {
		want := collectIndexScan(ref, p[0], p[1])
		got := collectAdaptiveScan(a, p[0], p[1])
		if !equalKV(want, got) {
			t.Fatalf("%s: Scan(%q, %q): ref %v != adaptive %v", label, p[0], p[1], want, got)
		}
	}
	prefixes := [][]byte{
		{}, []byte("a"), []byte("ap"), []byte("app"), []byte("apple"),
		[]byte("com."), []byte("com.gmail@"), []byte("com.gmail@bob"),
		{0x00}, {0xff}, {0xff, 0xff}, []byte("a\xff"), []byte("nosuchprefix"), []byte("z"),
	}
	for _, p := range prefixes {
		var want, got []kv
		ref.ScanPrefix(p, func(k []byte, v uint64) bool {
			want = append(want, kv{string(k), v})
			return true
		})
		a.ScanPrefix(p, func(k []byte, v uint64) bool {
			got = append(got, kv{string(k), v})
			return true
		})
		if !equalKV(want, got) {
			t.Fatalf("%s: ScanPrefix(%q): ref %v != adaptive %v", label, p, want, got)
		}
	}
}

// openAdaptive opens an AdaptiveIndex through Open; extra options (a
// WithRangePartitioner) follow WithAdaptive.
func openAdaptive(t *testing.T, backend Backend, opts AdaptiveOptions, extra ...Option) *AdaptiveIndex {
	t.Helper()
	return mustOpen(t, backend, append([]Option{WithAdaptive(opts)}, extra...)...).(*AdaptiveIndex)
}

// seedAdaptive stores the corpus with val i for key i — by Put, or by
// Bulk for the bulk-only SuRF backend — and returns the model.
func seedAdaptive(t *testing.T, a *AdaptiveIndex, keys [][]byte) map[string]uint64 {
	t.Helper()
	model := map[string]uint64{}
	if a.backend == SuRF {
		if err := a.Bulk(keys, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		model[string(k)] = uint64(i)
		if a.backend == SuRF {
			continue
		}
		if err := a.Put(k, uint64(i)); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	return model
}

// manualOpts returns options that never auto-rebuild, with a reservoir
// large enough to hold the whole corpus so rebuilt dictionaries see the
// same keys the original encoders were built from.
func manualOpts(scheme core.Scheme, enc *core.Encoder) AdaptiveOptions {
	opt := core.Options{DictLimit: 1 << 10, MaxPatternLen: 16}
	if scheme == core.DoubleChar {
		opt = core.Options{}
	}
	return AdaptiveOptions{
		Scheme:    scheme,
		Build:     opt,
		Encoder:   enc,
		Shards:    8,
		Manual:    true,
		Lifecycle: lifecycle.Config{ReservoirSize: 4096, Seed: 7},
	}
}

// ---------------------------------------------------------------------------
// Lifecycle basics.
// ---------------------------------------------------------------------------

// From empty: Sampling serves uncompressed and correct; an explicit
// rebuild moves to generation 1 and compresses; everything stays correct.
func TestAdaptiveSamplingToSteady(t *testing.T) {
	keys := adversarialCorpus()
	a := openAdaptive(t, BTree, AdaptiveOptions{
		Scheme: core.DoubleChar, Shards: 4, Manual: true,
		Lifecycle: lifecycle.Config{ReservoirSize: 4096, Seed: 3},
	})
	if a.State() != StateSampling || a.Generation() != 0 || a.Encoder() != nil {
		t.Fatalf("fresh index not Sampling/gen0: %v gen %d", a.State(), a.Generation())
	}
	model := seedAdaptive(t, a, keys)
	checkDifferential(t, "sampling", a, model)

	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if a.State() != StateSteady || a.Generation() != 1 || a.Encoder() == nil {
		t.Fatalf("after rebuild: %v gen %d", a.State(), a.Generation())
	}
	if s := a.Stats(); s.Rebuilds != 1 || s.BuildCPR <= 1 {
		t.Fatalf("stats after rebuild: %+v", s)
	}
	checkDifferential(t, "steady gen1", a, model)

	// Post-rebuild traffic: overwrites, deletes, fresh inserts.
	for i, k := range keys {
		switch i % 3 {
		case 0:
			a.Put(k, uint64(i)+5000)
			model[string(k)] = uint64(i) + 5000
		case 1:
			a.Delete(k)
			delete(model, string(k))
		}
	}
	for i := 0; i < 40; i++ {
		k := []byte(fmt.Sprintf("post-rebuild-%03d", i))
		a.Put(k, uint64(9000+i))
		model[string(k)] = uint64(9000 + i)
	}
	checkDifferential(t, "steady gen1 after churn", a, model)
}

// Starting from a pre-built encoder: Steady at once, still rebuildable.
func TestAdaptivePrebuiltEncoderStart(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	a := openAdaptive(t, ART, manualOpts(core.ThreeGrams, encs[core.ThreeGrams].Clone()))
	if a.State() != StateSteady || a.Encoder() == nil {
		t.Fatalf("prebuilt start: %v", a.State())
	}
	model := seedAdaptive(t, a, keys)
	checkDifferential(t, "prebuilt", a, model)
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if a.Generation() != 1 {
		t.Fatalf("generation %d", a.Generation())
	}
	checkDifferential(t, "prebuilt rebuilt", a, model)
}

func TestAdaptiveBulkAndLen(t *testing.T) {
	keys := adversarialCorpus()
	a := openAdaptive(t, BTree, AdaptiveOptions{Scheme: core.SingleChar, Shards: 4, Manual: true})
	if err := a.Bulk(keys, make([]uint64, 1)); err == nil {
		t.Fatal("mismatched vals length accepted")
	}
	if err := a.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	model := map[string]uint64{}
	for i, k := range keys {
		model[string(k)] = uint64(i)
	}
	checkDifferential(t, "bulk", a, model)
	// Non-empty bulk degrades to the Put loop with overwrite semantics.
	extra := [][]byte{[]byte("bulk-x"), keys[3], []byte("bulk-y")}
	if err := a.Bulk(extra, []uint64{100, 101, 102}); err != nil {
		t.Fatal(err)
	}
	model["bulk-x"], model[string(keys[3])], model["bulk-y"] = 100, 101, 102
	checkDifferential(t, "bulk-overwrite", a, model)
}

// A rebuild walks each old tree shard in chunks of scanChunk keys,
// resuming its tree cursor between chunks; with many chunks per shard the
// rebuilt index must still hold exactly the model.
func TestAdaptiveRebuildWalksInChunks(t *testing.T) {
	keys := datagen.Generate(datagen.Email, 64*scanChunk, 5)
	a := openAdaptive(t, BTree, AdaptiveOptions{
		Scheme: core.ThreeGrams, Build: core.Options{DictLimit: 1 << 10}, Shards: 2, Manual: true,
		Lifecycle: lifecycle.Config{ReservoirSize: 512, Seed: 5},
	})
	if err := a.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	model := map[string]uint64{}
	for i, k := range keys {
		model[string(k)] = uint64(i)
	}
	for r := 0; r < 2; r++ {
		if err := a.Rebuild(); err != nil {
			t.Fatal(err)
		}
		checkDifferential(t, fmt.Sprintf("rebuild %d", r+1), a, model)
	}
}

// ---------------------------------------------------------------------------
// Mid-migration differential: the acceptance test. Migration pauses at the
// "built" checkpoint — records gathered and the next generation's trees
// bulk-built, nothing replayed or flipped; Gets, Scans and prefix scans
// must be byte-identical to a plain rebuilt index, and every write made
// during the pause (between the horizon and the flip) must be visible
// after the cutover — or, when the replay is aborted, in the old
// generation that keeps serving.
// ---------------------------------------------------------------------------

// mutateMidMigration performs overwrites, deletes, fresh inserts and a
// delete-then-re-put of one key, mirroring each into the model; tag keeps
// the fresh keys and values of separate rounds apart. The bulk-only SuRF
// backend must refuse every write.
func mutateMidMigration(t *testing.T, a *AdaptiveIndex, keys [][]byte, model map[string]uint64, tag int) {
	t.Helper()
	if a.backend == SuRF {
		if err := a.Put(keys[0], 1); err != ErrImmutableBackend {
			t.Fatalf("SuRF Put: %v", err)
		}
		if _, err := a.Delete(keys[0]); err != ErrImmutableBackend {
			t.Fatalf("SuRF Delete: %v", err)
		}
		return
	}
	put := func(k []byte, v uint64) {
		if err := a.Put(k, v); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
		model[string(k)] = v
	}
	base := uint64(10000 * tag)
	for i, k := range keys {
		switch i % 5 {
		case 0:
			put(k, base+uint64(i)+7000)
		case 1:
			if _, err := a.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		}
	}
	for i := 0; i < 30; i++ {
		put([]byte(fmt.Sprintf("mid-mig-%d-%03d", tag, i)), base+uint64(8000+i))
	}
	again := keys[2] // untouched above: delete it, then put it back
	if _, err := a.Delete(again); err != nil {
		t.Fatal(err)
	}
	put(again, base+9999)
}

// rebuildPausedAtBuilt runs one rebuild that pauses at the "built"
// checkpoint, checks the differential there, mutates, and checks it again.
// With abort set the replay then fails at its first "mid-replay"
// checkpoint and the old generation must still match the model; otherwise
// the rebuild must cut over and the new generation must match it.
func rebuildPausedAtBuilt(t *testing.T, a *AdaptiveIndex, keys [][]byte, model map[string]uint64, label string, tag int, abort bool) {
	t.Helper()
	pause, resume := make(chan struct{}), make(chan struct{})
	boom := fmt.Errorf("injected at mid-replay")
	a.injector = fault.Func(func(stage string, shard int) error {
		switch {
		case stage == "built":
			close(pause)
			<-resume
		case stage == "mid-replay" && abort:
			return boom
		}
		return nil
	})
	defer func() { a.injector = nil }()
	gen := a.Generation()
	done := make(chan error, 1)
	go func() { done <- a.Rebuild() }()
	<-pause
	if a.State() != StateMigrating {
		t.Fatalf("%s: state %v", label, a.State())
	}
	checkDifferential(t, label+" at built", a, model)
	mutateMidMigration(t, a, keys, model, tag)
	checkDifferential(t, label+" after churn", a, model)
	close(resume)
	err := <-done
	switch {
	case abort && err != boom:
		t.Fatalf("%s: rebuild returned %v, want the injected error", label, err)
	case abort && a.Generation() != gen:
		t.Fatalf("%s: generation %d after aborted replay, want %d", label, a.Generation(), gen)
	case !abort && err != nil:
		t.Fatalf("%s: rebuild: %v", label, err)
	case !abort && a.Generation() != gen+1:
		t.Fatalf("%s: generation %d after cutover, want %d", label, a.Generation(), gen+1)
	}
	if a.State() != StateSteady {
		t.Fatalf("%s: state %v after the rebuild", label, a.State())
	}
	if abort {
		checkDifferential(t, label+" after aborted replay", a, model)
	} else {
		checkDifferential(t, label+" post-cutover", a, model)
	}
}

func TestAdaptiveMidMigrationDifferential(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	for _, backend := range Backends {
		t.Run(string(backend), func(t *testing.T) {
			for _, scheme := range testSchemes {
				a := openAdaptive(t, backend, manualOpts(scheme, encs[scheme].Clone()))
				model := seedAdaptive(t, a, keys)
				label := fmt.Sprintf("%s/%v", backend, scheme)
				rebuildPausedAtBuilt(t, a, keys, model, label+" aborted", 1, true)
				rebuildPausedAtBuilt(t, a, keys, model, label, 2, false)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Abort: a rebuild that dies at any checkpoint must leave the old
// generation serving, intact, and a later rebuild must succeed.
// ---------------------------------------------------------------------------

func TestAdaptiveAbortRestoresOldGeneration(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	stages := []struct {
		stage string
		shard int
	}{
		{"build-start", -1},
		{"gathered", 0},
		{"gathered", 3},
		{"built", -1},
		{"mid-replay", -1}, // every tree-shard lock held
		{"mid-replay", 5},  // later tree shards not yet replayed
		{"cutover", -1},
	}
	for _, backend := range []Backend{ART, SuRF} {
		t.Run(string(backend), func(t *testing.T) {
			for _, st := range stages {
				a := openAdaptive(t, backend, manualOpts(core.DoubleChar, encs[core.DoubleChar].Clone()))
				model := seedAdaptive(t, a, keys)
				encBefore := a.Encoder()
				memBefore := a.MemoryUsage()
				boom := fmt.Errorf("injected at %s/%d", st.stage, st.shard)
				a.injector = fault.Func(func(stage string, shard int) error {
					if stage == st.stage && (st.shard < 0 || shard == st.shard) {
						return boom
					}
					return nil
				})
				if err := a.Rebuild(); err != boom {
					t.Fatalf("%s/%d: Rebuild returned %v, want injected error", st.stage, st.shard, err)
				}
				if a.State() != StateSteady || a.Generation() != 0 {
					t.Fatalf("%s/%d: state %v gen %d after abort", st.stage, st.shard, a.State(), a.Generation())
				}
				if a.Encoder() != encBefore {
					t.Fatalf("%s/%d: serving encoder changed across abort", st.stage, st.shard)
				}
				if s := a.Stats(); s.Aborts != 1 || s.Rebuilds != 0 {
					t.Fatalf("%s/%d: stats %+v", st.stage, st.shard, s)
				}
				// The aborted next generation must be fully dropped: no trees,
				// no record copies, nothing still charged to the modeled
				// footprint.
				if got := a.MemoryUsage(); got != memBefore {
					t.Fatalf("%s/%d: MemoryUsage %d after abort, want %d (next-generation leak)",
						st.stage, st.shard, got, memBefore)
				}
				checkDifferential(t, fmt.Sprintf("aborted at %s/%d", st.stage, st.shard), a, model)

				// Writes after the abort, then a clean rebuild.
				if backend != SuRF {
					for i := 0; i < 20; i++ {
						k := []byte(fmt.Sprintf("post-abort-%02d", i))
						a.Put(k, uint64(i))
						model[string(k)] = uint64(i)
					}
				}
				a.injector = nil
				if err := a.Rebuild(); err != nil {
					t.Fatalf("%s/%d: clean rebuild after abort: %v", st.stage, st.shard, err)
				}
				if a.Generation() != 1 {
					t.Fatalf("%s/%d: generation %d after clean rebuild", st.stage, st.shard, a.Generation())
				}
				checkDifferential(t, fmt.Sprintf("recovered from %s/%d", st.stage, st.shard), a, model)
			}
		})
	}
}

// An abort before the first dictionary returns to Sampling, and an
// empty-reservoir rebuild fails cleanly.
func TestAdaptiveAbortBeforeFirstBuild(t *testing.T) {
	a := openAdaptive(t, BTree, AdaptiveOptions{Scheme: core.SingleChar, Shards: 2, Manual: true})
	if err := a.Rebuild(); err == nil {
		t.Fatal("rebuild with empty reservoir succeeded")
	}
	if a.State() != StateSampling || a.Generation() != 0 {
		t.Fatalf("state %v gen %d", a.State(), a.Generation())
	}
	a.Put([]byte("now-there-is-data"), 1)
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if a.Generation() != 1 {
		t.Fatalf("generation %d", a.Generation())
	}
}

// ---------------------------------------------------------------------------
// Concurrency: rebuilds racing live traffic under the race detector.
// ---------------------------------------------------------------------------

// TestAdaptiveRebuildRaceStress runs the point-op checker across flips
// (rebuildRaceStress) on hash-partitioned generations.
func TestAdaptiveRebuildRaceStress(t *testing.T) { rebuildRaceStress(t, false) }

// rebuildRaceStress checks point ops against rebuilds racing live
// traffic, so a write lost at a flip fails it. Each writer owns its keys
// and writes strictly increasing values, so every acknowledged write is
// known exactly: a writer re-Gets the key after every Put and Delete
// (read-your-writes across a flip), a Delete must report the presence
// its writer's model predicts, and readers require each key's value
// never to go down across their Gets and scans. A rebuilder flips
// generations until the writers are done — and the writers keep going
// until it has flipped minFlips times — then the settled store must
// equal the union of the writers' models. ranged range-partitions every
// generation, so each flip also re-routes every key.
func rebuildRaceStress(t *testing.T, ranged bool) {
	const (
		writers  = 4
		readers  = 2
		opsPerG  = 1500
		keySpace = 300
		minFlips = 20
	)
	seed := time.Now().UnixNano()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("rebuildRaceStress seed %d (ranged=%v)", seed, ranged)
		}
	})
	var shape []Option
	if ranged {
		shape = append(shape, WithRangePartitioner(nil))
	}
	a := openAdaptive(t, ART, AdaptiveOptions{
		Scheme: core.DoubleChar, Shards: 8, Manual: true,
		Lifecycle: lifecycle.Config{ReservoirSize: 2048, Seed: 9},
	}, shape...)
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("stress-%d-%04d", w, i)) }
	// Each writer's values count up from its own base, so every value
	// it writes is larger than every value it wrote before.
	models := make([]map[string]uint64, writers)
	next := make([]uint64, writers)
	for w := range models {
		models[w] = map[string]uint64{}
		next[w] = 1
		for i := 0; i < 50; i++ { // warm-up: the first rebuild needs a reservoir
			if err := a.Put(key(w, i), next[w]); err != nil {
				t.Fatal(err)
			}
			models[w][string(key(w, i))] = next[w]
			next[w]++
		}
	}

	var flips atomic.Int64
	var rebuilderDone atomic.Bool // a failed rebuild releases the writers
	stop := make(chan struct{})
	var writeWG, auxWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			m := models[w]
			for i := 0; i < opsPerG || (flips.Load() < minFlips && !rebuilderDone.Load()); i++ {
				k := key(w, rng.Intn(keySpace))
				if rng.Intn(10) == 0 {
					_, want := m[string(k)]
					found, err := a.Delete(k)
					if err != nil || found != want {
						t.Errorf("writer %d: Delete(%q) = %v, %v; model says present=%v", w, k, found, err, want)
						return
					}
					delete(m, string(k))
					if v, ok := a.Get(k); ok {
						t.Errorf("writer %d: Get(%q) = %d after its acknowledged Delete", w, k, v)
						return
					}
					continue
				}
				v := next[w]
				next[w]++
				if err := a.Put(k, v); err != nil {
					t.Errorf("writer %d: Put(%q): %v", w, k, err)
					return
				}
				m[string(k)] = v
				if got, ok := a.Get(k); !ok || got != v {
					t.Errorf("writer %d: Get(%q) = %d,%v after its acknowledged Put of %d", w, k, got, ok, v)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		auxWG.Add(1)
		go func(r int) {
			defer auxWG.Done()
			rng := rand.New(rand.NewSource(seed + int64(100+r)))
			seen := map[string]uint64{} // highest value this reader observed per key
			observe := func(op string, k []byte, v uint64) bool {
				if v < seen[string(k)] {
					t.Errorf("reader %d: %s saw %q go back from %d to %d", r, op, k, seen[string(k)], v)
					return false
				}
				seen[string(k)] = v
				return true
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := key(rng.Intn(writers), rng.Intn(keySpace))
				if v, ok := a.Get(k); ok && !observe("Get", k, v) {
					return
				}
				prev, n, ok := "", 0, true
				a.Scan([]byte("stress-"), nil, func(key []byte, v uint64) bool {
					s := string(key)
					if prev != "" && s <= prev {
						t.Errorf("reader %d: scan order violated: %q after %q", r, s, prev)
						ok = false
						return false
					}
					prev = s
					n++
					ok = observe("Scan", key, v)
					return ok && n < 50
				})
				if !ok {
					return
				}
				a.ScanPrefix([]byte(fmt.Sprintf("stress-%d-", rng.Intn(writers))), func(key []byte, v uint64) bool {
					ok = observe("ScanPrefix", key, v)
					return ok
				})
				if !ok {
					return
				}
			}
		}(r)
	}
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		defer rebuilderDone.Store(true)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.Rebuild(); err != nil {
				t.Errorf("rebuild %d: %v", flips.Load(), err)
				return
			}
			flips.Add(1)
		}
	}()
	writeWG.Wait()
	close(stop)
	auxWG.Wait()
	if t.Failed() {
		return
	}
	if int64(a.Generation()) != flips.Load() || flips.Load() < minFlips {
		t.Fatalf("generation %d after %d flips, want at least %d", a.Generation(), flips.Load(), minFlips)
	}
	union := map[string]uint64{}
	for _, m := range models {
		for k, v := range m {
			union[k] = v
		}
	}
	checkDifferential(t, fmt.Sprintf("settled after %d flips", flips.Load()), a, union)
	t.Logf("%d flips, %d keys settled", flips.Load(), len(union))
}

// ---------------------------------------------------------------------------
// Drift: degraded traffic triggers an automatic background rebuild that
// restores the compression rate.
// ---------------------------------------------------------------------------

func TestAdaptiveAutoDriftRebuild(t *testing.T) {
	a := openAdaptive(t, BTree, AdaptiveOptions{
		Scheme: core.ThreeGrams,
		Build:  core.Options{DictLimit: 1 << 10},
		Shards: 4,
		Lifecycle: lifecycle.Config{
			ReservoirSize: 1024, Seed: 11, BuildAfter: 400,
			WindowSize: 256, CheckEvery: 64, Cooldown: 512, DriftThreshold: 0.15,
		},
	})
	baseKey := func(i int) []byte {
		return []byte(fmt.Sprintf("com.gmail@user.%04d.mailbox", i%800))
	}
	rng := rand.New(rand.NewSource(13))
	shiftKey := func() []byte {
		k := make([]byte, 24)
		for j := range k {
			k[j] = byte(0x80 + rng.Intn(0x70)) // byte range the base never uses
		}
		return k
	}
	// Phase 1: base distribution until the first build fires. The trigger
	// is asynchronous, so keep traffic flowing until the generation flips
	// (bounded by a deadline, not an iteration count).
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; a.Generation() == 0; i++ {
		a.Put(baseKey(i), uint64(i))
		if i%2000 == 1999 {
			a.Quiesce()
			if time.Now().After(deadline) {
				t.Fatalf("first build never fired: gen %d state %v stats %+v",
					a.Generation(), a.State(), a.Stats())
			}
		}
	}
	a.Quiesce()
	// Keep the base flowing so the baseline window fills, then shift.
	for i := 0; i < 1000; i++ {
		a.Put(baseKey(i), uint64(i))
	}
	degraded := a.Stats().RecentCPR
	for i := 0; a.Generation() < 2; i++ {
		a.Put(shiftKey(), uint64(i))
		if i == 600 {
			degraded = a.Stats().RecentCPR // window now mostly shifted keys
		}
		if i%2000 == 1999 {
			a.Quiesce()
			if time.Now().After(deadline) {
				t.Fatalf("drift rebuild never fired: gen %d, stats %+v", a.Generation(), a.Stats())
			}
		}
	}
	a.Quiesce()
	// Post-rebuild, shifted traffic must compress better than it did on
	// the stale dictionary.
	for i := 0; i < 600; i++ {
		a.Put(shiftKey(), uint64(i))
	}
	if rec := a.Stats().RecentCPR; rec <= degraded {
		t.Fatalf("CPR did not recover: %.3f (degraded) -> %.3f (post-rebuild)", degraded, rec)
	}
}

// TestAdaptiveDriftRecovery serves a key stream that drifts from one half
// of the Appendix C email split to the other (between 35% and 65% of the
// stream) from two adaptive indexes that start on the same 3-Grams
// dictionary, one of them frozen. The adaptive index must rebuild, and its
// final dictionary must compress the shifted half to within 10% of one
// built from scratch on it, and better than the frozen control, which
// must never rebuild.
func TestAdaptiveDriftRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("drift stream of 24k keys")
	}
	const numKeys, windows, seed = 24000, 20, 42
	base, shifted := datagen.SplitEmailByProvider(datagen.Generate(datagen.Email, numKeys, seed))
	stream := datagen.DriftStream(base, shifted, numKeys, 0.35, 0.65, seed+1)
	sample := func(keys [][]byte) [][]byte { return keys[:max(64, len(keys)/50)] }
	bopt := core.Options{DictLimit: 1 << 11}
	enc, err := core.Build(core.ThreeGrams, sample(base), bopt)
	if err != nil {
		t.Fatal(err)
	}
	chunkLen := len(stream) / windows
	lc := lifecycle.Config{
		ReservoirSize:  max(1024, numKeys/50),
		Seed:           seed,
		WindowSize:     max(256, chunkLen/4),
		CheckEvery:     128,
		DriftThreshold: 0.10,
	}
	lc.Cooldown = 2 * lc.WindowSize
	open := func(frozen bool) *AdaptiveIndex {
		return mustOpen(t, ART, WithAdaptive(AdaptiveOptions{
			Scheme: core.ThreeGrams, Build: bopt, Encoder: enc.Clone(),
			Shards: 8, Manual: frozen, Lifecycle: lc,
		})).(*AdaptiveIndex)
	}
	adaptive, frozen := open(false), open(true)
	// Both indexes see the stream window by window, each window Put and
	// then read back, interleaved as the two would be served side by side.
	// A rebuild a Put triggers lands before the next Put: which reservoir
	// it builds from, and which later checks it suppresses, depends on
	// the stream position alone, not on when the background goroutine
	// gets a core.
	for w := 0; w < windows; w++ {
		lo, hi := w*chunkLen, (w+1)*chunkLen
		if w == windows-1 {
			hi = len(stream)
		}
		for _, a := range []*AdaptiveIndex{adaptive, frozen} {
			for i, k := range stream[lo:hi] {
				if err := a.Put(k, uint64(lo+i)); err != nil {
					t.Fatal(err)
				}
				a.Quiesce()
			}
			for _, k := range stream[lo:hi] {
				a.Get(k)
			}
		}
	}
	adaptive.Quiesce()

	scratch, err := core.Build(core.ThreeGrams, sample(shifted), bopt)
	if err != nil {
		t.Fatal(err)
	}
	eval := shifted[:min(len(shifted), 20000)]
	scratchCPR := scratch.CompressionRate(eval)
	adaptiveCPR := adaptive.Encoder().Clone().CompressionRate(eval)
	frozenCPR := frozen.Encoder().Clone().CompressionRate(eval)
	if st := adaptive.Stats(); st.Rebuilds < 1 || st.Generation < 1 {
		t.Fatalf("adaptive index never rebuilt: %+v", st)
	}
	if st := frozen.Stats(); st.Rebuilds != 0 {
		t.Fatalf("frozen control rebuilt: %+v", st)
	}
	if ratio := adaptiveCPR / scratchCPR; ratio < 0.9 {
		t.Fatalf("post-adaptation CPR %.3f is below 90%% of scratch %.3f (ratio %.3f); adaptive stats %+v",
			adaptiveCPR, scratchCPR, ratio, adaptive.Stats())
	}
	if adaptiveCPR <= frozenCPR {
		t.Fatalf("adaptive CPR %.3f not better than frozen %.3f on the shifted distribution", adaptiveCPR, frozenCPR)
	}
}

// A scan that overlaps a full cutover must honor deletes and overwrites
// issued after the cutover: the cursors stay pinned to the dropped
// generation's trees (the resume tokens live in its encoded space), but
// every chunk filled after the cutover is re-validated against the new
// serving generation. The mutation happens inside the scan callback, so
// the interleaving is deterministic.
func TestAdaptiveScanSurvivesCutover(t *testing.T) {
	a := openAdaptive(t, BTree, AdaptiveOptions{
		Scheme: core.DoubleChar, Shards: 8, Manual: true,
		Lifecycle: lifecycle.Config{ReservoirSize: 4096, Seed: 21},
	})
	// 200 low keys ("a-...") and 200 high keys ("z-..."): every shard's
	// prefetched first chunk (scanChunk entries) is all low keys, so
	// mutating only high keys after the first emission is deterministic.
	var lows, highs [][]byte
	for i := 0; i < 200; i++ {
		lows = append(lows, []byte(fmt.Sprintf("a-%03d", i)))
		highs = append(highs, []byte(fmt.Sprintf("z-%03d", i)))
	}
	model := map[string]uint64{}
	for i, k := range append(append([][]byte{}, lows...), highs...) {
		if err := a.Put(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = uint64(i)
	}
	// Precondition for determinism: each shard holds at least
	// scanChunk low keys (fixed hash, fixed key set — stable).
	perShard := map[int]int{}
	for _, k := range lows {
		perShard[a.cur.Load().idx.Partitioner().Shard(k)]++
	}
	for s := 0; s < a.NumShards(); s++ {
		if perShard[s] < scanChunk {
			t.Fatalf("shard %d holds only %d low keys; test precondition broken", s, perShard[s])
		}
	}

	var got []kv
	mutated := false
	n := a.Scan(nil, nil, func(k []byte, v uint64) bool {
		if !mutated {
			mutated = true
			if err := a.Rebuild(); err != nil { // full cutover mid-scan
				t.Fatalf("rebuild inside scan: %v", err)
			}
			for i, hk := range highs {
				if i%2 == 0 {
					if _, err := a.Delete(hk); err != nil {
						t.Fatal(err)
					}
					delete(model, string(hk))
				} else {
					if err := a.Put(hk, uint64(i)+50000); err != nil {
						t.Fatal(err)
					}
					model[string(hk)] = uint64(i) + 50000
				}
			}
		}
		got = append(got, kv{string(k), v})
		return true
	})
	want := make([]kv, 0, len(model))
	for _, k := range lows {
		want = append(want, kv{string(k), model[string(k)]})
	}
	for i, hk := range highs {
		if i%2 == 1 {
			want = append(want, kv{string(hk), model[string(hk)]})
		}
	}
	if !equalKV(want, got) {
		t.Fatalf("scan across cutover: want %d rows, got %d; first divergence: %v",
			len(want), len(got), firstDiff(want, got))
	}
	if n != len(want) {
		t.Fatalf("Scan reported %d visits, want %d", n, len(want))
	}
}

func firstDiff(a, b []kv) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("index %d: want %v got %v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
