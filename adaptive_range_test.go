package hope

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
)

// rangeManualOpts is manualOpts with range-partitioned generations.
func rangeManualOpts(scheme core.Scheme, enc *core.Encoder) AdaptiveOptions {
	o := manualOpts(scheme, enc)
	o.Partition = RangePartitioned
	return o
}

// TestAdaptiveRangePartitionLifecycle walks a range-partitioned
// AdaptiveIndex through the full arc: generation 0 serves unseeded (every
// key in one tree shard), the first rebuild re-samples split points from
// the reservoir and spreads the data — re-balancing via migration — and
// every station along the way is byte-identical to the model reference.
func TestAdaptiveRangePartitionLifecycle(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	for _, backend := range []Backend{ART, BTree} {
		a := openAdaptive(t, backend, rangeManualOpts(core.DoubleChar, encs[core.DoubleChar].Clone()))
		if a.Stats().Partition != RangePartitioned {
			t.Fatal("stats do not report the partition mode")
		}
		model := seedAdaptive(t, a, keys)
		label := fmt.Sprintf("%s/range gen0", backend)
		// Unseeded generation 0: everything in tree shard 0.
		if lens := a.ShardLens(); lens[0] != len(model) {
			t.Fatalf("%s: unseeded gen0 shard lens %v, want all %d in shard 0", label, lens, len(model))
		}
		checkDifferential(t, label, a, model)

		if err := a.Rebuild(); err != nil {
			t.Fatalf("%s: rebuild: %v", label, err)
		}
		label = fmt.Sprintf("%s/range gen1", backend)
		checkDifferential(t, label, a, model)
		lens := a.ShardLens()
		nonEmpty, maxLen := 0, 0
		for _, n := range lens {
			if n > 0 {
				nonEmpty++
			}
			if n > maxLen {
				maxLen = n
			}
		}
		// Re-sampled quantile splits must actually spread the corpus: a
		// majority of shards populated and no shard holding half the keys.
		if nonEmpty < len(lens)/2 || maxLen > len(model)/2 {
			t.Fatalf("%s: rebuild did not re-balance: shard lens %v", label, lens)
		}

		// Churn after the re-balance, then a second rebuild (range→range
		// migration with different split points both sides).
		for i, k := range keys {
			switch i % 4 {
			case 0:
				a.Put(k, uint64(i)+5000)
				model[string(k)] = uint64(i) + 5000
			case 1:
				a.Delete(k)
				delete(model, string(k))
			}
		}
		checkDifferential(t, label+" after churn", a, model)
		if err := a.Rebuild(); err != nil {
			t.Fatalf("%s: second rebuild: %v", label, err)
		}
		checkDifferential(t, fmt.Sprintf("%s/range gen2", backend), a, model)
	}
}

// TestAdaptiveRangeMidMigrationDifferential runs the mid-migration
// differential (see rebuildPausedAtBuilt) on range-partitioned
// generations: the next generation's freshly sampled partition disagrees
// with the serving one about where every key lives, and the replay must
// route each change by the next generation's own split points. The
// bulk-loaded SuRF index also pins that its bulk corpus seeds generation
// 0's split points.
func TestAdaptiveRangeMidMigrationDifferential(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	for _, backend := range []Backend{BTree, SuRF} {
		t.Run(string(backend), func(t *testing.T) {
			for _, scheme := range []core.Scheme{core.SingleChar, core.DoubleChar} {
				a := openAdaptive(t, backend, rangeManualOpts(scheme, encs[scheme].Clone()))
				model := seedAdaptive(t, a, keys)
				if lens := a.ShardLens(); backend == SuRF && slices.Max(lens) == len(model) {
					t.Fatalf("bulk did not seed gen0 splits: shard lens %v", lens)
				}
				label := fmt.Sprintf("%s/%v range", backend, scheme)
				rebuildPausedAtBuilt(t, a, keys, model, label+" aborted", 1, true)
				rebuildPausedAtBuilt(t, a, keys, model, label, 2, false)
			}
		})
	}
}

// TestAdaptiveRangeRebuildRaceStress is the -race leg for the
// range-partitioned lifecycle: concurrent writers and scanning readers
// across repeated rebuilds, each of which re-samples split points and
// re-partitions the trees under traffic.
func TestAdaptiveRangeRebuildRaceStress(t *testing.T) {
	const (
		writers  = 4
		readers  = 2
		opsPerG  = 1000
		keySpace = 500
		rebuilds = 3
	)
	a := openAdaptive(t, ART, AdaptiveOptions{
		Scheme: core.DoubleChar, Shards: 8, Manual: true,
		Partition: RangePartitioned,
		Lifecycle: lifecycle.Config{ReservoirSize: 2048, Seed: 9},
	})
	for g := 0; g < writers; g++ {
		for i := 0; i < 50; i++ {
			a.Put([]byte(fmt.Sprintf("stress-%d-%04d", g, i)), uint64(i))
		}
	}
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		writeWG.Add(1)
		go func(g int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				k := []byte(fmt.Sprintf("stress-%d-%04d", g, rng.Intn(keySpace)))
				switch rng.Intn(10) {
				case 0:
					a.Delete(k)
				default:
					a.Put(k, uint64(i))
				}
			}
		}(g)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a.Get([]byte(fmt.Sprintf("stress-%d-%04d", rng.Intn(writers), rng.Intn(keySpace))))
				prev := ""
				n := 0
				a.Scan([]byte("stress-"), nil, func(key []byte, _ uint64) bool {
					s := string(key)
					if prev != "" && s <= prev {
						t.Errorf("scan order violated: %q after %q", s, prev)
						return false
					}
					prev = s
					n++
					return n < 50
				})
			}
		}(r)
	}
	for i := 0; i < rebuilds; i++ {
		if err := a.Rebuild(); err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if a.Generation() != rebuilds {
		t.Fatalf("generation %d want %d", a.Generation(), rebuilds)
	}
	n := 0
	a.Scan(nil, nil, func(k []byte, v uint64) bool {
		n++
		if got, ok := a.Get(append([]byte(nil), k...)); !ok || got != v {
			t.Fatalf("scan/get mismatch for %q: %d,%v vs %d", k, got, ok, v)
		}
		return true
	})
	if n != a.Len() {
		t.Fatalf("full scan saw %d keys, Len %d", n, a.Len())
	}
}

// TestAdaptivePutOverwriteZeroAlloc pins the Put path's allocation
// profile: an overwrite encodes through putShard's pooled scratch and
// updates the tree's value in place — no owned encode, no key copy, no
// tracker allocation in steady state (the striped reservoir is full and
// replacements recycle fixed-size buffers).
func TestAdaptivePutOverwriteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; zero-alloc steady state not reachable")
	}
	a := openAdaptive(t, ART, AdaptiveOptions{
		Scheme: core.DoubleChar, Shards: 8, Manual: true,
		Lifecycle: lifecycle.Config{ReservoirSize: 256, Seed: 3},
	})
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("com.user@%06d", i))
		if err := a.Put(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Saturate the reservoir stripes so Observe replacements recycle.
	for r := 0; r < 4; r++ {
		for i, k := range keys {
			if err := a.Put(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		a.Put(keys[i%len(keys)], uint64(i))
		i++
	})
	if allocs >= 0.5 {
		t.Fatalf("overwrite Put allocates %.2f/op in steady state, want 0", allocs)
	}
}
