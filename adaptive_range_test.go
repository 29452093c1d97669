package hope

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
)

// openRangeManual opens manualOpts with range-partitioned generations,
// generation 0 unseeded.
func openRangeManual(t *testing.T, backend Backend, scheme core.Scheme, enc *core.Encoder) *AdaptiveIndex {
	t.Helper()
	return openAdaptive(t, backend, manualOpts(scheme, enc), WithRangePartitioner(nil))
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
		a := openRangeManual(t, backend, core.DoubleChar, encs[core.DoubleChar].Clone())
		if !a.cur.Load().idx.Partitioner().Ordered() {
			t.Fatal("WithRangePartitioner did not range-partition generation 0")
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
				a := openRangeManual(t, backend, scheme, encs[scheme].Clone())
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

// TestAdaptiveRangeRebuildRaceStress runs the point-op checker across
// flips (rebuildRaceStress) on range-partitioned generations: every
// rebuild re-samples split points and re-partitions the trees under
// traffic.
func TestAdaptiveRangeRebuildRaceStress(t *testing.T) { rebuildRaceStress(t, true) }

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
