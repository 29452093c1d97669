package hope

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ycsb"
)

// openRangeSharded opens a range-partitioned ShardedIndex through Open,
// with split points drawn from corpus (unseeded when corpus is nil).
func openRangeSharded(t *testing.T, backend Backend, enc *core.Encoder, nShards int, corpus [][]byte) *ShardedIndex {
	t.Helper()
	return mustOpen(t, backend, WithEncoder(enc), WithShards(nShards), WithRangePartitioner(corpus)).(*ShardedIndex)
}

// loadRangeSharded builds a range-partitioned index over the corpus (split
// points sampled from the corpus itself) with val i for key i.
func loadRangeSharded(t *testing.T, backend Backend, enc *core.Encoder, nShards int, keys [][]byte) *ShardedIndex {
	t.Helper()
	s := openRangeSharded(t, backend, enc, nShards, keys)
	if err := s.Bulk(keys, nil); err != nil {
		t.Fatalf("%s: bulk: %v", backend, err)
	}
	return s
}

// TestRangePartitionerUnits pins the routing arithmetic: boundary keys go
// to the right of their split, duplicates make empty shards, unseeded
// partitioners route everything to shard 0, and RangeSplits is
// deterministic and ordered.
func TestRangePartitionerUnits(t *testing.T) {
	p := NewRangePartitioner([][]byte{[]byte("b"), []byte("m"), []byte("m"), []byte("t")})
	if p.NumShards() != 5 || !p.Ordered() {
		t.Fatalf("NumShards=%d Ordered=%v", p.NumShards(), p.Ordered())
	}
	cases := []struct {
		key  string
		want int
	}{
		{"", 0}, {"a", 0}, {"azzz", 0},
		{"b", 1}, {"c", 1}, {"lzz", 1},
		{"m", 3}, {"n", 3}, {"szz", 3}, // shard 2 is empty: duplicate split "m"
		{"t", 4}, {"zzz", 4},
	}
	for _, c := range cases {
		if got := p.Shard([]byte(c.key)); got != c.want {
			t.Fatalf("Shard(%q) = %d, want %d", c.key, got, c.want)
		}
	}

	u := NewUnseededRangePartitioner(8)
	if u.NumShards() != 8 || u.Shard([]byte("anything")) != 0 || u.Splits() != nil {
		t.Fatal("unseeded partitioner must route everything to shard 0")
	}

	corpus := adversarialCorpus()
	s1 := RangeSplits(corpus, 8, 1)
	s2 := RangeSplits(corpus, 8, 1)
	if len(s1) != 7 {
		t.Fatalf("RangeSplits returned %d splits, want 7", len(s1))
	}
	for i := range s1 {
		if !bytes.Equal(s1[i], s2[i]) {
			t.Fatal("RangeSplits not deterministic for a fixed seed")
		}
		if i > 0 && bytes.Compare(s1[i-1], s1[i]) > 0 {
			t.Fatal("RangeSplits not ascending")
		}
	}
	if RangeSplits(corpus, 1, 1) != nil || RangeSplits(nil, 8, 1) != nil {
		t.Fatal("degenerate RangeSplits must be nil")
	}
}

// TestRangeShardedScanDifferential is the tentpole's acceptance test: on
// every backend × scheme, a range-partitioned ShardedIndex returns exactly
// the vals (hence byte-identical keys, in the same order) a hash-
// partitioned one and a single hope.Index return, across the adversarial
// corpus and bound sweep — proving the pruned sequential scan planner
// reconstructs the same global order the k-way merge and the single tree
// produce.
func TestRangeShardedScanDifferential(t *testing.T) {
	keys := adversarialCorpus()
	bounds := scanBounds()
	for _, backend := range Backends {
		for _, enc := range shardedSchemes(t) {
			var refEnc, hashEnc *core.Encoder
			if enc != nil {
				refEnc = enc.Clone()
				hashEnc = enc.Clone()
			}
			ref := loadIndex(t, backend, refEnc, keys)
			hash := loadSharded(t, backend, hashEnc, 8, keys)
			ranged := loadRangeSharded(t, backend, enc, 8, keys)
			if ref.Len() != ranged.Len() {
				t.Fatalf("%s/%s: Index holds %d keys, range ShardedIndex %d",
					backend, schemeName(enc), ref.Len(), ranged.Len())
			}
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
				want := collectScan(ref, p[0], p[1])
				var gotHash, gotRange []uint64
				hash.Scan(p[0], p[1], func(_ []byte, v uint64) bool {
					gotHash = append(gotHash, v)
					return true
				})
				ranged.Scan(p[0], p[1], func(_ []byte, v uint64) bool {
					gotRange = append(gotRange, v)
					return true
				})
				if !equalU64(want, gotRange) || !equalU64(want, gotHash) {
					t.Fatalf("%s/%s: Scan(%q, %q): Index %v, hash %v, range %v",
						backend, schemeName(enc), p[0], p[1], want, gotHash, gotRange)
				}
			}
		}
	}
}

// TestRangeShardedScanPrefixDifferential: prefix scans through the pruned
// planner match the single-Index reference on every backend × scheme.
func TestRangeShardedScanPrefixDifferential(t *testing.T) {
	keys := adversarialCorpus()
	prefixes := [][]byte{
		{}, []byte("a"), []byte("ap"), []byte("app"), []byte("apple"),
		[]byte("com."), []byte("com.gmail@"), []byte("com.gmail@bob"),
		{0x00}, {0xff}, {0xff, 0xff}, []byte("a\xff"), []byte("a\xff\xff"),
		[]byte("nosuchprefix"), []byte("z"),
	}
	for _, backend := range Backends {
		for _, enc := range shardedSchemes(t) {
			var refEnc *core.Encoder
			if enc != nil {
				refEnc = enc.Clone()
			}
			ref := loadIndex(t, backend, refEnc, keys)
			ranged := loadRangeSharded(t, backend, enc, 8, keys)
			for _, p := range prefixes {
				var want, got []uint64
				ref.ScanPrefix(p, func(_ []byte, v uint64) bool {
					want = append(want, v)
					return true
				})
				ranged.ScanPrefix(p, func(_ []byte, v uint64) bool {
					got = append(got, v)
					return true
				})
				if !equalU64(want, got) {
					t.Fatalf("%s/%s: ScanPrefix(%q): Index %v != range ShardedIndex %v",
						backend, schemeName(enc), p, want, got)
				}
			}
		}
	}
}

// TestRangeShardedPointOpsDifferential drives the same Put/Get/Delete
// sequence through a range-partitioned ShardedIndex and a model map.
func TestRangeShardedPointOpsDifferential(t *testing.T) {
	keys := adversarialCorpus()
	probes := append(append([][]byte{}, keys...),
		[]byte("absent"), []byte("apples"), []byte("a\xffa"), []byte("zzzzz"), []byte{0x02})
	for _, backend := range []Backend{ART, HOT, BTree, PrefixBTree} {
		for _, enc := range shardedSchemes(t) {
			s := openRangeSharded(t, backend, enc, 8, keys)
			model := map[string]uint64{}
			for i, k := range keys {
				if err := s.Put(k, uint64(i)); err != nil {
					t.Fatalf("%s/%s: Put(%q): %v", backend, schemeName(enc), k, err)
				}
				model[string(k)] = uint64(i)
			}
			for i := 0; i < len(keys); i += 7 {
				if err := s.Put(keys[i], uint64(i)+1000); err != nil {
					t.Fatal(err)
				}
				model[string(keys[i])] = uint64(i) + 1000
			}
			for i := 0; i < len(keys); i += 5 {
				_, present := model[string(keys[i])]
				delete(model, string(keys[i]))
				ok, err := s.Delete(keys[i])
				if err != nil {
					t.Fatal(err)
				}
				if ok != present {
					t.Fatalf("%s/%s: Delete(%q) = %v want %v",
						backend, schemeName(enc), keys[i], ok, present)
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("%s/%s: Len = %d want %d", backend, schemeName(enc), s.Len(), len(model))
			}
			for _, k := range probes {
				wantV, wantOK := model[string(k)]
				gotV, gotOK := s.Get(k)
				if gotOK != wantOK || (wantOK && gotV != wantV) {
					t.Fatalf("%s/%s: Get(%q) = %d,%v want %d,%v",
						backend, schemeName(enc), k, gotV, gotOK, wantV, wantOK)
				}
			}
		}
	}
}

// TestRangeShardedSkewedSplits: adversarial split points — all keys in one
// shard, empty shards from duplicate splits, splits outside the key
// population — must not change any scan or point result.
func TestRangeShardedSkewedSplits(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	splitSets := map[string][][]byte{
		"all-in-last":  {{0x00}, {0x00, 0x00}, {0x00, 0x00, 0x00}},
		"all-in-first": {[]byte("\xff\xff\xff\xff\xff"), []byte("\xff\xff\xff\xff\xff\x01"), []byte("\xff\xff\xff\xff\xff\x02")},
		"empty-middle": {[]byte("com."), []byte("com."), []byte("com."), []byte("org.")},
		"two-hot":      {[]byte("b"), []byte("com.zz"), []byte("org.zz")},
	}
	for name, splits := range splitSets {
		for _, enc := range []*core.Encoder{nil, encs[core.DoubleChar]} {
			ref := loadIndex(t, BTree, encCloneOrNil(enc), keys)
			s, err := NewShardedIndexWithPartitioner(BTree, encCloneOrNil(enc), NewRangePartitioner(splits))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Bulk(keys, nil); err != nil {
				t.Fatal(err)
			}
			if got, want := s.Len(), ref.Len(); got != want {
				t.Fatalf("%s: Len = %d want %d", name, got, want)
			}
			lens := s.ShardLens()
			total := 0
			for _, n := range lens {
				total += n
			}
			if total != ref.Len() {
				t.Fatalf("%s: shard lens %v sum to %d, want %d", name, lens, total, ref.Len())
			}
			for _, lo := range scanBounds() {
				want := collectScan(ref, lo, nil)
				var got []uint64
				s.Scan(lo, nil, func(_ []byte, v uint64) bool {
					got = append(got, v)
					return true
				})
				if !equalU64(want, got) {
					t.Fatalf("%s/%s: Scan(%q, nil): want %v got %v",
						name, schemeName(enc), lo, want, got)
				}
			}
			for i, k := range keys {
				if v, ok := s.Get(k); !ok || v != uint64(i) {
					t.Fatalf("%s: Get(%q) = %d,%v want %d,true", name, k, v, ok, i)
				}
			}
		}
	}
}

func encCloneOrNil(enc *core.Encoder) *core.Encoder {
	if enc == nil {
		return nil
	}
	return enc.Clone()
}

// TestRangeShardedBulkSeedsSplits: a Bulk into an empty unseeded
// range-partitioned index must sample split points from its corpus and
// spread the load — and a second Bulk must not re-seed (stored keys would
// be re-routed).
func TestRangeShardedBulkSeedsSplits(t *testing.T) {
	keys := make([][]byte, 0, 2000)
	for i := 0; i < 2000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("com.user@%05d", i*7)))
	}
	s := openRangeSharded(t, BTree, nil, 8, nil)
	rp := s.Partitioner().(*RangePartitioner)
	if rp.seeded() {
		t.Fatal("partitioner seeded before any corpus")
	}
	if err := s.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	if !rp.seeded() {
		t.Fatal("Bulk did not seed the partitioner")
	}
	splits := append([][]byte(nil), rp.Splits()...)
	lens := s.ShardLens()
	for i, n := range lens {
		// Quantile splits over a uniform corpus: every shard within 3x of
		// the even share.
		if n > 3*len(keys)/len(lens)+1 {
			t.Fatalf("shard %d holds %d of %d keys: splits not balanced (%v)", i, n, len(keys), lens)
		}
	}
	// Second bulk into the now-populated index: splits must be unchanged.
	more := [][]byte{[]byte("aaa"), []byte("zzz")}
	if err := s.Bulk(more, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for i, sp := range rp.Splits() {
		if !bytes.Equal(sp, splits[i]) {
			t.Fatal("second Bulk re-seeded the partitioner")
		}
	}
	if v, ok := s.Get([]byte("aaa")); !ok || v != 1 {
		t.Fatalf("Get(aaa) = %d,%v", v, ok)
	}
}

// TestRangeShardedEarlyStop: early-stopping callbacks through the
// sequential ordered path match the single-Index scan and count.
func TestRangeShardedEarlyStop(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	for _, backend := range Backends {
		ref := loadIndex(t, backend, encs[core.DoubleChar].Clone(), keys)
		ranged := loadRangeSharded(t, backend, encs[core.DoubleChar], 8, keys)
		for _, limit := range []int{0, 1, 3, 10, scanChunk, scanChunk + 5} {
			take := func(scan func(lo, hi []byte, fn func([]byte, uint64) bool) int) ([]uint64, int) {
				var out []uint64
				n := scan([]byte("a"), nil, func(_ []byte, v uint64) bool {
					out = append(out, v)
					return len(out) < limit
				})
				return out, n
			}
			want, wantN := take(ref.Scan)
			got, gotN := take(ranged.Scan)
			if !equalU64(want, got) || wantN != gotN {
				t.Fatalf("%s limit %d: Index %v (n=%d) != range %v (n=%d)",
					backend, limit, want, wantN, got, gotN)
			}
		}
	}
}

// TestSingleShardScanZeroAlloc is the acceptance criterion's allocation
// bar for the fast path: a short compressed scan confined to one shard of
// a range-partitioned index builds no merge heap and allocates nothing —
// the cursor, its chunk arena, and its resume buffer come from the scan
// cursor pool, the encoded bounds from the pooled scan state.
func TestSingleShardScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; zero-alloc steady state not reachable")
	}
	keys := make([][]byte, 0, 4096)
	for i := 0; i < 4096; i++ {
		keys = append(keys, []byte(fmt.Sprintf("com.user@%05d", i)))
	}
	enc := testEncoders(t)[core.DoubleChar]
	s := mustOpen(t, BTree, WithEncoder(enc), WithShards(16), WithRangePartitioner(keys)).(*ShardedIndex)
	if err := s.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	lo := []byte("com.user@02000")
	run := func() {
		n := 0
		s.Scan(lo, nil, func(_ []byte, _ uint64) bool {
			n++
			return n < 50
		})
	}
	run() // warm the cursor pool
	allocs := testing.AllocsPerRun(2000, run)
	if allocs >= 0.5 {
		t.Fatalf("single-shard scan allocates %.2f/op in steady state, want 0", allocs)
	}
}

// TestRangeShardedScanUnderChurn hammers the pruned scan planner with
// concurrent writers (the -race leg for the ordered sequential path): the
// stable key population must appear exactly once, in order, in every
// scan, while churn keys come and go — including churn landing exactly on
// shard boundaries.
func TestRangeShardedScanUnderChurn(t *testing.T) {
	base := adversarialCorpus()
	encs := testEncoders(t)
	s := openRangeSharded(t, BTree, encs[core.DoubleChar], 8, base)
	if err := s.Bulk(base, nil); err != nil {
		t.Fatal(err)
	}
	// The churner writes only keys outside the corpus, so every corpus
	// value must stay visible exactly once. Split points are themselves
	// corpus keys; churn their nearest non-corpus successors instead
	// (split+0x01, extended while that is a corpus key too), which land
	// in the split's shard right at its boundary.
	corpus := map[string]bool{}
	for _, k := range base {
		corpus[string(k)] = true
	}
	var edges [][]byte
	for _, sp := range s.Partitioner().Splits() {
		k := append(append([]byte(nil), sp...), 0x01)
		for corpus[string(k)] {
			k = append(k, 0x01)
		}
		edges = append(edges, k)
	}
	churnKey := func(rng *rand.Rand, i int) []byte {
		if i%5 == 0 && len(edges) > 0 {
			return edges[rng.Intn(len(edges))]
		}
		return []byte(fmt.Sprintf("net.churn@%d", rng.Intn(100)))
	}
	for i := 0; i < 100; i++ {
		if k := []byte(fmt.Sprintf("net.churn@%d", i)); corpus[string(k)] {
			t.Fatalf("churn key %q is a corpus key", k)
		}
	}
	stop := make(chan struct{})
	var churned atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn a disjoint namespace while scans run
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := churnKey(rng, i)
			if i%3 == 0 {
				s.Delete(k)
			} else {
				s.Put(k, uint64(i)+(1<<32))
			}
			churned.Add(1)
		}
	}()
	defer wg.Wait()
	defer close(stop)
	stable := map[uint64]bool{}
	for i := range base {
		stable[uint64(i)] = true
	}
	const iters, opsPerIter = 30, 20
	deadline := time.Now().Add(30 * time.Second)
	// awaitChurn blocks until the churner has made opsPerIter more ops, so
	// churn lands where the test needs it even when the goroutines share
	// one core.
	awaitChurn := func(iter int) {
		for target := churned.Load() + opsPerIter; churned.Load() < target; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("iter %d: churner stalled at %d ops", iter, churned.Load())
			}
		}
	}
	for iter := 0; iter < iters; iter++ {
		awaitChurn(iter)
		seen := map[uint64]int{}
		var last []byte
		visited := 0
		s.Scan(nil, nil, func(k []byte, v uint64) bool {
			if last != nil && bytes.Compare(last, k) > 0 {
				t.Errorf("scan out of order")
				return false
			}
			last = append(last[:0], k...)
			seen[v]++
			// Pause mid-scan until more churn lands, so every scan resumes
			// its shard cursors over trees written under it.
			if visited++; visited == 64 {
				awaitChurn(iter)
			}
			return true
		})
		for v := range stable {
			if seen[v] != 1 {
				t.Fatalf("iter %d: stable val %d seen %d times", iter, v, seen[v])
			}
		}
		// Short pruned scans under the same churn.
		n := 0
		s.Scan([]byte("com."), nil, func(_ []byte, _ uint64) bool {
			n++
			return n < 20
		})
	}
}

// TestScanSpanPruning pins the planner's span arithmetic: the span always
// covers the shards holding matching keys, and a short bounded scan over
// a seeded partition prunes to a strict subset of the shards.
func TestScanSpanPruning(t *testing.T) {
	keys := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%06d", i)))
	}
	s := openRangeSharded(t, BTree, nil, 8, keys)
	if err := s.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	first, last, ok := s.scanSpan([]byte("k000100"), []byte("k000120"))
	if !ok {
		t.Fatal("range partition must report an ordered span")
	}
	if last-first >= 7 {
		t.Fatalf("span [%d,%d] over 8 shards: no pruning for a 20-key window", first, last)
	}
	// The span must agree with the partitioner about every stored key in
	// range.
	for _, k := range keys {
		if string(k) >= "k000100" && string(k) < "k000120" {
			w := s.Partitioner().Shard(k)
			if w < first || w > last {
				t.Fatalf("key %q in shard %d outside span [%d,%d]", k, w, first, last)
			}
		}
	}
	// Unbounded scans span everything relevant and stay exact.
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	i := 0
	s.Scan(nil, nil, func(_ []byte, v uint64) bool {
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("full scan visited %d of %d keys", i, len(keys))
	}
}

// TestRangeShardedScanBeatsHash runs YCSB-E (95% short scans, 5% inserts)
// from one goroutine against hash- and range-partitioned indexes of 2 and
// 4 shards, Uncompressed and Double-Char, on ART and the B+tree. At 4
// shards the range partition must split the load with no shard above 75%
// of the keys, and must not be slower than hash: a hash scan opens a
// cursor on every shard and merges them, a range scan touches only the
// shards its bounds overlap. Each partition's rate is the best of
// timedPasses passes, each on a freshly loaded index, with the two
// partitions alternating: one pass takes ~10 ms, so a single preemption
// by a concurrently running test package can halve a single-pass rate.
func TestRangeShardedScanBeatsHash(t *testing.T) {
	all := datagen.Generate(datagen.Email, 4000, 42)
	const numOps, timedPasses = 1200, 3
	loaded := all[:len(all)-numOps/10-64]
	samples := loaded[:max(64, len(loaded)/50)]
	dc, err := core.Build(core.DoubleChar, samples, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{ART, BTree} {
		for _, enc := range []*core.Encoder{nil, dc} {
			for _, shards := range []int{2, 4} {
				w := ycsb.Generate(ycsb.E, numOps, len(loaded), 42+int64(shards)*31)
				if mk := w.MaxKey(); mk >= len(all) {
					t.Fatalf("insert pool exhausted: need key %d, have %d", mk, len(all))
				}
				opsPerSec := map[string]float64{}
				for pass := 0; pass < timedPasses; pass++ {
					order := []string{"hash", "range"}
					if pass%2 == 1 {
						order = []string{"range", "hash"}
					}
					for _, partition := range order {
						opts := []Option{WithEncoder(encCloneOrNil(enc)), WithShards(shards)}
						if partition == "range" {
							opts = append(opts, WithRangePartitioner(loaded))
						}
						s := mustOpen(t, backend, opts...).(*ShardedIndex)
						if err := s.Bulk(loaded, nil); err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s/%s/%s/s%d", backend, schemeName(enc), partition, shards)
						if frac := s.MaxShardFrac(); partition == "range" && shards >= 4 && frac > 0.75 {
							t.Fatalf("%s: range splits badly skewed: %f of keys in one shard", name, frac)
						}
						t0 := time.Now()
						for _, op := range w.Ops {
							switch op.Kind {
							case ycsb.Scan:
								n := 0
								s.Scan(all[op.Key], nil, func([]byte, uint64) bool {
									n++
									return n < op.ScanLen
								})
							case ycsb.Insert:
								if err := s.Put(all[op.Key], uint64(op.Key)); err != nil {
									t.Fatal(err)
								}
							}
						}
						opsPerSec[partition] = max(opsPerSec[partition], float64(len(w.Ops))/time.Since(t0).Seconds())
					}
				}
				if shards >= 4 && opsPerSec["range"] < opsPerSec["hash"] {
					t.Fatalf("%s/%s/s%d: range (%.0f ops/s) slower than hash (%.0f ops/s)",
						backend, schemeName(enc), shards, opsPerSec["range"], opsPerSec["hash"])
				}
			}
		}
	}
}
