package hope

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
)

// storeConformance is the shared Store contract suite: one table-driven
// harness run against every shape Open builds (the default one-shard
// store, ShardedIndex and AdaptiveIndex) × partition layout × encoder
// configuration, replacing the per-type copies of the basic
// point-op/scan/edge-key boilerplate. It is self-contained — expected
// results are computed from a plain Go map and sort, not from a reference
// store — so it also conformance-tests the one-shard store the
// differential tests use as their reference. open must return a fresh
// empty Store.
func storeConformance(t *testing.T, open func(t *testing.T) Store) {
	corpus := adversarialCorpus()

	t.Run("PointOps", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		for i, k := range corpus {
			if err := s.Put(k, uint64(i)); err != nil {
				t.Fatalf("put %q: %v", k, err)
			}
		}
		if got := s.Len(); got != len(corpus) {
			t.Fatalf("Len = %d, want %d", got, len(corpus))
		}
		for i, k := range corpus {
			v, ok := s.Get(k)
			if !ok || v != uint64(i) {
				t.Fatalf("get %q = (%d,%v), want (%d,true)", k, v, ok, i)
			}
		}
		// Overwrites: every third key gets a new value, Len is unchanged.
		for i := 0; i < len(corpus); i += 3 {
			if err := s.Put(corpus[i], uint64(i)+1000); err != nil {
				t.Fatalf("overwrite %q: %v", corpus[i], err)
			}
		}
		if got := s.Len(); got != len(corpus) {
			t.Fatalf("Len after overwrite = %d, want %d", got, len(corpus))
		}
		for i, k := range corpus {
			want := uint64(i)
			if i%3 == 0 {
				want += 1000
			}
			if v, ok := s.Get(k); !ok || v != want {
				t.Fatalf("get %q = (%d,%v), want (%d,true)", k, v, ok, want)
			}
		}
		// Deletes report presence exactly once; absent keys miss cleanly.
		for i := 0; i < len(corpus); i += 2 {
			ok, err := s.Delete(corpus[i])
			if err != nil || !ok {
				t.Fatalf("delete %q = (%v,%v), want (true,nil)", corpus[i], ok, err)
			}
			if ok, err := s.Delete(corpus[i]); err != nil || ok {
				t.Fatalf("re-delete %q = (%v,%v), want (false,nil)", corpus[i], ok, err)
			}
			if _, ok := s.Get(corpus[i]); ok {
				t.Fatalf("get %q found after delete", corpus[i])
			}
		}
		if _, ok := s.Get([]byte("no-such-key-anywhere")); ok {
			t.Fatal("get of never-stored key reported found")
		}
		if ok, err := s.Delete([]byte("no-such-key-anywhere")); err != nil || ok {
			t.Fatalf("delete of never-stored key = (%v,%v), want (false,nil)", ok, err)
		}
	})

	t.Run("EdgeKeys", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		edges := [][]byte{
			{},                   // the empty key
			{0x00}, {0x00, 0x00}, // NUL-run keys
			{0xff}, {0xff, 0xff}, // 0xff-run keys (no prefix successor)
			bytes.Repeat([]byte("k"), 300), // longer than any sampled key
		}
		for i, k := range edges {
			if err := s.Put(k, uint64(i)); err != nil {
				t.Fatalf("put edge %x: %v", k, err)
			}
		}
		for i, k := range edges {
			if v, ok := s.Get(k); !ok || v != uint64(i) {
				t.Fatalf("get edge %x = (%d,%v), want (%d,true)", k, v, ok, i)
			}
		}
		// A full scan (nil bounds) visits exactly the stored keys.
		if n := s.Scan(nil, nil, func([]byte, uint64) bool { return true }); n != len(edges) {
			t.Fatalf("full scan visited %d keys, want %d", n, len(edges))
		}
	})

	t.Run("Bulk", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		keys := append([][]byte{}, corpus...)
		keys = append(keys, corpus[0]) // trailing duplicate: last write wins
		if err := s.Bulk(keys, nil); err != nil {
			t.Fatalf("bulk: %v", err)
		}
		if got := s.Len(); got != len(corpus) {
			t.Fatalf("Len after bulk = %d, want %d", got, len(corpus))
		}
		// nil vals assign positions; the duplicate's last position wins.
		if v, ok := s.Get(corpus[0]); !ok || v != uint64(len(keys)-1) {
			t.Fatalf("get dup key = (%d,%v), want (%d,true)", v, ok, len(keys)-1)
		}
		for i := 1; i < len(corpus); i++ {
			if v, ok := s.Get(corpus[i]); !ok || v != uint64(i) {
				t.Fatalf("get %q = (%d,%v), want (%d,true)", corpus[i], v, ok, i)
			}
		}
	})

	t.Run("Scan", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		ref := loadConformanceRef(t, s, corpus)
		bounds := scanBounds()
		for _, lo := range bounds {
			for _, hi := range append(bounds, nil) {
				wantVals := ref.scan(lo, hi)
				var got []uint64
				n := s.Scan(lo, hi, func(_ []byte, v uint64) bool {
					got = append(got, v)
					return true
				})
				if n != len(wantVals) || !equalVals(got, wantVals) {
					t.Fatalf("scan [%q,%q): got %d vals %v, want %v", lo, hi, n, got, wantVals)
				}
			}
		}
		// Early stop: fn returning false halts the traversal immediately.
		stopped := 0
		n := s.Scan(nil, nil, func([]byte, uint64) bool {
			stopped++
			return stopped < 3
		})
		if n != 3 || stopped != 3 {
			t.Fatalf("early-stopped scan visited %d (callback ran %d), want 3", n, stopped)
		}
	})

	t.Run("ScanPrefix", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		ref := loadConformanceRef(t, s, corpus)
		prefixes := [][]byte{
			{}, []byte("a"), []byte("app"), []byte("apple"), []byte("com.gmail@"),
			[]byte("com."), []byte("z"), []byte("nosuch"), {0xff}, {0x00},
		}
		for _, p := range prefixes {
			wantVals := ref.scanPrefix(p)
			var got []uint64
			n := s.ScanPrefix(p, func(_ []byte, v uint64) bool {
				got = append(got, v)
				return true
			})
			if n != len(wantVals) || !equalVals(got, wantVals) {
				t.Fatalf("scanPrefix %q: got %d vals %v, want %v", p, n, got, wantVals)
			}
		}
	})

	t.Run("PostClose", func(t *testing.T) {
		s := open(t)
		for i, k := range corpus[:32] {
			if err := s.Put(k, uint64(i)); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second close: %v (Close must be idempotent)", err)
		}
		// A closed store is final: reads keep serving, mutations refuse.
		for i, k := range corpus[:32] {
			if v, ok := s.Get(k); !ok || v != uint64(i) {
				t.Fatalf("get %q after close = (%d,%v), want (%d,true)", k, v, ok, i)
			}
		}
		if err := s.Put([]byte("post-close-key"), 7); !errors.Is(err, ErrClosed) {
			t.Fatalf("put after close: err = %v, want ErrClosed", err)
		}
		if _, ok := s.Get([]byte("post-close-key")); ok {
			t.Fatal("put after close took effect; closed store must be final")
		}
		if _, err := s.Delete(corpus[0]); !errors.Is(err, ErrClosed) {
			t.Fatalf("delete after close: err = %v, want ErrClosed", err)
		}
		if err := s.Bulk([][]byte{[]byte("post-close-bulk")}, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("bulk after close: err = %v, want ErrClosed", err)
		}
		if n := s.Scan(nil, nil, func([]byte, uint64) bool { return true }); n != 32 {
			t.Fatalf("scan after close visited %d keys, want 32", n)
		}
	})
}

// conformanceRef is the oracle: a sorted copy of the loaded keys with their
// values, queried with plain sort + compare.
type conformanceRef struct {
	keys [][]byte
	vals map[string]uint64
}

func loadConformanceRef(t *testing.T, s Store, corpus [][]byte) *conformanceRef {
	t.Helper()
	ref := &conformanceRef{vals: map[string]uint64{}}
	for i, k := range corpus {
		if err := s.Put(k, uint64(i)); err != nil {
			t.Fatalf("load %q: %v", k, err)
		}
		ref.vals[string(k)] = uint64(i)
	}
	ref.keys = append(ref.keys, corpus...)
	sort.Slice(ref.keys, func(i, j int) bool { return bytes.Compare(ref.keys[i], ref.keys[j]) < 0 })
	return ref
}

// scan returns the values of keys in [lo, hi) in ascending key order (nil
// hi unbounded) — the sequence a conforming Store must emit.
func (r *conformanceRef) scan(lo, hi []byte) []uint64 {
	var out []uint64
	for _, k := range r.keys {
		if bytes.Compare(k, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			break
		}
		out = append(out, r.vals[string(k)])
	}
	return out
}

func (r *conformanceRef) scanPrefix(p []byte) []uint64 {
	var out []uint64
	for _, k := range r.keys {
		if bytes.HasPrefix(k, p) {
			out = append(out, r.vals[string(k)])
		}
	}
	return out
}

func equalVals(a, b []uint64) bool {
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

// TestStoreConformance runs the shared contract suite against all three
// Store implementations × {hash, range} partitioning × {uncompressed,
// Double-Char}, every one constructed through hope.Open — so the matrix
// also covers every dispatch path of the consolidated constructor.
func TestStoreConformance(t *testing.T) {
	encs := testEncoders(t)
	backends := []Backend{ART, BTree}
	configs := []struct {
		name string
		enc  *core.Encoder // template; cloned per store
	}{
		{"Uncompressed", nil},
		{"Double-Char", encs[core.DoubleChar]},
	}
	for _, backend := range backends {
		for _, cfg := range configs {
			cloneEnc := func() *core.Encoder {
				if cfg.enc == nil {
					return nil
				}
				return cfg.enc.Clone()
			}
			impls := []struct {
				name string
				open func(t *testing.T) Store
			}{
				// "Index" is the store Open returns with no shape
				// option: a ShardedIndex of one hash shard.
				{"Index", func(t *testing.T) Store {
					return mustOpen(t, backend, WithEncoder(cloneEnc()))
				}},
				{"Sharded/hash", func(t *testing.T) Store {
					return mustOpen(t, backend, WithEncoder(cloneEnc()), WithShards(4))
				}},
				{"Sharded/range", func(t *testing.T) Store {
					return mustOpen(t, backend, WithEncoder(cloneEnc()),
						WithShards(4), WithRangePartitioner(adversarialCorpus()))
				}},
				{"Adaptive/hash", func(t *testing.T) Store {
					return mustOpen(t, backend, WithAdaptive(AdaptiveOptions{
						Encoder: cloneEnc(), Shards: 4, Manual: true,
					}))
				}},
				{"Adaptive/range", func(t *testing.T) Store {
					return mustOpen(t, backend, WithAdaptive(AdaptiveOptions{
						Encoder: cloneEnc(), Shards: 4, Manual: true,
					}), WithRangePartitioner(nil))
				}},
			}
			for _, impl := range impls {
				t.Run(impl.name+"/"+string(backend)+"/"+cfg.name, func(t *testing.T) {
					storeConformance(t, impl.open)
				})
			}
		}
	}
}

func mustOpen(t *testing.T, backend Backend, opts ...Option) Store {
	t.Helper()
	s, err := Open(backend, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOpenUnknownBackendReturnsNilStore: a store Open cannot build comes
// back as a nil Store beside the error, in every shape, never as a typed
// nil pointer inside a non-nil interface.
func TestOpenUnknownBackendReturnsNilStore(t *testing.T) {
	for name, opts := range map[string][]Option{
		"index":         nil,
		"hash-sharded":  {WithShards(4)},
		"range-sharded": {WithShards(4), WithRangePartitioner(adversarialCorpus())},
		"adaptive":      {WithAdaptive(AdaptiveOptions{Manual: true})},
		"persistent":    {WithSnapshotDir(t.TempDir())},
	} {
		st, err := Open(Backend("T-tree"), opts...)
		if err == nil {
			t.Errorf("%s: unknown backend accepted", name)
		}
		if st != nil {
			t.Errorf("%s: Open returned %T(%v) beside its error, want a nil Store", name, st, st)
		}
	}
}

// TestDefaultStoreConcurrent: the store Open returns with no options is
// safe for concurrent use. On every mutable backend 4 goroutines each own
// a key range of the same store and run Put, Get, Delete and Scan on it
// against a sorted model; the race detector fails a store that does not
// lock.
func TestDefaultStoreConcurrent(t *testing.T) {
	const workers, ops = 4, 600
	for _, backend := range []Backend{ART, HOT, BTree, PrefixBTree} {
		t.Run(string(backend), func(t *testing.T) {
			st := mustOpen(t, backend)
			defer st.Close()
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[w] = defaultStoreWorker(st, w, ops)
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// defaultStoreWorker runs ops random operations on the keys "w<w>/000"
// to "w<w>/063" of st, which no other worker touches, checking every
// result against a model of that range.
func defaultStoreWorker(st Store, w, ops int) error {
	rng := rand.New(rand.NewSource(int64(w) + 1))
	prefix := fmt.Appendf(nil, "w%d/", w)
	end := prefixSuccessor(prefix)
	model := map[string]uint64{}
	for i := range ops {
		k := fmt.Appendf(nil, "%s%03d", prefix, rng.Intn(64))
		want, present := model[string(k)]
		switch op := rng.Intn(8); {
		case op < 3:
			if err := st.Put(k, uint64(i)); err != nil {
				return err
			}
			model[string(k)] = uint64(i)
		case op < 5:
			ok, err := st.Delete(k)
			if err != nil || ok != present {
				return fmt.Errorf("Delete(%q) = %v, %v; want %v", k, ok, err, present)
			}
			delete(model, string(k))
		case op < 7:
			if v, ok := st.Get(k); ok != present || v != want {
				return fmt.Errorf("Get(%q) = %d,%v; want %d,%v", k, v, ok, want, present)
			}
		default:
			// A short scan from k, then the whole range.
			sorted := slices.Sorted(maps.Keys(model))
			from, _ := slices.BinarySearch(sorted, string(k))
			for _, sc := range []struct {
				lo        []byte
				from, lim int
			}{{k, from, 5}, {prefix, 0, len(sorted)}} {
				var got, want []kv
				st.Scan(sc.lo, end, func(sk []byte, v uint64) bool {
					got = append(got, kv{string(sk), v})
					return len(got) < sc.lim
				})
				for _, mk := range sorted[sc.from:min(sc.from+sc.lim, len(sorted))] {
					want = append(want, kv{mk, model[mk]})
				}
				if !equalKV(got, want) {
					return fmt.Errorf("Scan(%q, %q) limit %d = %v; want %v", sc.lo, end, sc.lim, got, want)
				}
			}
		}
	}
	return nil
}

// TestOpenDispatch pins which implementation each option combination
// selects, and the option plumbing into it.
func TestOpenDispatch(t *testing.T) {
	s := mustOpen(t, BTree)
	if one, ok := s.(*ShardedIndex); !ok || one.NumShards() != 1 || one.Partitioner().Ordered() {
		t.Fatalf("Open() = %T, want a 1-shard hash *ShardedIndex", s)
	}

	s = mustOpen(t, BTree, WithShards(8))
	sh, ok := s.(*ShardedIndex)
	if !ok {
		t.Fatalf("Open(WithShards) = %T, want *ShardedIndex", s)
	}
	if sh.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", sh.NumShards())
	}
	if sh.Partitioner().Ordered() {
		t.Fatal("WithShards alone must select hash partitioning")
	}

	corpus := adversarialCorpus()
	s = mustOpen(t, BTree, WithShards(4), WithRangePartitioner(corpus))
	sh = s.(*ShardedIndex)
	if !sh.Partitioner().Ordered() {
		t.Fatal("WithRangePartitioner must select an ordered partition")
	}
	if got := sh.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}

	// WithRangePartitioner alone implies a sharded store at DefaultShards.
	s = mustOpen(t, BTree, WithRangePartitioner(corpus))
	sh = s.(*ShardedIndex)
	if got := sh.NumShards(); got != DefaultShards() {
		t.Fatalf("NumShards = %d, want DefaultShards() = %d", got, DefaultShards())
	}

	s = mustOpen(t, BTree, WithAdaptive(AdaptiveOptions{Manual: true}), WithShards(4))
	ad, ok := s.(*AdaptiveIndex)
	if !ok {
		t.Fatalf("Open(WithAdaptive) = %T, want *AdaptiveIndex", s)
	}
	if got := ad.NumShards(); got != 4 {
		t.Fatalf("adaptive NumShards = %d, want 4 (WithShards must override)", got)
	}
	defer ad.Close()

	// WithEncoder + WithAdaptive: the encoder becomes generation 0 and the
	// index starts Steady.
	enc := testEncoders(t)[core.DoubleChar].Clone()
	s = mustOpen(t, BTree, WithEncoder(enc), WithAdaptive(AdaptiveOptions{Manual: true}))
	ad = s.(*AdaptiveIndex)
	defer ad.Close()
	if ad.State() != StateSteady {
		t.Fatalf("adaptive with encoder starts %v, want Steady", ad.State())
	}
	if ad.Encoder() == nil {
		t.Fatal("WithEncoder not plumbed into AdaptiveOptions.Encoder")
	}

	// Conflicting encoder specifications are an error, not a silent pick.
	_, err := Open(BTree, WithEncoder(enc), WithAdaptive(AdaptiveOptions{Encoder: enc}))
	if err == nil {
		t.Fatal("Open with both WithEncoder and AdaptiveOptions.Encoder must fail")
	}

	// SuRF stays reachable through Open: bulk-only contract intact.
	s = mustOpen(t, SuRF)
	if err := s.Put([]byte("k"), 1); err == nil {
		t.Fatal("SuRF Put must return ErrImmutableBackend")
	}
	if err := s.Bulk([][]byte{[]byte("k")}, nil); err != nil {
		t.Fatalf("SuRF bulk: %v", err)
	}
	if v, ok := s.Get([]byte("k")); !ok || v != 0 {
		t.Fatalf("SuRF get = (%d,%v), want (0,true)", v, ok)
	}
}
