package hope

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/snapshot"
)

// persistOracle is the restore differential's ground truth: the exact
// (key, value) set a store held when it was snapshotted, queried with
// plain sort + map.
type persistOracle struct {
	keys [][]byte // ascending, unique
	vals map[string]uint64
}

func newPersistOracle() *persistOracle {
	return &persistOracle{vals: map[string]uint64{}}
}

func (o *persistOracle) put(k []byte, v uint64) {
	if _, ok := o.vals[string(k)]; !ok {
		o.keys = append(o.keys, append([]byte(nil), k...))
	}
	o.vals[string(k)] = v
}

func (o *persistOracle) delete(k []byte) {
	if _, ok := o.vals[string(k)]; !ok {
		return
	}
	delete(o.vals, string(k))
	for i, key := range o.keys {
		if bytes.Equal(key, k) {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
}

func (o *persistOracle) sorted() {
	sort.Slice(o.keys, func(i, j int) bool { return bytes.Compare(o.keys[i], o.keys[j]) < 0 })
}

// checkRestoredEquals asserts s holds exactly the oracle's contents: the
// key count, every key's value by point lookup, and the full-scan value
// sequence (values are unique, so the sequence pins the visit order even
// when the store hands back encoded keys).
func checkRestoredEquals(t *testing.T, s Store, o *persistOracle) {
	t.Helper()
	o.sorted()
	if got := s.Len(); got != len(o.keys) {
		t.Fatalf("restored Len = %d, want %d", got, len(o.keys))
	}
	for _, k := range o.keys {
		want := o.vals[string(k)]
		if v, ok := s.Get(k); !ok || v != want {
			t.Fatalf("restored get %q = (%d,%v), want (%d,true)", k, v, ok, want)
		}
	}
	var gotVals []uint64
	n := s.Scan(nil, nil, func(_ []byte, v uint64) bool {
		gotVals = append(gotVals, v)
		return true
	})
	if n != len(o.keys) {
		t.Fatalf("restored full scan visited %d keys, want %d", n, len(o.keys))
	}
	for i, k := range o.keys {
		if want := o.vals[string(k)]; gotVals[i] != want {
			t.Fatalf("restored scan val[%d] = %d, want %d (key %q)", i, gotVals[i], want, k)
		}
	}
}

// persistShapes is the store-shape axis of the round-trip matrix; check
// pins the concrete type a restore must rebuild.
func persistShapes(enc func() *core.Encoder) []struct {
	name  string
	opts  func() []Option
	check func(t *testing.T, s Store)
} {
	return []struct {
		name  string
		opts  func() []Option
		check func(t *testing.T, s Store)
	}{
		// "Index" is the default store: one hash shard.
		{"Index", func() []Option {
			return []Option{WithEncoder(enc())}
		}, func(t *testing.T, s Store) {
			if sh, ok := s.(*ShardedIndex); !ok || sh.NumShards() != 1 {
				t.Fatalf("restored %T, want a 1-shard *ShardedIndex", s)
			}
		}},
		{"Sharded/hash", func() []Option {
			return []Option{WithEncoder(enc()), WithShards(4)}
		}, func(t *testing.T, s Store) {
			sh, ok := s.(*ShardedIndex)
			if !ok {
				t.Fatalf("restored %T, want *ShardedIndex", s)
			}
			if sh.NumShards() != 4 || sh.Partitioner().Ordered() {
				t.Fatalf("restored %d shards (ordered=%v), want 4 hash shards",
					sh.NumShards(), sh.Partitioner().Ordered())
			}
		}},
		{"Sharded/range", func() []Option {
			return []Option{WithEncoder(enc()), WithShards(4), WithRangePartitioner(adversarialCorpus())}
		}, func(t *testing.T, s Store) {
			sh, ok := s.(*ShardedIndex)
			if !ok {
				t.Fatalf("restored %T, want *ShardedIndex", s)
			}
			if sh.NumShards() != 4 || !sh.Partitioner().Ordered() {
				t.Fatalf("restored %d shards (ordered=%v), want 4 range shards",
					sh.NumShards(), sh.Partitioner().Ordered())
			}
		}},
		{"Adaptive/hash", func() []Option {
			return []Option{WithAdaptive(AdaptiveOptions{Encoder: enc(), Shards: 4, Manual: true})}
		}, func(t *testing.T, s Store) {
			if _, ok := s.(*AdaptiveIndex); !ok {
				t.Fatalf("restored %T, want *AdaptiveIndex", s)
			}
		}},
		{"Adaptive/range", func() []Option {
			return []Option{WithAdaptive(AdaptiveOptions{
				Encoder: enc(), Shards: 4, Manual: true, Partition: RangePartitioned,
			})}
		}, func(t *testing.T, s Store) {
			if _, ok := s.(*AdaptiveIndex); !ok {
				t.Fatalf("restored %T, want *AdaptiveIndex", s)
			}
		}},
	}
}

// TestPersistRoundTrip is the save/restore conformance leg: every store
// shape × {uncompressed, Double-Char} × mutable backend loads the
// adversarial corpus (with deletions), snapshots, reopens from disk, and
// must match the oracle exactly — with zero re-encoding on the way back
// (the restore path has no encode call to make).
//
// The reopen passes no shape options: the snapshot's structural truth
// (kind, shards, partition, dictionary) must reconstruct the store alone.
// Adaptive shapes pass lifecycle tuning only (Manual), which the snapshot
// deliberately does not carry.
func TestPersistRoundTrip(t *testing.T) {
	encs := testEncoders(t)
	corpus := adversarialCorpus()
	configs := []struct {
		name string
		enc  *core.Encoder
	}{
		{"Uncompressed", nil},
		{"Double-Char", encs[core.DoubleChar]},
	}
	for _, backend := range []Backend{ART, BTree} {
		for _, cfg := range configs {
			cloneEnc := func() *core.Encoder {
				if cfg.enc == nil {
					return nil
				}
				return cfg.enc.Clone()
			}
			for _, shape := range persistShapes(cloneEnc) {
				adaptive := shape.name == "Adaptive/hash" || shape.name == "Adaptive/range"
				t.Run(shape.name+"/"+string(backend)+"/"+cfg.name, func(t *testing.T) {
					dir := t.TempDir()
					s := mustOpen(t, backend, append(shape.opts(), WithSnapshotDir(dir))...)
					p := s.(*Persistent)
					if p.Restored() || p.Generation() != 0 {
						t.Fatalf("fresh open: restored=%v gen=%d, want false/0", p.Restored(), p.Generation())
					}
					oracle := newPersistOracle()
					for i, k := range corpus {
						if err := s.Put(k, uint64(i)); err != nil {
							t.Fatalf("put %q: %v", k, err)
						}
						oracle.put(k, uint64(i))
					}
					for i := 0; i < len(corpus); i += 5 {
						if _, err := s.Delete(corpus[i]); err != nil {
							t.Fatalf("delete %q: %v", corpus[i], err)
						}
						oracle.delete(corpus[i])
					}
					if err := p.Snapshot(); err != nil {
						t.Fatalf("snapshot: %v", err)
					}
					if p.Generation() != 1 {
						t.Fatalf("generation after snapshot = %d, want 1", p.Generation())
					}
					if err := p.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}

					reopen := []Option{WithSnapshotDir(dir)}
					if adaptive {
						reopen = append(reopen, WithAdaptive(AdaptiveOptions{Manual: true}))
					}
					r := mustOpen(t, backend, reopen...)
					rp := r.(*Persistent)
					defer rp.Close()
					if !rp.Restored() || rp.Generation() != 1 {
						t.Fatalf("reopen: restored=%v gen=%d, want true/1", rp.Restored(), rp.Generation())
					}
					shape.check(t, rp.Unwrap())
					checkRestoredEquals(t, rp, oracle)

					// The restored store serves writes: a snapshot restores a
					// live index, not a frozen image.
					if err := r.Put([]byte("post-restore-key"), 424242); err != nil {
						t.Fatalf("put after restore: %v", err)
					}
					if v, ok := r.Get([]byte("post-restore-key")); !ok || v != 424242 {
						t.Fatalf("get after restore-write = (%d,%v), want (424242,true)", v, ok)
					}
				})
			}
		}
	}
}

// TestPersistRoundTripSuRF covers the bulk-only backend: a snapshotted
// SuRF run restores through the same bulk path that built it.
func TestPersistRoundTripSuRF(t *testing.T) {
	encs := testEncoders(t)
	for _, cfg := range []struct {
		name string
		enc  *core.Encoder
	}{
		{"Uncompressed", nil},
		{"Double-Char", encs[core.DoubleChar]},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			enc := cfg.enc
			if enc != nil {
				enc = enc.Clone()
			}
			dir := t.TempDir()
			corpus := adversarialCorpus()
			s := mustOpen(t, SuRF, WithEncoder(enc), WithSnapshotDir(dir))
			oracle := newPersistOracle()
			if err := s.Bulk(corpus, nil); err != nil {
				t.Fatalf("bulk: %v", err)
			}
			for i, k := range corpus {
				oracle.put(k, uint64(i))
			}
			p := s.(*Persistent)
			if err := p.Snapshot(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			p.Close()

			r := mustOpen(t, SuRF, WithSnapshotDir(dir))
			rp := r.(*Persistent)
			defer rp.Close()
			if sh, ok := rp.Unwrap().(*ShardedIndex); !ok || sh.NumShards() != 1 {
				t.Fatalf("restored %T, want a 1-shard *ShardedIndex", rp.Unwrap())
			}
			checkRestoredEquals(t, rp, oracle)
		})
	}
}

// TestPersistStructuralOverride pins restore precedence: the snapshot's
// shape wins over the caller's shape options on reopen.
func TestPersistStructuralOverride(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, BTree, WithShards(4), WithSnapshotDir(dir))
	if err := s.Put([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.(*Persistent).Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Caller asks for 16 shards; the snapshot says 4.
	r := mustOpen(t, BTree, WithShards(16), WithSnapshotDir(dir))
	defer r.Close()
	sh, ok := r.(*Persistent).Unwrap().(*ShardedIndex)
	if !ok {
		t.Fatalf("restored %T, want *ShardedIndex", r.(*Persistent).Unwrap())
	}
	if sh.NumShards() != 4 {
		t.Fatalf("restored NumShards = %d, want the snapshot's 4", sh.NumShards())
	}
}

// TestPersistBackendMismatch: a snapshot is not a migration tool — Open
// with a different backend refuses rather than silently rebuilding.
func TestPersistBackendMismatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, BTree, WithSnapshotDir(dir))
	if err := s.Put([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.(*Persistent).Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if _, err := Open(ART, WithSnapshotDir(dir)); err == nil {
		t.Fatal("Open(ART) over a B+tree snapshot succeeded, want backend-mismatch error")
	}
}

// TestPersistRefusesRetiredAdaptiveFormat: an adaptive snapshot of the
// retired format — per-stripe record runs (section kind 4) of original
// keys — is refused with ErrSnapshotCorrupt, never a panic or a partial
// store.
func TestPersistRefusesRetiredAdaptiveFormat(t *testing.T) {
	dir := t.TempDir()
	d := snapshot.Dir{FS: snapshot.OS(), Path: dir}
	err := d.Commit(1, func(w *snapshot.Writer) error {
		meta := snapMeta{storeKind: kindAdaptive, backend: ART, scheme: -1, shards: 2, keyCount: 2}
		if err := w.Section(secMeta, -1, encodeMeta(meta)); err != nil {
			return err
		}
		for stripe := 0; stripe < 2; stripe++ {
			run := appendU64(nil, 1)
			run = appendBytes(run, []byte(fmt.Sprintf("key-%d", stripe)))
			run = appendU64(run, uint64(stripe))
			if err := w.Section(secRetiredARun, stripe, run); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(ART, WithSnapshotDir(dir), WithAdaptive(AdaptiveOptions{Shards: 2, Manual: true}))
	if !errors.Is(err, ErrSnapshotCorrupt) || st != nil {
		t.Fatalf("Open over a retired adaptive snapshot = %v, %v; want no store and ErrSnapshotCorrupt", st, err)
	}
}

// TestPersistSnapshotAfterClose: a closed Persistent refuses Snapshot
// with the store-wide ErrClosed.
func TestPersistSnapshotAfterClose(t *testing.T) {
	s := mustOpen(t, BTree, WithSnapshotDir(t.TempDir()))
	p := s.(*Persistent)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close: err = %v, want ErrClosed", err)
	}
}

// TestPersistRetain: Prune keeps the configured number of generations.
func TestPersistRetain(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, BTree, WithSnapshotDir(dir), WithSnapshotRetain(2))
	p := s.(*Persistent)
	defer p.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	d := snapshot.Dir{FS: snapshot.OS(), Path: dir}
	gens, err := d.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("generations on disk = %v, want [4 5]", gens)
	}
}

// TestPersistFallbackToPreviousGeneration: a torn newest generation (the
// crash-mid-write shape) silently falls back to the one before it.
func TestPersistFallbackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, BTree, WithShards(2), WithSnapshotDir(dir))
	p := s.(*Persistent)
	oracle := newPersistOracle()
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if err := s.Put(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		oracle.put(k, uint64(i))
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Generation 2 holds extra keys the oracle does not.
	if err := s.Put([]byte("only-in-gen-2"), 999); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	// Tear generation 2: drop its tail, as a crash mid-write would.
	gen2 := filepath.Join(dir, "snap-0000000000000002.hope")
	data, err := os.ReadFile(gen2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gen2, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, BTree, WithSnapshotDir(dir))
	rp := r.(*Persistent)
	defer rp.Close()
	if rp.Generation() != 1 {
		t.Fatalf("restored generation = %d, want fallback to 1", rp.Generation())
	}
	checkRestoredEquals(t, rp, oracle)
}

// TestPersistAllGenerationsBad: when every generation on disk is torn or
// corrupt, Open fails with the typed error — it never serves a partial or
// empty index over a directory that claims to hold one.
func TestPersistAllGenerationsBad(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, BTree, WithSnapshotDir(dir))
	if err := s.Put([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.(*Persistent).Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	gen1 := filepath.Join(dir, "snap-0000000000000001.hope")
	data, err := os.ReadFile(gen1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gen1, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(BTree, WithSnapshotDir(dir))
	if err == nil {
		t.Fatal("Open over an all-torn directory succeeded")
	}
	if !errors.Is(err, ErrSnapshotTorn) && !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotTorn or ErrSnapshotCorrupt", err)
	}
}

// crashPoints is the write-path half of the snapshot kill matrix — every
// checkpoint a commit crosses (PointOpen/PointRead only fire on restore
// and get their own test below).
var crashPoints = []string{
	snapshot.PointCreate, snapshot.PointWrite, snapshot.PointSync,
	snapshot.PointClose, snapshot.PointRename, snapshot.PointRemove,
	snapshot.PointDirSync,
}

// TestPersistCrashMatrix kills a snapshot commit at every filesystem
// checkpoint × several hit depths, then reopens from disk with a clean
// filesystem. The invariant under test is all-or-nothing durability: the
// restored store must equal exactly the pre-mutation image (generation 1
// survived) or exactly the post-mutation image (generation 2 landed
// despite the late fault) — never a partial blend, never an error, since
// a valid generation always exists on disk.
func TestPersistCrashMatrix(t *testing.T) {
	encs := testEncoders(t)
	corpus := adversarialCorpus()
	base, extra := corpus[:len(corpus)/2], corpus[len(corpus)/2:]
	for _, point := range crashPoints {
		for _, nth := range []int{1, 2, 40} {
			t.Run(fmt.Sprintf("%s/hit-%d", point, nth), func(t *testing.T) {
				dir := t.TempDir()
				var armed atomic.Bool
				var hits atomic.Int64
				inj := fault.Func(func(p string, shard int) error {
					if !armed.Load() || p != point {
						return nil
					}
					if hits.Add(1) == int64(nth) {
						return fmt.Errorf("injected crash at %s hit %d", p, nth)
					}
					return nil
				})
				s := mustOpen(t, BTree,
					WithEncoder(encs[core.DoubleChar].Clone()), WithShards(4),
					WithSnapshotDir(dir),
					WithSnapshotFS(snapshot.Faulty(snapshot.OS(), inj)))
				p := s.(*Persistent)

				oracle1 := newPersistOracle()
				for i, k := range base {
					if err := s.Put(k, uint64(i)); err != nil {
						t.Fatal(err)
					}
					oracle1.put(k, uint64(i))
				}
				if err := p.Snapshot(); err != nil {
					t.Fatalf("clean generation-1 snapshot: %v", err)
				}

				oracle2 := newPersistOracle()
				for _, k := range oracle1.keys {
					oracle2.put(k, oracle1.vals[string(k)])
				}
				for i, k := range extra {
					if err := s.Put(k, uint64(1000+i)); err != nil {
						t.Fatal(err)
					}
					oracle2.put(k, uint64(1000+i))
				}

				armed.Store(true)
				snapErr := p.Snapshot()
				armed.Store(false)
				fired := hits.Load() >= int64(nth)
				if fired && point != snapshot.PointRemove && snapErr == nil {
					t.Fatalf("fault fired at %s but Snapshot returned nil", point)
				}
				p.Close()

				r, err := Open(BTree, WithSnapshotDir(dir))
				if err != nil {
					t.Fatalf("reopen after crash at %s (snapshot err: %v): %v", point, snapErr, err)
				}
				rp := r.(*Persistent)
				defer rp.Close()
				switch rp.Generation() {
				case 1:
					checkRestoredEquals(t, rp, oracle1)
				case 2:
					checkRestoredEquals(t, rp, oracle2)
				default:
					t.Fatalf("restored generation %d, want 1 or 2", rp.Generation())
				}
			})
		}
	}
}

// TestPersistRestoreReadFaults fires the read-path checkpoints during
// Open: a restore that cannot read its file must fail cleanly (or fall
// back), never serve a partially loaded index.
func TestPersistRestoreReadFaults(t *testing.T) {
	for _, point := range []string{snapshot.PointOpen, snapshot.PointRead} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, BTree, WithSnapshotDir(dir))
			for i := 0; i < 10; i++ {
				if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.(*Persistent).Snapshot(); err != nil {
				t.Fatal(err)
			}
			s.Close()

			inj := fault.NewPlan(1, fault.Rule{Point: point, Shard: -1, Kind: fault.Error, Nth: 1})
			_, err := Open(BTree, WithSnapshotDir(dir),
				WithSnapshotFS(snapshot.Faulty(snapshot.OS(), inj)))
			if err == nil {
				t.Fatalf("Open with %s fault on the only generation succeeded", point)
			}
		})
	}
}

// TestPersistSnapshotUnderLoad snapshots an adaptive store while writers
// hammer it. The snapshot must commit and restore to a consistent image;
// exact contents are unknowable mid-stream, so after the writers join a
// final snapshot is taken and that one must match the live store exactly.
func TestPersistSnapshotUnderLoad(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, BTree,
		WithAdaptive(AdaptiveOptions{Shards: 4, Manual: true}),
		WithSnapshotDir(dir))
	p := s.(*Persistent)

	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-key-%04d", w, i))
				if err := s.Put(k, uint64(w*perWriter+i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i%7 == 0 {
					if _, err := s.Delete(k); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Mid-flight snapshots: each must commit a valid generation.
	for i := 0; i < 3; i++ {
		if err := p.Snapshot(); err != nil {
			t.Fatalf("snapshot under load: %v", err)
		}
	}
	wg.Wait()

	oracle := newPersistOracle()
	s.Scan(nil, nil, func(k []byte, v uint64) bool {
		oracle.put(k, v)
		return true
	})
	if err := p.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	p.Close()

	r := mustOpen(t, BTree,
		WithAdaptive(AdaptiveOptions{Manual: true}), WithSnapshotDir(dir))
	rp := r.(*Persistent)
	defer rp.Close()
	checkRestoredEquals(t, rp, oracle)
}
