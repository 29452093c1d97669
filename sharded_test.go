package hope

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// openSharded opens a hash-partitioned ShardedIndex through Open.
func openSharded(t *testing.T, backend Backend, enc *core.Encoder, nShards int) *ShardedIndex {
	t.Helper()
	return mustOpen(t, backend, WithEncoder(enc), WithShards(nShards)).(*ShardedIndex)
}

// loadSharded builds a sharded index over the corpus with val i for key i.
func loadSharded(t *testing.T, backend Backend, enc *core.Encoder, nShards int, keys [][]byte) *ShardedIndex {
	t.Helper()
	s := openSharded(t, backend, enc, nShards)
	if err := s.Bulk(keys, nil); err != nil {
		t.Fatalf("%s: bulk: %v", backend, err)
	}
	return s
}

// shardedSchemes covers nil (uncompressed) plus every tested scheme; the
// acceptance bar is identity with a single Index on all of them.
func shardedSchemes(t *testing.T) []*core.Encoder {
	encs := testEncoders(t)
	out := []*core.Encoder{nil}
	for _, s := range testSchemes {
		out = append(out, encs[s])
	}
	return out
}

func schemeName(enc *core.Encoder) string {
	if enc == nil {
		return "Uncompressed"
	}
	return enc.Scheme().String()
}

// TestShardedScanDifferential is the tentpole's acceptance test: on every
// backend × scheme, ShardedIndex.Scan returns exactly the vals (hence
// byte-identical original keys, in the same order) a single hope.Index
// returns, across the adversarial corpus and bound sweep — proving the
// k-way shard merge reconstructs the global encoded order.
func TestShardedScanDifferential(t *testing.T) {
	keys := adversarialCorpus()
	bounds := scanBounds()
	for _, backend := range Backends {
		for _, enc := range shardedSchemes(t) {
			// The encoder template is shared between the reference Index
			// and the sharded one: clone for the single-writer reference.
			var refEnc *core.Encoder
			if enc != nil {
				refEnc = enc.Clone()
			}
			ref := loadIndex(t, backend, refEnc, keys)
			sharded := loadSharded(t, backend, enc, 8, keys)
			if ref.Len() != sharded.Len() {
				t.Fatalf("%s/%s: Index holds %d keys, ShardedIndex %d",
					backend, schemeName(enc), ref.Len(), sharded.Len())
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
				var got []uint64
				sharded.Scan(p[0], p[1], func(_ []byte, v uint64) bool {
					got = append(got, v)
					return true
				})
				if !equalU64(want, got) {
					t.Fatalf("%s/%s: Scan(%q, %q): Index %v != ShardedIndex %v",
						backend, schemeName(enc), p[0], p[1], want, got)
				}
			}
		}
	}
}

// TestShardedScanPrefixDifferential: merged prefix scans, the range scans
// of [prefix, successor), match the single-Index reference.
func TestShardedScanPrefixDifferential(t *testing.T) {
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
			sharded := loadSharded(t, backend, enc, 8, keys)
			for _, p := range prefixes {
				var want, got []uint64
				ref.ScanPrefix(p, func(_ []byte, v uint64) bool {
					want = append(want, v)
					return true
				})
				sharded.ScanPrefix(p, func(_ []byte, v uint64) bool {
					got = append(got, v)
					return true
				})
				if !equalU64(want, got) {
					t.Fatalf("%s/%s: ScanPrefix(%q): Index %v != ShardedIndex %v",
						backend, schemeName(enc), p, want, got)
				}
			}
		}
	}
}

// TestShardedEarlyStop: a callback returning false stops the merged scan
// after the same results as the single-Index scan, and the chunked shard
// cursors do not over-report the visit count.
func TestShardedEarlyStop(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	for _, backend := range Backends {
		ref := loadIndex(t, backend, encs[core.DoubleChar].Clone(), keys)
		sharded := loadSharded(t, backend, encs[core.DoubleChar], 8, keys)
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
			got, gotN := take(sharded.Scan)
			if !equalU64(want, got) || wantN != gotN {
				t.Fatalf("%s limit %d: Index %v (n=%d) != ShardedIndex %v (n=%d)",
					backend, limit, want, wantN, got, gotN)
			}
		}
	}
}

// TestShardedPointOpsDifferential drives the same Put/Get/Delete sequence
// through a ShardedIndex and a model map, mirroring the single-Index
// point-op differential.
func TestShardedPointOpsDifferential(t *testing.T) {
	keys := adversarialCorpus()
	probes := append(append([][]byte{}, keys...),
		[]byte("absent"), []byte("apples"), []byte("a\xffa"), []byte("zzzzz"), []byte{0x02})
	for _, backend := range Backends {
		for _, enc := range shardedSchemes(t) {
			if backend == SuRF {
				s := loadSharded(t, backend, enc, 4, keys)
				if err := s.Put([]byte("k"), 1); err != ErrImmutableBackend {
					t.Fatalf("SuRF Put: got %v, want ErrImmutableBackend", err)
				}
				if _, err := s.Delete(keys[1]); err != ErrImmutableBackend {
					t.Fatalf("SuRF Delete: got %v, want ErrImmutableBackend", err)
				}
				for i, k := range keys {
					if v, ok := s.Get(k); !ok || v != uint64(i) {
						t.Fatalf("SuRF/%s: Get(%q) = %d,%v want %d,true",
							schemeName(enc), k, v, ok, i)
					}
				}
				continue
			}
			s := openSharded(t, backend, enc, 8)
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

// TestShardedBasics covers construction plumbing: shard-count rounding,
// unknown backends, vals validation, memory accounting (dictionary counted
// once, not per shard).
func TestShardedBasics(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	if _, err := Open(Backend("T-tree"), WithShards(4)); err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, in := range []int{0, 1, 3, 4, 5, 8, 100} {
		s := openSharded(t, BTree, nil, in)
		n := s.NumShards()
		if n&(n-1) != 0 || (in > 0 && n < in) {
			t.Fatalf("NumShards(%d) = %d: not a covering power of two", in, n)
		}
	}
	s := openSharded(t, BTree, encs[core.DoubleChar], 8)
	if err := s.Bulk(keys, make([]uint64, 1)); err == nil {
		t.Fatal("mismatched vals length accepted")
	}
	if err := s.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	if s.Backend() != BTree || s.Encoder() == nil {
		t.Fatal("accessors broken")
	}
	// The dictionary must be counted once: total minus trees equals the
	// template encoder's footprint exactly.
	if got, want := s.MemoryUsage()-s.TreeMemoryUsage(), s.Encoder().MemoryUsage(); got != want {
		t.Fatalf("dictionary accounted %d bytes, want %d (shared once)", got, want)
	}
	// Explicit vals round-trip.
	s2 := openSharded(t, ART, nil, 4)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i * 3)
	}
	if err := s2.Bulk(keys, vals); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok := s2.Get(k); !ok || v != uint64(i*3) {
			t.Fatalf("Get(%q) = %d,%v want %d,true", k, v, ok, i*3)
		}
	}
}

// TestShardedGetZeroAlloc is the acceptance criterion's allocation bar:
// steady-state Get performs zero allocations per op — the encode runs
// through pooled scratch and the probe under a read lock.
func TestShardedGetZeroAlloc(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	for _, enc := range []*core.Encoder{nil, encs[core.SingleChar], encs[core.DoubleChar]} {
		s := loadSharded(t, ART, enc, 8, keys)
		// Warm the scratch and appender pools.
		for _, k := range keys {
			s.Get(k)
		}
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			s.Get(keys[i%len(keys)])
			i++
		})
		// A GC during the run can empty the pools and cost a refill; with
		// 2000 runs that amortizes far below one — anything at or above 1
		// alloc/op means the steady state allocates.
		if allocs >= 0.5 {
			t.Fatalf("%s: ShardedIndex.Get allocates %.2f/op in steady state, want 0",
				schemeName(enc), allocs)
		}
	}
}

// TestShardedIndexStress hammers one ShardedIndex with mixed Put/Get/
// Delete/Scan/ScanPrefix from 8 goroutines — the race-detector leg of the
// concurrency model. Each goroutine owns a private key namespace it
// verifies exactly, while shared bulk-loaded keys serve read and scan
// traffic from all goroutines at once.
func TestShardedIndexStress(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 400
	)
	base := adversarialCorpus()
	encs := testEncoders(t)
	for _, backend := range []Backend{ART, BTree} {
		s := loadSharded(t, backend, encs[core.SingleChar], 16, base)
		var inFlight atomic.Int64
		var wg sync.WaitGroup
		errc := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				mine := map[string]uint64{}
				for i := 0; i < opsPerG; i++ {
					switch rng.Intn(10) {
					case 0, 1, 2: // insert/overwrite an owned key
						k := fmt.Sprintf("com.stress@g%d-%d", g, rng.Intn(50))
						v := uint64(rng.Intn(1 << 20))
						if err := s.Put([]byte(k), v); err != nil {
							errc <- err
							return
						}
						mine[k] = v
						inFlight.Add(1)
					case 3: // delete an owned key
						k := fmt.Sprintf("com.stress@g%d-%d", g, rng.Intn(50))
						_, present := mine[k]
						ok, err := s.Delete([]byte(k))
						if err != nil {
							errc <- err
							return
						}
						if ok != present {
							errc <- fmt.Errorf("g%d: Delete(%s) = %v want %v", g, k, ok, present)
							return
						}
						delete(mine, k)
					case 4, 5, 6: // verify an owned or shared key
						if len(mine) > 0 && rng.Intn(2) == 0 {
							for k, want := range mine {
								got, ok := s.Get([]byte(k))
								if !ok || got != want {
									errc <- fmt.Errorf("g%d: Get(%s) = %d,%v want %d,true", g, k, got, ok, want)
									return
								}
								break
							}
						} else {
							k := base[rng.Intn(len(base))]
							s.Get(k)
						}
					case 7, 8: // bounded range scan
						n := 0
						s.Scan([]byte("com."), nil, func(_ []byte, _ uint64) bool {
							n++
							return n < 20
						})
					default: // prefix scan over the contended namespace
						n := 0
						s.ScanPrefix([]byte("com.stress@"), func(_ []byte, _ uint64) bool {
							n++
							return n < 20
						})
					}
				}
				errc <- nil
			}(g)
		}
		wg.Wait()
		for g := 0; g < goroutines; g++ {
			if err := <-errc; err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
		}
		if s.Len() < len(base) {
			t.Fatalf("%s: shared keys lost: Len = %d < %d", backend, s.Len(), len(base))
		}
	}
}

// TestShardedScanSeesConcurrentConsistency: a merged scan under concurrent
// writers must still return every key that was present for the whole scan,
// in order, without duplicates — the per-shard consistency contract.
func TestShardedScanSeesConcurrentConsistency(t *testing.T) {
	base := adversarialCorpus()
	encs := testEncoders(t)
	s := loadSharded(t, BTree, encs[core.DoubleChar], 8, base)
	stop := make(chan struct{})
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
			k := []byte(fmt.Sprintf("net.churn@%d", rng.Intn(100)))
			if i%3 == 0 {
				s.Delete(k)
			} else {
				// Offset churn vals above the stable val space so the scan
				// check can tell the populations apart.
				s.Put(k, uint64(i)+(1<<32))
			}
		}
	}()
	stable := map[uint64]bool{}
	for i := range base {
		stable[uint64(i)] = true
	}
	for iter := 0; iter < 30; iter++ {
		seen := map[uint64]int{}
		var last []byte
		s.Scan(nil, nil, func(k []byte, v uint64) bool {
			if last != nil && bytes.Compare(last, k) > 0 {
				t.Errorf("scan out of order")
				return false
			}
			last = append(last[:0], k...)
			seen[v]++
			return true
		})
		for v := range stable {
			if seen[v] != 1 {
				t.Fatalf("iter %d: stable val %d seen %d times", iter, v, seen[v])
			}
		}
	}
	close(stop)
	wg.Wait()
}
