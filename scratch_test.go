package hope

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/datagen"
)

// TestPointOpScratchNotRetained locks the facade's most fragile contract:
// Get and Delete hand the backends a *reusable* scratch buffer (the
// pooled opScratch), so no backend may retain it — not in a node, not in a
// rebuilt prefix, not in a separator. The test drives Get/Delete across
// every backend × scheme and violently clobbers the scratch buffer after
// every single call; if any backend aliased the buffer into its structure,
// the subsequent full verification against the model map (and a full scan)
// fails.
//
// The audit backing this test: ART rebuilds collapsed prefixes from stored
// node/leaf bytes (art.actualPrefix + setPrefix copies), HOT rebuilds
// mini-tries from stored leaves, B+tree deletion moves only stored keys,
// the prefix B+tree re-derives separators via fullKey/shortestSep from
// stored suffixes, and SuRF's run is immutable — none touch the probe
// buffer beyond the call. This test keeps that true as the trees evolve.
func TestPointOpScratchNotRetained(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	clobber := func(x *ShardedIndex) {
		// The scratch returns to x.scratch between point ops (same
		// package: take it from the pool directly). Overwrite every byte
		// of its capacity.
		sc := x.scratch.Get().(*opScratch)
		b := sc.buf[:cap(sc.buf)]
		for i := range b {
			b[i] = 0xA5
		}
		x.scratch.Put(sc)
	}
	for _, backend := range Backends {
		for _, scheme := range testSchemes {
			enc := encs[scheme]
			x := loadIndex(t, backend, enc.Clone(), keys)
			model := map[string]uint64{}
			for i, k := range keys {
				model[string(k)] = uint64(i)
			}
			// Interleave Gets (all backends) and Deletes (mutable ones)
			// with scratch clobbering after every call.
			mutable := backend != SuRF
			for i, k := range keys {
				if _, ok := x.Get(k); !ok {
					t.Fatalf("%s/%v: Get(%q) lost before clobbering", backend, scheme, k)
				}
				clobber(x)
				if mutable && i%3 == 0 {
					ok, err := x.Delete(k)
					if err != nil || !ok {
						t.Fatalf("%s/%v: Delete(%q) = %v, %v", backend, scheme, k, ok, err)
					}
					delete(model, string(k))
					clobber(x)
				}
			}
			// Full verification: every surviving key must still be intact
			// and every deleted key absent.
			for _, k := range keys {
				wantV, wantOK := model[string(k)]
				gotV, gotOK := x.Get(k)
				clobber(x)
				if gotOK != wantOK || (wantOK && gotV != wantV) {
					t.Fatalf("%s/%v: Get(%q) = %d,%v want %d,%v — backend retained the scratch buffer?",
						backend, scheme, k, gotV, gotOK, wantV, wantOK)
				}
			}
			// And the stored keys themselves must be uncorrupted: a full
			// scan returns exactly the model's vals.
			got := map[uint64]bool{}
			n := x.Scan(nil, nil, func(_ []byte, v uint64) bool {
				got[v] = true
				return true
			})
			if n != len(model) || len(got) != len(model) {
				t.Fatalf("%s/%v: scan found %d keys (%d distinct vals), want %d",
					backend, scheme, n, len(got), len(model))
			}
			for _, v := range model {
				if !got[v] {
					t.Fatalf("%s/%v: val %d missing from scan after clobbering", backend, scheme, v)
				}
			}
		}
	}
}

// TestShardedScratchNotRetained extends the contract to the pooled
// read-path scratch of ShardedIndex: a Get's encode buffer returns to the
// pool and is immediately reused (and rewritten) by the next operation, so
// retention by a backend would corrupt lookups under interleaving. The
// single-threaded interleave below reuses the same pooled buffer for
// every op, which is the tightest aliasing pressure the pool can produce.
func TestShardedScratchNotRetained(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	for _, backend := range []Backend{ART, HOT, BTree, PrefixBTree} {
		s := openSharded(t, backend, encs[core.ThreeGrams], 4)
		model := map[string]uint64{}
		for i, k := range keys {
			if err := s.Put(k, uint64(i)); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = uint64(i)
			// Reuse the pooled scratch immediately with a different key:
			// if Put's tree retained a probe buffer, this would smash it.
			s.Get(keys[(i*7)%len(keys)])
		}
		for i, k := range keys {
			if i%4 == 0 {
				if _, err := s.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, string(k))
				s.Get(keys[(i*5)%len(keys)])
			}
		}
		for _, k := range keys {
			wantV, wantOK := model[string(k)]
			gotV, gotOK := s.Get(k)
			if gotOK != wantOK || (wantOK && gotV != wantV) {
				t.Fatalf("%s: Get(%q) = %d,%v want %d,%v", backend, k, gotV, gotOK, wantV, wantOK)
			}
		}
	}
}

// TestBulkKeysNotRetained: Bulk hands an uncompressed store's backends
// the caller's own key slices, and a compressed store's the bulk
// workers' encode buffers, so every backend's bulk path must copy the
// bytes it keeps. Each store is bulk-loaded from keys carved out of one
// buffer, the buffer is clobbered, and every key must still return its
// value and appear in a full scan.
func TestBulkKeysNotRetained(t *testing.T) {
	corpus := adversarialCorpus()
	for _, backend := range Backends {
		for _, enc := range []*core.Encoder{nil, testEncoders(t)[core.ThreeGrams]} {
			for _, shards := range []int{1, 4} {
				name := fmt.Sprintf("%s/encoded=%v/shards=%d", backend, enc != nil, shards)
				var opts []Option
				if enc != nil {
					opts = append(opts, WithEncoder(enc.Clone()))
				}
				if shards > 1 {
					opts = append(opts, WithShards(shards))
				}
				s := mustOpen(t, backend, opts...)
				buf := make([]byte, 0, totalLen(corpus))
				keys := make([][]byte, len(corpus))
				for i, k := range corpus {
					buf = append(buf, k...)
					keys[i] = buf[len(buf)-len(k):]
				}
				if err := s.Bulk(keys, nil); err != nil {
					t.Fatal(err)
				}
				for i := range buf {
					buf[i] = 0xA5
				}
				for i, k := range corpus {
					if v, ok := s.Get(k); !ok || v != uint64(i) {
						t.Fatalf("%s: Get(%q) = %d,%v after the input was clobbered, want %d,true", name, k, v, ok, i)
					}
				}
				if n := s.Scan(nil, nil, func([]byte, uint64) bool { return true }); n != len(corpus) {
					t.Fatalf("%s: full scan visited %d keys, want %d", name, n, len(corpus))
				}
			}
		}
	}
}

// TestSuRFShardOwnsItsKeys: a SuRF shard retains its sorted run, and the
// run's key bytes must be the shard's own — back to back in one arena, in
// key order — not slices of a bulk worker's encode buffer that also holds
// other shards' keys, or of the caller's keys, which would keep those
// buffers alive as long as the shard.
func TestSuRFShardOwnsItsKeys(t *testing.T) {
	keys := datagen.Generate(datagen.Email, 5000, 4)
	for _, enc := range []*core.Encoder{nil, testEncoders(t)[core.ThreeGrams]} {
		s := mustOpen(t, SuRF, WithEncoder(enc), WithShards(4)).(*ShardedIndex)
		if err := s.Bulk(keys, nil); err != nil {
			t.Fatal(err)
		}
		for w, sh := range s.shards {
			run := sh.be.(*surfBackend).keys
			if len(run) == 0 {
				t.Fatalf("encoded=%v: shard %d holds no keys", enc != nil, w)
			}
			base := unsafe.SliceData(run[0])
			off := 0
			for i, k := range run {
				if len(k) > 0 && unsafe.SliceData(k) != (*byte)(unsafe.Add(unsafe.Pointer(base), off)) {
					t.Fatalf("encoded=%v: shard %d key %d does not follow key %d in one arena", enc != nil, w, i, i-1)
				}
				off += len(k)
			}
		}
	}
}
