package hope

import (
	"testing"

	"repro/internal/core"
)

// TestPointOpScratchNotRetained locks the facade's most fragile contract:
// Index.Get and Index.Delete hand the backends a *reusable* scratch buffer
// (encodePoint's), so no backend may retain it — not in a node, not in a
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
	clobber := func(x *Index) {
		// The scratch lives in x.buf between point ops (same package:
		// reach in directly). Overwrite every byte of its capacity.
		b := x.buf[:cap(x.buf)]
		for i := range b {
			b[i] = 0xA5
		}
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
