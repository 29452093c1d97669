package hope

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// hashScanStores opens the hash-merged shapes the scan benchmarks run: a
// compressed ShardedIndex on ART and on the B+tree, and an AdaptiveIndex
// on ART, each with 2 hash shards and keys[i] stored with val i.
func hashScanStores(t *testing.T, keys [][]byte) map[string]Store {
	t.Helper()
	encs := testEncoders(t)
	stores := map[string]Store{
		"ART/ShardedIndex":   mustOpen(t, ART, WithEncoder(encs[core.ThreeGrams]), WithShards(2)),
		"BTree/ShardedIndex": mustOpen(t, BTree, WithEncoder(encs[core.DoubleChar]), WithShards(2)),
	}
	opts := manualOpts(core.ThreeGrams, encs[core.ThreeGrams].Clone())
	opts.Shards = 2
	stores["ART/AdaptiveIndex"] = openAdaptive(t, ART, opts)
	for name, st := range stores {
		if err := st.Bulk(keys, nil); err != nil {
			t.Fatalf("%s: bulk: %v", name, err)
		}
	}
	return stores
}

// TestHashScanZeroAlloc pins the merge path's allocation bar: once the
// pools are warm, a compressed scan over hash shards — bounds encoded
// into pooled buffers, cursors and heap from the pooled scan state —
// allocates nothing, and neither does an AdaptiveIndex scan, which runs
// the same merge and decodes into a pooled buffer.
func TestHashScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; zero-alloc steady state not reachable")
	}
	keys := datagen.Generate(datagen.Email, 4000, 3)
	for name, st := range hashScanStores(t, keys) {
		if sx, ok := st.(*ShardedIndex); ok && sx.part.Ordered() {
			t.Fatalf("%s: want a hash partition", name)
		}
		n, i := 0, 0
		fn := func([]byte, uint64) bool { n++; return n < 50 }
		run := func() {
			n = 0
			st.Scan(keys[i%64], nil, fn)
			i++
		}
		for j := 0; j < 128; j++ {
			run() // warm the pools over every start key
		}
		if allocs := testing.AllocsPerRun(2000, run); allocs >= 0.5 {
			t.Errorf("%s: hash-merged Scan allocates %.2f/op in steady state, want 0", name, allocs)
		}
	}
}

// TestHashScanPoolSafety checks that pooled merge state is never shared
// by two live scans and survives a panicking callback: a callback may
// start a nested Scan on the same store without disturbing the outer
// scan's key bytes, scans after a recovered panic still match the sorted
// model, and early stops at every limit from 1 to 130 — crossing every
// chunk refill of both cursors — return exactly the model's prefix.
func TestHashScanPoolSafety(t *testing.T) {
	keys := dedupe(datagen.Generate(datagen.Email, 3000, 5))
	encs := testEncoders(t)
	requireUniqueEncodings(t, encs[core.ThreeGrams], keys)
	requireUniqueEncodings(t, encs[core.DoubleChar], keys)
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return bytes.Compare(keys[order[a]], keys[order[b]]) < 0 })
	// model returns the vals of the first limit keys >= lo in key order.
	model := func(lo []byte, limit int) []uint64 {
		i := sort.Search(len(order), func(i int) bool { return bytes.Compare(keys[order[i]], lo) >= 0 })
		var out []uint64
		for ; i < len(order) && len(out) < limit; i++ {
			out = append(out, uint64(order[i]))
		}
		return out
	}
	take := func(st Store, lo []byte, limit int) []uint64 {
		var out []uint64
		st.Scan(lo, nil, func(_ []byte, v uint64) bool {
			out = append(out, v)
			return len(out) < limit
		})
		return out
	}
	// The 60th key from the end lets limits above 60 exhaust the shards
	// mid-merge, returning their cursors early.
	starts := [][]byte{nil, keys[0], keys[len(keys)/2], []byte("m"), keys[order[len(order)-60]], []byte("zzz")}
	for name, st := range hashScanStores(t, keys) {
		check := func(label string, lo []byte, limit int) {
			t.Helper()
			if got, want := take(st, lo, limit), model(lo, limit); !equalU64(got, want) {
				t.Fatalf("%s %s: scan from %q limit %d = %v, want %v", name, label, lo, limit, got, want)
			}
		}
		for _, lo := range starts {
			for limit := 1; limit <= 130; limit++ {
				check("early stop", lo, limit)
			}
		}

		// Nested scans: every outer callback runs an inner scan; the outer
		// key must be intact afterwards and the outer scan must still match.
		nested := func(label string) {
			t.Helper()
			var outer []uint64
			st.Scan(keys[7], nil, func(k []byte, v uint64) bool {
				before := string(k)
				check(fmt.Sprintf("%s: nested in val %d", label, v), keys[v], 20)
				if string(k) != before {
					t.Fatalf("%s %s: nested scan overwrote the outer key %q with %q", name, label, before, k)
				}
				outer = append(outer, v)
				return len(outer) < 100
			})
			if want := model(keys[7], 100); !equalU64(outer, want) {
				t.Fatalf("%s %s: outer scan around nested scans = %v, want %v", name, label, outer, want)
			}
		}
		nested("before any panic")

		// A panicking callback, recovered here, must leave every pool
		// usable: later scans, nested ones included, still match.
		for _, after := range []int{1, 9, 40} {
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("%s: recovered %v, want the callback's panic", name, r)
					}
				}()
				n := 0
				st.Scan(nil, nil, func([]byte, uint64) bool {
					if n++; n == after {
						panic("boom")
					}
					return true
				})
			}()
			label := fmt.Sprintf("after panic at %d", after)
			for _, lo := range starts {
				check(label, lo, 130)
			}
			nested(label)
		}
	}
}
