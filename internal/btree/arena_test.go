package btree

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/datagen"
)

// The leaf is fixed-width slots plus two pointers: it must fit the 448-byte
// size class (424 bytes on 64-bit targets).
func TestLeafNodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(leafNode{}); sz > 448 {
		t.Fatalf("leafNode is %d bytes, want <= 448", sz)
	}
	if leafBytes > 448 {
		t.Fatalf("leaf size class %d, want <= 448", leafBytes)
	}
}

func sortedURLs(n int, seed int64) [][]byte {
	keys := datagen.Generate(datagen.URL, n, seed)
	slices.SortFunc(keys, bytes.Compare)
	return slices.CompactFunc(keys, bytes.Equal)
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// MemoryUsage models what the heap really holds for a tree, bulk-loaded
// or built by inserts in random order: nodes at their size class, arena
// capacities and separator bytes land within 10% of the measured heap
// growth.
func TestMemoryUsageMatchesHeap(t *testing.T) {
	keys := sortedURLs(50_000, 9)
	order := rand.New(rand.NewSource(3)).Perm(len(keys))
	for _, c := range []struct {
		name  string
		build func() *Tree
	}{
		{"bulk", func() *Tree { return BulkLoad(keys, nil) }},
		{"inserts", func() *Tree {
			tr := New()
			for _, i := range order {
				tr.Insert(keys[i], uint64(i))
			}
			return tr
		}},
	} {
		h0 := heapAlloc()
		tr := c.build()
		h1 := heapAlloc()
		model := tr.MemoryUsage()
		runtime.KeepAlive(tr)
		heap := float64(h1 - h0)
		if r := float64(model) / heap; r < 0.9 || r > 1.1 {
			t.Errorf("%s: modeled %d B, heap grew %.0f B (ratio %.3f), want within 10%%", c.name, model, heap, r)
		}
		s := tr.ComputeStats()
		t.Logf("%s, %d keys: modeled %.1f B/key, heap %.1f B/key (%d leaves, %d inners, %d key B, %d arena B, %d sep B)",
			c.name, len(keys), float64(model)/float64(len(keys)), heap/float64(len(keys)),
			s.Leaves, s.Inners, s.KeyBytes, s.ArenaBytes, s.SepBytes)
	}
	runtime.KeepAlive(keys)
	runtime.KeepAlive(order)
}

// Key slices handed out by Scan stay valid however the tree changes
// afterwards: arena bytes are written once, and growth, compaction,
// splits, borrows and merges all move keys into new arenas.
func TestScannedKeysSurviveChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	keys := randKeys(rng, 6000, 10)
	slices.SortFunc(keys, bytes.Compare)
	var loaded [][]byte
	for i := 0; i < len(keys); i += 2 {
		loaded = append(loaded, keys[i])
	}
	tr := BulkLoad(loaded, nil)
	var kept [][]byte
	var want []string
	keep := func() {
		tr.Scan(nil, func(k []byte, _ uint64) bool {
			kept = append(kept, k)
			want = append(want, string(k))
			return true
		})
	}
	keep()
	leaves0 := tr.ComputeStats().Leaves
	for i := 1; i < len(keys); i += 2 { // fill gaps, grow arenas, split
		tr.Insert(keys[i], uint64(i))
	}
	leaves1 := tr.ComputeStats().Leaves
	keep()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:len(keys)*7/8] { // shed, borrow, merge
		tr.Delete(k)
	}
	leaves2 := tr.ComputeStats().Leaves
	keep()
	for i, k := range keys[:len(keys)/2] { // grow again
		tr.Insert(k, uint64(i))
	}
	checkStructure(t, tr)
	if !(leaves1 > leaves0 && leaves2 < leaves1) {
		t.Fatalf("churn did not split and merge: leaves %d -> %d -> %d", leaves0, leaves1, leaves2)
	}
	for i, k := range kept {
		if string(k) != want[i] {
			t.Fatalf("kept key %d changed: %q, was %q", i, k, want[i])
		}
	}
}

// The empty key and keys far longer than 64 KiB round-trip through every
// operation: slot offsets and lengths are 32-bit.
func TestKeyLengthEdges(t *testing.T) {
	long := func(tail string) []byte {
		k := bytes.Repeat([]byte{'x'}, 70_000)
		return append(k, tail...)
	}
	keys := [][]byte{{}}
	for i := 0; i < 40; i++ {
		keys = append(keys, long(fmt.Sprintf("%03d", i)))
	}
	keys = append(keys, []byte("a"), []byte("y"))
	tr := New()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	checkStructure(t, tr)
	for i, k := range keys {
		if v, ok := tr.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(key %d, len %d) = (%d, %v)", i, len(k), v, ok)
		}
	}
	sorted := slices.Clone(keys)
	slices.SortFunc(sorted, bytes.Compare)
	j := 0
	tr.Scan(nil, func(k []byte, _ uint64) bool {
		if !bytes.Equal(k, sorted[j]) {
			t.Fatalf("scan %d: key of len %d, want len %d", j, len(k), len(sorted[j]))
		}
		j++
		return true
	})
	if j != len(keys) {
		t.Fatalf("scan saw %d of %d keys", j, len(keys))
	}
	if v, ok := tr.Get(long("")); ok {
		t.Fatalf("Get of an absent 70000-byte prefix = %d", v)
	}
	for i, k := range keys {
		if i%2 == 0 && !tr.Delete(k) {
			t.Fatalf("Delete(key %d, len %d) failed", i, len(k))
		}
	}
	checkStructure(t, tr)
	for i, k := range keys {
		if _, ok := tr.Get(k); ok != (i%2 == 1) {
			t.Fatalf("after deletes, Get(key %d) present=%v", i, ok)
		}
	}
	bl := BulkLoad(sorted, nil)
	checkStructure(t, bl)
	for i, k := range sorted {
		if v, ok := bl.Get(k); !ok || v != uint64(i) {
			t.Fatalf("bulk Get(key %d, len %d) = (%d, %v)", i, len(k), v, ok)
		}
	}
}

// BulkLoad allocates a leaf and its arena per leaf and a bounded number
// of objects per level — nothing per key.
func TestBulkLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	keys := sortedURLs(20_000, 3)
	tr := BulkLoad(keys, nil)
	leaves := tr.ComputeStats().Leaves
	limit := float64(2*leaves + 4*tr.Height())
	if a := testing.AllocsPerRun(3, func() { BulkLoad(keys, nil) }); a > limit {
		t.Fatalf("BulkLoad of %d keys: %.0f allocations, want <= %.0f (%d leaves, height %d)",
			len(keys), a, limit, leaves, tr.Height())
	}
}

// A true insert into a leaf whose arena has room appends in place.
func TestInsertIntoRoomyLeafNoAlloc(t *testing.T) {
	const runs = 200
	var loaded, extra [][]byte
	for i := 0; i < (runs+1)*bulkFill*2; i++ {
		k := []byte(fmt.Sprintf("k%05d", i))
		if i%(2*bulkFill) == 1 {
			extra = append(extra, k)
		} else if i%2 == 0 {
			loaded = append(loaded, k)
		}
	}
	tr := BulkLoad(loaded, nil)
	for _, k := range extra {
		l := leafFor(tr, k)
		if cap(l.arena)-len(l.arena) < len(k) {
			t.Fatalf("fixture: leaf for %q has no arena room (len %d cap %d)", k, len(l.arena), cap(l.arena))
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tr.Insert(extra[i], 1)
		i++
	})
	if allocs != 0 {
		t.Errorf("insert into a leaf with arena room allocates %.2f/op, want 0", allocs)
	}
	checkStructure(t, tr)
}

// leafFor returns the leaf key descends to.
func leafFor(tr *Tree, key []byte) *leafNode {
	n := tr.root
	for {
		in, ok := n.(*innerNode)
		if !ok {
			return n.(*leafNode)
		}
		n = in.child[in.upperBound(key)]
	}
}

// FuzzBTreeOps bulk-loads the keys the input names, then runs its insert,
// overwrite, delete, get and scan steps against a map model, checking the
// structural invariants (padding, probe words, pfx, separator bounds)
// after every step.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0x30, 0xff, 0x00, 0xff, 0x01, 0x02, 0xfe, 0x03, 0x04})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step re-checks the whole tree, so inputs stay short (cheap to
		// run and to minimize); a few hundred steps split, borrow and merge.
		if len(data) > 512 {
			t.Skip("input longer than 512 bytes")
		}
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		alpha := []byte{0x00, 'a', 'b', 'c', 0xff}
		key := func() []byte {
			n := next()
			if n >= 240 { // long, sharing a prefix past the 255-byte pfx cap
				k := bytes.Repeat([]byte{'q'}, 300)
				return append(k, alpha[next()%len(alpha)])
			}
			k := make([]byte, n%12)
			for i := range k {
				k[i] = alpha[next()%len(alpha)]
			}
			return k
		}
		model := map[string]uint64{}
		var bulk [][]byte
		for range next() % 64 {
			k := key()
			if _, ok := model[string(k)]; !ok {
				model[string(k)] = uint64(len(model))
				bulk = append(bulk, k)
			}
		}
		slices.SortFunc(bulk, bytes.Compare)
		vals := make([]uint64, len(bulk))
		for i, k := range bulk {
			vals[i] = model[string(k)]
		}
		tr := BulkLoad(bulk, vals)
		checkStructure(t, tr)
		existing := func() []byte { // a stored key the input picks, else a new one
			if len(model) == 0 {
				return key()
			}
			ks := slices.Sorted(maps.Keys(model))
			return []byte(ks[next()%len(ks)])
		}
		for step := uint64(1); pos < len(data); step++ {
			switch next() % 8 {
			case 0, 1, 2:
				k := key()
				tr.Insert(k, step)
				model[string(k)] = step
			case 3:
				k := existing()
				tr.Insert(k, step)
				model[string(k)] = step
			case 4, 5:
				k := key()
				if next()%2 == 0 {
					k = existing()
				}
				_, had := model[string(k)]
				delete(model, string(k))
				if tr.Delete(k) != had {
					t.Fatalf("step %d: Delete(%q) disagrees with the model", step, k)
				}
			case 6:
				k := key()
				v, ok := tr.Get(k)
				if mv, mok := model[string(k)]; ok != mok || v != mv {
					t.Fatalf("step %d: Get(%q) = (%d, %v), model (%d, %v)", step, k, v, ok, mv, mok)
				}
			case 7:
				start, limit := key(), 1+next()%20
				var want []string
				for k := range model {
					if k >= string(start) {
						want = append(want, k)
					}
				}
				slices.Sort(want)
				want = want[:min(limit, len(want))]
				var got []string
				tr.Scan(start, func(k []byte, v uint64) bool {
					if model[string(k)] != v {
						t.Fatalf("step %d: scan value of %q is %d, model %d", step, k, v, model[string(k)])
					}
					got = append(got, string(k))
					return len(got) < limit
				})
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: Scan(%q, %d) = %q, model %q", step, start, limit, got, want)
				}
			}
			if tr.Len() != len(model) {
				t.Fatalf("step %d: Len %d, model %d", step, tr.Len(), len(model))
			}
			checkStructure(t, tr)
		}
	})
}
