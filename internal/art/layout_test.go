package art

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/datagen"
)

// A leaf record's header is 16 bytes on every target, so its key starts
// 8-byte aligned right behind it. Each inner layout fits the Go size class
// it was designed for: Node4 in 64, Node16 in 176, Node48 in 704 and
// Node256 in 2304.
func TestNodeSizes(t *testing.T) {
	if leafHeader != 16 {
		t.Errorf("leaf header is %d B, want 16", leafHeader)
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the bounds are for 64-bit targets")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"header", unsafe.Sizeof(header{}), 24},
		{"node4", unsafe.Sizeof(node4{}), 64},
		{"node16", unsafe.Sizeof(node16{}), 176},
		{"node48", unsafe.Sizeof(node48{}), 704},
		{"node256", unsafe.Sizeof(node256{}), 2304},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d B, want <= %d", c.name, c.size, c.max)
		}
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func sortedEmails(n int) ([][]byte, []uint64) {
	keys := datagen.Generate(datagen.Email, n, 5)
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	return keys, make([]uint64, len(keys))
}

// A bulk-loaded tree over 50k emails holds at most 80 B of heap per key
// (76.5 measured), and the builder allocates the leaf arena and one block
// per inner node, nothing else. (BulkLoad's only other allocation is the
// Tree header, which a caller that keeps the tree pays for.)
func TestBulkLoadHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap growth and allocation counts differ under -race")
	}
	keys, vals := sortedEmails(50_000)

	h0 := heapAlloc()
	tr := BulkLoad(IndexMode, keys, vals)
	perKey := float64(heapAlloc()-h0) / float64(len(keys))
	runtime.KeepAlive(tr)
	s := tr.ComputeStats()
	t.Logf("%d keys: %.1f B/key of heap (%d inner nodes, %.1f key B/key)",
		len(keys), perKey, s.TotalInnerNodes, float64(s.KeyBytes)/float64(len(keys)))
	if perKey > 79.5 {
		t.Errorf("BulkLoad holds %.1f B/key of heap, want <= 79.5", perKey)
	}

	limit := float64(1 + s.TotalInnerNodes)
	into := New(IndexMode)
	if a := testing.AllocsPerRun(3, func() { *into = Tree{}; into.bulkLoad(keys, vals) }); a > limit {
		t.Errorf("bulk build of %d keys: %.0f allocations, want <= %.0f (%d inner nodes)",
			len(keys), a, limit, s.TotalInnerNodes)
	}
}

// A fresh key inserted into a node with room costs one allocation, its
// leaf record, and overwriting a key's value costs none.
func TestInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tr := New(IndexMode)
	for _, k := range []string{"alice@example.com", "bob@example.org", "carol@example.net"} {
		tr.Insert([]byte(k), 1)
	}
	fresh, old := []byte("dave@example.com"), []byte("bob@example.org")
	if a := testing.AllocsPerRun(100, func() { tr.Delete(fresh); tr.Insert(fresh, 2) }); a != 1 {
		t.Errorf("fresh key into a Node4 with room: %.1f allocations, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { tr.Insert(old, 3) }); a != 0 {
		t.Errorf("overwrite: %.1f allocations, want 0", a)
	}
}

// Stats.HeapBytes matches the heap a tree really holds, within 3%: built
// by Insert (one record per key), by BulkLoad (one arena), and by BulkLoad
// followed by inserts and deletes (both kinds of record).
func TestHeapBytesMatchesMemStats(t *testing.T) {
	if raceEnabled {
		t.Skip("heap growth differs under -race")
	}
	keys, vals := sortedEmails(50_000)
	more := datagen.Generate(datagen.Email, 20_000, 6)
	for _, c := range []struct {
		name  string
		build func() *Tree
	}{
		{"insert", func() *Tree {
			tr := New(IndexMode)
			for i, k := range keys {
				tr.Insert(k, vals[i])
			}
			return tr
		}},
		{"bulk", func() *Tree { return BulkLoad(DictMode, keys, vals) }},
		{"bulk+churn", func() *Tree {
			tr := BulkLoad(IndexMode, keys, vals)
			for i, k := range more {
				tr.Insert(k, 1)
				tr.Delete(keys[i])
			}
			return tr
		}},
	} {
		h0 := heapAlloc()
		tr := c.build()
		grew := float64(heapAlloc() - h0)
		got := float64(tr.ComputeStats().HeapBytes)
		runtime.KeepAlive(tr)
		t.Logf("%s: HeapBytes %.0f, heap growth %.0f (%.2f%%)", c.name, got, grew, 100*(got-grew)/grew)
		if d := (got - grew) / grew; d > 0.03 || d < -0.03 {
			t.Errorf("%s: HeapBytes %.0f vs heap growth %.0f, off by %.1f%%", c.name, got, grew, 100*d)
		}
	}
}

// A key the tree hands out has capacity equal to its length, so a
// caller's append copies it instead of writing over the next leaf record:
// in an insert-built tree and in a bulk arena, where records sit back to
// back, the empty key included.
func TestAppendToReturnedKeyKeepsNeighbours(t *testing.T) {
	want := [][]byte{{}, []byte("a"), []byte("ab"), []byte("abc"), []byte("abcdefgh"), []byte("b"), []byte("ba")}
	vals := make([]uint64, len(want))
	built := New(DictMode)
	for _, k := range want {
		built.Insert(k, 0)
	}
	for name, tr := range map[string]*Tree{"insert": built, "bulk": BulkLoad(DictMode, want, vals)} {
		scribble := func(k []byte) {
			if cap(k) != len(k) {
				t.Errorf("%s: key %q has capacity %d", name, k, cap(k))
			}
			_ = append(k, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
		}
		tr.Scan(nil, func(k []byte, _ uint64) bool { scribble(k); return true })
		k, _, _ := tr.Min()
		scribble(k)
		k, _, _ = tr.Max()
		scribble(k)
		for _, q := range want {
			k, _, _ := tr.Floor(q)
			scribble(k)
		}
		var got [][]byte
		tr.Scan(nil, func(k []byte, _ uint64) bool { got = append(got, k); return true })
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("%s: after appends the tree holds %q, want %q", name, got, want)
		}
		// Not a pointer one past its record, which the GC would read as a
		// pointer into the next heap object.
		if k, _, _ := tr.Min(); len(k) != 0 || unsafe.SliceData(k) != &emptyKey {
			t.Errorf("%s: empty key reads back as %#v, not from emptyKey", name, k)
		}
	}
}
