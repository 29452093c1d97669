package art

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/datagen"
)

// Each layout fits the Go size class it was designed for: a leaf in 24 B,
// Node4 in 64, Node16 in 176, Node48 in 704 and Node256 in 2304.
func TestNodeSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the bounds are for 64-bit targets")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"header", unsafe.Sizeof(header{}), 24},
		{"leaf", unsafe.Sizeof(leaf{}), 24},
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

// A bulk-loaded tree over 50k emails holds at most 85 B of heap per key,
// and the builder allocates the leaf slab, the key arena and one block per
// inner node, nothing else. (BulkLoad's only other allocation is the Tree
// header, which a caller that keeps the tree pays for.)
func TestBulkLoadHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap growth and allocation counts differ under -race")
	}
	keys := datagen.Generate(datagen.Email, 50_000, 5)
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	vals := make([]uint64, len(keys))

	h0 := heapAlloc()
	tr := BulkLoad(IndexMode, keys, vals)
	perKey := float64(heapAlloc()-h0) / float64(len(keys))
	runtime.KeepAlive(tr)
	s := tr.ComputeStats()
	t.Logf("%d keys: %.1f B/key of heap (%d inner nodes, %.1f key B/key)",
		len(keys), perKey, s.TotalInnerNodes, float64(s.KeyBytes)/float64(len(keys)))
	if perKey > 85 {
		t.Errorf("BulkLoad holds %.1f B/key of heap, want <= 85", perKey)
	}

	limit := float64(2 + s.TotalInnerNodes)
	into := New(IndexMode)
	if a := testing.AllocsPerRun(3, func() { *into = Tree{}; into.bulkLoad(keys, vals) }); a > limit {
		t.Errorf("bulk build of %d keys: %.0f allocations, want <= %.0f (%d inner nodes)",
			len(keys), a, limit, s.TotalInnerNodes)
	}
}
