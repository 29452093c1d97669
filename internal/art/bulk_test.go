package art

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/treetest"
)

var modes = []Mode{IndexMode, DictMode}

// sortedUnique returns the distinct keys ascending, with values that tell
// positions apart.
func sortedUnique(keys [][]byte) ([][]byte, []uint64) {
	keys = slices.Clone(keys)
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)*7 + 3
	}
	return keys, vals
}

// checkBulkMatchesInsert asserts that BulkLoad over ascending keys builds
// exactly the tree an ascending Insert loop builds.
func checkBulkMatchesInsert(t *testing.T, mode Mode, keys [][]byte, vals []uint64) *Tree {
	t.Helper()
	want := New(mode)
	for i, k := range keys {
		want.Insert(k, vals[i])
	}
	got := BulkLoad(mode, keys, vals)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mode %v: BulkLoad of %d keys differs from the insert-built tree\nbulk:   %+v\ninsert: %+v",
			mode, len(keys), got.ComputeStats(), want.ComputeStats())
	}
	return got
}

// TestBulkLoadMatchesInsertLoop compares the builder with the insert loop
// on random key sets: small and large alphabets, short and long keys, and
// shared prefixes longer than IndexMode's 8-byte cap.
func TestBulkLoadMatchesInsertLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 150; round++ {
		alphabet := []int{2, 4, 26, 256}[rng.Intn(4)]
		shared := bytes.Repeat([]byte{'s'}, rng.Intn(20))
		raw := make([][]byte, rng.Intn(600))
		for i := range raw {
			raw[i] = append(slices.Clip(shared), randKey(rng, 1+rng.Intn(24), alphabet)...)
		}
		keys, vals := sortedUnique(raw)
		for _, mode := range modes {
			checkBulkMatchesInsert(t, mode, keys, vals)
		}
	}
}

// TestBulkLoadShapes covers the edge cases one at a time: empty and
// single-key runs, prefix keys that become value leaves, compressed paths
// beyond the IndexMode cap, and fanouts on both sides of every layout
// boundary.
func TestBulkLoadShapes(t *testing.T) {
	q := func(n int, tail string) []byte { return append(bytes.Repeat([]byte{'q'}, n), tail...) }
	cases := map[string][][]byte{
		"empty":        nil,
		"one key":      {[]byte("solo")},
		"empty key":    {{}},
		"prefix keys":  {{}, []byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"), []byte("abd"), []byte("b")},
		"prefix chain": {[]byte("x"), []byte("xy"), []byte("xyz")},
		"long paths":   {q(12, ""), q(20, "x"), q(40, "a"), q(40, "b"), q(40, "ba")},
	}
	for _, fanout := range []int{4, 5, 16, 17, 48, 49, 256} {
		var keys [][]byte
		for i := 0; i < fanout; i++ {
			keys = append(keys, []byte{'p', 'x', byte(i * 256 / fanout), 'z'})
		}
		cases[fmt.Sprintf("fanout %d", fanout)] = keys
		cases[fmt.Sprintf("fanout %d with value leaf", fanout)] = append([][]byte{[]byte("px")}, keys...)
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			keys, vals := sortedUnique(raw)
			for _, mode := range modes {
				tr := checkBulkMatchesInsert(t, mode, keys, vals)
				if tr.Len() != len(keys) {
					t.Fatalf("mode %v: Len = %d, want %d", mode, tr.Len(), len(keys))
				}
				for i, k := range keys {
					if v, ok := tr.Get(k); !ok || v != vals[i] {
						t.Fatalf("mode %v: Get(%q) = %d,%v, want %d", mode, k, v, ok, vals[i])
					}
				}
			}
		})
	}
}

// TestBulkLoadThenChurnMatchesModel drives a bulk-built tree through
// ascending, descending and random inserts, then random churn, against a
// map model, with the node invariants checked throughout.
func TestBulkLoadThenChurnMatchesModel(t *testing.T) {
	for _, mode := range modes {
		for seed := int64(1); seed <= 2; seed++ {
			treetest.ChurnAfterBulk(t, seed,
				func(keys [][]byte, vals []uint64) treetest.Tree { return BulkLoad(mode, keys, vals) },
				func(tr treetest.Tree) { checkNodes(t, mode, tr.(*Tree).root) })
		}
	}
}

// checkNodes asserts that every inner node under n fits its layout, keeps
// its edges ordered and indexed, stores at most the IndexMode prefix cap,
// and holds at least two entries (children plus value leaf).
func checkNodes(t *testing.T, mode Mode, n node) {
	t.Helper()
	if n == nil {
		return
	}
	if _, ok := n.(*leaf); ok {
		return
	}
	h := hdr(n)
	if mode == IndexMode && len(h.prefix) > maxStoredPrefix {
		t.Fatalf("stored prefix of %d bytes over the %d-byte cap", len(h.prefix), maxStoredPrefix)
	}
	if len(h.prefix) > h.prefixLen || (mode == DictMode && len(h.prefix) != h.prefixLen) {
		t.Fatalf("stored prefix of %d bytes for a path of %d", len(h.prefix), h.prefixLen)
	}
	entries := h.numChildren
	if h.valueLeaf != nil {
		entries++
	}
	if entries < 2 {
		t.Fatalf("inner node with %d entries", entries)
	}
	var edges []byte
	capacity := 0
	switch v := n.(type) {
	case *node4:
		edges, capacity = v.keys[:min(v.numChildren, 4)], 4
	case *node16:
		edges, capacity = v.keys[:min(v.numChildren, 16)], 16
	case *node48:
		capacity = 48
		for b := 0; b < 256; b++ {
			if s := v.index[b]; s != 0 {
				if int(s) > v.numChildren || v.child[s-1] == nil {
					t.Fatalf("node48 edge %#x points at slot %d of %d", b, s-1, v.numChildren)
				}
				edges = append(edges, byte(b))
			}
		}
	case *node256:
		capacity = 256
		for b := 0; b < 256; b++ {
			if v.child[b] != nil {
				edges = append(edges, byte(b))
			}
		}
	}
	if h.numChildren > capacity || len(edges) != h.numChildren {
		t.Fatalf("%T: %d children, %d edges, capacity %d", n, h.numChildren, len(edges), capacity)
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1] >= edges[i] {
			t.Fatalf("%T: edges out of order: %v", n, edges)
		}
	}
	eachChild(n, func(_ byte, ch node) bool {
		checkNodes(t, mode, ch)
		return true
	})
}

// FuzzARTBulkLoad: for any key set, BulkLoad builds the tree an ascending
// insert loop builds, in both modes. The input is split into keys at each
// 0x00 byte, so keys may be empty, repeat, or prefix one another.
func FuzzARTBulkLoad(f *testing.F) {
	f.Add([]byte("a\x00ab\x00abc\x00b"))
	f.Add([]byte("qqqqqqqqqqqqa\x00qqqqqqqqqqqqb\x00qqqqx"))
	f.Add([]byte("\x00\x00x\x01\x00x\x02\x00x\x03\x00x\x04\x00x\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, vals := sortedUnique(bytes.Split(data, []byte{0}))
		for _, mode := range modes {
			checkBulkMatchesInsert(t, mode, keys, vals)
		}
	})
}
