package art

import (
	"bytes"
	"fmt"
	"math/rand"
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
	if err := sameTree(got, want); err != nil {
		t.Fatalf("mode %v: BulkLoad of %d keys differs from the insert-built tree: %v\nbulk:   %+v\ninsert: %+v",
			mode, len(keys), err, got.ComputeStats(), want.ComputeStats())
	}
	return got
}

// sameTree reports the first difference between two trees: their mode and
// size, then node by node the kind, child count, path length, inline path
// bytes, value leaf, edge bytes and child slots in slot order (a Node48's
// whole index, a Node256's empty slots), and every leaf's key and value.
// Node and leaf addresses are not compared.
func sameTree(a, b *Tree) error {
	if a.mode != b.mode || a.size != b.size {
		return fmt.Errorf("mode/size %v/%d vs %v/%d", a.mode, a.size, b.mode, b.size)
	}
	return sameNode(a.root, b.root, "root")
}

func sameNode(a, b node, at string) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("%s: one slot is empty", at)
		}
		return nil
	}
	if kindOf(a) != kindOf(b) {
		return fmt.Errorf("%s: kind %d vs %d", at, kindOf(a), kindOf(b))
	}
	if la := asLeaf(a); la != nil {
		return sameLeaf(la, asLeaf(b), at)
	}
	ha, hb := hdr(a), hdr(b)
	switch {
	case ha.numChildren != hb.numChildren:
		return fmt.Errorf("%s: %d vs %d children", at, ha.numChildren, hb.numChildren)
	case ha.prefixLen != hb.prefixLen || ha.prefix != hb.prefix:
		return fmt.Errorf("%s: path %d %q vs %d %q", at, ha.prefixLen, ha.prefix, hb.prefixLen, hb.prefix)
	case (ha.valueLeaf == nil) != (hb.valueLeaf == nil):
		return fmt.Errorf("%s: one node has a value leaf", at)
	}
	if ha.valueLeaf != nil {
		if err := sameLeaf(ha.valueLeaf, hb.valueLeaf, at+" value leaf"); err != nil {
			return err
		}
	}
	ea, ca := slots(a)
	eb, cb := slots(b)
	if !bytes.Equal(ea, eb) {
		return fmt.Errorf("%s: edges %v vs %v", at, ea, eb)
	}
	for i := range ca {
		if err := sameNode(ca[i], cb[i], fmt.Sprintf("%s/slot %d", at, i)); err != nil {
			return err
		}
	}
	return nil
}

func sameLeaf(a, b *leaf, at string) error {
	if !bytes.Equal(a.key(), b.key()) || a.val != b.val {
		return fmt.Errorf("%s: leaf %q=%d vs %q=%d", at, a.key(), a.val, b.key(), b.val)
	}
	return nil
}

// slots returns an inner node's raw edge array (a Node48's index, nil for
// a Node256) and its whole child array, empty slots included.
func slots(n node) ([]byte, []node) {
	switch kindOf(n) {
	case kindNode4:
		v := (*node4)(n)
		return v.keys[:], v.child[:]
	case kindNode16:
		v := (*node16)(n)
		return v.keys[:], v.child[:]
	case kindNode48:
		v := (*node48)(n)
		return v.index[:], v.child[:]
	case kindNode256:
		return nil, (*node256)(n).child[:]
	}
	return nil, nil
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
				func(tr treetest.Tree) { checkNodes(t, tr.(*Tree)) })
		}
	}
}

// checkNodes asserts that every inner node fits its layout, keeps its
// edges ordered and indexed, and holds at least two entries (children plus
// value leaf); that its inline path bytes are the first bytes of the true
// path, zero-padded; that every leaf's key extends the path that leads to
// it (a value leaf's equals it); and that the tree holds Len leaves.
func checkNodes(t *testing.T, tr *Tree) {
	t.Helper()
	leaves := 0
	var walk func(n node, path []byte)
	walk = func(n node, path []byte) {
		if n == nil {
			return
		}
		if l := asLeaf(n); l != nil {
			leaves++
			if k := l.key(); !bytes.HasPrefix(k, path) || cap(k) != len(k) {
				t.Fatalf("leaf %q (cap %d) under path %q", k, cap(k), path)
			}
			return
		}
		if k := kindOf(n); k < kindNode4 || k > kindNode256 {
			t.Fatalf("node of unknown kind %d under path %q", k, path)
		}
		h := hdr(n)
		depth := len(path)
		k := minLeaf(n).key()
		if len(k) < depth+int(h.prefixLen) {
			t.Fatalf("path %q: smallest key %q shorter than a %d-byte compressed path", path, k, h.prefixLen)
		}
		var want [maxStoredPrefix]byte
		copy(want[:], k[depth:depth+int(h.prefixLen)])
		if h.prefix != want {
			t.Fatalf("path %q: inline prefix %q, true path starts %q", path, h.prefix, want)
		}
		path = append(slices.Clip(path), k[depth:depth+int(h.prefixLen)]...)
		entries := int(h.numChildren)
		if h.valueLeaf != nil {
			entries++
			leaves++
			if !bytes.Equal(h.valueLeaf.key(), path) {
				t.Fatalf("value leaf %q at path %q", h.valueLeaf.key(), path)
			}
		}
		if entries < 2 {
			t.Fatalf("inner node with %d entries at path %q", entries, path)
		}
		var edges []byte
		capacity := 0
		switch kindOf(n) {
		case kindNode4:
			v := (*node4)(n)
			edges, capacity = v.keys[:min(v.numChildren, 4)], 4
		case kindNode16:
			v := (*node16)(n)
			edges, capacity = v.keys[:min(v.numChildren, 16)], 16
		case kindNode48:
			v := (*node48)(n)
			capacity = 48
			for b := 0; b < 256; b++ {
				if s := v.index[b]; s != 0 {
					if s > byte(v.numChildren) || v.child[s-1] == nil {
						t.Fatalf("node48 edge %#x points at slot %d of %d", b, s-1, v.numChildren)
					}
					edges = append(edges, byte(b))
				}
			}
		case kindNode256:
			v := (*node256)(n)
			capacity = 256
			for b := 0; b < 256; b++ {
				if v.child[b] != nil {
					edges = append(edges, byte(b))
				}
			}
		}
		if int(h.numChildren) > capacity || len(edges) != int(h.numChildren) {
			t.Fatalf("kind %d: %d children, %d edges, capacity %d", kindOf(n), h.numChildren, len(edges), capacity)
		}
		for i := 1; i < len(edges); i++ {
			if edges[i-1] >= edges[i] {
				t.Fatalf("kind %d: edges out of order: %v", kindOf(n), edges)
			}
		}
		eachChild(n, func(b byte, ch node) bool {
			if ch == nil {
				t.Fatalf("path %q: edge %#x has no child", path, b)
			}
			walk(ch, append(slices.Clip(path), b))
			return true
		})
	}
	walk(tr.root, nil)
	if leaves != tr.Len() {
		t.Fatalf("%d leaves, Len %d", leaves, tr.Len())
	}
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
