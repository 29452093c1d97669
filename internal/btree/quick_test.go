package btree

import (
	"bytes"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// Property: any insert sequence leaves the tree observationally equal to a
// map, with sorted full scans and correct tree invariants.
func TestQuickModelEquivalence(t *testing.T) {
	type kv struct {
		Key []byte
		Val uint64
	}
	f := func(ops []kv) bool {
		tr := New()
		ref := map[string]uint64{}
		for _, o := range ops {
			k := o.Key
			if len(k) > 10 {
				k = k[:10]
			}
			tr.Insert(k, o.Val)
			ref[string(k)] = o.Val
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := tr.Get([]byte(k)); !ok || got != v {
				return false
			}
		}
		var prev []byte
		n := 0
		sorted := true
		tr.Scan(nil, func(k []byte, v uint64) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				sorted = false
				return false
			}
			if ref[string(k)] != v {
				sorted = false
				return false
			}
			prev = append(prev[:0], k...)
			n++
			return true
		})
		return sorted && n == len(ref)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Structural invariants after heavy random insertion: node fill bounds and
// separator ordering.
func TestStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := New()
	for i := 0; i < 30000; i++ {
		k := make([]byte, 1+rng.Intn(12))
		for j := range k {
			k[j] = byte(rng.Intn(64))
		}
		tr.Insert(k, uint64(i))
	}
	checkStructure(t, tr)
}

// checkStructure asserts the node invariants: sorted leaves within their
// separator bounds, valid gap padding, sorted separators with current
// probe words, and every leaf at the tracked height.
func checkStructure(t *testing.T, tr *Tree) {
	t.Helper()
	var check func(n node, lo, hi []byte) int
	check = func(n node, lo, hi []byte) int {
		switch v := n.(type) {
		case *leafNode:
			prevSlot := -1
			for mm := v.occ; mm != 0; mm &= mm - 1 {
				i := bits.TrailingZeros16(mm)
				if lo != nil && bytes.Compare(v.key(i), lo) < 0 {
					t.Fatalf("leaf key %q below separator %q", v.key(i), lo)
				}
				if hi != nil && bytes.Compare(v.key(i), hi) >= 0 {
					t.Fatalf("leaf key %q not below separator %q", v.key(i), hi)
				}
				if prevSlot >= 0 && bytes.Compare(v.key(prevSlot), v.key(i)) >= 0 {
					t.Fatal("leaf keys unsorted")
				}
				prevSlot = i
			}
			if aliases(lo, v.arena) || aliases(hi, v.arena) {
				t.Fatal("separator points into a leaf arena")
			}
			checkLeafPadding(t, v)
			return 1
		case *innerNode:
			if v.n < 1 {
				t.Fatal("inner node with no separators")
			}
			for i := 1; i < v.n; i++ {
				if bytes.Compare(v.keys[i-1], v.keys[i]) >= 0 {
					t.Fatal("separators unsorted")
				}
			}
			if want := lcpLen(v.keys[0], v.keys[v.n-1]); v.pfx != want {
				t.Fatalf("inner pfx %d, want %d", v.pfx, want)
			}
			for i := 0; i < Fanout; i++ {
				if want := be64(v.keys[i][v.pfx:]); v.pw[i] != want {
					t.Fatalf("inner pw[%d] = %#x, want %#x", i, v.pw[i], want)
				}
			}
			depth := 0
			for i := 0; i <= v.n; i++ {
				clo, chi := lo, hi
				if i > 0 {
					clo = v.keys[i-1]
				}
				if i < v.n {
					chi = v.keys[i]
				}
				d := check(v.child[i], clo, chi)
				if depth == 0 {
					depth = d
				} else if d != depth {
					t.Fatal("leaves at different depths")
				}
			}
			return depth + 1
		}
		return 0
	}
	if got := check(tr.root, nil, nil); got != tr.Height() {
		t.Fatalf("measured height %d != tracked %d", got, tr.Height())
	}
}

// checkLeafPadding asserts the gapped-leaf invariants lowerBound's fixed
// probes rely on: when occupied, every slot inside the arena's written
// bytes, each gap a copy of its neighbour's slot, the padded 16-entry
// array non-decreasing, and pfx and the probe words current; when empty,
// every slot zero and no arena.
func checkLeafPadding(t *testing.T, v *leafNode) {
	t.Helper()
	if v.occ == 0 {
		if v.arena != nil || v.off != [Fanout]uint32{} || v.klen != [Fanout]uint32{} {
			t.Fatal("empty leaf still addresses key bytes")
		}
		return
	}
	for i := 0; i < Fanout; i++ {
		if uint64(v.off[i])+uint64(v.klen[i]) > uint64(len(v.arena)) {
			t.Fatalf("slot %d (%d+%d) past arena length %d", i, v.off[i], v.klen[i], len(v.arena))
		}
		if v.occ&(1<<i) == 0 {
			// A gap copies its nearest occupied neighbour on either side.
			same := func(j int) bool { return j >= 0 && j < Fanout && v.off[i] == v.off[j] && v.klen[i] == v.klen[j] }
			left := bits.Len16(v.occ&(1<<i-1)) - 1
			right := i + bits.TrailingZeros16(v.occ>>i)
			if !same(left) && !same(right) {
				t.Fatalf("gap slot %d copies neither slot %d nor %d (occ=%04x)", i, left, right, v.occ)
			}
		}
		if i > 0 && bytes.Compare(v.key(i-1), v.key(i)) > 0 {
			t.Fatalf("leaf padding decreasing at slot %d (occ=%04x)", i, v.occ)
		}
	}
	if want := lcpLen(v.key(v.firstSlot()), v.key(v.lastSlot())); v.pfx != want {
		t.Fatalf("leaf pfx %d, want %d (occ=%04x)", v.pfx, want, v.occ)
	}
	for i := 0; i < Fanout; i++ {
		if want := be64(v.key(i)[v.pfx:]); v.pw[i] != want {
			t.Fatalf("leaf pw[%d] = %#x, want %#x (occ=%04x)", i, v.pw[i], want, v.occ)
		}
	}
}

// aliases reports whether a's bytes lie inside b's allocation.
func aliases(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa >= pb && pa < pb+uintptr(cap(b))
}

// walkLeaves applies fn to every leaf in the tree.
func walkLeaves(n node, fn func(*leafNode)) {
	switch v := n.(type) {
	case *leafNode:
		fn(v)
	case *innerNode:
		for i := 0; i <= v.n; i++ {
			walkLeaves(v.child[i], fn)
		}
	}
}

// TestGappedLeafInvariantsUnderChurn hammers the tree with mixed
// inserts, overwrites and deletes against a sorted oracle, revalidating
// the gap-padding invariants and full scan order at checkpoints.
func TestGappedLeafInvariantsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New()
	ref := map[string]uint64{}
	for round := 0; round < 60000; round++ {
		k := []byte(string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))))
		switch rng.Intn(3) {
		case 0, 1:
			tr.Insert(k, uint64(round))
			ref[string(k)] = uint64(round)
		case 2:
			_, present := ref[string(k)]
			delete(ref, string(k))
			if tr.Delete(k) != present {
				t.Fatalf("round %d: delete %q disagreed with oracle", round, k)
			}
		}
		if round%5000 == 4999 {
			if tr.Len() != len(ref) {
				t.Fatalf("round %d: size %d, oracle %d", round, tr.Len(), len(ref))
			}
			walkLeaves(tr.root, func(l *leafNode) { checkLeafPadding(t, l) })
			want := make([]string, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			sort.Strings(want)
			i := 0
			tr.Scan(nil, func(k []byte, v uint64) bool {
				if i >= len(want) || string(k) != want[i] || ref[want[i]] != v {
					t.Fatalf("round %d: scan mismatch at %d", round, i)
				}
				i++
				return true
			})
			if i != len(want) {
				t.Fatalf("round %d: scan saw %d of %d", round, i, len(want))
			}
		}
	}
}

// Overwriting an existing key must not allocate: Insert only copies key
// bytes once it knows the key is absent.
func TestInsertOverwriteNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	keys := randKeys(rng, 4096, 10)
	tr := New()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		tr.Insert(keys[i%len(keys)], uint64(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("overwriting Insert allocates %.1f/op, want 0", allocs)
	}
}

// Scans started at every stored key see exactly the remaining suffix count.
func TestScanCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := randKeys(rng, 1500, 8)
	tr := New()
	ss := make([]string, len(keys))
	for i, k := range keys {
		tr.Insert(k, uint64(i))
		ss[i] = string(k)
	}
	sort.Strings(ss)
	for i, s := range ss {
		n := 0
		tr.Scan([]byte(s), func([]byte, uint64) bool { n++; return true })
		if n != len(ss)-i {
			t.Fatalf("scan from %q saw %d, want %d", s, n, len(ss)-i)
		}
	}
}
