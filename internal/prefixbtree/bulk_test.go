package prefixbtree

import (
	"bytes"
	"testing"

	"repro/internal/treetest"
)

// TestBulkLoadThenChurnMatchesModel drives a bulk-loaded tree through
// inserts that fill and split its leaves, then random churn, against a
// map model with the separator and leaf-prefix invariants checked
// throughout.
func TestBulkLoadThenChurnMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		treetest.ChurnAfterBulk(t, seed,
			func(keys [][]byte, vals []uint64) treetest.Tree { return BulkLoad(keys, vals) },
			func(tr treetest.Tree) { checkTree(t, tr.(*Tree)) })
	}
}

// checkTree asserts the inner-node invariants and that every leaf holds
// sorted keys carrying its prefix, within its separator bounds.
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	checkInnerInvariants(t, tr.root)
	var walk func(n node, lo, hi []byte)
	walk = func(n node, lo, hi []byte) {
		switch v := n.(type) {
		case *leafNode:
			var prev []byte
			for i := 0; i < v.n; i++ {
				k := v.fullKey(nil, i)
				if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) {
					t.Fatalf("leaf key %q outside [%q, %q)", k, lo, hi)
				}
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Fatalf("leaf keys unsorted: %q then %q", prev, k)
				}
				prev = k
			}
		case *innerNode:
			for i := 0; i <= v.n; i++ {
				clo, chi := lo, hi
				if i > 0 {
					clo = v.keys[i-1]
				}
				if i < v.n {
					chi = v.keys[i]
				}
				walk(v.child[i], clo, chi)
			}
		}
	}
	walk(tr.root, nil, nil)
}

// TestBulkLoadLeavesKeepFreeSlots pins the bulk layout: keys spread
// evenly over ceil(n/bulkFill) leaves, so every leaf has room for at
// least Fanout-bulkFill inserts before it splits.
func TestBulkLoadLeavesKeepFreeSlots(t *testing.T) {
	for _, n := range []int{1, 12, 13, 1000} {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte{'k', byte(i >> 8), byte(i)}
		}
		tr := BulkLoad(keys, nil)
		checkTree(t, tr)
		leaves := 0
		for l := firstLeaf(tr); l != nil; l = l.next {
			leaves++
			if l.n > bulkFill || l.n < n/((n+bulkFill-1)/bulkFill) {
				t.Fatalf("n=%d: leaf holds %d keys", n, l.n)
			}
		}
		if want := (n + bulkFill - 1) / bulkFill; leaves != want {
			t.Fatalf("n=%d: %d leaves, want %d", n, leaves, want)
		}
	}
}

func firstLeaf(tr *Tree) *leafNode {
	n := tr.root
	for {
		switch v := n.(type) {
		case *innerNode:
			n = v.child[0]
		case *leafNode:
			return v
		}
	}
}
