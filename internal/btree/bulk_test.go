package btree

import (
	"testing"

	"repro/internal/treetest"
)

// TestBulkLoadThenChurnMatchesModel drives a bulk-loaded tree through
// inserts that fill and split its gapped leaves, then random churn,
// against a map model with the structural invariants checked throughout.
func TestBulkLoadThenChurnMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		treetest.ChurnAfterBulk(t, seed,
			func(keys [][]byte, vals []uint64) treetest.Tree { return BulkLoad(keys, vals) },
			func(tr treetest.Tree) { checkStructure(t, tr.(*Tree)) })
	}
}

// TestBulkLoadLeafLayout pins the bulk layout: every leaf holds at most
// bulkFill entries, at least one fewer only when the keys do not divide
// evenly, with its gaps spread so no two are adjacent.
func TestBulkLoadLeafLayout(t *testing.T) {
	for _, n := range []int{1, 11, 12, 13, 25, 1000, 12 * 17 * 17} {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte{byte(i >> 16), byte(i >> 8), byte(i)}
		}
		tr := BulkLoad(keys, nil)
		checkStructure(t, tr)
		leaves := (n + bulkFill - 1) / bulkFill
		got := 0
		walkLeaves(tr.root, func(l *leafNode) {
			got++
			c := l.count()
			if c > bulkFill || c < n/leaves {
				t.Fatalf("n=%d: leaf holds %d keys, want %d..%d", n, c, n/leaves, bulkFill)
			}
			if g := ^l.occ & fullMask; c >= Fanout/2 && g&(g>>1) != 0 {
				t.Fatalf("n=%d: adjacent gaps in occ=%016b", n, l.occ)
			}
			if l.firstSlot() != 0 {
				t.Fatalf("n=%d: first entry in slot %d", n, l.firstSlot())
			}
		})
		if got != leaves {
			t.Fatalf("n=%d: %d leaves, want %d", n, got, leaves)
		}
		if n == 12*17*17 && tr.Height() != 3 {
			t.Fatalf("n=%d: height %d, want 3 (17x17 full inner nodes)", n, tr.Height())
		}
	}
}
