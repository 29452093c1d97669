package hot

import (
	"testing"

	"repro/internal/treetest"
)

// TestBulkLoadThenChurnMatchesModel drives a bulk-loaded trie through
// inserts that split its full compound nodes, then random churn, against
// a map model with the compound-node invariants checked throughout.
func TestBulkLoadThenChurnMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		treetest.ChurnAfterBulk(t, seed,
			func(keys [][]byte, vals []uint64) treetest.Tree { return BulkLoad(keys, vals) },
			func(tr treetest.Tree) { checkCompound(t, tr.(*Tree).root) })
	}
}

// checkCompound asserts the fanout bound and mini-trie shape of every
// compound node under c.
func checkCompound(t *testing.T, c *cnode) {
	t.Helper()
	if c == nil {
		return
	}
	if len(c.entries) > MaxFanout {
		t.Fatalf("fanout %d > %d", len(c.entries), MaxFanout)
	}
	if len(c.entries) != len(c.bits)+1 {
		t.Fatalf("%d entries over %d mini-trie nodes", len(c.entries), len(c.bits))
	}
	for _, e := range c.entries {
		if e.child != nil {
			checkCompound(t, e.child)
		}
	}
}
