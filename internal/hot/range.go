package hot

import "bytes"

// Range visits keys in [lo, hi) in ascending order until fn returns
// false; a nil hi leaves the range unbounded above. It is the adapter
// hope.Index drives: the facade translates original-key bounds (a prefix
// is the range up to its successor) into encoded space, and the tree cuts
// the iteration off at hi instead of surfacing every key >= lo.
func (t *Tree) Range(lo, hi []byte, fn func(key []byte, val uint64) bool) {
	t.Scan(lo, func(k []byte, v uint64) bool {
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return false
		}
		return fn(k, v)
	})
}
