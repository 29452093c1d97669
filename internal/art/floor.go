package art

import "bytes"

// Floor returns the greatest key <= query and its value. This is the
// dictionary lookup of the ALM schemes: interval boundaries are the keys
// and the floor identifies the interval containing the query. It requires
// DictMode: with no tuple to verify against, optimistic skipping would be
// unsound, so every compressed path is compared exactly, its bytes past
// the inline ones read from the subtree's smallest leaf.
func (t *Tree) Floor(query []byte) (key []byte, val uint64, ok bool) {
	if t.mode != DictMode {
		panic("art: Floor requires DictMode")
	}
	if t.root == nil {
		return nil, 0, false
	}
	l := floorRec(t.root, query, 0)
	if l == nil {
		return nil, 0, false
	}
	return l.key(), l.val, true
}

// floorRec returns the greatest leaf <= query within the subtree, or nil
// when every leaf exceeds query.
func floorRec(n node, query []byte, depth int) *leaf {
	if l := asLeaf(n); l != nil {
		if bytes.Compare(l.key(), query) <= 0 {
			return l
		}
		return nil
	}
	h := hdr(n)
	if h.prefixLen > 0 {
		p := actualPrefix(n, depth)
		rem := query[depth:]
		for i := range min(len(p), len(rem)) {
			if p[i] != rem[i] {
				if p[i] < rem[i] {
					return maxLeaf(n) // whole subtree below query
				}
				return nil // whole subtree above query
			}
		}
		if len(rem) < len(p) {
			// Query exhausted inside the compressed path: every key in the
			// subtree extends the query, hence exceeds it.
			return nil
		}
		depth += len(p)
	}
	if depth == len(query) {
		// Children all extend the query; only an exact prefix key matches.
		return h.valueLeaf
	}
	c := query[depth]
	if ch := findChild(n, c); ch != nil {
		if l := floorRec(ch, query, depth+1); l != nil {
			return l
		}
	}
	if ch := maxChildBelow(n, int(c)); ch != nil {
		return maxLeaf(ch)
	}
	return h.valueLeaf // the node's path is a proper prefix of query
}
