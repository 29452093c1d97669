package art

import "bytes"

// Scan visits keys >= start in ascending order until fn returns false or
// the tree is exhausted. It is the range-query entry point used by the
// YCSB workload E experiments. Descent decisions on paths longer than
// their inline bytes load the actual bytes from a leaf, so the scan never
// misses keys; emitted leaves are still compared against start.
func (t *Tree) Scan(start []byte, fn func(key []byte, val uint64) bool) {
	if t.root == nil {
		return
	}
	scanRec(t.root, start, 0, fn)
}

// scanRec returns false when iteration should stop.
func scanRec(n node, start []byte, depth int, fn func([]byte, uint64) bool) bool {
	if l := asLeaf(n); l != nil {
		if k := l.key(); bytes.Compare(k, start) >= 0 {
			return fn(k, l.val)
		}
		return true
	}
	h := hdr(n)
	if h.prefixLen > 0 {
		p := actualPrefix(n, depth)
		rem := start[depth:]
		for i := range min(len(p), len(rem)) {
			if p[i] != rem[i] {
				if p[i] > rem[i] {
					return emitAll(n, fn) // whole subtree above start
				}
				return true // whole subtree below start
			}
		}
		if len(rem) <= len(p) {
			// start exhausted within (or exactly at) the compressed path:
			// every key in the subtree is >= start except possibly the
			// node's prefix key, which equals the path.
			return emitAll(n, fn)
		}
		depth += len(p)
	}
	if depth >= len(start) {
		return emitAll(n, fn)
	}
	c := start[depth]
	// The node's prefix key (path itself) is shorter than start: skip it,
	// and every child below byte c, by seeking straight to c.
	cont := true
	eachChildFrom(n, c, func(b byte, ch node) bool {
		if b == c {
			cont = scanRec(ch, start, depth+1, fn)
		} else {
			cont = emitAll(ch, fn)
		}
		return cont
	})
	return cont
}

// emitAll visits every leaf of the subtree in ascending order.
func emitAll(n node, fn func([]byte, uint64) bool) bool {
	if l := asLeaf(n); l != nil {
		return fn(l.key(), l.val)
	}
	h := hdr(n)
	if h.valueLeaf != nil {
		if !fn(h.valueLeaf.key(), h.valueLeaf.val) {
			return false
		}
	}
	cont := true
	eachChild(n, func(_ byte, ch node) bool {
		cont = emitAll(ch, fn)
		return cont
	})
	return cont
}

// eachChild visits children in ascending key-byte order until fn returns
// false.
func eachChild(n node, fn func(byte, node) bool) { eachChildFrom(n, 0, fn) }

// eachChildFrom is eachChild starting at the first child whose key byte is
// >= from: Node48 and Node256 index their slots from that byte directly
// instead of stepping over every lower one.
func eachChildFrom(n node, from byte, fn func(byte, node) bool) {
	switch kindOf(n) {
	case kindNode4, kindNode16:
		keys, child := sorted(n)
		for i, b := range keys {
			if b >= from && !fn(b, child[i]) {
				return
			}
		}
	case kindNode48:
		v := (*node48)(n)
		for b := int(from); b < 256; b++ {
			if s := v.index[b]; s != 0 {
				if !fn(byte(b), v.child[s-1]) {
					return
				}
			}
		}
	case kindNode256:
		v := (*node256)(n)
		for b := int(from); b < 256; b++ {
			if v.child[b] != nil {
				if !fn(byte(b), v.child[b]) {
					return
				}
			}
		}
	}
}
