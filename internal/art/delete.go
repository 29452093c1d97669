package art

import (
	"bytes"
	"unsafe"
)

// Delete removes a key, reports whether it was present, and shrinks or
// collapses nodes on the way out: node layouts downgrade when sparse, and
// an inner node left with a single child (and no prefix key) is merged
// into that child's compressed path.
func (t *Tree) Delete(key []byte) bool {
	ok := t.delete(&t.root, key, 0)
	if ok {
		t.size--
	}
	return ok
}

func (t *Tree) delete(ref *node, key []byte, depth int) bool {
	n := *ref
	if n == nil {
		return false
	}
	if l := asLeaf(n); l != nil {
		if !bytes.Equal(l.key(), key) {
			return false
		}
		*ref = nil
		return true
	}
	h := hdr(n)
	if h.prefixLen > 0 {
		if prefixMismatch(n, key, depth) < int(h.prefixLen) {
			return false
		}
		depth += int(h.prefixLen)
	}
	if depth == len(key) {
		if h.valueLeaf == nil || !bytes.Equal(h.valueLeaf.key(), key) {
			return false
		}
		h.valueLeaf = nil
		collapse(ref, n)
		return true
	}
	cr := childRef(n, key[depth])
	if cr == nil {
		return false
	}
	if !t.delete(cr, key, depth+1) {
		return false
	}
	if *cr == nil {
		removeChild(ref, n, key[depth])
		collapse(ref, *ref)
	}
	return true
}

// collapse merges an inner node into its surroundings when it no longer
// justifies existing: zero children with a prefix key becomes that leaf;
// one child and no prefix key is folded into the child's path.
func collapse(ref *node, n node) {
	h := hdr(n)
	if h.numChildren == 0 {
		// A node with neither children nor a value leaf only occurs
		// transiently (the caller removes it from its parent).
		*ref = nil
		if h.valueLeaf != nil {
			*ref = unsafe.Pointer(h.valueLeaf)
		}
		return
	}
	if h.numChildren == 1 && h.valueLeaf == nil {
		var edge byte
		var only node
		eachChild(n, func(b byte, ch node) bool {
			edge, only = b, ch
			return false
		})
		if kindOf(only) == kindLeaf {
			*ref = only
			return
		}
		// The child's path becomes this node's path + edge byte + its own.
		// Its first maxStoredPrefix bytes come from the inline bytes alone:
		// a path longer than that is cut off before the edge byte.
		chh := hdr(only)
		var p [2*maxStoredPrefix + 1]byte
		m := copy(p[:], h.stored())
		p[m] = edge
		copy(p[m+1:], chh.stored())
		plen := h.prefixLen + 1 + chh.prefixLen
		chh.setPrefix(p[:maxStoredPrefix])
		chh.prefixLen = plen
		*ref = only
	}
}

// removeChild deletes the edge for byte c, downgrading the node layout
// when it becomes sparse.
func removeChild(ref *node, n node, c byte) {
	switch kindOf(n) {
	case kindNode4:
		v := (*node4)(n)
		removeSorted(v.keys[:], v.child[:], &v.numChildren, c)
	case kindNode16:
		v := (*node16)(n)
		removeSorted(v.keys[:], v.child[:], &v.numChildren, c)
		if v.numChildren <= 3 {
			g := &node4{header: v.tagged(kindNode4)}
			copy(g.keys[:], v.keys[:v.numChildren])
			copy(g.child[:], v.child[:v.numChildren])
			*ref = unsafe.Pointer(g)
		}
	case kindNode48:
		v := (*node48)(n)
		if s := v.index[c]; s != 0 {
			slot := int(s - 1)
			v.index[c] = 0
			// Move the last slot into the vacated one.
			last := int(v.numChildren) - 1
			if slot != last {
				v.child[slot] = v.child[last]
				for b := 0; b < 256; b++ {
					if int(v.index[b]) == last+1 {
						v.index[b] = byte(slot + 1)
						break
					}
				}
			}
			v.child[last] = nil
			v.numChildren--
		}
		if v.numChildren <= 12 {
			g := &node16{header: v.tagged(kindNode16)}
			i := 0
			for b := 0; b < 256; b++ {
				if s := v.index[b]; s != 0 {
					g.keys[i] = byte(b)
					g.child[i] = v.child[s-1]
					i++
				}
			}
			*ref = unsafe.Pointer(g)
		}
	case kindNode256:
		v := (*node256)(n)
		// The caller already cleared the slot via the child reference;
		// just account for the departed edge.
		v.child[c] = nil
		v.numChildren--
		if v.numChildren <= 36 {
			g := &node48{header: v.tagged(kindNode48)}
			i := 0
			for b := 0; b < 256; b++ {
				if v.child[b] != nil {
					g.index[b] = byte(i + 1)
					g.child[i] = v.child[b]
					i++
				}
			}
			*ref = unsafe.Pointer(g)
		}
	}
}

// removeSorted deletes the edge for byte c from parallel sorted arrays.
func removeSorted(keys []byte, children []node, num *uint16, c byte) {
	n := int(*num)
	for i := 0; i < n; i++ {
		if keys[i] == c {
			copy(keys[i:], keys[i+1:n])
			copy(children[i:], children[i+1:n])
			children[n-1] = nil
			*num--
			return
		}
	}
}
