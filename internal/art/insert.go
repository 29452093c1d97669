package art

import "bytes"

// Insert adds or updates a key. The key bytes are copied.
func (t *Tree) Insert(key []byte, val uint64) {
	t.insert(&t.root, key, 0, val)
}

func (t *Tree) insert(ref *node, key []byte, depth int, val uint64) {
	n := *ref
	if n == nil {
		*ref = t.newLeaf(key, val)
		return
	}
	if l, ok := n.(*leaf); ok {
		if bytes.Equal(l.key, key) {
			l.val = val
			return
		}
		// Split the leaf: a new node4 holding the common path.
		lcp := commonPrefixLen(l.key[depth:], key[depth:])
		nn := t.newNode4(key[depth : depth+lcp])
		t.attach(nn, l.key, depth+lcp, l)
		t.attach(nn, key, depth+lcp, t.newLeaf(key, val))
		*ref = nn
		return
	}
	h := hdr(n)
	if h.prefixLen > 0 {
		mp := t.prefixMismatch(n, key, depth)
		if mp < h.prefixLen {
			// Split the compressed path at the mismatch.
			actual := actualPrefix(n, depth)
			nn := t.newNode4(actual[:mp])
			edge := actual[mp]
			t.setPrefix(h, actual[mp+1:])
			insertSorted(nn.keys[:], nn.child[:], &nn.numChildren, edge, n)
			t.attach(nn, key, depth+mp, t.newLeaf(key, val))
			*ref = nn
			return
		}
		depth += h.prefixLen
	}
	if depth == len(key) {
		if h.valueLeaf != nil {
			h.valueLeaf.val = val
			return
		}
		h.valueLeaf = t.newLeaf(key, val)
		return
	}
	c := key[depth]
	if cr := childRef(n, c); cr != nil {
		t.insert(cr, key, depth+1, val)
		return
	}
	t.addChildGrow(ref, n, c, t.newLeaf(key, val))
}

// attach places a leaf under nn: as the node's value leaf when the key is
// exhausted at d, otherwise as a child keyed by key[d].
func (t *Tree) attach(nn *node4, key []byte, d int, l *leaf) {
	if len(key) == d {
		nn.valueLeaf = l
		return
	}
	var ref node = nn
	t.addChildGrow(&ref, nn, key[d], l)
}

func (t *Tree) newLeaf(key []byte, val uint64) *leaf {
	t.size++
	k := make([]byte, len(key))
	copy(k, key)
	return &leaf{key: k, val: val}
}

func (t *Tree) newNode4(prefix []byte) *node4 {
	nn := &node4{}
	t.setPrefix(&nn.header, prefix)
	return nn
}

// setPrefix records a compressed path, storing all bytes in DictMode and
// at most maxStoredPrefix bytes in IndexMode (OCPS).
func (t *Tree) setPrefix(h *header, prefix []byte) {
	h.prefixLen = len(prefix)
	keep := len(prefix)
	if t.mode == IndexMode && keep > maxStoredPrefix {
		keep = maxStoredPrefix
	}
	h.prefix = make([]byte, keep)
	copy(h.prefix, prefix[:keep])
}

// prefixMismatch returns how many bytes of the node's compressed path
// match key[depth:], up to min(prefixLen, len(key)-depth). When the stored
// (capped) bytes are exhausted the actual bytes are loaded from a leaf, as
// in standard ART inserts.
func (t *Tree) prefixMismatch(n node, key []byte, depth int) int {
	h := hdr(n)
	rem := key[depth:]
	limit := h.prefixLen
	if len(rem) < limit {
		limit = len(rem)
	}
	stored := h.prefix
	i := 0
	for i < limit && i < len(stored) && stored[i] == rem[i] {
		i++
	}
	if i < limit && i < len(stored) {
		return i // genuine mismatch within stored bytes
	}
	if i == limit {
		return i
	}
	actual := minLeaf(n).key[depth : depth+h.prefixLen]
	for i < limit && actual[i] == rem[i] {
		i++
	}
	return i
}

// addChildGrow inserts a child under byte c, upgrading the node layout
// when full and updating *ref with the replacement node.
func (t *Tree) addChildGrow(ref *node, n node, c byte, child node) {
	switch v := n.(type) {
	case *node4:
		if v.numChildren < 4 {
			insertSorted(v.keys[:], v.child[:], &v.numChildren, c, child)
			return
		}
		g := &node16{header: v.header}
		copy(g.keys[:], v.keys[:])
		copy(g.child[:], v.child[:])
		insertSorted(g.keys[:], g.child[:], &g.numChildren, c, child)
		*ref = g
	case *node16:
		if v.numChildren < 16 {
			insertSorted(v.keys[:], v.child[:], &v.numChildren, c, child)
			return
		}
		g := &node48{header: v.header}
		for i := 0; i < 16; i++ {
			g.index[v.keys[i]] = byte(i + 1)
			g.child[i] = v.child[i]
		}
		g.index[c] = byte(g.numChildren + 1)
		g.child[g.numChildren] = child
		g.numChildren++
		*ref = g
	case *node48:
		if v.numChildren < 48 {
			v.index[c] = byte(v.numChildren + 1)
			v.child[v.numChildren] = child
			v.numChildren++
			return
		}
		g := &node256{header: v.header}
		for b := 0; b < 256; b++ {
			if s := v.index[b]; s != 0 {
				g.child[b] = v.child[s-1]
			}
		}
		g.numChildren = v.numChildren
		g.child[c] = child
		g.numChildren++
		*ref = g
	case *node256:
		v.child[c] = child
		v.numChildren++
	}
}

// insertSorted places (c, child) into parallel sorted arrays.
func insertSorted(keys []byte, children []node, num *int, c byte, child node) {
	i := *num
	for i > 0 && keys[i-1] > c {
		keys[i] = keys[i-1]
		children[i] = children[i-1]
		i--
	}
	keys[i] = c
	children[i] = child
	*num++
}

func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// BulkLoad builds a tree from strictly ascending keys (vals[i] is keys[i]'s
// value) in one recursive pass. The result is exactly the tree that
// inserting the keys in ascending order builds: an inner node's compressed
// path is the common prefix of its first and last key, a key ending there
// becomes its value leaf, and the rest are grouped by their next byte into
// the smallest layout that holds the groups. Keys are copied, as Insert
// copies them.
func BulkLoad(mode Mode, keys [][]byte, vals []uint64) *Tree {
	t := New(mode)
	if len(keys) > 0 {
		t.root = t.build(keys, vals, 0)
	}
	return t
}

// build returns the subtree over keys, which all share their first depth
// bytes.
func (t *Tree) build(keys [][]byte, vals []uint64, depth int) node {
	if len(keys) == 1 {
		return t.newLeaf(keys[0], vals[0])
	}
	first := keys[0]
	d := depth + commonPrefixLen(first[depth:], keys[len(keys)-1][depth:])
	var h header
	t.setPrefix(&h, first[depth:d])
	if len(first) == d {
		h.valueLeaf = t.newLeaf(first, vals[0])
		keys, vals = keys[1:], vals[1:]
	}
	groups := 1
	for i := 1; i < len(keys); i++ {
		if keys[i][d] != keys[i-1][d] {
			groups++
		}
	}
	var n node
	switch {
	case groups <= 4:
		n = &node4{header: h}
	case groups <= 16:
		n = &node16{header: h}
	case groups <= 48:
		n = &node48{header: h}
	default:
		n = &node256{header: h}
	}
	for lo := 0; lo < len(keys); {
		c := keys[lo][d]
		hi := lo + 1
		for hi < len(keys) && keys[hi][d] == c {
			hi++
		}
		// Children arrive in ascending byte order into a node sized for
		// all of them, so this appends and never grows.
		t.addChildGrow(&n, n, c, t.build(keys[lo:hi], vals[lo:hi], d+1))
		lo = hi
	}
	return n
}
