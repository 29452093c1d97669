package art

import (
	"bytes"
	"unsafe"
)

// Insert adds or updates a key. The key bytes are copied.
func (t *Tree) Insert(key []byte, val uint64) {
	t.insert(&t.root, key, 0, val)
}

func (t *Tree) insert(ref *node, key []byte, depth int, val uint64) {
	n := *ref
	if n == nil {
		*ref = unsafe.Pointer(t.newLeaf(key, val))
		return
	}
	if l := asLeaf(n); l != nil {
		lk := l.key()
		if bytes.Equal(lk, key) {
			l.val = val
			return
		}
		// Split the leaf: a new node4 holding the common path.
		lcp := commonPrefixLen(lk[depth:], key[depth:])
		var h header
		h.setPrefix(key[depth : depth+lcp])
		nn := &node4{header: h.tagged(kindNode4)}
		attach(nn, lk, depth+lcp, l)
		attach(nn, key, depth+lcp, t.newLeaf(key, val))
		*ref = unsafe.Pointer(nn)
		return
	}
	h := hdr(n)
	if h.prefixLen > 0 {
		mp := prefixMismatch(n, key, depth)
		if mp < int(h.prefixLen) {
			// Split the compressed path at the mismatch.
			actual := actualPrefix(n, depth)
			var nh header
			nh.setPrefix(actual[:mp])
			nn := &node4{header: nh.tagged(kindNode4)}
			edge := actual[mp]
			h.setPrefix(actual[mp+1:])
			insertSorted(nn.keys[:], nn.child[:], &nn.numChildren, edge, n)
			attach(nn, key, depth+mp, t.newLeaf(key, val))
			*ref = unsafe.Pointer(nn)
			return
		}
		depth += int(h.prefixLen)
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
	addChildGrow(ref, n, c, unsafe.Pointer(t.newLeaf(key, val)))
}

// attach places a leaf under nn: as the node's value leaf when the key is
// exhausted at d, otherwise as a child keyed by key[d].
func attach(nn *node4, key []byte, d int, l *leaf) {
	if len(key) == d {
		nn.valueLeaf = l
		return
	}
	insertSorted(nn.keys[:], nn.child[:], &nn.numChildren, key[d], unsafe.Pointer(l))
}

// newLeaf allocates a leaf record holding a copy of its key.
func (t *Tree) newLeaf(key []byte, val uint64) *leaf {
	t.size++
	return putLeaf(make([]byte, leafSize(len(key))), key, val)
}

// prefixMismatch returns how many bytes of the node's compressed path
// match key[depth:], up to min(prefixLen, len(key)-depth). When the inline
// bytes are exhausted the actual bytes are loaded from a leaf, as in
// standard ART inserts.
func prefixMismatch(n node, key []byte, depth int) int {
	h := hdr(n)
	rem := key[depth:]
	limit := min(int(h.prefixLen), len(rem))
	stored := h.stored()
	i := 0
	for i < limit && i < len(stored) && stored[i] == rem[i] {
		i++
	}
	if i < limit && i < len(stored) {
		return i // genuine mismatch within the inline bytes
	}
	if i == limit {
		return i
	}
	actual := minLeaf(n).key()[depth : depth+int(h.prefixLen)]
	for i < limit && actual[i] == rem[i] {
		i++
	}
	return i
}

// addChildGrow inserts a child under byte c, upgrading the node layout
// when full and updating *ref with the replacement node.
func addChildGrow(ref *node, n node, c byte, child node) {
	switch kindOf(n) {
	case kindNode4:
		v := (*node4)(n)
		if v.numChildren < 4 {
			insertSorted(v.keys[:], v.child[:], &v.numChildren, c, child)
			return
		}
		g := &node16{header: v.tagged(kindNode16)}
		copy(g.keys[:], v.keys[:])
		copy(g.child[:], v.child[:])
		insertSorted(g.keys[:], g.child[:], &g.numChildren, c, child)
		*ref = unsafe.Pointer(g)
	case kindNode16:
		v := (*node16)(n)
		if v.numChildren < 16 {
			insertSorted(v.keys[:], v.child[:], &v.numChildren, c, child)
			return
		}
		g := &node48{header: v.tagged(kindNode48)}
		for i := 0; i < 16; i++ {
			g.index[v.keys[i]] = byte(i + 1)
			g.child[i] = v.child[i]
		}
		g.index[c] = byte(g.numChildren + 1)
		g.child[g.numChildren] = child
		g.numChildren++
		*ref = unsafe.Pointer(g)
	case kindNode48:
		v := (*node48)(n)
		if v.numChildren < 48 {
			v.index[c] = byte(v.numChildren + 1)
			v.child[v.numChildren] = child
			v.numChildren++
			return
		}
		g := &node256{header: v.tagged(kindNode256)}
		for b := 0; b < 256; b++ {
			if s := v.index[b]; s != 0 {
				g.child[b] = v.child[s-1]
			}
		}
		g.child[c] = child
		g.numChildren++
		*ref = unsafe.Pointer(g)
	case kindNode256:
		v := (*node256)(n)
		v.child[c] = child
		v.numChildren++
	}
}

// insertSorted places (c, child) into parallel sorted arrays.
func insertSorted(keys []byte, children []node, num *uint16, c byte, child node) {
	i := int(*num)
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
	n := min(len(a), len(b))
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
// copies them, but every leaf record is carved from one arena, which lives
// as long as the tree: a leaf deleted later keeps its bytes until the
// whole tree is dropped.
func BulkLoad(mode Mode, keys [][]byte, vals []uint64) *Tree {
	t := New(mode)
	t.bulkLoad(keys, vals)
	return t
}

// bulkLoad builds the tree's nodes over keys; the tree must be empty.
// Besides one allocation per inner node it allocates once: the arena.
func (t *Tree) bulkLoad(keys [][]byte, vals []uint64) {
	if len(keys) == 0 {
		return
	}
	total := 0
	for _, k := range keys {
		total += leafSize(len(k))
	}
	t.arena = make([]byte, total)
	b := bulkBuilder{arena: t.arena}
	t.root = b.build(keys, vals, 0)
	t.size = len(keys)
}

// bulkBuilder hands out BulkLoad's leaf records in key order.
type bulkBuilder struct{ arena []byte }

// leaf carves the next record from the arena.
func (b *bulkBuilder) leaf(key []byte, val uint64) *leaf {
	n := leafSize(len(key))
	l := putLeaf(b.arena[:n:n], key, val)
	b.arena = b.arena[n:]
	return l
}

// build returns the subtree over keys, which all share their first depth
// bytes.
func (b *bulkBuilder) build(keys [][]byte, vals []uint64, depth int) node {
	if len(keys) == 1 {
		return unsafe.Pointer(b.leaf(keys[0], vals[0]))
	}
	first := keys[0]
	d := depth + commonPrefixLen(first[depth:], keys[len(keys)-1][depth:])
	var h header
	h.setPrefix(first[depth:d])
	if len(first) == d {
		h.valueLeaf = b.leaf(first, vals[0])
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
		n = unsafe.Pointer(&node4{header: h.tagged(kindNode4)})
	case groups <= 16:
		n = unsafe.Pointer(&node16{header: h.tagged(kindNode16)})
	case groups <= 48:
		n = unsafe.Pointer(&node48{header: h.tagged(kindNode48)})
	default:
		n = unsafe.Pointer(&node256{header: h.tagged(kindNode256)})
	}
	for lo := 0; lo < len(keys); {
		c := keys[lo][d]
		hi := lo + 1
		for hi < len(keys) && keys[hi][d] == c {
			hi++
		}
		// Children arrive in ascending byte order into a node sized for
		// all of them, so this appends and never grows.
		addChildGrow(&n, n, c, b.build(keys[lo:hi], vals[lo:hi], d+1))
		lo = hi
	}
	return n
}
