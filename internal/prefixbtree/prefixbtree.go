// Package prefixbtree implements the Prefix B+tree of Bayer & Unterauer
// (the paper's fifth evaluated tree): a B+tree whose leaves store the
// common prefix of their keys exactly once (prefix truncation) and whose
// leaf splits promote the shortest possible separator (suffix truncation).
// Both techniques shrink the stored key bytes; HOPE then compresses what
// remains, which is why the paper observes smaller relative savings here
// than on a plain B+tree.
package prefixbtree

import (
	"bytes"
	"encoding/binary"
	"sync"
)

// Fanout is the number of key slots per node.
const Fanout = 16

// Tree is a Prefix B+tree mapping byte-string keys to uint64 values.
type Tree struct {
	root   node
	size   int
	height int
}

// New returns an empty tree.
func New() *Tree { return &Tree{root: &leafNode{}, height: 1} }

// Len returns the number of keys.
func (t *Tree) Len() int { return t.size }

// Height returns the number of node levels.
func (t *Tree) Height() int { return t.height }

type node interface{ isNode() }

type leafNode struct {
	prefix []byte // common prefix of every key in this leaf, stored once
	sufs   [Fanout][]byte
	vals   [Fanout]uint64
	n      int
	next   *leafNode
}

type innerNode struct {
	// keys holds the suffix-truncated separators (owned copies); slots
	// n..Fanout-1 duplicate keys[n-1] (see pad) so upperBound can run
	// fixed-shape probes over a non-decreasing array, exactly as in the
	// plain btree package. Leaves stay packed: reprefix rewrites every
	// suffix slot on prefix changes anyway, so a gapped layout would not
	// save the shifts there.
	keys  [Fanout][]byte
	pw    [Fanout]uint64 // probe words: keys[i][pfx:] packed big-endian
	child [Fanout + 1]node
	n     int
	pfx   uint8 // shared separator prefix backing the probe words
}

// pad duplicates the last separator into the unused key slots and
// refreshes the shared prefix and probe words; inner mutations must call
// it whenever n or a separator changes. Inner mutations happen only on
// child splits and rebalances, so the full refresh is amortized across
// the leaf operations between them.
func (in *innerNode) pad() {
	if in.n == 0 {
		for i := range in.keys {
			in.keys[i] = nil
			in.pw[i] = 0
		}
		in.pfx = 0
		return
	}
	last := in.keys[in.n-1]
	for i := in.n; i < Fanout; i++ {
		in.keys[i] = last
	}
	p := lcpLen(in.keys[0], last)
	if p > 255 {
		p = 255
	}
	in.pfx = uint8(p)
	for i := range in.pw {
		in.pw[i] = be64(in.keys[i][p:])
	}
}

// be64 packs up to the first 8 bytes of b big-endian, zero-padded on the
// right, exactly as in the btree package: strict word order implies
// strict byte-string order, equal words are resolved with byte compares.
func be64(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var w uint64
	for _, c := range b {
		w = w<<8 | uint64(c)
	}
	return w << (8 * (8 - uint(len(b))))
}

func (*leafNode) isNode()  {}
func (*innerNode) isNode() {}

// cmpKey compares a full key against the leaf entry prefix+suf without
// materializing the concatenation.
func cmpKey(key, prefix, suf []byte) int {
	m := len(key)
	if len(prefix) < m {
		m = len(prefix)
	}
	if c := bytes.Compare(key[:m], prefix[:m]); c != 0 {
		return c
	}
	if len(key) < len(prefix) {
		return -1 // key is a proper prefix of the node prefix
	}
	return bytes.Compare(key[len(prefix):], suf)
}

func (l *leafNode) lowerBound(key []byte) int {
	lo, hi := 0, l.n
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpKey(key, l.prefix, l.sufs[mid]) > 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index with key < keys[i], i.e. the child
// to descend into: one byte-compare for the shared separator prefix,
// then five fixed integer probes over the padded probe-word array
// (16 -> 8 -> 4 -> 2 -> 1), byte compares again only on equal-word runs,
// clamped to n. This mirrors innerNode.upperBound in the btree package.
func (in *innerNode) upperBound(key []byte) int {
	p := int(in.pfx)
	if p > 0 {
		pre := in.keys[0]
		if len(key) < p {
			if bytes.Compare(key, pre[:len(key)]) > 0 {
				return in.n
			}
			return 0 // below, or a proper prefix of, every separator
		}
		switch c := bytes.Compare(key[:p], pre[:p]); {
		case c < 0:
			return 0
		case c > 0:
			return in.n
		}
		key = key[p:]
	}
	kw := be64(key)
	b := 0
	if in.pw[7] < kw {
		b = 8
	}
	if in.pw[b+3] < kw {
		b += 4
	}
	if in.pw[b+1] < kw {
		b += 2
	}
	if in.pw[b] < kw {
		b++
	}
	if b < Fanout && in.pw[b] < kw {
		b++
	}
	for b < Fanout && in.pw[b] == kw && bytes.Compare(key, in.keys[b][p:]) >= 0 {
		b++
	}
	if b > in.n {
		b = in.n
	}
	return b
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	n := t.root
	for {
		switch v := n.(type) {
		case *innerNode:
			n = v.child[v.upperBound(key)]
		case *leafNode:
			i := v.lowerBound(key)
			if i < v.n && cmpKey(key, v.prefix, v.sufs[i]) == 0 {
				return v.vals[i], true
			}
			return 0, false
		}
	}
}

// fullKey reconstructs entry i into dst.
func (l *leafNode) fullKey(dst []byte, i int) []byte {
	dst = append(dst[:0], l.prefix...)
	return append(dst, l.sufs[i]...)
}

// reprefix adjusts the leaf so its prefix is exactly p (a prefix of the
// current prefix), re-expanding stored suffixes.
func (l *leafNode) reprefix(p []byte) {
	if len(p) == len(l.prefix) {
		return
	}
	tail := l.prefix[len(p):]
	for i := 0; i < l.n; i++ {
		s := make([]byte, 0, len(tail)+len(l.sufs[i]))
		s = append(append(s, tail...), l.sufs[i]...)
		l.sufs[i] = s
	}
	l.prefix = append([]byte(nil), p...)
}

// recomputePrefix grows the prefix to the LCP of the stored keys,
// trimming suffixes (called after splits).
func (l *leafNode) recomputePrefix() {
	if l.n == 0 {
		return
	}
	lcp := l.sufs[0]
	for i := 1; i < l.n; i++ {
		lcp = lcp[:lcpLen(lcp, l.sufs[i])]
	}
	if len(lcp) == 0 {
		return
	}
	l.prefix = append(append([]byte(nil), l.prefix...), lcp...)
	cut := len(lcp)
	for i := 0; i < l.n; i++ {
		l.sufs[i] = append([]byte(nil), l.sufs[i][cut:]...)
	}
}

func lcpLen(a, b []byte) int {
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

// Insert adds or updates a key. Key bytes are copied.
func (t *Tree) Insert(key []byte, val uint64) {
	sep, right := t.insert(t.root, key, val)
	if right != nil {
		r := &innerNode{n: 1}
		r.keys[0] = sep
		r.child[0] = t.root
		r.child[1] = right
		r.pad()
		t.root = r
		t.height++
	}
}

func (t *Tree) insert(n node, key []byte, val uint64) ([]byte, node) {
	switch v := n.(type) {
	case *innerNode:
		idx := v.upperBound(key)
		sep, right := t.insert(v.child[idx], key, val)
		if right == nil {
			return nil, nil
		}
		if v.n < Fanout {
			copy(v.keys[idx+1:v.n+1], v.keys[idx:v.n])
			copy(v.child[idx+2:v.n+2], v.child[idx+1:v.n+1])
			v.keys[idx] = sep
			v.child[idx+1] = right
			v.n++
			v.pad()
			return nil, nil
		}
		return v.splitInsert(idx, sep, right)
	case *leafNode:
		i := v.lowerBound(key)
		if i < v.n && cmpKey(key, v.prefix, v.sufs[i]) == 0 {
			v.vals[i] = val
			return nil, nil
		}
		if v.n == 0 {
			v.prefix = append([]byte(nil), key...)
			v.sufs[0] = []byte{}
			v.vals[0] = val
			v.n = 1
			t.size++
			return nil, nil
		}
		// Shrink the prefix to cover the new key, then place its suffix.
		p := key[:lcpLen(key, v.prefix)]
		v.reprefix(p)
		suf := append([]byte(nil), key[len(v.prefix):]...)
		if v.n < Fanout {
			i = v.lowerBound(key)
			copy(v.sufs[i+1:v.n+1], v.sufs[i:v.n])
			copy(v.vals[i+1:v.n+1], v.vals[i:v.n])
			v.sufs[i] = suf
			v.vals[i] = val
			v.n++
			t.size++
			return nil, nil
		}
		// Split, recompute both prefixes, insert into the proper half.
		mid := Fanout / 2
		right := &leafNode{n: Fanout - mid, next: v.next, prefix: append([]byte(nil), v.prefix...)}
		copy(right.sufs[:], v.sufs[mid:])
		copy(right.vals[:], v.vals[mid:])
		for j := mid; j < Fanout; j++ {
			v.sufs[j] = nil
		}
		v.n = mid
		v.next = right
		v.recomputePrefix()
		right.recomputePrefix()
		if cmpKey(key, right.prefix, right.sufs[0]) < 0 {
			t.leafPlace(v, key, val)
		} else {
			t.leafPlace(right, key, val)
		}
		t.size++
		// Suffix truncation: promote the shortest separator s with
		// leftMax < s <= rightMin.
		leftMax := v.fullKey(nil, v.n-1)
		rightMin := right.fullKey(nil, 0)
		sep := append([]byte(nil), rightMin[:lcpLen(leftMax, rightMin)+1]...)
		return sep, right
	}
	return nil, nil
}

// leafPlace inserts into a non-full leaf, adjusting the prefix.
func (t *Tree) leafPlace(l *leafNode, key []byte, val uint64) {
	l.reprefix(key[:lcpLen(key, l.prefix)])
	i := l.lowerBound(key)
	copy(l.sufs[i+1:l.n+1], l.sufs[i:l.n])
	copy(l.vals[i+1:l.n+1], l.vals[i:l.n])
	l.sufs[i] = append([]byte(nil), key[len(l.prefix):]...)
	l.vals[i] = val
	l.n++
}

func (v *innerNode) splitInsert(idx int, sep []byte, right node) ([]byte, node) {
	var keys [Fanout + 1][]byte
	var child [Fanout + 2]node
	copy(keys[:idx], v.keys[:idx])
	keys[idx] = sep
	copy(keys[idx+1:], v.keys[idx:v.n])
	copy(child[:idx+1], v.child[:idx+1])
	child[idx+1] = right
	copy(child[idx+2:], v.child[idx+1:v.n+1])

	total := Fanout + 1
	mid := total / 2
	up := keys[mid]
	v.n = mid
	copy(v.keys[:], keys[:mid])
	copy(v.child[:], child[:mid+1])
	for j := mid + 1; j < Fanout+1; j++ {
		v.child[j] = nil
	}
	v.pad()
	r := &innerNode{n: total - mid - 1}
	copy(r.keys[:], keys[mid+1:total])
	copy(r.child[:], child[mid+1:total+1])
	r.pad()
	return up, r
}

// Scan visits keys >= start in order until fn returns false, a loop over
// a Cursor. The key slice passed to fn is only valid during the call;
// copy it to retain.
func (t *Tree) Scan(start []byte, fn func(key []byte, val uint64) bool) {
	c := scanCursors.Get().(*Cursor)
	c.Seek(t, start, nil)
	for k, v, ok := c.Next(); ok && fn(k, v); k, v, ok = c.Next() {
	}
	scanCursors.Put(c)
}

// scanCursors recycles Scan's cursors, whose key arenas would otherwise be
// allocated by every call.
var scanCursors = sync.Pool{New: func() any { return new(Cursor) }}

// cursorArena is the smallest arena a Cursor rebuilds keys into.
const cursorArena = 4 << 10

// Cursor walks a tree's keys in ascending order from a seek position up
// to an exclusive bound: a leaf and a slot, stepping along the leaves'
// next links, so only Seek descends from the root. A leaf stores its
// prefix once, so the cursor rebuilds each key it returns into its own
// arena; a key stays intact until the cursor's next Seek (a full arena is
// replaced, never overwritten), also after later writes to the tree. The
// position itself is valid only until the tree's next write. The zero
// Cursor is exhausted.
type Cursor struct {
	l     *leafNode
	i     int
	hi    []byte
	arena []byte
}

// Seek positions c at the first key >= lo. Keys >= hi end the walk; a nil
// hi leaves it unbounded. Keys returned before the seek are overwritten.
func (c *Cursor) Seek(t *Tree, lo, hi []byte) {
	n := t.root
	for {
		in, ok := n.(*innerNode)
		if !ok {
			break
		}
		n = in.child[in.upperBound(lo)]
	}
	c.l = n.(*leafNode)
	c.i, c.hi, c.arena = c.l.lowerBound(lo), hi, c.arena[:0]
}

// Next returns the next key and its value; ok is false once the walk has
// passed the last key or reached hi.
func (c *Cursor) Next() (key []byte, val uint64, ok bool) {
	for c.l != nil && c.i >= c.l.n {
		c.l, c.i = c.l.next, 0
	}
	if c.l == nil {
		return nil, 0, false
	}
	l, i := c.l, c.i
	c.i++
	need := len(l.prefix) + len(l.sufs[i])
	if cap(c.arena)-len(c.arena) < need {
		c.arena = make([]byte, 0, max(cursorArena, need))
	}
	o := len(c.arena)
	c.arena = append(append(c.arena, l.prefix...), l.sufs[i]...)
	key = c.arena[o:len(c.arena):len(c.arena)]
	if c.hi != nil && bytes.Compare(key, c.hi) >= 0 {
		c.l = nil
		return nil, 0, false
	}
	return key, l.vals[i], true
}

// bulkFill is how many of a leaf's Fanout slots BulkLoad fills, leaving
// four free so the first inserts into a bulk-loaded leaf do not split it.
const bulkFill = 12

// BulkLoad builds the tree bottom-up from sorted unique keys with maximal
// prefix truncation per leaf; values default to key indexes. Keys are
// spread evenly over ceil(n/bulkFill) leaves, inner levels are packed as
// full as the fanout allows, and separators are suffix-truncated as on a
// split.
func BulkLoad(keys [][]byte, vals []uint64) *Tree {
	t := New()
	n := len(keys)
	if n == 0 {
		return t
	}
	nLeaves := (n + bulkFill - 1) / bulkFill
	level := make([]node, nLeaves)
	seps := make([][]byte, nLeaves)
	var prev *leafNode
	for li := range level {
		lo, hi := li*n/nLeaves, (li+1)*n/nLeaves
		lcp := keys[lo]
		for _, k := range keys[lo+1 : hi] {
			lcp = lcp[:lcpLen(lcp, k)]
		}
		// One arena allocation holds the leaf's suffix bytes, instead of
		// one allocation per key.
		total := 0
		for _, k := range keys[lo:hi] {
			total += len(k) - len(lcp)
		}
		arena := make([]byte, 0, total)
		l := &leafNode{prefix: append([]byte(nil), lcp...), n: hi - lo}
		for j := lo; j < hi; j++ {
			off := len(arena)
			arena = append(arena, keys[j][len(lcp):]...)
			l.sufs[j-lo] = arena[off:len(arena):len(arena)]
			if vals != nil {
				l.vals[j-lo] = vals[j]
			} else {
				l.vals[j-lo] = uint64(j)
			}
		}
		if prev != nil {
			prev.next = l
			// Suffix truncation: the shortest s with leftMax < s <= rightMin.
			leftMax, rightMin := keys[lo-1], keys[lo]
			seps[li] = append([]byte(nil), rightMin[:lcpLen(leftMax, rightMin)+1]...)
		}
		prev = l
		level[li] = l
	}
	t.size = n
	for len(level) > 1 {
		groups := (len(level) + Fanout) / (Fanout + 1)
		up := make([]node, groups)
		upSeps := make([][]byte, groups)
		for g := range up {
			lo, hi := g*len(level)/groups, (g+1)*len(level)/groups
			in := &innerNode{n: hi - lo - 1}
			copy(in.child[:], level[lo:hi])
			copy(in.keys[:], seps[lo+1:hi])
			in.pad()
			up[g], upSeps[g] = in, seps[lo]
		}
		level, seps = up, upSeps
		t.height++
	}
	t.root = level[0]
	return t
}

// Stats summarizes structure and modeled memory: node headers and slot
// arrays as in the plain B+tree, but key storage counts the truncated
// bytes actually kept (leaf prefixes once, suffixes, separator copies).
type Stats struct {
	Leaves, Inners           int
	PrefixBytes, SuffixBytes int
	SeparatorBytes           int
	MemoryBytes              int
}

// ComputeStats traverses the tree. Inner nodes carry the extra 8-byte
// probe-word slot backing the branchless separator search; leaves keep
// the plain 16-byte slots.
func (t *Tree) ComputeStats() Stats {
	var s Stats
	walkStats(t.root, &s)
	s.MemoryBytes = s.Leaves*(16+Fanout*16) + s.Inners*(16+Fanout*24) +
		s.PrefixBytes + s.SuffixBytes + s.SeparatorBytes
	return s
}

func walkStats(n node, s *Stats) {
	switch v := n.(type) {
	case *leafNode:
		s.Leaves++
		s.PrefixBytes += len(v.prefix)
		for i := 0; i < v.n; i++ {
			s.SuffixBytes += len(v.sufs[i])
		}
	case *innerNode:
		s.Inners++
		for i := 0; i < v.n; i++ {
			s.SeparatorBytes += len(v.keys[i])
		}
		for i := 0; i <= v.n; i++ {
			walkStats(v.child[i], s)
		}
	}
}

// MemoryUsage returns the modeled footprint in bytes.
func (t *Tree) MemoryUsage() int { return t.ComputeStats().MemoryBytes }
