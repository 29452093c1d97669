// Package art implements the Adaptive Radix Tree (Leis et al., ICDE 2013)
// from scratch, with the two configurations HOPE needs:
//
//   - IndexMode: the search tree evaluated in the paper's Section 7.
//     Lookups skip compressed paths optimistically (OCPS) and verify the
//     candidate against the full key stored in the leaf, mirroring how a
//     DBMS validates against the tuple.
//   - DictMode: the dictionary backend for the ALM and ALM-Improved
//     schemes (paper Section 4.2). With no tuple to verify an optimistic
//     skip against, every comparison uses the exact path bytes; keys that
//     are prefixes of other keys are supported, and a Floor lookup
//     ("greatest key <= query") implements the dictionary's interval
//     search.
//
// Nodes adaptively grow through the four layouts Node4, Node16, Node48 and
// Node256. Both modes share one node format: a child slot is a single
// pointer whose target starts with a kind byte, an inner node keeps at
// most maxStoredPrefix bytes of its compressed path inline and reads the
// rest from its subtree's smallest leaf, and a leaf points at its key
// bytes. BulkLoad carves every leaf from one slab and every key from one
// arena.
package art

import (
	"bytes"
	"unsafe"
)

// Mode selects the tree configuration.
type Mode int

const (
	// IndexMode verifies optimistic lookups against leaf keys.
	IndexMode Mode = iota
	// DictMode compares exact paths and supports Floor.
	DictMode
)

// maxStoredPrefix is how many compressed-path bytes a node keeps inline.
const maxStoredPrefix = 8

// Tree is an adaptive radix tree mapping byte-string keys to uint64 values.
type Tree struct {
	root node
	size int
	mode Mode
}

// New returns an empty tree in the given mode.
func New(mode Mode) *Tree { return &Tree{mode: mode} }

// Len returns the number of keys.
func (t *Tree) Len() int { return t.size }

// node is a child slot: nil, or a pointer to a *leaf, *node4, *node16,
// *node48 or *node256. Every one of those layouts starts with a kind byte;
// code reads it with kindOf and converts the pointer back only to the type
// the byte names.
type node = unsafe.Pointer

// kind tags the layout a node pointer refers to.
type kind uint8

const (
	kindLeaf kind = iota + 1
	kindNode4
	kindNode16
	kindNode48
	kindNode256
)

func kindOf(n node) kind { return *(*kind)(n) }

// leaf is one key and its value: 24 bytes on 64-bit targets. The key bytes
// live elsewhere (a per-key allocation from Insert, BulkLoad's arena) and
// are viewed through key().
type leaf struct {
	kind kind
	klen uint32
	val  uint64
	kp   *byte
}

// emptyKey backs zero-length keys, so they read back as non-nil slices.
var emptyKey byte

// key returns the leaf's key. Its capacity equals its length, so an
// append by a caller copies instead of writing into a neighbour's bytes.
func (l *leaf) key() []byte { return unsafe.Slice(l.kp, l.klen) }

// setKey points the leaf at key bytes it now owns.
func (l *leaf) setKey(k []byte) {
	if uint64(len(k)) > 1<<32-1 {
		panic("art: key longer than 4 GiB")
	}
	l.kind, l.klen, l.kp = kindLeaf, uint32(len(k)), &emptyKey
	if len(k) > 0 {
		l.kp = &k[0]
	}
}

// asLeaf returns n as a leaf, or nil when n is an inner node.
func asLeaf(n node) *leaf {
	if kindOf(n) == kindLeaf {
		return (*leaf)(n)
	}
	return nil
}

// header carries the fields shared by all inner node layouts: 24 bytes on
// 64-bit targets. prefixLen is the true length of the compressed path;
// prefix holds its first min(prefixLen, maxStoredPrefix) bytes, and the
// rest are read from the subtree's smallest leaf (actualPrefix).
type header struct {
	kind        kind
	numChildren uint16
	prefixLen   uint32
	prefix      [maxStoredPrefix]byte
	valueLeaf   *leaf // key that ends exactly at this node (prefix key)
}

// stored returns the inline prefix bytes.
func (h *header) stored() []byte { return h.prefix[:min(h.prefixLen, maxStoredPrefix)] }

// setPrefix records a compressed path: its length and its first
// maxStoredPrefix bytes, zero-padded. prefix may alias h.prefix.
func (h *header) setPrefix(prefix []byte) {
	var p [maxStoredPrefix]byte
	copy(p[:], prefix)
	h.prefix, h.prefixLen = p, uint32(len(prefix))
}

type node4 struct {
	header
	keys  [4]byte
	child [4]node
}

type node16 struct {
	header
	keys  [16]byte
	child [16]node
}

type node48 struct {
	header
	index [256]byte // 0 = empty, otherwise child slot + 1
	child [48]node
}

type node256 struct {
	header
	child [256]node
}

// Constructors for each layout, carrying over a header and setting the
// kind byte.
func newNode4(h header) *node4 {
	h.kind = kindNode4
	return &node4{header: h}
}

func newNode16(h header) *node16 {
	h.kind = kindNode16
	return &node16{header: h}
}

func newNode48(h header) *node48 {
	h.kind = kindNode48
	return &node48{header: h}
}

func newNode256(h header) *node256 {
	h.kind = kindNode256
	return &node256{header: h}
}

// hdr returns the header of an inner node, or nil for a leaf.
func hdr(n node) *header {
	switch kindOf(n) {
	case kindNode4:
		return &(*node4)(n).header
	case kindNode16:
		return &(*node16)(n).header
	case kindNode48:
		return &(*node48)(n).header
	case kindNode256:
		return &(*node256)(n).header
	}
	return nil
}

// findChild returns the child for byte c, or nil.
func findChild(n node, c byte) node {
	switch kindOf(n) {
	case kindNode4:
		v := (*node4)(n)
		for i := 0; i < int(v.numChildren); i++ {
			if v.keys[i] == c {
				return v.child[i]
			}
		}
	case kindNode16:
		v := (*node16)(n)
		lo, hi := 0, int(v.numChildren)
		for lo < hi {
			mid := (lo + hi) / 2
			if v.keys[mid] < c {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < int(v.numChildren) && v.keys[lo] == c {
			return v.child[lo]
		}
	case kindNode48:
		v := (*node48)(n)
		if s := v.index[c]; s != 0 {
			return v.child[s-1]
		}
	case kindNode256:
		return (*node256)(n).child[c]
	}
	return nil
}

// childRef returns a pointer to the child slot for byte c, or nil.
func childRef(n node, c byte) *node {
	switch kindOf(n) {
	case kindNode4:
		v := (*node4)(n)
		for i := 0; i < int(v.numChildren); i++ {
			if v.keys[i] == c {
				return &v.child[i]
			}
		}
	case kindNode16:
		v := (*node16)(n)
		for i := 0; i < int(v.numChildren); i++ {
			if v.keys[i] == c {
				return &v.child[i]
			}
		}
	case kindNode48:
		v := (*node48)(n)
		if s := v.index[c]; s != 0 {
			return &v.child[s-1]
		}
	case kindNode256:
		v := (*node256)(n)
		if v.child[c] != nil {
			return &v.child[c]
		}
	}
	return nil
}

// maxChildBelow returns the child with the greatest key byte strictly less
// than c, or nil.
func maxChildBelow(n node, c int) node {
	switch kindOf(n) {
	case kindNode4:
		v := (*node4)(n)
		var best node
		for i := 0; i < int(v.numChildren) && int(v.keys[i]) < c; i++ {
			best = v.child[i]
		}
		return best
	case kindNode16:
		v := (*node16)(n)
		var best node
		for i := 0; i < int(v.numChildren) && int(v.keys[i]) < c; i++ {
			best = v.child[i]
		}
		return best
	case kindNode48:
		v := (*node48)(n)
		for b := c - 1; b >= 0; b-- {
			if s := v.index[b]; s != 0 {
				return v.child[s-1]
			}
		}
	case kindNode256:
		v := (*node256)(n)
		for b := c - 1; b >= 0; b-- {
			if v.child[b] != nil {
				return v.child[b]
			}
		}
	}
	return nil
}

// minChild and maxChild return the children with the smallest and greatest
// key bytes.
func minChild(n node) node {
	switch kindOf(n) {
	case kindNode4:
		if v := (*node4)(n); v.numChildren > 0 {
			return v.child[0]
		}
	case kindNode16:
		if v := (*node16)(n); v.numChildren > 0 {
			return v.child[0]
		}
	case kindNode48:
		v := (*node48)(n)
		for b := 0; b < 256; b++ {
			if s := v.index[b]; s != 0 {
				return v.child[s-1]
			}
		}
	case kindNode256:
		v := (*node256)(n)
		for b := 0; b < 256; b++ {
			if v.child[b] != nil {
				return v.child[b]
			}
		}
	}
	return nil
}

func maxChild(n node) node { return maxChildBelow(n, 256) }

// minLeaf returns the smallest leaf in the subtree (prefix keys first).
func minLeaf(n node) *leaf {
	for {
		if l := asLeaf(n); l != nil {
			return l
		}
		if h := hdr(n); h.valueLeaf != nil {
			return h.valueLeaf
		}
		n = minChild(n)
	}
}

// maxLeaf returns the greatest leaf in the subtree.
func maxLeaf(n node) *leaf {
	for {
		if l := asLeaf(n); l != nil {
			return l
		}
		c := maxChild(n)
		if c == nil {
			return hdr(n).valueLeaf
		}
		n = c
	}
}

// Min returns the smallest key in the tree.
func (t *Tree) Min() ([]byte, uint64, bool) {
	if t.root == nil {
		return nil, 0, false
	}
	l := minLeaf(t.root)
	return l.key(), l.val, true
}

// Max returns the greatest key in the tree.
func (t *Tree) Max() ([]byte, uint64, bool) {
	if t.root == nil {
		return nil, 0, false
	}
	l := maxLeaf(t.root)
	return l.key(), l.val, true
}

// actualPrefix returns the true compressed-path bytes of an inner node at
// the given depth, reading them from the subtree's smallest leaf when the
// path is longer than the inline bytes. Every key in the subtree, the
// value leaf included, carries the whole path.
func actualPrefix(n node, depth int) []byte {
	h := hdr(n)
	if h.prefixLen <= maxStoredPrefix {
		return h.prefix[:h.prefixLen]
	}
	return minLeaf(n).key()[depth : depth+int(h.prefixLen)]
}

// Get looks up a key. The descent skips compressed paths beyond their
// inline bytes optimistically and the result is verified against the leaf
// key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	n := t.root
	depth := 0
	for n != nil {
		if l := asLeaf(n); l != nil {
			if bytes.Equal(l.key(), key) {
				return l.val, true
			}
			return 0, false
		}
		h := hdr(n)
		if h.prefixLen > 0 {
			plen := int(h.prefixLen)
			if len(key)-depth < plen {
				return 0, false
			}
			stored := h.stored()
			if !bytes.Equal(stored, key[depth:depth+len(stored)]) {
				return 0, false
			}
			depth += plen // optimistic skip beyond the inline bytes
		}
		if depth == len(key) {
			if h.valueLeaf != nil && bytes.Equal(h.valueLeaf.key(), key) {
				return h.valueLeaf.val, true
			}
			return 0, false
		}
		n = findChild(n, key[depth])
		depth++
	}
	return 0, false
}

// Stats summarizes the tree structure; it is computed by a full traversal.
type Stats struct {
	Leaves                    int
	Node4s, Node16s           int
	Node48s, Node256s         int
	PrefixBytes               int // compressed-path bytes the C model stores
	KeyBytes                  int // key bytes retained in leaves
	ValueLeaves               int // prefix keys stored at inner nodes
	SumLeafDepth              int // radix depth summed over leaves (trie height numerator)
	MemoryBytes               int
	MaxDepth, TotalInnerNodes int
}

// ComputeStats walks the tree and returns structural statistics, including
// the modeled memory footprint of the paper's C implementation, not the Go
// heap: C-equivalent node sizes (node4 52 B, node16 160 B, node48 656 B,
// node256 2064 B) plus stored prefix bytes (at most 8 per node in
// IndexMode, the full path in DictMode), with 16 B per leaf modeling the
// value pointer + tag. Leaf key bytes are NOT counted in IndexMode: like
// the paper's ART, the index stores partial keys and a tuple pointer, and
// full keys live with the tuples (our leaves retain them only to model the
// DBMS's final verification) — this is exactly why the paper observes
// smaller HOPE memory savings on ART/HOT than on B+trees (Figure 7).
// DictMode counts key bytes: a dictionary has no tuples to defer storage
// to.
func (t *Tree) ComputeStats() Stats {
	var s Stats
	if t.root != nil {
		t.walkStats(t.root, 0, &s)
	}
	s.TotalInnerNodes = s.Node4s + s.Node16s + s.Node48s + s.Node256s
	s.MemoryBytes = s.Leaves*16 + s.PrefixBytes +
		s.Node4s*(16+4+4*8) + s.Node16s*(16+16+16*8) +
		s.Node48s*(16+256+48*8) + s.Node256s*(16+256*8)
	if t.mode == DictMode {
		s.MemoryBytes += s.KeyBytes
	}
	return s
}

func (t *Tree) walkStats(n node, depth int, s *Stats) {
	if l := asLeaf(n); l != nil {
		s.Leaves++
		s.KeyBytes += int(l.klen)
		s.SumLeafDepth += depth
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		return
	}
	h := hdr(n)
	if t.mode == DictMode {
		s.PrefixBytes += int(h.prefixLen)
	} else {
		s.PrefixBytes += len(h.stored())
	}
	d := depth + int(h.prefixLen)
	if h.valueLeaf != nil {
		s.ValueLeaves++
		s.Leaves++
		s.KeyBytes += int(h.valueLeaf.klen)
		s.SumLeafDepth += d
	}
	switch kindOf(n) {
	case kindNode4:
		s.Node4s++
	case kindNode16:
		s.Node16s++
	case kindNode48:
		s.Node48s++
	case kindNode256:
		s.Node256s++
	}
	eachChild(n, func(_ byte, ch node) bool {
		t.walkStats(ch, d+1, s)
		return true
	})
}

// MemoryUsage returns the modeled footprint in bytes (see ComputeStats).
func (t *Tree) MemoryUsage() int { return t.ComputeStats().MemoryBytes }

// AvgLeafDepth returns the average radix depth of leaves, the "trie
// height" metric of the paper's Figure 10.
func (t *Tree) AvgLeafDepth() float64 {
	s := t.ComputeStats()
	if s.Leaves == 0 {
		return 0
	}
	return float64(s.SumLeafDepth) / float64(s.Leaves)
}
