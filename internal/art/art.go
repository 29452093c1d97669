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
// rest from its subtree's smallest leaf, and a leaf is one pointer-free
// record, a 16-byte header followed by its key bytes. Insert allocates one
// record per key; BulkLoad carves all of them from one arena.
package art

import (
	"bytes"
	"slices"
	"sync"
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
	root  node
	size  int
	mode  Mode
	arena []byte // BulkLoad's leaf records
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

// leaf is the 16-byte header of a leaf record; the key's klen bytes follow
// it inline. A record is pointer-free and 8-byte aligned, carved from a
// byte allocation: one per key from Insert, one arena for all of
// BulkLoad's keys. Reaching a leaf loads one cache line for both its value
// and the key a lookup verifies.
type leaf struct {
	kind kind
	klen uint32
	val  uint64
}

// leafHeader is the size of a leaf record's header.
const leafHeader = unsafe.Sizeof(leaf{})

// leafSize returns the bytes of a record holding an n-byte key, rounded up
// to 8 so records carved back to back stay aligned.
func leafSize(n int) int { return (int(leafHeader) + n + 7) &^ 7 }

// putLeaf writes a record for key and val at the start of rec, which holds
// leafSize(len(key)) zero bytes, and returns it.
func putLeaf(rec, key []byte, val uint64) *leaf {
	if uint64(len(key)) > 1<<32-1 {
		panic("art: key longer than 4 GiB")
	}
	l := (*leaf)(unsafe.Pointer(&rec[0]))
	l.kind, l.klen, l.val = kindLeaf, uint32(len(key)), val
	copy(rec[leafHeader:], key)
	return l
}

// emptyKey backs zero-length keys, so they read back as non-nil slices
// without pointing one past their record, into the next heap object.
var emptyKey byte

// key returns the leaf's key. Its capacity equals its length, so an
// append by a caller copies instead of writing into the next record.
func (l *leaf) key() []byte {
	if l.klen == 0 {
		return unsafe.Slice(&emptyKey, 0)
	}
	return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(l), leafHeader)), l.klen)
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

// tagged returns h tagged with kind k, the header of a new inner node that
// carries over h's path and value leaf.
func (h header) tagged(k kind) header {
	h.kind = k
	return h
}

// hdr returns the header of an inner node: every inner layout starts with
// it.
func hdr(n node) *header { return (*header)(n) }

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

// sorted returns the key bytes and child slots in use of a Node4 or a
// Node16, which keep both sorted by key byte.
func sorted(n node) ([]byte, []node) {
	if kindOf(n) == kindNode4 {
		v := (*node4)(n)
		return v.keys[:v.numChildren], v.child[:v.numChildren]
	}
	v := (*node16)(n)
	return v.keys[:v.numChildren], v.child[:v.numChildren]
}

// childRef returns a pointer to the child slot for byte c, or nil.
func childRef(n node, c byte) *node {
	switch kindOf(n) {
	case kindNode4, kindNode16:
		keys, child := sorted(n)
		if i := bytes.IndexByte(keys, c); i >= 0 {
			return &child[i]
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
	case kindNode4, kindNode16:
		keys, child := sorted(n)
		var best node
		for i := 0; i < len(keys) && int(keys[i]) < c; i++ {
			best = child[i]
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
	case kindNode4, kindNode16:
		if _, child := sorted(n); len(child) > 0 {
			return child[0]
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
	MemoryBytes               int // the C model's footprint (see ComputeStats)
	HeapBytes                 int // Go heap held by inner nodes and leaf records
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
// to. HeapBytes is the Go heap the tree really holds: each inner node and
// each inserted leaf record at its allocation size, plus BulkLoad's arena.
func (t *Tree) ComputeStats() Stats {
	var s Stats
	if t.root != nil {
		t.walkStats(t.root, 0, &s)
	}
	// Node48 and Node256 are large enough to carry the allocator's 8-byte
	// header for objects with pointers.
	s.HeapBytes += allocSize(len(t.arena)) +
		s.Node4s*allocSize(int(unsafe.Sizeof(node4{}))) + s.Node16s*allocSize(int(unsafe.Sizeof(node16{}))) +
		s.Node48s*allocSize(int(unsafe.Sizeof(node48{}))+8) + s.Node256s*allocSize(int(unsafe.Sizeof(node256{}))+8)
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
		t.leafStats(l, depth, s)
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
		t.leafStats(h.valueLeaf, d, s)
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

// leafStats counts one leaf. A record outside the bulk arena is an
// allocation of its own, made by Insert.
func (t *Tree) leafStats(l *leaf, depth int, s *Stats) {
	s.Leaves++
	s.KeyBytes += int(l.klen)
	s.SumLeafDepth += depth
	if off := uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(unsafe.SliceData(t.arena))); off >= uintptr(len(t.arena)) {
		s.HeapBytes += allocSize(leafSize(int(l.klen)))
	}
}

// sizeClasses lists 0 and the allocator's size classes up to 32 KiB, read
// off the runtime: growing an empty slice rounds its capacity up to a class.
var sizeClasses = sync.OnceValue(func() []int {
	var cs []int
	for n := 0; n <= 32<<10; n = cs[len(cs)-1] + 1 {
		cs = append(cs, cap(slices.Grow([]byte(nil), n)))
	}
	return cs
})

// allocSize returns the heap bytes an n-byte allocation occupies: n rounded
// up to its size class, or to whole 8 KiB pages beyond the classes.
func allocSize(n int) int {
	cs := sizeClasses()
	if i, _ := slices.BinarySearch(cs, n); i < len(cs) {
		return cs[i]
	}
	return (n + 8<<10 - 1) &^ (8<<10 - 1)
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
