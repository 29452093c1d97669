// Package hot implements a Height Optimized Trie (Binna et al., SIGMOD
// 2018), the third search tree the HOPE paper evaluates. HOT's core idea
// is a binary Patricia trie over the keys' discriminative bits, packed
// into compound nodes with fanout up to 32 so the tree height approaches
// ceil(log32 n) regardless of key-space sparsity. Each compound node holds
// a mini binary trie in flat arrays (cache-friendly, pointer-free within
// the node); leaves store only partial-key information plus a reference to
// the full key, which models HOT's tuple pointer — lookups walk
// discriminative bits only and verify the candidate against the full key
// at the end, exactly the optimistic behaviour the paper says dilutes
// HOPE's benefit on HOT (Figures 7 and 12).
//
// This is a from-scratch reimplementation of the published design without
// its SIMD partial-key layouts (see DESIGN.md, Substitutions); height,
// fanout bound, memory proportionality and partial-key semantics match.
package hot

import (
	"bytes"
	"sync"
)

// MaxFanout is the compound-node capacity (the published HOT's k = 32).
const MaxFanout = 32

// Tree is a height-optimized trie mapping byte-string keys to uint64.
type Tree struct {
	root *cnode
	size int

	// arena is scratch storage for the decoded form of the single
	// compound node an insert mutates; reusing it keeps inserts nearly
	// allocation-free. Only one node's decoded tree is live at a time
	// (children are re-encoded before their parent is decoded).
	arena []tnode
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of keys.
func (t *Tree) Len() int { return t.size }

// leaf holds a full key (modeling the tuple the DBMS would verify
// against) and its value.
type leaf struct {
	key []byte
	val uint64
}

// entry is a compound-node slot: either a child compound node or a leaf.
type entry struct {
	child *cnode
	leaf  *leaf
}

// cnode is a compound node: a mini binary Patricia trie over at most
// MaxFanout entries, flattened into arrays. bits[i] is the discriminative
// bit position of mini-trie node i; left/right encode children: values
// >= 0 index bits, values < 0 index entries as -(v+1). Entries are kept in
// trie (= key) order. A cnode with no mini-trie nodes holds exactly one
// entry.
type cnode struct {
	bits    []int32
	left    []int32
	right   []int32
	entries []entry
}

// bitAt reads the key's order-embedded bit string: each byte contributes a
// leading 1 bit then its 8 data bits, and the end of the key contributes a
// 0 bit followed by zeros. This embedding makes distinct keys differ at
// some bit and makes bit-string order equal byte-string order, prefix keys
// included.
func bitAt(key []byte, pos int) int {
	g, r := pos/9, pos%9
	if g >= len(key) {
		return 0
	}
	if r == 0 {
		return 1
	}
	return int(key[g]>>(8-uint(r))) & 1
}

// critBit returns the first position where the embedded bit strings of a
// and b differ. a and b must be distinct.
func critBit(a, b []byte) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for g := 0; g <= n; g++ {
		var ga, gb uint16
		if g < len(a) {
			ga = 1<<8 | uint16(a[g])
		}
		if g < len(b) {
			gb = 1<<8 | uint16(b[g])
		}
		if ga != gb {
			diff := ga ^ gb
			// Highest differing bit within the 9-bit group.
			for i := 0; i < 9; i++ {
				if diff&(1<<(8-uint(i))) != 0 {
					return g*9 + i
				}
			}
		}
	}
	panic("hot: critBit on equal keys")
}

// walkEntry descends the mini-trie by the key's bits and returns the entry
// index reached.
func (c *cnode) walkEntry(key []byte) int {
	if len(c.bits) == 0 {
		return 0
	}
	i := int32(0)
	for {
		var next int32
		if bitAt(key, int(c.bits[i])) == 0 {
			next = c.left[i]
		} else {
			next = c.right[i]
		}
		if next < 0 {
			return int(-(next + 1))
		}
		i = next
	}
}

// Get looks up a key: a pure discriminative-bit walk with one final
// verification against the stored full key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	cn := t.root
	if cn == nil {
		return 0, false
	}
	for {
		e := cn.entries[cn.walkEntry(key)]
		if e.leaf != nil {
			if bytes.Equal(e.leaf.key, key) {
				return e.leaf.val, true
			}
			return 0, false
		}
		cn = e.child
	}
}

// Stats summarizes structure and modeled memory.
type Stats struct {
	CompoundNodes int
	MiniTrieNodes int
	Entries       int
	Leaves        int
	MaxDepth      int // compound-node levels
	SumLeafDepth  int
	MemoryBytes   int
}

// ComputeStats traverses the tree. Modeled footprint: 16 B per compound
// node header, 12 B per mini-trie node (bit position + two child slots),
// 8 B per entry slot, 16 B per leaf (value pointer + tag — full key bytes
// live with the tuples, as in the published HOT).
func (t *Tree) ComputeStats() Stats {
	var s Stats
	if t.root != nil {
		hotWalk(t.root, 1, &s)
	}
	s.MemoryBytes = s.CompoundNodes*16 + s.MiniTrieNodes*12 + s.Entries*8 + s.Leaves*16
	return s
}

func hotWalk(c *cnode, depth int, s *Stats) {
	s.CompoundNodes++
	s.MiniTrieNodes += len(c.bits)
	s.Entries += len(c.entries)
	if depth > s.MaxDepth {
		s.MaxDepth = depth
	}
	for _, e := range c.entries {
		if e.leaf != nil {
			s.Leaves++
			s.SumLeafDepth += depth
			continue
		}
		hotWalk(e.child, depth+1, s)
	}
}

// MemoryUsage returns the modeled footprint in bytes.
func (t *Tree) MemoryUsage() int { return t.ComputeStats().MemoryBytes }

// AvgLeafDepth returns the average compound-node depth of leaves — the
// height metric HOT optimizes.
func (t *Tree) AvgLeafDepth() float64 {
	s := t.ComputeStats()
	if s.Leaves == 0 {
		return 0
	}
	return float64(s.SumLeafDepth) / float64(s.Leaves)
}

// Scan visits keys >= start in ascending order until fn returns false, a
// loop over a Cursor.
func (t *Tree) Scan(start []byte, fn func(key []byte, val uint64) bool) {
	c := scanCursors.Get().(*Cursor)
	c.Seek(t, start, nil)
	for k, v, ok := c.Next(); ok && fn(k, v); k, v, ok = c.Next() {
	}
	scanCursors.Put(c)
}

// scanCursors recycles Scan's cursors, whose path stacks would otherwise be
// allocated by every call.
var scanCursors = sync.Pool{New: func() any { return new(Cursor) }}

// Cursor walks a tree's keys in ascending order from a seek position up
// to an exclusive bound. Entries within each compound node are in key
// order, so the walk is a nested in-order one: the cursor keeps the path
// of compound nodes from the root, each with the index of its next entry,
// and only Seek descends from the root. A key it returns is its leaf's
// own copy, which no write changes, so it stays intact after later
// writes; the position itself is valid only until the tree's next write.
// The zero Cursor is exhausted.
type Cursor struct {
	stack []frame
	leaf  *leaf // a leaf Seek stopped on, returned before the stack
	hi    []byte
}

// frame is a compound node on the cursor's path and its next entry.
type frame struct {
	c *cnode
	i int
}

// Seek positions c at the first key >= lo. Keys >= hi end the walk; a nil
// hi leaves it unbounded. Bit walks alone cannot lower-bound an absent key
// in a Patricia trie, so each level takes the first entry whose subtree
// maximum is >= lo; every later entry's keys lie above it.
func (cur *Cursor) Seek(t *Tree, lo, hi []byte) {
	cur.stack, cur.leaf, cur.hi = cur.stack[:0], nil, hi
	for c := t.root; c != nil; {
		i := 0
		for i < len(c.entries) && bytes.Compare(entryMax(&c.entries[i]), lo) < 0 {
			i++
		}
		if i == len(c.entries) {
			return
		}
		cur.stack = append(cur.stack, frame{c, i + 1})
		e := &c.entries[i]
		if e.leaf != nil {
			cur.leaf = e.leaf
			return
		}
		c = e.child
	}
}

// Next returns the next key and its value; ok is false once the walk has
// passed the last key or reached hi.
func (cur *Cursor) Next() (key []byte, val uint64, ok bool) {
	if l := cur.leaf; l != nil {
		cur.leaf = nil
		return cur.emit(l)
	}
	for len(cur.stack) > 0 {
		f := &cur.stack[len(cur.stack)-1]
		if f.i == len(f.c.entries) {
			cur.stack = cur.stack[:len(cur.stack)-1]
			continue
		}
		e := &f.c.entries[f.i]
		f.i++
		if e.leaf != nil {
			return cur.emit(e.leaf)
		}
		cur.stack = append(cur.stack, frame{e.child, 0})
	}
	return nil, 0, false
}

// emit returns l's key and value, or ends the walk when the key reached hi.
func (cur *Cursor) emit(l *leaf) ([]byte, uint64, bool) {
	if cur.hi != nil && bytes.Compare(l.key, cur.hi) >= 0 {
		cur.stack = cur.stack[:0]
		return nil, 0, false
	}
	return l.key, l.val, true
}

// entryMax returns the greatest key under e.
func entryMax(e *entry) []byte {
	for e.leaf == nil {
		e = &e.child.entries[len(e.child.entries)-1]
	}
	return e.leaf.key
}
