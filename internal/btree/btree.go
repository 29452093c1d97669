// Package btree implements an in-memory B+tree with TLX-compatible
// geometry (the paper's fourth evaluated tree): 16 key slots per node,
// variable-length string keys, and chained leaves for range scans.
//
// A leaf keeps its keys' bytes in one per-leaf arena and addresses them
// through fixed-width uint32 (offset, length) slots, so a leaf is one
// 424-byte object (448 in its allocator size class) holding two
// pointers, the arena and the next leaf. Arena bytes are write-once:
// inserts append, and a leaf that runs out of capacity, or whose dead
// bytes outgrow its live ones, copies its live keys into a new arena
// rather than compacting in place, so key slices handed out by Scan and
// Cursor stay valid. Inner nodes route on separators that own their
// bytes: the shortest prefix of a right leaf's first key that still
// exceeds its left neighbour's last.
//
// Leaves use a gapped slot layout: occupancy is a 16-bit mask and empty
// slots are distributed through the node, so an insert shifts entries
// only as far as the nearest gap (usually not at all) instead of moving
// the whole suffix. Every slot — including gaps — addresses a key
// chosen so the padded 16-entry key array is non-decreasing, which lets
// point lookups run a branch-predictable fixed-shape binary search (five
// unconditional compares) followed by one bitmask snap to the next
// occupied slot. Inner nodes stay packed but pad their unused key slots
// with the last separator for the same fixed-shape search. See
// DESIGN.md, "Gapped leaves and branchless probe-word search".
package btree

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"unsafe"
)

// Fanout is the number of key slots per node (TLX default geometry).
const Fanout = 16

// fullMask is the occupancy mask of a leaf with every slot taken.
const fullMask = 1<<Fanout - 1

// Tree is a B+tree mapping byte-string keys to uint64 values.
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

// leafNode stores its entries in slot order (occupied slots are strictly
// increasing in key) under the occupancy mask occ. Slot i's key is
// arena[off[i]:off[i]+klen[i]]. Gap slots copy a neighbouring slot's
// (off, klen) such that keys 0..15 read as a whole are non-decreasing —
// the only invariant lowerBound needs. An empty leaf has a nil arena and
// all-zero slots. A leaf's live keys must total under 4 GiB; a single
// key's length is otherwise unlimited.
type leafNode struct {
	// arena is written only by append: bytes below len(arena) never
	// change, and a leaf that needs room or sheds dead bytes moves to a
	// new arena (see compact).
	arena []byte
	off   [Fanout]uint32
	klen  [Fanout]uint32
	vals  [Fanout]uint64
	// pw[i] is the integer probe word of slot i: the first 8 bytes of
	// key(i) past the shared prefix, big-endian, zero-padded. The fixed
	// search probes compare these words — one-cycle integer compares the
	// branch predictor cannot mispredict on data — and fall back to byte
	// compares only on equal words. Maintained by fillGaps and place.
	pw  [Fanout]uint64
	occ uint16
	// pfx is the length of the prefix shared by every stored key (capped
	// at 255): neighbouring string keys share long prefixes, and the
	// probe words discriminate on the 8 bytes after it.
	pfx  uint8
	next *leafNode
}

type innerNode struct {
	// child[i] holds keys < keys[i]; child[n] holds keys >= keys[n-1].
	// Separators own their bytes (never a leaf arena's). Slots keys[n..]
	// duplicate keys[n-1] (see pad) so upperBound's fixed probes always
	// read a non-decreasing array. pw/pfx mirror the leaf scheme over the
	// separators, maintained by pad.
	keys  [Fanout][]byte
	pw    [Fanout]uint64
	child [Fanout + 1]node
	n     int
	pfx   uint8
}

// newArena returns an empty byte slice with room for at least n bytes,
// its capacity rounded up to the allocator's size class, so a capacity
// is what the allocation really costs.
func newArena(n int) []byte { return slices.Grow([]byte(nil), n) }

// leafBytes and innerBytes are the heap bytes one node costs: its size
// rounded up to its allocator size class.
var (
	leafBytes  = cap(newArena(int(unsafe.Sizeof(leafNode{}))))
	innerBytes = cap(newArena(int(unsafe.Sizeof(innerNode{}))))
)

// lcpLen returns the length of the longest common prefix of a and b,
// capped at 255 so it fits the nodes' pfx byte.
func lcpLen(a, b []byte) uint8 {
	n := min(len(a), len(b), 255)
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return uint8(i)
}

// be64 packs up to the first 8 bytes of b big-endian, zero-padded on the
// right. Strict word order implies strict byte-string order; equal words
// mean the strings agree on those bytes only as far as their lengths —
// the searches resolve equal-word runs with byte compares.
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

// count returns the number of occupied slots.
func (l *leafNode) count() int { return bits.OnesCount16(l.occ) }

// firstSlot returns the lowest occupied slot, or Fanout when empty.
func (l *leafNode) firstSlot() int { return bits.TrailingZeros16(l.occ) }

// lastSlot returns the highest occupied slot, or -1 when empty.
func (l *leafNode) lastSlot() int { return bits.Len16(l.occ) - 1 }

// key returns slot i's key, capped so appending to it cannot reach the
// arena's unwritten tail.
func (l *leafNode) key(i int) []byte {
	o, e := l.off[i], l.off[i]+l.klen[i]
	return l.arena[o:e:e]
}

// live returns the arena bytes the occupied slots address; the rest of
// len(arena) is dead (keys deleted since the arena was built).
func (l *leafNode) live() int {
	n := 0
	for mm := l.occ; mm != 0; mm &= mm - 1 {
		n += int(l.klen[bits.TrailingZeros16(mm)])
	}
	return n
}

// fillGaps rewrites every gap slot from the occupied entries, then the
// shared prefix and probe words. Gaps after the first occupied slot copy
// their nearest occupied left neighbour's (off, klen), leading gaps the
// first key's, which makes the padded array non-decreasing. An empty
// leaf drops its arena.
func (l *leafNode) fillGaps() {
	if l.occ == 0 {
		*l = leafNode{next: l.next}
		return
	}
	f := l.firstSlot()
	o, n := l.off[f], l.klen[f]
	for i := 0; i < Fanout; i++ {
		if l.occ&(1<<i) != 0 {
			o, n = l.off[i], l.klen[i]
		} else {
			l.off[i], l.klen[i] = o, n
		}
	}
	// Keys are sorted, so the first/last pair's shared prefix is the
	// node-wide one.
	l.pfx = lcpLen(l.key(f), l.key(l.lastSlot()))
	for i := range l.pw {
		l.pw[i] = be64(l.key(i)[l.pfx:])
	}
}

// roomy returns a new arena for need bytes of keys with a quarter as
// much again free, so the next few inserts append without reallocating.
func roomy(need int) []byte { return newArena(need + need/4) }

// reserve makes room for extra more arena bytes. An arena without dead
// bytes is copied whole into a roomier one, which keeps every offset;
// otherwise the leaf compacts.
func (l *leafNode) reserve(extra int) {
	if cap(l.arena)-len(l.arena) >= extra {
		return
	}
	if l.live() < len(l.arena) {
		l.compact(extra)
		return
	}
	l.arena = append(roomy(len(l.arena)+extra), l.arena...)
}

// compact moves the live keys into a new arena with room for extra more
// bytes. The old arena is never written again, so slices into it stay
// valid.
func (l *leafNode) compact(extra int) {
	a := roomy(l.live() + extra)
	for mm := l.occ; mm != 0; mm &= mm - 1 {
		i := bits.TrailingZeros16(mm)
		k := l.key(i)
		l.off[i] = uint32(len(a))
		a = append(a, k...)
	}
	l.arena = a
	l.fillGaps()
}

// shed compacts the leaf once its dead arena bytes exceed its live ones.
func (l *leafNode) shed() {
	if 2*l.live() < len(l.arena) {
		l.compact(0)
	}
}

// separatorLen returns the length of the shortest prefix of hi that is
// still greater than lo, given lo < hi: their common prefix plus one.
func separatorLen(lo, hi []byte) int {
	i := 0
	for i < len(lo) && i < len(hi) && lo[i] == hi[i] {
		i++
	}
	return i + 1
}

// separator returns an owned copy of hi's shortest prefix above lo: every
// key <= lo sorts below it and every key >= hi at or above it.
func separator(lo, hi []byte) []byte {
	return append([]byte(nil), hi[:separatorLen(lo, hi)]...)
}

// pad duplicates the last separator into the unused key slots so
// upperBound's fixed probes see a non-decreasing array. Inner mutations
// must call it whenever n changes.
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
	in.pfx = lcpLen(in.keys[0], last)
	for i := range in.pw {
		in.pw[i] = be64(in.keys[i][in.pfx:])
	}
}

// upperBound returns the first index with key < keys[i], i.e. the child
// to descend into. The search shape is fixed: five probes at
// data-independent offsets (16 -> 8 -> 4 -> 2 -> 1), no loop. Each probe
// is a single integer compare against the slot's probe word, so the whole
// descent step costs one byte-compare (the shared prefix) plus five
// register compares; byte compares reappear only on equal probe words,
// which needs keys agreeing for pfx+8 bytes.
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
	// b is the first slot with pw >= kw; slots before it hold separators
	// strictly below key. Equal words leave the order undecided (the
	// strings may diverge past byte pfx+8, or differ only in length), so
	// walk the equal-word run with real compares.
	for b < Fanout && in.pw[b] == kw && bytes.Compare(key, in.keys[b][p:]) >= 0 {
		b++
	}
	if b > in.n {
		b = in.n
	}
	return b
}

// lowerBound returns the first occupied slot whose key is >= key, or
// Fanout when none is. It runs the same five fixed integer probes over
// the padded probe-word array (valid because the padding keeps it
// non-decreasing), resolves any equal-word run with byte compares, then
// snaps forward to the next occupied slot with one mask scan: the padded
// lower bound is never past an occupied slot that should be the answer,
// because every slot before it holds a key < the probe.
func (l *leafNode) lowerBound(key []byte) int {
	p := int(l.pfx)
	if p > 0 { // occ != 0, every slot's key is prefixed
		pre := l.key(0)
		if len(key) < p {
			if bytes.Compare(key, pre[:len(key)]) > 0 {
				return Fanout
			}
			return l.firstSlot() // below every stored key
		}
		switch c := bytes.Compare(key[:p], pre[:p]); {
		case c < 0:
			return l.firstSlot()
		case c > 0:
			return Fanout
		}
		key = key[p:]
	}
	kw := be64(key)
	b := 0
	if l.pw[7] < kw {
		b = 8
	}
	if l.pw[b+3] < kw {
		b += 4
	}
	if l.pw[b+1] < kw {
		b += 2
	}
	if l.pw[b] < kw {
		b++
	}
	if b < Fanout && l.pw[b] < kw {
		b++
	}
	for b < Fanout && l.pw[b] == kw && bytes.Compare(l.key(b)[p:], key) < 0 {
		b++
	}
	m := uint32(l.occ) >> b
	if m == 0 {
		return Fanout
	}
	return b + bits.TrailingZeros32(m)
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
			if i < Fanout && bytes.Equal(v.key(i), key) {
				return v.vals[i], true
			}
			return 0, false
		}
	}
}

// Insert adds or updates a key. A true insert appends the key's bytes to
// its leaf's arena, which allocates only when the arena is out of room
// or the leaf splits; overwriting an existing key's value allocates
// nothing.
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

// place copies key into the arena and stores it before occupied slot i
// (Fanout = after all). The caller guarantees the key is absent and the
// leaf not full. When a gap exists adjacent to the insertion point
// nothing moves; a placement inside a gapless run shifts entries only as
// far as the nearest gap on either side.
func (l *leafNode) place(i int, key []byte, val uint64) {
	l.reserve(len(key))
	o := uint32(len(l.arena))
	l.arena = append(l.arena, key...)
	// The shared prefix is lcp(min, max); inserting can only shrink it,
	// and only when k becomes the node's new min or max. Interior inserts
	// keep pfx, and placeAt maintains the probe words in place — the
	// common case touches only k's bytes, not every stored key.
	boundary := l.occ == 0 || i <= l.firstSlot() || i > l.lastSlot()
	l.placeAt(i, o, uint32(len(key)), key, val)
	if !boundary {
		return
	}
	if np := lcpLen(l.key(l.firstSlot()), l.key(l.lastSlot())); np != l.pfx {
		l.pfx = np
		for j := range l.pw {
			l.pw[j] = be64(l.key(j)[np:])
		}
	}
}

// placeAt stores the key k, already at arena[o:o+n], before slot i.
func (l *leafNode) placeAt(i int, o, n uint32, k []byte, val uint64) {
	// k's probe word under the current prefix. When k is shorter than the
	// prefix, or diverges inside it, w is meaningless — but then pfx
	// shrinks, and place() rebuilds the whole array anyway.
	var w uint64
	if p := int(l.pfx); p <= len(k) {
		w = be64(k[p:])
	}
	if l.occ == 0 {
		// First key: occupy the middle slot and point every slot at the
		// key, so both invariants hold with maximal gap headroom.
		for j := range l.off {
			l.off[j], l.klen[j] = o, n
			l.pw[j] = w
		}
		l.vals[Fanout/2] = val
		l.occ = 1 << (Fanout / 2)
		return
	}
	prev := bits.Len16(l.occ & (1<<i - 1)) // 1 + last occupied slot < i
	if i > prev {
		// A gap run [prev, i-1] separates the neighbours: nothing
		// shifts. Take the run's middle slot — halving the run keeps
		// headroom on both sides for monotone insert patterns — and
		// point the whole run at k. The run's old duplicates are only
		// known to lie in [key(prev-1), key(i)], which k splits, so
		// pointing them all at k is what keeps the padding
		// non-decreasing (and is legal for every slot of the run).
		s := (prev + i) / 2
		for j := prev; j < i; j++ {
			l.off[j], l.klen[j] = o, n
			l.pw[j] = w
		}
		l.vals[s] = val
		l.occ |= 1 << s
		return
	}
	// No gap between the neighbours: shift the shorter occupied run one
	// slot toward the nearest gap. At least one gap exists (not full).
	gr := i + bits.TrailingZeros32(uint32(^l.occ)>>i) // first gap >= i
	gl := bits.Len16(^l.occ&(1<<i-1)&fullMask) - 1    // last gap < i
	if gl >= 0 && (gr >= Fanout || i-1-gl <= gr-i) {
		// Shift slots gl+1..i-1 left one; k lands at i-1.
		copy(l.off[gl:i-1], l.off[gl+1:i])
		copy(l.klen[gl:i-1], l.klen[gl+1:i])
		copy(l.vals[gl:i-1], l.vals[gl+1:i])
		copy(l.pw[gl:i-1], l.pw[gl+1:i])
		l.off[i-1], l.klen[i-1] = o, n
		l.vals[i-1] = val
		l.pw[i-1] = w
		l.occ |= 1 << gl
		return
	}
	// Shift slots i..gr-1 right one; k lands at i.
	copy(l.off[i+1:gr+1], l.off[i:gr])
	copy(l.klen[i+1:gr+1], l.klen[i:gr])
	copy(l.vals[i+1:gr+1], l.vals[i:gr])
	copy(l.pw[i+1:gr+1], l.pw[i:gr])
	l.off[i], l.klen[i] = o, n
	l.vals[i] = val
	l.pw[i] = w
	l.occ |= 1 << gr
}

// insert descends and returns a (separator, new right sibling) pair when
// the child split.
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
		if i < Fanout && bytes.Equal(v.key(i), key) {
			v.vals[i] = val // overwrite: no copy, no allocation
			return nil, nil
		}
		t.size++
		if v.occ != fullMask {
			v.place(i, key, val)
			return nil, nil
		}
		// Split the full leaf: each half rebuilds its 8 entries in a new
		// arena, spread over the even slots so a gap sits beside every
		// entry, and the key goes to its half through the gapped path.
		var ks [Fanout][]byte
		var vs [Fanout]uint64
		v.gather(ks[:], vs[:])
		const mid = Fanout / 2
		sep := separator(ks[mid-1], ks[mid])
		right := &leafNode{next: v.next}
		right.scatter(ks[mid:], vs[mid:])
		v.scatter(ks[:mid], vs[:mid])
		v.next = right
		h := v
		if bytes.Compare(key, sep) >= 0 {
			h = right
		}
		h.place(h.lowerBound(key), key, val)
		return sep, right
	}
	return nil, nil
}

// splitInsert splits a full inner node while inserting (sep, right) at idx.
func (v *innerNode) splitInsert(idx int, sep []byte, right node) ([]byte, node) {
	var keys [Fanout + 1][]byte
	var child [Fanout + 2]node
	copy(keys[:idx], v.keys[:idx])
	keys[idx] = sep
	copy(keys[idx+1:], v.keys[idx:v.n])
	copy(child[:idx+1], v.child[:idx+1])
	child[idx+1] = right
	copy(child[idx+2:], v.child[idx+1:v.n+1])

	total := Fanout + 1 // separators after insertion
	mid := total / 2    // separator promoted to the parent
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

// Scan visits keys >= start in order until fn returns false.
func (t *Tree) Scan(start []byte, fn func(key []byte, val uint64) bool) {
	var c Cursor
	c.Seek(t, start, nil)
	for k, v, ok := c.Next(); ok && fn(k, v); k, v, ok = c.Next() {
	}
}

// Cursor walks a tree's keys in ascending order from a seek position up
// to an exclusive bound: a leaf and the occupancy mask of its slots still
// to visit, stepping along the leaves' next links, so only Seek descends
// from the root. A key it returns aliases its leaf's arena, whose bytes
// never change (see compact), so the key stays intact after later
// writes; the position itself is valid only until the tree's next write.
// The zero Cursor is exhausted.
type Cursor struct {
	l  *leafNode
	mm uint32 // slots of l still to visit
	hi []byte
}

// Seek positions c at the first key >= lo. Keys >= hi end the walk; a nil
// hi leaves it unbounded.
func (c *Cursor) Seek(t *Tree, lo, hi []byte) {
	n := t.root
	for {
		in, ok := n.(*innerNode)
		if !ok {
			break
		}
		n = in.child[in.upperBound(lo)]
	}
	l := n.(*leafNode)
	c.l, c.mm, c.hi = l, 0, hi
	if i := l.lowerBound(lo); i < Fanout {
		c.mm = uint32(l.occ) >> i << i
	}
}

// Next returns the next key and its value; ok is false once the walk has
// passed the last key or reached hi.
func (c *Cursor) Next() (key []byte, val uint64, ok bool) {
	for c.mm == 0 {
		if c.l == nil || c.l.next == nil {
			c.l = nil
			return nil, 0, false
		}
		c.l = c.l.next
		c.mm = uint32(c.l.occ)
	}
	s := bits.TrailingZeros32(c.mm)
	c.mm &= c.mm - 1
	key = c.l.key(s)
	if c.hi != nil && bytes.Compare(key, c.hi) >= 0 {
		c.l, c.mm = nil, 0
		return nil, 0, false
	}
	return key, c.l.vals[s], true
}

// bulkFill is how many of a leaf's Fanout slots BulkLoad fills. The
// other four stay gaps, spread evenly through the leaf, so the first
// inserts into a bulk-loaded leaf land in a gap instead of splitting it.
const bulkFill = 12

// BulkLoad builds the tree bottom-up from sorted unique keys; values are
// the key indexes unless vals is non-nil. Keys are spread evenly over
// ceil(n/bulkFill) leaves, each at most bulkFill full with its gaps
// spread between its entries and its key bytes in one arena. Every leaf
// boundary's separator is carved from one shared allocation, and each
// inner level is one slab of nodes packed as full as the fanout allows,
// again spread evenly: two allocations per leaf plus a few per level.
func BulkLoad(keys [][]byte, vals []uint64) *Tree {
	n := len(keys)
	if n == 0 {
		return New()
	}
	t := &Tree{size: n, height: 1}
	nLeaves := (n + bulkFill - 1) / bulkFill
	bound := func(li int) int { return li * n / nLeaves } // first key of leaf li
	sepTotal := 0
	for li := 1; li < nLeaves; li++ {
		sepTotal += separatorLen(keys[bound(li)-1], keys[bound(li)])
	}
	sepArena := make([]byte, 0, sepTotal)
	level := make([]node, nLeaves)
	seps := make([][]byte, nLeaves)
	var prev *leafNode
	for li := range level {
		lo, hi := bound(li), bound(li+1)
		total := 0
		for _, k := range keys[lo:hi] {
			total += len(k)
		}
		l := &leafNode{arena: newArena(total)}
		for j := lo; j < hi; j++ {
			s := (j - lo) * Fanout / (hi - lo)
			l.off[s], l.klen[s] = uint32(len(l.arena)), uint32(len(keys[j]))
			l.arena = append(l.arena, keys[j]...)
			if vals != nil {
				l.vals[s] = vals[j]
			} else {
				l.vals[s] = uint64(j)
			}
			l.occ |= 1 << s
		}
		l.fillGaps()
		if prev != nil {
			prev.next = l
		}
		prev = l
		level[li] = l
		if li > 0 {
			o := len(sepArena)
			sepArena = append(sepArena, keys[lo][:separatorLen(keys[lo-1], keys[lo])]...)
			seps[li] = sepArena[o:len(sepArena):len(sepArena)]
		}
	}
	for len(level) > 1 {
		groups := (len(level) + Fanout) / (Fanout + 1)
		slab := make([]innerNode, groups)
		up := make([]node, groups)
		upSeps := make([][]byte, groups)
		for g := range up {
			lo, hi := g*len(level)/groups, (g+1)*len(level)/groups
			in := &slab[g]
			in.n = hi - lo - 1
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

// Stats summarizes the tree structure and modeled memory.
type Stats struct {
	Leaves, Inners int
	KeyBytes       int // live key bytes in the leaves
	ArenaBytes     int // capacity of the leaf arenas, dead and free bytes included
	SepBytes       int // separator bytes the inner nodes own
	MemoryBytes    int
}

// ComputeStats traverses the tree. The modeled footprint is what the
// heap holds for it: each node at its allocator size class (448-byte
// leaves, 896-byte inner nodes on 64-bit targets), each leaf arena at its
// capacity, and the separators' bytes. The probe-word array is the price
// of the branchless integer search: 128 bytes a node for ~2x faster
// lookups.
func (t *Tree) ComputeStats() Stats {
	var s Stats
	walk(t.root, &s)
	s.MemoryBytes = s.Leaves*leafBytes + s.Inners*innerBytes + s.ArenaBytes + s.SepBytes
	return s
}

func walk(n node, s *Stats) {
	switch v := n.(type) {
	case *leafNode:
		s.Leaves++
		s.KeyBytes += v.live()
		s.ArenaBytes += cap(v.arena)
	case *innerNode:
		s.Inners++
		for i := 0; i < v.n; i++ {
			s.SepBytes += cap(v.keys[i])
		}
		for i := 0; i <= v.n; i++ {
			walk(v.child[i], s)
		}
	}
}

// MemoryUsage returns the modeled footprint in bytes.
func (t *Tree) MemoryUsage() int { return t.ComputeStats().MemoryBytes }
