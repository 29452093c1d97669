package art

import (
	"bytes"
	"sync"
)

// Scan visits keys >= start in ascending order until fn returns false or
// the tree is exhausted. It is the range-query entry point used by the
// YCSB workload E experiments, a loop over a Cursor.
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
// to an exclusive bound. It keeps the path from the root as a stack of
// inner nodes, each with the position of its next child, so only Seek
// descends from the root. A key it returns aliases its leaf record, whose
// key bytes no write changes, so the key stays intact after later writes;
// the position itself is valid only until the tree's next write. The zero
// Cursor is exhausted.
type Cursor struct {
	stack []frame
	leaf  *leaf // a leaf Seek stopped on, returned before the stack
	hi    []byte
}

// frame is an inner node on the cursor's path. pos is where its next
// child is looked for: -1 before its value leaf (the prefix key, which
// sorts before every child), then an index into a Node4's or Node16's
// sorted children, or a key byte of a Node48 or Node256.
type frame struct {
	n   node
	pos int
}

// Seek positions c at the first key >= lo. Keys >= hi end the walk; a nil
// hi leaves it unbounded. Decisions on paths longer than their inline
// bytes load the actual bytes from a leaf, so the seek never skips a key.
func (c *Cursor) Seek(t *Tree, lo, hi []byte) {
	c.stack, c.leaf, c.hi = c.stack[:0], nil, hi
	n, depth := t.root, 0
	for n != nil {
		if l := asLeaf(n); l != nil {
			if bytes.Compare(l.key(), lo) >= 0 {
				c.leaf = l
			}
			return
		}
		if p := int(hdr(n).prefixLen); p > 0 {
			path, rem := actualPrefix(n, depth), lo[depth:]
			for i := range min(p, len(rem)) {
				if path[i] != rem[i] {
					if path[i] > rem[i] {
						c.push(n) // the whole subtree lies above lo
					}
					return
				}
			}
			if len(rem) <= p {
				// lo ends inside or exactly at the path: every key here,
				// the prefix key included, is >= lo.
				c.push(n)
				return
			}
			depth += p
		}
		if depth >= len(lo) {
			c.push(n)
			return
		}
		// The prefix key is a proper prefix of lo, hence below it, and so
		// is every child under a smaller byte: resume after byte b.
		b := lo[depth]
		c.stack = append(c.stack, frame{n, posAfter(n, b)})
		n = findChild(n, b)
		depth++
	}
}

// push adds n to the path, to be walked from its value leaf on.
func (c *Cursor) push(n node) { c.stack = append(c.stack, frame{n, -1}) }

// Next returns the next key and its value; ok is false once the walk has
// passed the last key or reached hi.
func (c *Cursor) Next() (key []byte, val uint64, ok bool) {
	if l := c.leaf; l != nil {
		c.leaf = nil
		return c.emit(l)
	}
	for len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		if f.pos < 0 {
			f.pos = 0
			if vl := hdr(f.n).valueLeaf; vl != nil {
				return c.emit(vl)
			}
		}
		ch, next := childFrom(f.n, f.pos)
		if ch == nil {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		f.pos = next
		if l := asLeaf(ch); l != nil {
			return c.emit(l)
		}
		c.push(ch)
	}
	return nil, 0, false
}

// emit returns l's key and value, or ends the walk when the key reached hi.
func (c *Cursor) emit(l *leaf) ([]byte, uint64, bool) {
	k := l.key()
	if c.hi != nil && bytes.Compare(k, c.hi) >= 0 {
		c.stack, c.leaf = c.stack[:0], nil
		return nil, 0, false
	}
	return k, l.val, true
}

// childFrom returns the first child of n at or after position pos (see
// frame) and the position after it, or nil when none is left.
func childFrom(n node, pos int) (node, int) {
	switch kindOf(n) {
	case kindNode4:
		if v := (*node4)(n); pos < int(v.numChildren) {
			return v.child[pos], pos + 1
		}
	case kindNode16:
		if v := (*node16)(n); pos < int(v.numChildren) {
			return v.child[pos], pos + 1
		}
	case kindNode48:
		v := (*node48)(n)
		for b := pos; b < 256; b++ {
			if s := v.index[b]; s != 0 {
				return v.child[s-1], b + 1
			}
		}
	case kindNode256:
		v := (*node256)(n)
		for b := pos; b < 256; b++ {
			if v.child[b] != nil {
				return v.child[b], b + 1
			}
		}
	}
	return nil, 256
}

// posAfter returns the position (see frame) of n's first child whose key
// byte is above b.
func posAfter(n node, b byte) int {
	switch kindOf(n) {
	case kindNode4, kindNode16:
		keys, _ := sorted(n)
		i := 0
		for i < len(keys) && keys[i] <= b {
			i++
		}
		return i
	}
	return int(b) + 1
}

// eachChild visits children in ascending key-byte order until fn returns
// false.
func eachChild(n node, fn func(byte, node) bool) {
	switch kindOf(n) {
	case kindNode4, kindNode16:
		keys, child := sorted(n)
		for i, b := range keys {
			if !fn(b, child[i]) {
				return
			}
		}
	case kindNode48:
		v := (*node48)(n)
		for b := range 256 {
			if s := v.index[b]; s != 0 {
				if !fn(byte(b), v.child[s-1]) {
					return
				}
			}
		}
	case kindNode256:
		v := (*node256)(n)
		for b := range 256 {
			if v.child[b] != nil {
				if !fn(byte(b), v.child[b]) {
					return
				}
			}
		}
	}
}
