package btree

import (
	"bytes"
	"math/bits"
)

// minFill is the minimum entry count for non-root nodes after deletion.
const minFill = Fanout / 2

// Delete removes a key, reports whether it was present, and rebalances by
// borrowing from or merging with siblings, collapsing the root when it
// empties.
func (t *Tree) Delete(key []byte) bool {
	if !t.del(t.root, key) {
		return false
	}
	t.size--
	if in, ok := t.root.(*innerNode); ok && in.n == 0 {
		t.root = in.child[0]
		t.height--
	}
	return true
}

func (t *Tree) del(n node, key []byte) bool {
	switch v := n.(type) {
	case *leafNode:
		i := v.lowerBound(key)
		if i >= Fanout || !bytes.Equal(v.key(i), key) {
			return false
		}
		v.occ &^= 1 << i
		v.fillGaps()
		v.shed()
		return true
	case *innerNode:
		idx := v.upperBound(key)
		if !t.del(v.child[idx], key) {
			return false
		}
		t.rebalance(v, idx)
		return true
	}
	return false
}

func fill(n node) int {
	switch v := n.(type) {
	case *leafNode:
		return v.count()
	case *innerNode:
		return v.n
	}
	return 0
}

// gather returns the occupied entries' keys and values in key order in
// ks/vs (each at least count() long) and how many there were. The keys
// alias the arena, which stays valid after the leaf moves to a new one.
func (l *leafNode) gather(ks [][]byte, vs []uint64) int {
	n := 0
	for mm := l.occ; mm != 0; mm &= mm - 1 {
		s := bits.TrailingZeros16(mm)
		ks[n] = l.key(s)
		vs[n] = l.vals[s]
		n++
	}
	return n
}

// scatter rebuilds the leaf from 1..Fanout sorted entries in a new
// arena, spreading them evenly over the slots so every entry has local
// headroom again.
func (l *leafNode) scatter(ks [][]byte, vs []uint64) {
	need := 0
	for _, k := range ks {
		need += len(k)
	}
	a := roomy(need)
	l.occ = 0
	l.vals = [Fanout]uint64{}
	for j, k := range ks {
		s := j * Fanout / len(ks)
		l.off[s], l.klen[s] = uint32(len(a)), uint32(len(k))
		a = append(a, k...)
		l.vals[s] = vs[j]
		l.occ |= 1 << s
	}
	l.arena = a
	l.fillGaps()
}

// rebalance restores the fill invariant of p.child[idx] after a deletion
// below it.
func (t *Tree) rebalance(p *innerNode, idx int) {
	if fill(p.child[idx]) >= minFill {
		return
	}
	// Prefer borrowing from the richer adjacent sibling.
	left, right := -1, -1
	if idx > 0 {
		left = idx - 1
	}
	if idx < p.n {
		right = idx + 1
	}
	switch c := p.child[idx].(type) {
	case *leafNode:
		var ks [Fanout + 1][]byte
		var vs [Fanout + 1]uint64
		if left >= 0 && fill(p.child[left]) > minFill {
			// Move the left sibling's last entry in front of c.
			l := p.child[left].(*leafNode)
			n := c.gather(ks[1:], vs[1:])
			ls := l.lastSlot()
			ks[0], vs[0] = l.key(ls), l.vals[ls]
			l.occ &^= 1 << ls
			l.fillGaps()
			l.shed()
			c.scatter(ks[:n+1], vs[:n+1])
			p.keys[left] = separator(l.key(l.lastSlot()), ks[0])
			p.pad()
			return
		}
		if right >= 0 && fill(p.child[right]) > minFill {
			// Move the right sibling's first entry to the back of c.
			r := p.child[right].(*leafNode)
			n := c.gather(ks[:], vs[:])
			rs := r.firstSlot()
			ks[n], vs[n] = r.key(rs), r.vals[rs]
			r.occ &^= 1 << rs
			r.fillGaps()
			r.shed()
			c.scatter(ks[:n+1], vs[:n+1])
			p.keys[idx] = separator(ks[n], r.key(r.firstSlot()))
			p.pad()
			return
		}
		// Merge with a sibling (both at minimum: combined fits one node).
		if left >= 0 {
			mergeLeaves(p.child[left].(*leafNode), c)
			p.removeAt(left)
		} else if right >= 0 {
			mergeLeaves(c, p.child[right].(*leafNode))
			p.removeAt(idx)
		}
	case *innerNode:
		if left >= 0 && fill(p.child[left]) > minFill {
			l := p.child[left].(*innerNode)
			copy(c.keys[1:c.n+1], c.keys[:c.n])
			copy(c.child[1:c.n+2], c.child[:c.n+1])
			c.keys[0] = p.keys[left]
			c.child[0] = l.child[l.n]
			p.keys[left] = l.keys[l.n-1]
			l.child[l.n] = nil
			l.n--
			c.n++
			l.pad()
			c.pad()
			p.pad()
			return
		}
		if right >= 0 && fill(p.child[right]) > minFill {
			r := p.child[right].(*innerNode)
			c.keys[c.n] = p.keys[idx]
			c.child[c.n+1] = r.child[0]
			c.n++
			p.keys[idx] = r.keys[0]
			copy(r.keys[:r.n-1], r.keys[1:r.n])
			copy(r.child[:r.n], r.child[1:r.n+1])
			r.child[r.n] = nil
			r.n--
			r.pad()
			c.pad()
			p.pad()
			return
		}
		if left >= 0 {
			mergeInners(p.child[left].(*innerNode), c, p.keys[left])
			p.removeAt(left)
		} else if right >= 0 {
			mergeInners(c, p.child[right].(*innerNode), p.keys[idx])
			p.removeAt(idx)
		}
	}
}

// mergeLeaves redistributes r's entries into l and unlinks r from the
// leaf chain. Both are at or below minimum fill, so the union fits.
func mergeLeaves(l, r *leafNode) {
	var ks [Fanout][]byte
	var vs [Fanout]uint64
	n := l.gather(ks[:], vs[:])
	n += r.gather(ks[n:], vs[n:])
	l.scatter(ks[:n], vs[:n])
	l.next = r.next
}

// mergeInners appends r into l with the parent separator between them.
func mergeInners(l, r *innerNode, sep []byte) {
	l.keys[l.n] = sep
	copy(l.keys[l.n+1:], r.keys[:r.n])
	copy(l.child[l.n+1:], r.child[:r.n+1])
	l.n += r.n + 1
	l.pad()
}

// removeAt drops separator i and the child to its right.
func (p *innerNode) removeAt(i int) {
	copy(p.keys[i:], p.keys[i+1:p.n])
	copy(p.child[i+1:], p.child[i+2:p.n+1])
	p.child[p.n] = nil
	p.n--
	p.pad()
}
