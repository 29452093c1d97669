package hutucker

import "math"

// garsiaWachsDepths computes optimal alphabetic code lengths with the
// Garsia-Wachs algorithm in its left-to-right stack formulation (Knuth,
// TAOCP §6.2.2). Phase 1 repeatedly merges the leftmost "locally minimal
// pair" — items k-1, k with w[k-1] <= w[k+1] — and re-inserts the merged
// tree after the rightmost item to its left with weight >= the merged
// weight; phase 2 reads leaf depths off the (non-alphabetic) combination
// tree. The depths are realizable by an alphabetic tree of equal cost.
//
// Items are pushed one at a time, so the sequence left of the first
// possible pair is a stack with w[i-2] > w[i] throughout: its even- and
// odd-index items each form a strictly decreasing chain, and the
// re-insertion point is a binary search on each. Re-insertion shifts only
// the stack suffix lighter than the merged tree; unvisited input never
// moves. The weights are exact integers, so every comparison is exact and
// the depths are alphabetic.
func garsiaWachsDepths(weights []uint64) []int {
	n := len(weights)
	g := gwStack{
		// The stack never holds more than the two sentinels plus the n
		// pushed leaves.
		s:      make([]gwItem, 2, n+2),
		parent: make([]int32, 2*n-1),
		next:   int32(n),
	}
	// Two sentinels heavier than any tree keep every index the algorithm
	// reads in range and stop every search.
	g.s[0] = gwItem{w: math.MaxUint64, id: -1}
	g.s[1] = g.s[0]
	for i, w := range weights {
		g.s = append(g.s, gwItem{w: w, id: int32(i)})
		for t := len(g.s); g.s[t-3].w <= g.s[t-1].w; t = len(g.s) {
			g.combine(t - 2)
		}
	}
	// The input ends with an implicit infinite weight, so the top pair
	// is always locally minimal.
	for len(g.s) > 3 {
		g.combine(len(g.s) - 1)
	}
	return depthsFromParents(g.parent, n)
}

type gwItem struct {
	w  uint64
	id int32 // node id: leaves 0..n-1, merged trees from n upward
}

// gwStack is the working sequence scanned so far, bottom sentinels first.
type gwStack struct {
	s      []gwItem
	parent []int32 // parent node id per node id
	next   int32   // id of the next merged tree
	pend   []int   // merged trees awaiting a re-check, as distances from the top
}

// combine merges the leftmost locally minimal pair s[k-1], s[k] and then,
// leftmost first, every pair left of s[k+1] that this makes locally
// minimal; the caller re-checks the pair just left of s[k+1]. A merged tree
// placed at q can only make its own pair (q-2, q-1) minimal, because it
// is at most as heavy as s[q-1] and heavier than everything it passed.
// Merging that pair moves the tree one place left, so it is checked again
// until its left neighbours are heavier. All of this happens left of the
// tree, so its distance from the top of the stack is fixed meanwhile.
func (g *gwStack) combine(k int) {
	q := g.merge(k)
	g.pend = append(g.pend[:0], len(g.s)-q)
	for len(g.pend) > 0 {
		q = len(g.s) - g.pend[len(g.pend)-1]
		if g.s[q-2].w <= g.s[q].w {
			q = g.merge(q - 1)
			g.pend = append(g.pend, len(g.s)-q)
		} else {
			g.pend = g.pend[:len(g.pend)-1]
		}
	}
}

// merge replaces s[k-1] and s[k] by their merged tree, re-inserted after
// the rightmost item left of the pair with weight >= the merged weight,
// and returns the tree's new index. Only the items between the
// re-insertion point and the pair, and those right of the pair, move.
func (g *gwStack) merge(k int) int {
	s := g.s
	m := s[k-1].w + s[k].w
	id := g.next
	g.next++
	g.parent[s[k-1].id] = id
	g.parent[s[k].id] = id
	j := max(lastAtLeast(s, k-2, m), lastAtLeast(s, k-3, m))
	copy(s[k:], s[k+1:])
	copy(s[j+2:k], s[j+1:k-1])
	s[j+1] = gwItem{w: m, id: id}
	g.s = s[:len(s)-1]
	return j + 1
}

// lastAtLeast returns the largest index i <= hi with i ≡ hi (mod 2) and
// s[i].w >= m. Left of the merge point the items of one parity strictly
// decrease in weight and start with a sentinel, so this is a binary
// search that always succeeds.
func lastAtLeast(s []gwItem, hi int, m uint64) int {
	base := hi & 1
	lo, up := 0, hi>>1 // chain positions: index base+2x
	for lo < up {
		mid := int(uint(lo+up+1) >> 1)
		if s[base+2*mid].w >= m {
			lo = mid
		} else {
			up = mid - 1
		}
	}
	return base + 2*lo
}

// depthsFromParents returns the depth of each of the n leaves of a
// combination tree whose merged nodes have higher ids than their children,
// so the last id is the root.
func depthsFromParents(parent []int32, n int) []int {
	d := make([]int32, len(parent))
	for id := len(parent) - 2; id >= 0; id-- {
		d[id] = d[parent[id]] + 1
	}
	depths := make([]int, n)
	for i := range depths {
		depths[i] = int(d[i])
	}
	return depths
}
