package hutucker

// huTuckerDepths computes optimal alphabetic code lengths with the
// Hu-Tucker combination phase (the algorithm the paper names, in the O(n²)
// formulation of Yohe's Algorithm 428): repeatedly merge the minimum-weight
// *compatible* pair — two nodes with no leaf strictly between them — with
// ties broken toward the leftmost pair, then read leaf depths off the
// combination tree.
//
// Each round scans the working sequence once (candidate pairs are the two
// lightest nodes inside every window delimited by consecutive leaves), so
// the whole run is O(n²).
func huTuckerDepths(weights []uint64) []int {
	n := len(weights)
	parent := make([]int32, 2*n-1)
	seq := make([]gwItem, n)
	for i, w := range weights {
		seq[i] = gwItem{w: w, id: int32(i)}
	}
	leaf := func(p int) bool { return int(seq[p].id) < n }
	next := int32(n)
	for len(seq) > 1 {
		bi, bj := -1, -1
		var bw uint64
		// Scan windows delimited by leaves. A window runs from one leaf
		// (or the sequence start) to the next leaf (or the end), with only
		// internal nodes inside; any two nodes in a window are compatible.
		start := 0
		for start < len(seq) {
			end := start + 1
			for end < len(seq) && !leaf(end) {
				end++
			}
			// Window [start, end] inclusive (end may be len(seq)-1+1?).
			hi := end
			if hi >= len(seq) {
				hi = len(seq) - 1
			}
			if hi > start {
				// Two lightest in window, preferring smaller positions.
				m1, m2 := -1, -1 // positions
				for p := start; p <= hi; p++ {
					w := seq[p].w
					if m1 == -1 || w < seq[m1].w {
						m2 = m1
						m1 = p
					} else if m2 == -1 || w < seq[m2].w {
						m2 = p
					}
				}
				i, j := m1, m2
				if i > j {
					i, j = j, i
				}
				sum := seq[i].w + seq[j].w
				if bi == -1 || sum < bw || (sum == bw && (i < bi || (i == bi && j < bj))) {
					bi, bj, bw = i, j, sum
				}
			}
			if hi < end { // window ended at sequence end
				break
			}
			start = end
		}
		parent[seq[bi].id] = next
		parent[seq[bj].id] = next
		seq[bi] = gwItem{w: bw, id: next} // merged node takes the leftmost position
		next++
		seq = append(seq[:bj], seq[bj+1:]...)
	}
	return depthsFromParents(parent, n)
}
