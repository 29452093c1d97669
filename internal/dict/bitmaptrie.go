package dict

import (
	"fmt"

	"repro/internal/bitops"
	"repro/internal/hutucker"
)

// BitmapTrie is the dictionary structure for the 3-Grams and 4-Grams
// schemes (paper Figure 6). Nodes are stored level by level in
// breadth-first order; each node is a 256-bit bitmap recording its
// branches plus a cumulative counter, and a child is located with a
// popcount over the bitmap — no pointers. Interval boundaries shorter than
// the trie depth (the gap entries created between frequent grams) are
// represented by a terminator flag that sorts before all branches, exactly
// like the paper's ∅ character.
type BitmapTrie struct {
	levels  [][]btNode
	depth   int // maximum boundary length K (3 or 4)
	symLens []uint8
	codes   []hutucker.Code

	// Root dispatch table, precomputed at build for the encode kernel: the root level's rank/select walk is identical for every
	// symbol starting with the same byte, so one 256-entry table replaces
	// a Rank256 (four popcounts) plus the branch logic per symbol.
	// rootChild[c] >= 0 names the level-1 node to continue the floor walk
	// from; otherwise the walk already resolved and rootIdx[c] is the
	// floor entry (possibly -1 = below coverage, rejected by checkIdx).
	rootChild [256]int32
	rootIdx   [256]int32

	// root2 extends the dispatch to the first two bytes (built for
	// depth >= 2, 256 KiB): one load replaces the top two levels'
	// rank/select walks whenever at least two source bytes remain.
	// v >= 0 continues the floor walk from levels[2][v] at depth 2
	// (possible only when depth >= 3); v < 0 is the resolved floor entry
	// ^v, except the root2Below sentinel marking below-coverage pairs
	// (rejected through checkIdx like everywhere else).
	root2 []int32
}

// root2Below marks a two-byte prefix below the dictionary's first
// boundary; hitting it is the same coverage violation checkIdx rejects.
const root2Below = int32(-1) << 31

type btNode struct {
	bitmap    [4]uint64
	startIdx  uint32 // entry index of the first boundary in this subtree
	count     uint32 // number of boundaries in this subtree
	childBase uint32 // index of this node's first child in the next level
	term      bool   // a boundary equal to this node's path exists
}

// NewBitmapTrie builds the trie from sorted entries whose boundaries are
// at most depth bytes long.
func NewBitmapTrie(depth int, entries []Entry) (*BitmapTrie, error) {
	if depth < 1 || depth > 8 {
		return nil, fmt.Errorf("dict: unsupported bitmap-trie depth %d", depth)
	}
	if err := validateEntries(entries); err != nil {
		return nil, err
	}
	t := &BitmapTrie{
		depth:   depth,
		levels:  make([][]btNode, depth),
		symLens: make([]uint8, len(entries)),
		codes:   make([]hutucker.Code, len(entries)),
	}
	for i, e := range entries {
		if len(e.Boundary) > depth {
			return nil, fmt.Errorf("dict: boundary %q longer than trie depth %d", e.Boundary, depth)
		}
		t.symLens[i] = e.SymbolLen
		t.codes[i] = e.Code
	}
	type span struct{ lo, hi int }
	cur := []span{{0, len(entries)}}
	for d := 0; d < depth; d++ {
		var next []span
		nodes := make([]btNode, 0, len(cur))
		for _, sp := range cur {
			node := btNode{
				startIdx:  uint32(sp.lo),
				count:     uint32(sp.hi - sp.lo),
				childBase: uint32(len(next)),
			}
			i := sp.lo
			if len(entries[i].Boundary) == d {
				node.term = true
				i++
			}
			for i < sp.hi {
				c := entries[i].Boundary[d]
				j := i + 1
				for j < sp.hi && entries[j].Boundary[d] == c {
					j++
				}
				bitops.Set256(&node.bitmap, int(c))
				if d == depth-1 {
					if j != i+1 {
						return nil, fmt.Errorf("dict: duplicate boundary prefix %q at max depth",
							entries[i].Boundary)
					}
				} else {
					next = append(next, span{i, j})
				}
				i = j
			}
			nodes = append(nodes, node)
		}
		t.levels[d] = nodes
		cur = next
	}
	t.buildRootTable()
	t.buildRoot2Table()
	return t, nil
}

// buildRootTable replays floorIdx's depth-0 iteration for every first
// byte. Entries either resolve outright (no branch, or depth-1 trie) or
// record the level-1 node the walk continues from.
func (t *BitmapTrie) buildRootTable() {
	root := &t.levels[0][0]
	for c := 0; c < 256; c++ {
		t.rootChild[c] = -1
		r := bitops.Rank256(&root.bitmap, c)
		if bitops.Bit256(&root.bitmap, c) {
			if t.depth == 1 {
				t.rootIdx[c] = int32(int(root.startIdx) + boolInt(root.term) + r - 1)
			} else {
				t.rootChild[c] = int32(root.childBase + uint32(r-1))
			}
			continue
		}
		if t.depth == 1 {
			t.rootIdx[c] = int32(int(root.startIdx) + boolInt(root.term) + r - 1)
			continue
		}
		if r > 0 {
			ch := &t.levels[1][root.childBase+uint32(r-1)]
			t.rootIdx[c] = int32(int(ch.startIdx) + int(ch.count) - 1)
			continue
		}
		idx := int(root.startIdx) - 1
		if root.term {
			idx = int(root.startIdx)
		}
		t.rootIdx[c] = int32(idx)
	}
}

// buildRoot2Table replays the first two iterations of floorFrom for
// every byte pair, assuming at least two source bytes remain (the encode
// kernel falls back to the one-byte tables otherwise, because the
// end-of-key terminator branch resolves differently).
func (t *BitmapTrie) buildRoot2Table() {
	if t.depth < 2 {
		return
	}
	t.root2 = make([]int32, 1<<16)
	for c0 := 0; c0 < 256; c0++ {
		for c1 := 0; c1 < 256; c1++ {
			t.root2[c0<<8|c1] = t.resolve2(byte(c0), byte(c1))
		}
	}
}

func (t *BitmapTrie) resolve2(c0, c1 byte) int32 {
	res := func(idx int) int32 {
		if idx < 0 {
			return root2Below
		}
		return ^int32(idx)
	}
	ni := uint32(0)
	for d, c := range [2]byte{c0, c1} {
		node := &t.levels[d][ni]
		r := bitops.Rank256(&node.bitmap, int(c))
		if d == t.depth-1 {
			// Hit or miss, the deepest level resolves with the same
			// rank arithmetic (floorFrom's two depth-1 branches).
			return res(int(node.startIdx) + boolInt(node.term) + r - 1)
		}
		if bitops.Bit256(&node.bitmap, int(c)) {
			ni = node.childBase + uint32(r-1)
			continue
		}
		if r > 0 {
			ch := &t.levels[d+1][node.childBase+uint32(r-1)]
			return res(int(ch.startIdx) + int(ch.count) - 1)
		}
		idx := int(node.startIdx) - 1
		if node.term {
			idx = int(node.startIdx)
		}
		return res(idx)
	}
	return int32(ni)
}

// Lookup walks at most depth levels, using popcounts to locate children,
// and returns the floor entry for src. The walk itself lives in floorIdx
// (kernel.go); the encode kernel enters it below the root tables.
func (t *BitmapTrie) Lookup(src []byte) (hutucker.Code, int) {
	idx := t.floorIdx(src, 0)
	return t.codes[idx], int(t.symLens[idx])
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// NumEntries returns the number of intervals.
func (t *BitmapTrie) NumEntries() int { return len(t.codes) }

// MemoryUsage returns the footprint: 44 bytes per node (256-bit bitmap
// plus three counters) and 10 bytes per entry (code + length).
func (t *BitmapTrie) MemoryUsage() int {
	nodes := 0
	for _, lv := range t.levels {
		nodes += len(lv)
	}
	return nodes*44 + len(t.codes)*10
}
