// Package surf implements the Succinct Range Filter (Zhang et al.,
// SIGMOD 2018), the first search tree the HOPE paper evaluates. SuRF is a
// trie truncated at each key's minimal distinguishing prefix and encoded
// succinctly, answering approximate membership queries over points and
// ranges with no false negatives.
//
// This implementation uses the LOUDS-Sparse encoding throughout (the
// published SuRF mixes a dense level-1 encoding for speed; see DESIGN.md,
// Substitutions): per trie edge one label, one has-child bit and one
// LOUDS bit marking the first edge of each node, with rank/select over the
// bit vectors providing pointer-free navigation. Three suffix modes are
// supported: Base (no suffixes), Hash (k hash bits per key) and Real (the
// k key bits following the truncation point), trading false-positive rate
// for space exactly as in the original.
package surf

import (
	"bytes"
	"sort"

	"repro/internal/bitops"
)

// SuffixMode selects what SuRF stores per leaf to reject false positives.
type SuffixMode int

const (
	// Base stores nothing: smallest, highest false-positive rate.
	Base SuffixMode = iota
	// Hash stores k bits of a key hash: rejects point-query collisions.
	Hash
	// Real stores the k key bits after the truncation point: also prunes
	// range false positives, the paper's "SuRF-Real8" configuration.
	Real
)

// terminator is the reserved label for keys ending at an inner node; it
// sorts before every byte label (labels store byte+1).
const terminator uint16 = 0

// Filter is an immutable SuRF built from sorted unique keys.
type Filter struct {
	labels     []uint16
	hasChild   *bitops.BitVector
	louds      *bitops.BitVector
	mode       SuffixMode
	suffixLen  uint // bits per leaf
	suffixBits []uint64
	numKeys    int
	sumDepth   int // leaf-edge depths, for AvgHeight
}

// Build constructs the filter. keys must be sorted and unique; suffixLen
// is the per-key suffix bit count for Hash and Real modes (the paper's
// SuRF-Real8 uses 8).
func Build(keys [][]byte, mode SuffixMode, suffixLen uint) *Filter {
	f := &Filter{mode: mode, suffixLen: suffixLen, numKeys: len(keys)}
	if mode == Base {
		f.suffixLen = 0
	}
	var labels []uint16
	var hasChild, louds bitops.Builder
	var suffixes []suffixRec

	type span struct{ lo, hi, depth int }
	queue := []span{}
	if len(keys) > 0 {
		queue = append(queue, span{0, len(keys), 0})
	}
	for len(queue) > 0 {
		sp := queue[0]
		queue = queue[1:]
		first := true
		i := sp.lo
		// A key ending exactly at this node becomes a terminator leaf.
		if len(keys[i]) == sp.depth {
			labels = append(labels, terminator)
			hasChild.PushBit(false)
			louds.PushBit(first)
			first = false
			suffixes = append(suffixes, suffixRec{keyIdx: i, sufStart: sp.depth})
			f.sumDepth += sp.depth
			i++
		}
		for i < sp.hi {
			c := keys[i][sp.depth]
			j := i + 1
			for j < sp.hi && keys[j][sp.depth] == c {
				j++
			}
			labels = append(labels, uint16(c)+1)
			louds.PushBit(first)
			first = false
			if j-i == 1 {
				// Unique from here: truncate and store a leaf.
				hasChild.PushBit(false)
				suffixes = append(suffixes, suffixRec{keyIdx: i, sufStart: sp.depth + 1})
				f.sumDepth += sp.depth + 1
			} else {
				hasChild.PushBit(true)
				queue = append(queue, span{i, j, sp.depth + 1})
			}
			i = j
		}
	}
	f.labels = labels
	f.hasChild = hasChild.Build()
	f.louds = louds.Build()
	f.packSuffixes(keys, suffixes)
	return f
}

type suffixRec struct {
	keyIdx   int
	sufStart int
}

// packSuffixes stores per-leaf suffix bits contiguously.
func (f *Filter) packSuffixes(keys [][]byte, recs []suffixRec) {
	if f.suffixLen == 0 {
		return
	}
	total := uint(len(recs)) * f.suffixLen
	f.suffixBits = make([]uint64, (total+63)/64)
	for leafIdx, r := range recs {
		var v uint64
		switch f.mode {
		case Hash:
			v = fnv1a(keys[r.keyIdx]) & mask(f.suffixLen)
		case Real:
			v = keyBitsFrom(keys[r.keyIdx], r.sufStart, f.suffixLen)
		}
		f.putSuffix(leafIdx, v)
	}
}

func mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

// keyBitsFrom extracts n bits of key starting at byte offset start,
// zero-padded past the end.
func keyBitsFrom(key []byte, start int, n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		bit := uint(0)
		byteIdx := start + int(i/8)
		if byteIdx < len(key) {
			bit = uint(key[byteIdx]>>(7-i%8)) & 1
		}
		v = v<<1 | uint64(bit)
	}
	return v
}

func (f *Filter) putSuffix(leafIdx int, v uint64) {
	off := uint(leafIdx) * f.suffixLen
	for i := uint(0); i < f.suffixLen; i++ {
		bit := (v >> (f.suffixLen - 1 - i)) & 1
		pos := off + i
		if bit != 0 {
			f.suffixBits[pos/64] |= 1 << (pos % 64)
		}
	}
}

func (f *Filter) getSuffix(leafIdx int) uint64 {
	var v uint64
	off := uint(leafIdx) * f.suffixLen
	for i := uint(0); i < f.suffixLen; i++ {
		pos := off + i
		bit := (f.suffixBits[pos/64] >> (pos % 64)) & 1
		v = v<<1 | bit
	}
	return v
}

func fnv1a(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// nodeRange returns the label positions [lo, hi) of a node.
func (f *Filter) nodeRange(nodeNum int) (int, int) {
	lo, _ := f.louds.Select1(nodeNum + 1)
	hi, ok := f.louds.Select1(nodeNum + 2)
	if !ok {
		hi = len(f.labels)
	}
	return lo, hi
}

// findLabel locates label l within [lo, hi); labels in a node are sorted.
func (f *Filter) findLabel(lo, hi int, l uint16) (int, bool) {
	i := lo + sort.Search(hi-lo, func(i int) bool { return f.labels[lo+i] >= l })
	return i, i < hi && f.labels[i] == l
}

// childNode returns the node reached through the has-child edge at pos.
func (f *Filter) childNode(pos int) int { return f.hasChild.Rank1(pos) }

// leafIndex returns the leaf number of the non-has-child edge at pos.
func (f *Filter) leafIndex(pos int) int { return f.hasChild.Rank0(pos) - 1 }

// checkLeaf applies the suffix filter for a point query.
func (f *Filter) checkLeaf(pos int, key []byte, sufStart int) bool {
	switch f.mode {
	case Hash:
		return f.getSuffix(f.leafIndex(pos)) == fnv1a(key)&mask(f.suffixLen)
	case Real:
		return f.getSuffix(f.leafIndex(pos)) == keyBitsFrom(key, sufStart, f.suffixLen)
	}
	return true
}

// MayContain reports whether key may be in the set (no false negatives).
func (f *Filter) MayContain(key []byte) bool {
	if f.numKeys == 0 {
		return false
	}
	node := 0
	for d := 0; ; d++ {
		lo, hi := f.nodeRange(node)
		if d == len(key) {
			// Only an exact terminator completes the key here.
			pos, ok := f.findLabel(lo, hi, terminator)
			return ok && !f.hasChild.Get(pos) && f.checkLeaf(pos, key, d)
		}
		pos, ok := f.findLabel(lo, hi, uint16(key[d])+1)
		if !ok {
			return false
		}
		if !f.hasChild.Get(pos) {
			return f.checkLeaf(pos, key, d+1)
		}
		node = f.childNode(pos)
	}
}

// NumKeys returns the number of keys the filter was built from.
func (f *Filter) NumKeys() int { return f.numKeys }

// AvgHeight returns the average trie depth of the leaves, the paper's
// Figure 10 "trie height" metric.
func (f *Filter) AvgHeight() float64 {
	if f.numKeys == 0 {
		return 0
	}
	return float64(f.sumDepth) / float64(f.numKeys)
}

// MemoryUsage returns the modeled footprint in bytes: 2 bytes per label,
// the two bit vectors with their rank indexes, and the suffix bits.
func (f *Filter) MemoryUsage() int {
	m := len(f.labels)*2 + f.hasChild.MemoryUsage() + f.louds.MemoryUsage()
	return m + len(f.suffixBits)*8
}

// FalsePositiveRate measures the point-query FPR against a set of keys
// known to be absent.
func (f *Filter) FalsePositiveRate(absent [][]byte) float64 {
	if len(absent) == 0 {
		return 0
	}
	fp := 0
	for _, k := range absent {
		if f.MayContain(k) {
			fp++
		}
	}
	return float64(fp) / float64(len(absent))
}

// MayContainRange reports whether any key in the closed range [lo, hi]
// may be present. One-sided: never false when a stored key is in range
// (see candidate for the test). MayIntersect is the half-open,
// optionally unbounded form.
func (f *Filter) MayContainRange(lo, hi []byte) bool {
	if bytes.Compare(lo, hi) > 0 {
		return false
	}
	cand, ok := f.candidate(lo)
	return ok && bytes.Compare(cand, hi) <= 0
}
