package dict

import (
	"encoding/binary"

	"repro/internal/bitops"
	"repro/internal/hutucker"
)

// This file holds the encode kernel of every dictionary structure: one
// AppendEncode body per dictionary, run by point encodes and bulk encodes
// alike. Each walks key from position 0 and appends every symbol's code to
// a, which may start mid-byte. A loop of one Lookup and one Append per
// symbol is the reference every body is pinned to (kernel_test.go here,
// appendEncodeGeneric in core's tests).
//
// Kernels stage codes into a local 64-bit word and hand it to the
// appender only when the next code would overflow it. They rely on the
// constructor-checked invariant that no code has set bits above its
// length (checkCode), so staging needs no masking.

// AppendEncode encodes key through the pair table: one pair-table load
// per two source bytes. When 4*maxLen fits the staging word, two pairs
// (four source bytes) join independently of the accumulator and land in
// one flush-checked staging step — the flush runs *before* the group, so
// the fused fast path is taken on every group instead of only when the
// group happens to fit the accumulator's leftover room. Longer codes
// stage pair by pair with the same flush-first discipline, and codes too
// long for pairs go through encodeWords.
func (d *SingleCharArray) AppendEncode(a *bitops.Appender, key []byte) {
	if d.pairBits == nil {
		d.encodeWords(a, key)
		return
	}
	pb, pl := d.pairBits, d.pairLens
	var acc uint64
	var n uint
	i := 0
	if d.maxLen <= 16 {
		for ; i+4 <= len(key); i += 4 {
			i0 := uint32(key[i])<<8 | uint32(key[i+1])
			i1 := uint32(key[i+2])<<8 | uint32(key[i+3])
			b01 := pb[i0]<<uint(pl[i1]) | pb[i1]
			s := uint(pl[i0]) + uint(pl[i1])
			if n+s > 64 {
				a.AppendWord(acc, n)
				acc, n = 0, 0
			}
			acc = acc<<s | b01
			n += s
		}
	}
	for ; i+2 <= len(key); i += 2 {
		idx := uint32(key[i])<<8 | uint32(key[i+1])
		s := uint(pl[idx])
		if n+s > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<s | pb[idx]
		n += s
	}
	if i < len(key) {
		c := d.codes[key[i]]
		cl := uint(c.Len)
		if n+cl > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<cl | c.Bits
		n += cl
	}
	a.AppendWord(acc, n)
}

// stage stages one code, flushing the staging word first when the code
// does not fit. Its call to AppendWord keeps it from inlining, so the
// bodies the generated datasets run spell it out, and only the paths for
// codes longer than 32 bits call it.
func stage(a *bitops.Appender, acc uint64, n uint, bits uint64, l uint) (uint64, uint) {
	if n+l > 64 {
		a.AppendWord(acc, n)
		acc, n = 0, 0
	}
	return acc<<l | bits, n + l
}

// encodeWords is the word-parallel body for codes longer than 32 bits,
// where two codes no longer fit a pair-table entry: one
// binary.BigEndian.Uint64 replaces eight indexed byte loads, and codes are
// staged in groups of four with one combined-length overflow check per
// group (the per-symbol check runs only on a group that straddles the
// staging word).
func (d *SingleCharArray) encodeWords(a *bitops.Appender, key []byte) {
	codes := &d.codes
	var acc uint64
	var n uint
	i := 0
	for ; i+8 <= len(key); i += 8 {
		w := binary.BigEndian.Uint64(key[i:])
		c0 := codes[byte(w>>56)]
		c1 := codes[byte(w>>48)]
		c2 := codes[byte(w>>40)]
		c3 := codes[byte(w>>32)]
		sum := uint(c0.Len) + uint(c1.Len) + uint(c2.Len) + uint(c3.Len)
		if n+sum <= 64 {
			acc = acc<<uint(c0.Len) | c0.Bits
			acc = acc<<uint(c1.Len) | c1.Bits
			acc = acc<<uint(c2.Len) | c2.Bits
			acc = acc<<uint(c3.Len) | c3.Bits
			n += sum
		} else {
			acc, n = stage4(a, acc, n, c0, c1, c2, c3)
		}
		c0 = codes[byte(w>>24)]
		c1 = codes[byte(w>>16)]
		c2 = codes[byte(w>>8)]
		c3 = codes[byte(w)]
		sum = uint(c0.Len) + uint(c1.Len) + uint(c2.Len) + uint(c3.Len)
		if n+sum <= 64 {
			acc = acc<<uint(c0.Len) | c0.Bits
			acc = acc<<uint(c1.Len) | c1.Bits
			acc = acc<<uint(c2.Len) | c2.Bits
			acc = acc<<uint(c3.Len) | c3.Bits
			n += sum
		} else {
			acc, n = stage4(a, acc, n, c0, c1, c2, c3)
		}
	}
	for ; i < len(key); i++ {
		c := codes[key[i]]
		acc, n = stage(a, acc, n, c.Bits, uint(c.Len))
	}
	a.AppendWord(acc, n)
}

// stage4 is the slow half of the grouped staging: the four codes
// together overflow the 64-bit word, so they stage one by one. Codes can
// individually be up to MaxCodeLen (63) bits, so each gets its own check.
func stage4(a *bitops.Appender, acc uint64, n uint, c0, c1, c2, c3 hutucker.Code) (uint64, uint) {
	for _, c := range [4]hutucker.Code{c0, c1, c2, c3} {
		acc, n = stage(a, acc, n, c.Bits, uint(c.Len))
	}
	return acc, n
}

// AppendEncode encodes key two source bytes per code, finishing with the
// terminator entry when a single byte remains. It stays a plain loop, one
// code per staging step: a body that joins two codes per step (four source
// bytes) measured no faster on URL keys and 14-32% slower on email keys
// (EXPERIMENTS.md, "One encode kernel per dictionary").
func (d *DoubleCharArray) AppendEncode(a *bitops.Appender, key []byte) {
	base := d.alphabet + 1
	codes := d.codes
	var acc uint64
	var n uint
	i := 0
	for ; i+1 < len(key); i += 2 {
		c := codes[int(key[i])*base+1+int(key[i+1])]
		cl := uint(c.Len)
		if n+cl > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<cl | c.Bits
		n += cl
	}
	if i < len(key) {
		c := codes[int(key[i])*base]
		cl := uint(c.Len)
		if n+cl > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<cl | c.Bits
		n += cl
	}
	a.AppendWord(acc, n)
}

// AppendEncode encodes key through the bitmap trie using the precomputed
// dispatch tables: with two or more source bytes left, the two-byte root2
// table replaces the top two levels' rank/select walks (eight popcounts
// plus branch logic) with one load, and any remaining levels continue the
// floor walk from depth 2. A lone trailing byte, or a depth-1 trie,
// dispatches through the one-byte tables, whose entries account for the
// end-of-key terminator.
func (t *BitmapTrie) AppendEncode(a *bitops.Appender, key []byte) {
	root2 := t.root2
	var acc uint64
	var n uint
	for pos := 0; pos < len(key); {
		var idx int
		if pos+2 <= len(key) && root2 != nil {
			v := root2[uint32(key[pos])<<8|uint32(key[pos+1])]
			switch {
			case v >= 0:
				idx = t.floorFrom(key, pos, &t.levels[2][v], 2)
			case v != root2Below:
				idx = int(^v)
			default:
				idx = t.checkIdx(-1)
			}
		} else if ch := t.rootChild[key[pos]]; ch >= 0 {
			idx = t.floorFrom(key, pos, &t.levels[1][ch], 1)
		} else {
			idx = t.checkIdx(int(t.rootIdx[key[pos]]))
		}
		c := t.codes[idx]
		cl := uint(c.Len)
		if n+cl > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<cl | c.Bits
		n += cl
		pos += int(t.symLens[idx])
	}
	a.AppendWord(acc, n)
}

// AppendEncode encodes key through the ART floor search; the tree walk has
// no word-level shortcut, so only the staging is shared.
func (d *ARTDict) AppendEncode(a *bitops.Appender, key []byte) {
	var acc uint64
	var n uint
	for pos := 0; pos < len(key); {
		_, idx, ok := d.tree.Floor(key[pos:])
		if !ok {
			panic("dict: lookup below first boundary; dictionary must cover the axis")
		}
		c := d.codes[idx]
		cl := uint(c.Len)
		if n+cl > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<cl | c.Bits
		n += cl
		pos += int(d.symLens[idx])
	}
	a.AppendWord(acc, n)
}

// AppendEncode encodes key through the binary search, so the ablation's
// forced binary-search dictionary goes through the same encoder plumbing
// as the specialized structures.
func (d *BinarySearch) AppendEncode(a *bitops.Appender, key []byte) {
	var acc uint64
	var n uint
	for pos := 0; pos < len(key); {
		c, symLen := d.Lookup(key[pos:])
		cl := uint(c.Len)
		if n+cl > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<cl | c.Bits
		n += cl
		pos += symLen
	}
	a.AppendWord(acc, n)
}

// floorIdx is Lookup restated over (key, pos), returning the floor
// entry's index.
func (t *BitmapTrie) floorIdx(key []byte, pos int) int {
	return t.floorFrom(key, pos, &t.levels[0][0], 0)
}

// floorFrom continues the floor walk from an arbitrary (node, depth)
// state; the encode kernel enters it at depth 1 or 2 after dispatching
// the first bytes through the precomputed root tables.
func (t *BitmapTrie) floorFrom(key []byte, pos int, node *btNode, start int) int {
	for d := start; ; d++ {
		if pos+d == len(key) {
			idx := int(node.startIdx) - 1
			if node.term {
				idx = int(node.startIdx)
			}
			return t.checkIdx(idx)
		}
		c := int(key[pos+d])
		r := bitops.Rank256(&node.bitmap, c)
		if bitops.Bit256(&node.bitmap, c) {
			if d == t.depth-1 {
				return t.checkIdx(int(node.startIdx) + boolInt(node.term) + r - 1)
			}
			node = &t.levels[d+1][node.childBase+uint32(r-1)]
			continue
		}
		if d == t.depth-1 {
			return t.checkIdx(int(node.startIdx) + boolInt(node.term) + r - 1)
		}
		if r > 0 {
			ch := &t.levels[d+1][node.childBase+uint32(r-1)]
			return t.checkIdx(int(ch.startIdx) + int(ch.count) - 1)
		}
		idx := int(node.startIdx) - 1
		if node.term {
			idx = int(node.startIdx)
		}
		return t.checkIdx(idx)
	}
}

func (t *BitmapTrie) checkIdx(idx int) int {
	if idx < 0 {
		panic("dict: lookup below first boundary; dictionary must cover the axis")
	}
	return idx
}
