package dict

import (
	"encoding/binary"

	"repro/internal/bitops"
	"repro/internal/hutucker"
)

// BatchKernel is the bulk counterpart of Kernel: a dictionary that
// implements it encodes a whole batch of keys in one call, amortizing
// per-key call overhead and — for the array dictionaries — processing
// source bytes a 64-bit word at a time instead of one lookup per
// iteration. The contract mirrors the encoder's bulk layout:
//
//   - keys are encoded back to back into a, each padded to a byte
//     boundary (the stored form the search trees compare);
//   - len(offs) == len(keys)+1 and offs[0] is set by the caller to the
//     byte offset where key 0 begins; the kernel sets offs[i+1] to the
//     total number of complete output bytes after key i (a.Pad());
//   - the caller retrieves the buffer with a final a.Finish().
//
// Every batch kernel is pinned byte-identical to the per-key
// AppendEncode by differential and fuzz suites (core/batch_test.go);
// the per-key kernels are deliberately left untouched as the reference.
type BatchKernel interface {
	AppendEncodeBatch(a *bitops.Appender, keys [][]byte, offs []int)
}

// Static checks: every dictionary structure provides the batch path.
var (
	_ BatchKernel = (*SingleCharArray)(nil)
	_ BatchKernel = (*DoubleCharArray)(nil)
	_ BatchKernel = (*BitmapTrie)(nil)
	_ BatchKernel = (*ARTDict)(nil)
	_ BatchKernel = (*BinarySearch)(nil)
)

// AppendEncodeBatch encodes the batch through the 256-entry table eight
// source bytes per load: one binary.BigEndian.Uint64 replaces eight
// indexed byte loads, and codes are staged in groups of four with a
// single combined-length overflow check per group (the per-symbol check
// runs only on the rare group that actually straddles the staging word).
func (d *SingleCharArray) AppendEncodeBatch(a *bitops.Appender, keys [][]byte, offs []int) {
	if d.pairBits != nil {
		for i, key := range keys {
			d.encodePairs(a, key)
			offs[i+1] = a.Pad()
		}
		return
	}
	for i, key := range keys {
		d.encodeWords(a, key)
		offs[i+1] = a.Pad()
	}
}

// encodePairs is the pair-fused body: one pair-table load per two
// source bytes. When 4*maxLen fits the staging word, two pairs (four
// source bytes) join independently of the accumulator and land in one
// flush-checked staging step — the flush runs *before* the group, so the
// fused fast path is taken on every group instead of only when the
// group happens to fit the accumulator's leftover room. Longer codes
// stage pair by pair with the same flush-first discipline.
func (d *SingleCharArray) encodePairs(a *bitops.Appender, key []byte) {
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
		acc, n = stagePair(a, acc, n, pb[idx], uint(pl[idx]))
	}
	if i < len(key) {
		c := d.codes[key[i]]
		acc, n = stagePair(a, acc, n, c.Bits, uint(c.Len))
	}
	a.AppendWord(acc, n)
}

// stagePair stages one fused pair code with the reference spill logic; a
// pair can be up to 64 bits (two max-length codes), which Go's variable
// shift handles after the flush leaves acc empty.
func stagePair(a *bitops.Appender, acc uint64, n uint, bits uint64, l uint) (uint64, uint) {
	if n+l > 64 {
		a.AppendWord(acc, n)
		acc, n = 0, 0
	}
	acc = acc<<l | bits
	n += l
	return acc, n
}

// encodeWords is the word-parallel body for codes longer than 32 bits,
// where two codes no longer fit a pair-table entry. It produces exactly
// the bit stream of AppendEncode.
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

// stage4 is the slow half of the grouped staging: the four codes
// together overflow the 64-bit word, so fall back to the per-symbol
// spill logic of the reference kernel. Codes can individually be up to
// MaxCodeLen (63) bits, so each one gets its own check.
func stage4(a *bitops.Appender, acc uint64, n uint, c0, c1, c2, c3 hutucker.Code) (uint64, uint) {
	for _, c := range [4]hutucker.Code{c0, c1, c2, c3} {
		cl := uint(c.Len)
		if n+cl > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<cl | c.Bits
		n += cl
	}
	return acc, n
}

// AppendEncodeBatch encodes the batch four source-byte pairs per load:
// one 64-bit load yields four two-byte table indices, staged in one
// combined-length-checked group. The lone trailing byte of odd-length
// keys goes through the terminator entry exactly as in AppendEncode.
func (d *DoubleCharArray) AppendEncodeBatch(a *bitops.Appender, keys [][]byte, offs []int) {
	if d.maxLen <= 32 {
		for i, key := range keys {
			d.encodeFused(a, key)
			offs[i+1] = a.Pad()
		}
		return
	}
	for i, key := range keys {
		d.encodeWords(a, key)
		offs[i+1] = a.Pad()
	}
}

// encodeFused stages two two-byte codes (four source bytes) per
// flush-checked step: the pair join is independent of the accumulator,
// and flushing before the group keeps the fused path hot regardless of
// how full the staging word is. Requires 2*maxLen <= 64.
func (d *DoubleCharArray) encodeFused(a *bitops.Appender, key []byte) {
	base := d.alphabet + 1
	codes := d.codes
	var acc uint64
	var n uint
	i := 0
	for ; i+4 <= len(key); i += 4 {
		c0 := codes[int(key[i])*base+1+int(key[i+1])]
		c1 := codes[int(key[i+2])*base+1+int(key[i+3])]
		t01 := c0.Bits<<uint(c1.Len) | c1.Bits
		s := uint(c0.Len) + uint(c1.Len)
		if n+s > 64 {
			a.AppendWord(acc, n)
			acc, n = 0, 0
		}
		acc = acc<<s | t01
		n += s
	}
	if i+1 < len(key) {
		c := codes[int(key[i])*base+1+int(key[i+1])]
		acc, n = stagePair(a, acc, n, c.Bits, uint(c.Len))
		i += 2
	}
	if i < len(key) {
		c := codes[int(key[i])*base]
		acc, n = stagePair(a, acc, n, c.Bits, uint(c.Len))
	}
	a.AppendWord(acc, n)
}

func (d *DoubleCharArray) encodeWords(a *bitops.Appender, key []byte) {
	base := d.alphabet + 1
	codes := d.codes
	var acc uint64
	var n uint
	i := 0
	for ; i+8 <= len(key); i += 8 {
		w := binary.BigEndian.Uint64(key[i:])
		c0 := codes[int(byte(w>>56))*base+1+int(byte(w>>48))]
		c1 := codes[int(byte(w>>40))*base+1+int(byte(w>>32))]
		c2 := codes[int(byte(w>>24))*base+1+int(byte(w>>16))]
		c3 := codes[int(byte(w>>8))*base+1+int(byte(w))]
		sum := uint(c0.Len) + uint(c1.Len) + uint(c2.Len) + uint(c3.Len)
		if n+sum <= 64 {
			// Tree-fused staging: the two halves join independently of
			// the accumulator, shortening the serial chain from four
			// dependent shift-ors to two. Every partial sum fits 64 bits
			// because the group as a whole does.
			t01 := c0.Bits<<uint(c1.Len) | c1.Bits
			t23 := c2.Bits<<uint(c3.Len) | c3.Bits
			acc = acc<<(uint(c0.Len)+uint(c1.Len)) | t01
			acc = acc<<(uint(c2.Len)+uint(c3.Len)) | t23
			n += sum
		} else {
			acc, n = stage4(a, acc, n, c0, c1, c2, c3)
		}
	}
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

// AppendEncodeBatch encodes the batch through the bitmap trie using the
// precomputed dispatch tables: with two or more source bytes left, the
// two-byte root2 table replaces the top two levels' rank/select walks
// (eight popcounts plus branch logic) with one load, and any remaining
// levels reuse the shared floor walk from depth 2. A lone trailing byte
// dispatches through the one-byte tables, whose entries account for the
// end-of-key terminator. The per-key kernel deliberately keeps the plain
// walk as the pinning reference.
func (t *BitmapTrie) AppendEncodeBatch(a *bitops.Appender, keys [][]byte, offs []int) {
	root2 := t.root2
	for i, key := range keys {
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
		offs[i+1] = a.Pad()
	}
}

// AppendEncodeBatch for ALM runs the per-key kernel in a loop: the ART
// tree walk has no word-level shortcut, so the batch win here is only
// the amortized dispatch and padding bookkeeping.
func (d *ARTDict) AppendEncodeBatch(a *bitops.Appender, keys [][]byte, offs []int) {
	for i, key := range keys {
		d.AppendEncode(a, key)
		offs[i+1] = a.Pad()
	}
}

// AppendEncodeBatch for the reference dictionary runs the per-key
// kernel in a loop; it exists so forced binary-search ablations drive
// the same bulk plumbing.
func (d *BinarySearch) AppendEncodeBatch(a *bitops.Appender, keys [][]byte, offs []int) {
	for i, key := range keys {
		d.AppendEncode(a, key)
		offs[i+1] = a.Pad()
	}
}
