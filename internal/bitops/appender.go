// Package bitops provides the low-level bit machinery HOPE is built on:
// a 64-bit-buffered bit appender used by the encoder to concatenate
// non-byte-aligned codes (paper Section 4.2, "Encoder"), and succinct bit
// vectors with rank/select support used by the bitmap-trie dictionary and
// the SuRF filter.
package bitops

import "encoding/binary"

// Appender accumulates variable-length bit codes and emits a byte slice.
// Codes are appended most-significant-bit first so that the byte-wise
// lexicographic order of two emitted buffers matches the bit-wise order of
// the code sequences (the property HOPE's order preservation rests on).
//
// Following the paper, bits are staged in a 64-bit register: appending a
// code is a shift, an OR, and an occasional spill of the full register,
// costing only a few cycles per code.
type Appender struct {
	buf  []byte
	acc  uint64 // pending bits, left-aligned (bit 63 is the oldest)
	nAcc uint   // number of valid bits in acc, 0..63
	bits int    // total bits appended since Reset
}

// NewAppender returns an Appender writing into dst (which may be nil).
// Any existing bytes in dst are treated as already-complete output.
func NewAppender(dst []byte) *Appender {
	return &Appender{buf: dst, bits: len(dst) * 8}
}

// Reset discards all state and starts a fresh buffer reusing dst's storage.
func (a *Appender) Reset(dst []byte) {
	a.buf = dst[:0]
	a.acc = 0
	a.nAcc = 0
	a.bits = 0
}

// Append adds the low n bits of code to the stream, most significant first.
// n must be in [0, 64].
func (a *Appender) Append(code uint64, n uint) {
	if n < 64 {
		code &= (1 << n) - 1
	}
	a.AppendWord(code, n)
}

// AppendWord adds the low n bits of w to the stream, most significant
// first, without masking: the caller guarantees the bits of w above n are
// zero. It is the flush half of the word-level staging fast path used by
// the dictionary encode kernels — a kernel packs several short codes into
// a local 64-bit word (a shift and an OR per code, no calls) and hands the
// word over only when the next code would overflow it, so the register
// bookkeeping here runs once per ~64 bits instead of once per code.
// n must be in [0, 64].
func (a *Appender) AppendWord(w uint64, n uint) {
	if n == 0 {
		return
	}
	a.bits += int(n)
	room := 64 - a.nAcc // nAcc < 64 between calls, so room >= 1
	if n <= room {
		a.acc |= w << (room - n)
		a.nAcc += n
		if a.nAcc == 64 {
			a.spill()
		}
		return
	}
	// Fill the register, spill it, then stage the remainder.
	rem := n - room // in [1, 63]
	a.acc |= w >> rem
	a.nAcc = 64
	a.spill()
	a.acc = w << (64 - rem)
	a.nAcc = rem
}

func (a *Appender) spill() {
	a.buf = binary.BigEndian.AppendUint64(a.buf, a.acc)
	a.acc = 0
	a.nAcc = 0
}

// Bits returns the total number of bits appended so far.
func (a *Appender) Bits() int { return a.bits }

// Finish pads the stream with zero bits to a byte boundary and returns the
// buffer along with the exact bit length before padding. The Appender may
// be reused after Reset.
func (a *Appender) Finish() (buf []byte, bitLen int) {
	bitLen = a.bits
	a.Pad()
	return a.buf, bitLen
}

// Pad appends zero bits up to the next byte boundary and returns the
// number of complete output bytes emitted so far. It is Finish restated
// for bulk encoding, which records a byte offset after every key without
// handing the buffer out mid-stream; appending may continue afterwards
// (the next key starts byte-aligned, exactly the stored form the search
// trees compare).
func (a *Appender) Pad() int {
	if a.nAcc > 0 {
		// acc is left-aligned with zeros below the nAcc valid bits, so
		// the padded tail is its top ceil(nAcc/8) bytes, stored in one
		// append instead of a byte-at-a-time shift loop.
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], a.acc)
		a.buf = append(a.buf, tmp[:(a.nAcc+7)/8]...)
		a.acc = 0
		a.nAcc = 0
	}
	return len(a.buf)
}

// Mark captures the appender state so a shared prefix can be encoded once
// and each batch member can resume from it (pair/batch encoding, paper
// Section 4.2). Restoring a mark is only valid on the same Appender and
// while the buffer has not been handed out by Finish.
type Mark struct {
	bufLen int
	acc    uint64
	nAcc   uint
	bits   int
}

// Mark returns a restore point for the current state.
func (a *Appender) Mark() Mark {
	return Mark{bufLen: len(a.buf), acc: a.acc, nAcc: a.nAcc, bits: a.bits}
}

// Restore rewinds the appender to a previously captured mark.
func (a *Appender) Restore(m Mark) {
	a.buf = a.buf[:m.bufLen]
	a.acc = m.acc
	a.nAcc = m.nAcc
	a.bits = m.bits
}
