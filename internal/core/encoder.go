package core

import (
	"bytes"

	"repro/internal/bitops"
)

// appender aliases the bit appender so the Encoder can embed reusable
// encode state.
type appender = bitops.Appender

// appendEncode runs the captured concrete kernel over key, falling back to
// the interface-dispatch loop for dictionaries that do not provide one.
// The fallback also serves as the reference loop the differential tests
// compare the kernels against.
func (e *Encoder) appendEncode(a *appender, key []byte) {
	if e.kern != nil {
		e.kern.AppendEncode(a, key)
		return
	}
	e.appendEncodeGeneric(a, key)
}

// appendEncodeGeneric is the devirtualization baseline: one Dictionary
// interface call and one sub-slice per symbol.
func (e *Encoder) appendEncodeGeneric(a *appender, key []byte) {
	for pos := 0; pos < len(key); {
		code, n := e.dict.Lookup(key[pos:])
		a.Append(code.Bits, uint(code.Len))
		pos += n
	}
}

// Encode compresses key and returns the code sequence padded with zero
// bits to a byte boundary — the form the search trees store. Comparing two
// encoded keys as byte strings preserves the order of the original keys
// strictly: no code can hide inside the padding, because entry 0 never has
// an all-zero code under 8 bits (Build widens one, Reassemble refuses
// one; DESIGN.md, "Strict order").
func (e *Encoder) Encode(key []byte) []byte {
	out, _ := e.EncodeBits(nil, key)
	return out
}

// EncodeBits compresses key into dst (reusing its storage) and returns the
// padded bytes along with the exact number of code bits. With a dst of
// sufficient capacity the call performs no allocations.
func (e *Encoder) EncodeBits(dst, key []byte) ([]byte, int) {
	a := &e.app
	a.Reset(dst)
	e.appendEncode(a, key)
	return a.Finish()
}

// CompressionRate returns the uncompressed byte count of keys divided by
// the compressed byte count (padded, as stored by a search tree) — the
// paper's CPR metric.
func (e *Encoder) CompressionRate(keys [][]byte) float64 {
	var raw, enc int
	buf := make([]byte, 0, 64)
	for _, k := range keys {
		raw += len(k)
		out, _ := e.EncodeBits(buf, k)
		enc += len(out)
		buf = out[:0]
	}
	if enc == 0 {
		return 0
	}
	return float64(raw) / float64(enc)
}

// Batchable reports whether the scheme supports shared-prefix batch
// encoding. The ALM schemes do not: their dictionary symbols have
// arbitrary lengths, so no prefix of a batch is guaranteed to align with
// symbol boundaries (paper Appendix B).
func (e *Encoder) Batchable() bool { return e.lookAhead > 0 }

// EncodeBatch compresses a sorted run of keys, encoding their common
// prefix only once (paper Section 4.2, batch encoding). The results are
// slices of one shared backing array sized by the batch — one allocation
// per batch, not one per key — so callers must not grow them in place.
// Falls back to individual encoding for ALM schemes. A batch of two is the
// paper's pair-encoding used for closed-range queries.
func (e *Encoder) EncodeBatch(keys [][]byte) [][]byte {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out
	}
	// backing accumulates every padded encoding back to back; out[i] is
	// carved from it at the end. Growth is amortized across the batch.
	var backing []byte
	offs := make([]int, len(keys)+1)
	if !e.Batchable() || len(keys) == 1 {
		for i, k := range keys {
			b, _ := e.EncodeBits(nil, k)
			backing = append(backing, b...)
			offs[i+1] = len(backing)
		}
		return carve(out, backing, offs)
	}
	// The common prefix of a sorted run is the prefix of first and last.
	first, last := keys[0], keys[len(keys)-1]
	lcp := 0
	for lcp < len(first) && lcp < len(last) && first[lcp] == last[lcp] {
		lcp++
	}
	a := &e.app
	a.Reset(nil)
	pos := 0
	// Encode the shared prefix while the lookup outcome is provably the
	// same for every key in the batch: a lookup is determined by the next
	// lookAhead bytes, so it may consult at most lcp-lookAhead+... safely
	// while lookAhead bytes of shared context remain.
	for pos+e.lookAhead <= lcp {
		code, n := e.dict.Lookup(first[pos:])
		if pos+n > lcp {
			break
		}
		a.Append(code.Bits, uint(code.Len))
		pos += n
	}
	mark := a.Mark()
	for i, k := range keys {
		a.Restore(mark)
		e.appendEncode(a, k[pos:])
		m2 := a.Mark()
		buf, _ := a.Finish()
		backing = append(backing, buf...)
		offs[i+1] = len(backing)
		a.Restore(m2) // undo Finish's padding before the next key
	}
	return carve(out, backing, offs)
}

// carve slices backing into the per-key results recorded in offs.
func carve(out [][]byte, backing []byte, offs []int) [][]byte {
	for i := range out {
		out[i] = backing[offs[i]:offs[i+1]:offs[i+1]]
	}
	return out
}

// EncodePair encodes the two boundary keys of a closed-range query with
// the shared prefix encoded once, returning the encodings of the smaller
// and greater boundary respectively.
func (e *Encoder) EncodePair(lo, hi []byte) ([]byte, []byte) {
	if bytes.Compare(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	r := e.EncodeBatch([][]byte{lo, hi})
	return r[0], r[1]
}
