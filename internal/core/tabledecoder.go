package core

import (
	"encoding/binary"
	"errors"
	"slices"
)

// TableDecoder reconstructs original keys from stored encodings: the code
// bits padded with zero bits to a byte boundary, as Encode returns them and
// the search trees keep them. It is the fast counterpart of the bit-serial
// Decoder, which stays as its differential oracle.
//
// The decoder relies on the alphabetic property of HOPE's codes:
// left-aligned in a 64-bit word, the codes sort in entry order, so the
// entry starting the bit window w is the last entry whose left-aligned code
// is <= w. A lead table over the window's top 12 bits resolves every
// bucket that complete codes cover, carrying the bits consumed and the
// symbol bytes inline — as many codes as fit in the 12 bits and 6 bytes.
// A bucket that only longer codes start in gets a sub-table on up to 6
// more bits; the rest binary-search the entries that start inside the
// bucket. Padding is unambiguous because Build widens an all-zero entry-0
// code to 8 bits: at a code boundary, fewer than 8 remaining bits that
// are all zero can only be padding.
//
// A TableDecoder is read-only after construction and safe for concurrent
// use.
type TableDecoder struct {
	// tab holds one table entry (see subFlag) per lead bucket, 0 if
	// none, then the sub-tables of buckets that only long codes start in.
	tab    []uint64
	bucket []uint32 // per bucket (and one past the last): the last entry starting at or before it
	left   []uint64 // left-aligned code per entry
	lens   []uint8  // code length per entry
	off    []uint32 // entry i's symbol is syms[off[i]:off[i+1]]
	syms   []byte
}

// Errors of TableDecoder.
var (
	// ErrAmbiguousPadding: the dictionary gives entry 0 an all-zero code
	// shorter than 8 bits, which byte padding can hide. Build never makes
	// such a dictionary; Reassemble of foreign entries can.
	ErrAmbiguousPadding = errors.New("core: entry 0 has an all-zero code under 8 bits; padded encodings are ambiguous")
	errInvalidCode      = errors.New("core: invalid or truncated code sequence")
)

// leadBits is the lead table's index width: 4096 buckets, 48 KiB with
// the bucket bounds. 12 bits hold two or more Single-Char codes and the
// frequent codes of every dictionary size the schemes build; wider tables
// measured slower (cache misses), narrower ones searched more.
const leadBits = 12

// NewTableDecoder builds the table decoder for e's dictionary.
func NewTableDecoder(e *Encoder) (*TableDecoder, error) {
	n := len(e.entries)
	if n == 0 {
		return nil, errors.New("core: empty dictionary")
	}
	if c := e.entries[0].Code; c.Bits == 0 && c.Len < 8 {
		return nil, ErrAmbiguousPadding
	}
	d := &TableDecoder{
		left: make([]uint64, n),
		lens: make([]uint8, n),
		off:  make([]uint32, n+1),
	}
	for i, ent := range e.entries {
		c := ent.Code
		if c.Len == 0 || c.Len > 63 {
			return nil, errors.New("core: code length out of range")
		}
		d.left[i] = c.Bits << (64 - c.Len)
		d.lens[i] = c.Len
		if i > 0 && d.left[i] <= d.left[i-1] {
			return nil, errors.New("core: codes are not in entry order")
		}
		d.syms = append(d.syms, ent.Boundary[:ent.SymbolLen]...)
		d.off[i+1] = uint32(len(d.syms))
	}
	d.tab = make([]uint64, 1<<leadBits)
	d.bucket = make([]uint32, 1<<leadBits+1)
	d.bucket[1<<leadBits] = uint32(n - 1)
	for t := range 1 << leadBits {
		d.bucket[t] = uint32(d.find(uint64(t) << (64 - leadBits)))
	}
	for t := range 1 << leadBits {
		w := uint64(t) << (64 - leadBits)
		if d.tab[t] = d.inline(w, leadBits, true); d.tab[t] != 0 {
			continue
		}
		// A bucket that only longer codes start in gets a sub-table on
		// the next s bits, while the sub-tables stay within budget.
		maxLen := 0
		for i := d.bucket[t]; i <= d.bucket[t+1]; i++ {
			maxLen = max(maxLen, int(d.lens[i]))
		}
		s := min(maxLen-leadBits, maxSubBits)
		if s <= 0 || len(d.tab)+1<<s > 1<<leadBits+maxSubEntries {
			continue
		}
		d.tab[t] = subFlag | uint64(s)<<8 | uint64(len(d.tab))<<32
		for u := 0; u < 1<<s; u++ {
			d.tab = append(d.tab, d.inline(w|uint64(u)<<(64-leadBits-s), leadBits+s, false))
		}
	}
	return d, nil
}

// Table-entry layout: the low byte is the bits consumed (at most 63), or
// subFlag for a sub-table reference; the next byte the symbol bytes
// emitted (at most 6, or a sub-table's index width); the rest the
// symbol bytes, or a sub-table's offset from bit 32.
const (
	subFlag       = 0x80
	maxInline     = 6       // symbol bytes one entry carries
	maxSubBits    = 6       // a sub-table indexes at most 6 more bits
	maxSubEntries = 1 << 14 // all sub-tables together: 128 KiB
)

// find returns the last entry whose left-aligned code is <= w, or entry
// 0 when none is (an incomplete code set; its code then fails the prefix
// check), by binary search over every entry (construction only).
func (d *TableDecoder) find(w uint64) int {
	i, _ := slices.BinarySearch(d.left, w+1)
	return max(i-1, 0)
}

// inline returns the table entry for windows that start with the top
// bits of w: the codes that lie wholly within those bits, as many as fit
// when multi is set, with their symbols; 0 if no code fits.
func (d *TableDecoder) inline(w uint64, bits int, multi bool) uint64 {
	var e uint64
	used, slen := 0, 0
	for used < bits {
		i := d.find(w << used)
		cl := int(d.lens[i])
		sym := d.syms[d.off[i]:d.off[i+1]]
		if used+cl > bits || (w<<used^d.left[i])>>(64-cl) != 0 || slen+len(sym) > maxInline {
			break
		}
		for j, c := range sym {
			e |= uint64(c) << (16 + 8*(slen+j))
		}
		used += cl
		slen += len(sym)
		if !multi {
			break
		}
	}
	if used == 0 {
		return 0
	}
	return e | uint64(used) | uint64(slen)<<8
}

// entry returns the last entry whose left-aligned code is <= w.
func (d *TableDecoder) entry(w uint64) int {
	t := w >> (64 - leadBits)
	lo, hi := int(d.bucket[t]), int(d.bucket[t+1])
	// Entries in (lo, hi] may start inside the bucket: find the first
	// one starting above w.
	lo, hi = lo+1, hi+1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d.left[m] <= w {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// AppendDecode appends the original key of the stored encoding src to dst
// and returns the extended buffer. It allocates only when dst must grow.
// Input that no key encodes to — a bit run that is no code, or a code cut
// off by the end of src — returns a nil buffer and an error, never a
// partial key.
func (d *TableDecoder) AppendDecode(dst, src []byte) ([]byte, error) {
	w := window{hi: wordAt(src, 0), lo: wordAt(src, 8), m: 64, left: 8 * len(src)}
	for {
		if w, dst = d.run(w, dst, src); w.left <= 0 {
			return dst, nil
		}
		// run stopped at a code it cannot take from the tables, or dst
		// needs room.
		var n uint
		var err error
		if dst, n, err = d.decodeOne(dst, w.hi, w.left); err != nil || n == 0 {
			return dst, err
		}
		w.advance(n, src)
	}
}

// window is a 128-bit window hi:lo on src starting at the next unread
// bit, zeros past the end of src, of which lo's top m bits are loaded, so
// the window ends on a byte boundary. left counts the unread bits of src.
type window struct {
	hi, lo uint64
	m      uint
	left   int
}

// advance consumes n bits, refilling lo from src when it runs short.
func (w *window) advance(n uint, src []byte) {
	if n > w.m {
		r := (8*len(src) - w.left + 64 + int(w.m)) >> 3
		w.lo |= wordAt(src, r) >> w.m
		w.m += 8 * ((64 - w.m) >> 3)
	}
	w.hi = w.hi<<n | w.lo>>(64-n)
	w.lo <<= n
	w.m -= n
	w.left -= int(n)
}

// run decodes table entries from w while they resolve inline and dst has
// room for an 8-byte store. It calls nothing (wordAt inlines), so the
// window can stay in registers.
func (d *TableDecoder) run(w window, dst, src []byte) (window, []byte) {
	hi, lo, m, left := w.hi, w.lo, w.m, w.left
	tab := d.tab
	for left > 0 && cap(dst)-len(dst) >= 8 {
		e := tab[hi>>(64-leadBits)]
		if e&subFlag != 0 {
			e = tab[int(e>>32)+int(hi<<leadBits>>(64-e>>8&7))]
		}
		n := uint(e & 63)
		if e == 0 || int(n) > left {
			break
		}
		// Append the inline symbols: one 8-byte store, their length kept.
		l := len(dst)
		dst = dst[:l+8]
		binary.LittleEndian.PutUint64(dst[l:], e>>16)
		dst = dst[:l+int(e>>8&0xff)]
		if n > m {
			r := (8*len(src) - left + 64 + int(m)) >> 3
			lo |= wordAt(src, r) >> m
			m += 8 * ((64 - m) >> 3)
		}
		hi = hi<<n | lo>>(64-n)
		lo <<= n
		m -= n
		left -= int(n)
	}
	return window{hi, lo, m, left}, dst
}

// decodeOne decodes the code at the start of window w, of which left bits
// are input, by searching the entries that start in w's bucket, and
// appends its symbol to dst. It returns the code's length, 0 when only
// zero padding is left, or an error with a nil buffer.
func (d *TableDecoder) decodeOne(dst []byte, w uint64, left int) ([]byte, uint, error) {
	if left < 8 && w == 0 {
		return dst, 0, nil
	}
	i := d.entry(w)
	n := uint(d.lens[i]) & 63
	if int(n) > left || (w^d.left[i])>>(64-n) != 0 {
		return nil, 0, errInvalidCode
	}
	return append(dst, d.syms[d.off[i]:d.off[i+1]]...), n, nil
}

// wordAt returns the 8 bytes of src from index i as a big-endian word,
// zero-filled past the end of src.
func wordAt(src []byte, i int) uint64 {
	if i+8 <= len(src) {
		return binary.BigEndian.Uint64(src[i:])
	}
	var w uint64
	for j := i; j < len(src); j++ {
		w |= uint64(src[j]) << (56 - 8*(j-i))
	}
	return w
}

// MemoryUsage returns the decoder's tables in bytes.
func (d *TableDecoder) MemoryUsage() int {
	return 8*len(d.tab) + 4*len(d.bucket) + 8*len(d.left) + len(d.lens) + 4*len(d.off) + len(d.syms)
}
