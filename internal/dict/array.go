package dict

import (
	"fmt"

	"repro/internal/hutucker"
)

// SingleCharArray is the Single-Char dictionary: a 256-entry code table
// indexed directly by the next source byte (paper Section 4.2: "A lookup
// in an array-based dictionary ... requires only a single memory access
// and the array fits in CPU cache"). Symbols are single bytes, so the
// boundary and symbol are implied by the array offset.
type SingleCharArray struct {
	codes [256]hutucker.Code
	// maxLen is the longest code in the table; the encode kernel uses it
	// to pick its body: pairs when two codes fit a pair-table entry, and
	// two pairs per staging step when four codes fit the staging word
	// (see AppendEncode).
	maxLen uint

	// pairBits/pairLens fuse every two-byte source combination into one
	// precomputed code (pairBits[c1<<8|c2] = bits of c1 followed by bits
	// of c2, pairLens the summed length). The encode kernel then issues
	// one table load and one staging step per two source bytes, halving
	// the serial shift-or dependency chain that dominates encode. Built
	// only when 2*maxLen fits the 64-bit staging word; 576 KiB.
	pairBits []uint64
	pairLens []uint8
}

// NewSingleCharArray builds the dictionary from exactly 256 entries whose
// boundaries are the single bytes 0x00..0xFF in order.
func NewSingleCharArray(entries []Entry) (*SingleCharArray, error) {
	if len(entries) != 256 {
		return nil, fmt.Errorf("dict: Single-Char needs 256 entries, got %d", len(entries))
	}
	if err := validateEntries(entries); err != nil {
		return nil, err
	}
	d := &SingleCharArray{}
	for i, e := range entries {
		if len(e.Boundary) != 1 || e.Boundary[0] != byte(i) || e.SymbolLen != 1 {
			return nil, fmt.Errorf("dict: entry %d is not the single byte %#02x", i, i)
		}
		d.codes[i] = e.Code
		if l := uint(e.Code.Len); l > d.maxLen {
			d.maxLen = l
		}
	}
	if d.maxLen <= 32 {
		d.pairBits = make([]uint64, 1<<16)
		d.pairLens = make([]uint8, 1<<16)
		for a := 0; a < 256; a++ {
			ca := d.codes[a]
			for b := 0; b < 256; b++ {
				cb := d.codes[b]
				d.pairBits[a<<8|b] = ca.Bits<<uint(cb.Len) | cb.Bits
				d.pairLens[a<<8|b] = ca.Len + cb.Len
			}
		}
	}
	return d, nil
}

// Lookup consumes one byte.
func (d *SingleCharArray) Lookup(src []byte) (hutucker.Code, int) {
	return d.codes[src[0]], 1
}

// NumEntries returns 256.
func (d *SingleCharArray) NumEntries() int { return 256 }

// MemoryUsage returns the table footprint.
func (d *SingleCharArray) MemoryUsage() int { return 256 * 9 }

// DoubleCharArray is the Double-Char dictionary. For every first byte c1
// the table holds one terminator entry ∅ (covering the interval [c1,
// c1\x00), i.e. a source string that ends after c1) followed by 256
// two-byte entries [c1 c2, c1 c2+1). This fills the interval gaps between
// [c1 0xFF, ...) and [c1+1, ...) exactly as the paper's terminator
// character does, making the dictionary complete.
//
// The alphabet size is parameterized (production uses 256; tests shrink it
// to keep Hu-Tucker inputs small): with alphabet A the table has A*(A+1)
// entries and source bytes must be < A.
type DoubleCharArray struct {
	alphabet int
	codes    []hutucker.Code
}

// DoubleCharEntries returns the number of entries of a Double-Char
// dictionary over the given alphabet size (65,792 for the full byte
// alphabet, the paper's fixed 2^16-scale dictionary).
func DoubleCharEntries(alphabet int) int { return alphabet * (alphabet + 1) }

// DoubleCharIndex maps a lookup to its table offset: the terminator entry
// of c1 when the source has a single byte left, else the (c1, c2) entry.
func DoubleCharIndex(alphabet int, src []byte) int {
	c1 := int(src[0])
	if len(src) == 1 {
		return c1 * (alphabet + 1)
	}
	return c1*(alphabet+1) + 1 + int(src[1])
}

// NewDoubleCharArray builds the dictionary from exactly
// DoubleCharEntries(alphabet) entries in interval order.
func NewDoubleCharArray(alphabet int, entries []Entry) (*DoubleCharArray, error) {
	want := DoubleCharEntries(alphabet)
	if len(entries) != want {
		return nil, fmt.Errorf("dict: Double-Char over alphabet %d needs %d entries, got %d",
			alphabet, want, len(entries))
	}
	if err := validateEntries(entries); err != nil {
		return nil, err
	}
	d := &DoubleCharArray{alphabet: alphabet, codes: make([]hutucker.Code, want)}
	for i, e := range entries {
		term := i%(alphabet+1) == 0
		if term && e.SymbolLen != 1 || !term && e.SymbolLen != 2 {
			return nil, fmt.Errorf("dict: entry %d has symbol length %d", i, e.SymbolLen)
		}
		d.codes[i] = e.Code
	}
	return d, nil
}

// Lookup consumes two bytes, or one byte when the source string ends.
func (d *DoubleCharArray) Lookup(src []byte) (hutucker.Code, int) {
	idx := DoubleCharIndex(d.alphabet, src)
	if len(src) == 1 {
		return d.codes[idx], 1
	}
	return d.codes[idx], 2
}

// NumEntries returns the table size.
func (d *DoubleCharArray) NumEntries() int { return len(d.codes) }

// MemoryUsage returns the table footprint.
func (d *DoubleCharArray) MemoryUsage() int { return len(d.codes) * 9 }
