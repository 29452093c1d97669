// Package dict implements the dictionary structures of HOPE (paper
// Section 4.2, Table 1). A dictionary maps the intervals of the string
// axis model to codes; because the intervals are connected and disjoint,
// only each interval's left boundary is stored, and a lookup is a floor
// search: find the entry with the greatest boundary <= the source string.
//
// Three structures are provided, matching the paper: a fixed-length array
// for Single-Char and Double-Char, a bitmap-trie with popcount-based child
// indexing for 3-Grams and 4-Grams, and an ART-based dictionary for the
// ALM schemes. A plain binary-search dictionary doubles as the correctness
// reference and as the ablation baseline the paper compares the
// bitmap-trie against ("2.3x faster than binary-searching").
package dict

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitops"
	"repro/internal/hutucker"
)

// Entry is one dictionary mapping: the left boundary of an interval on the
// string axis, the length of the interval's symbol (the number of source
// bytes consumed when the entry matches), and the interval's code.
type Entry struct {
	Boundary  []byte
	SymbolLen uint8
	Code      hutucker.Code
}

// Dictionary is the floor-lookup structure consulted at every encoding
// step. Lookup finds the interval containing src and returns its code and
// symbol length; src must be non-empty and the dictionary must cover the
// axis from "\x00" (all HOPE symbol selectors guarantee this), so a lookup
// never fails.
//
// AppendEncode is the encode kernel (kernel.go): it appends the codes of
// every symbol of key to a, exactly the bits a Lookup loop over key
// appends, in one concrete loop with no dispatch or sub-slice per symbol.
type Dictionary interface {
	Lookup(src []byte) (code hutucker.Code, symLen int)
	AppendEncode(a *bitops.Appender, key []byte)
	NumEntries() int
	// MemoryUsage is the structure's footprint in bytes, reported for the
	// paper's dictionary-memory experiments (Figure 8, third row).
	MemoryUsage() int
}

// ErrNoCoverage is returned by constructors when the entry set does not
// cover the string axis from "\x00" upward.
var ErrNoCoverage = errors.New("dict: entries do not cover the axis from \"\\x00\"")

// validateEntries checks ordering, coverage, symbol and code sanity. The
// codes must strictly increase and no code may be a prefix of the next:
// otherwise two keys could encode in the wrong order, or to the same
// bytes, and a store built on the dictionary would misorder or merge them.
func validateEntries(entries []Entry) error {
	if len(entries) == 0 {
		return errors.New("dict: empty entry set")
	}
	if len(entries[0].Boundary) == 0 || entries[0].Boundary[0] != 0x00 {
		// The region below the first boundary would be unreachable only
		// for the empty string; any other src needs a floor entry.
		if len(entries[0].Boundary) != 0 {
			return ErrNoCoverage
		}
	}
	for i, e := range entries {
		if e.SymbolLen == 0 {
			return fmt.Errorf("dict: entry %d has empty symbol", i)
		}
		if err := checkCode(e.Code); err != nil {
			return fmt.Errorf("dict: entry %d: %w", i, err)
		}
		if int(e.SymbolLen) > len(e.Boundary) {
			return fmt.Errorf("dict: entry %d symbol longer than boundary", i)
		}
		if i == 0 {
			continue
		}
		if bytes.Compare(entries[i-1].Boundary, e.Boundary) >= 0 {
			return fmt.Errorf("dict: boundaries not strictly increasing at %d", i)
		}
		if prev := entries[i-1].Code; !prev.Less(e.Code) || isPrefix(prev, e.Code) {
			return fmt.Errorf("dict: codes not increasing and prefix-free at %d (%v then %v)",
				i, prev, e.Code)
		}
	}
	return nil
}

// isPrefix reports whether code a is a bit-prefix of code b.
func isPrefix(a, b hutucker.Code) bool {
	if a.Len > b.Len {
		return false
	}
	return a.Len == 0 || b.Bits>>(b.Len-a.Len) == a.Bits
}

// checkCode rejects code words with set bits above their length. The
// encode kernels stage codes into a 64-bit word without masking (see
// kernel.go), so this invariant is enforced once at construction instead
// of once per appended code.
func checkCode(c hutucker.Code) error {
	if c.Len > 64 {
		return fmt.Errorf("code length %d exceeds 64", c.Len)
	}
	if c.Len < 64 && c.Bits>>c.Len != 0 {
		return fmt.Errorf("code %#x has bits above its length %d", c.Bits, c.Len)
	}
	return nil
}

// BinarySearch is the reference dictionary: a sorted boundary array probed
// with binary search. It is used to cross-check the specialized structures
// and as the baseline in the dictionary-structure ablation.
type BinarySearch struct {
	boundaries [][]byte
	symLens    []uint8
	codes      []hutucker.Code
	memBytes   int
}

// NewBinarySearch builds the reference dictionary from sorted entries.
func NewBinarySearch(entries []Entry) (*BinarySearch, error) {
	if err := validateEntries(entries); err != nil {
		return nil, err
	}
	d := &BinarySearch{
		boundaries: make([][]byte, len(entries)),
		symLens:    make([]uint8, len(entries)),
		codes:      make([]hutucker.Code, len(entries)),
	}
	for i, e := range entries {
		d.boundaries[i] = e.Boundary
		d.symLens[i] = e.SymbolLen
		d.codes[i] = e.Code
		d.memBytes += len(e.Boundary) + 24 /*slice header*/ + 1 + 9
	}
	return d, nil
}

// Lookup returns the floor entry for src.
func (d *BinarySearch) Lookup(src []byte) (hutucker.Code, int) {
	// First index whose boundary is > src; floor is the one before.
	i := sort.Search(len(d.boundaries), func(i int) bool {
		return bytes.Compare(d.boundaries[i], src) > 0
	})
	if i == 0 {
		panic("dict: lookup below first boundary; dictionary must cover the axis")
	}
	i--
	return d.codes[i], int(d.symLens[i])
}

// NumEntries returns the number of intervals.
func (d *BinarySearch) NumEntries() int { return len(d.boundaries) }

// MemoryUsage returns the approximate footprint in bytes.
func (d *BinarySearch) MemoryUsage() int { return d.memBytes }
