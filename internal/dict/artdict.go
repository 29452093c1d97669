package dict

import (
	"repro/internal/art"
	"repro/internal/hutucker"
)

// ARTDict is the dictionary structure for the ALM and ALM-Improved
// schemes, whose interval boundaries have arbitrary lengths. It is an
// adaptive radix tree in dictionary mode (paper Section 4.2): prefix keys
// are supported, compressed paths are compared exactly because there is no
// tuple to verify an optimistic skip against, and the interval search is a
// floor lookup over the stored boundaries.
type ARTDict struct {
	tree    *art.Tree
	symLens []uint8
	codes   []hutucker.Code
}

// NewARTDict builds the dictionary from sorted entries.
func NewARTDict(entries []Entry) (*ARTDict, error) {
	if err := validateEntries(entries); err != nil {
		return nil, err
	}
	d := &ARTDict{
		tree:    art.New(art.DictMode),
		symLens: make([]uint8, len(entries)),
		codes:   make([]hutucker.Code, len(entries)),
	}
	for i, e := range entries {
		d.tree.Insert(e.Boundary, uint64(i))
		d.symLens[i] = e.SymbolLen
		d.codes[i] = e.Code
	}
	return d, nil
}

// Lookup finds the interval containing src via an ART floor search.
func (d *ARTDict) Lookup(src []byte) (hutucker.Code, int) {
	_, idx, ok := d.tree.Floor(src)
	if !ok {
		panic("dict: lookup below first boundary; dictionary must cover the axis")
	}
	return d.codes[idx], int(d.symLens[idx])
}

// NumEntries returns the number of intervals.
func (d *ARTDict) NumEntries() int { return len(d.codes) }

// MemoryUsage returns the modeled footprint: the ART structure plus the
// per-entry code table.
func (d *ARTDict) MemoryUsage() int {
	return d.tree.MemoryUsage() + len(d.codes)*10
}
