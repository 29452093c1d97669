package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dict"
)

// TestReassembleEncodeIdentical pins the restore-path contract: an encoder
// reassembled from a built encoder's entries produces byte-identical
// encodings for every scheme, on both the point and the bulk paths.
func TestReassembleEncodeIdentical(t *testing.T) {
	encs := buildAll(t, nil)
	rng := rand.New(rand.NewSource(9))
	keys := sampleKeys(rng, 500)
	for _, s := range Schemes {
		orig := encs[s]
		opt := Options{DictLimit: 1024, MaxPatternLen: 16}
		if s == DoubleChar {
			opt = Options{}
		}
		// Hand Reassemble a deep copy: a snapshot restore decodes entries
		// from bytes and never aliases the original's memory.
		entries := make([]dict.Entry, len(orig.Entries()))
		for i, en := range orig.Entries() {
			entries[i] = dict.Entry{
				Boundary:  append([]byte(nil), en.Boundary...),
				SymbolLen: en.SymbolLen,
				Code:      en.Code,
			}
		}
		re, err := Reassemble(s, opt, entries)
		if err != nil {
			t.Fatalf("%v: Reassemble: %v", s, err)
		}
		if re.NumEntries() != orig.NumEntries() {
			t.Fatalf("%v: reassembled dict has %d entries, want %d", s, re.NumEntries(), orig.NumEntries())
		}
		a, b := orig.Clone(), re.Clone()
		for _, k := range keys {
			if got, want := b.Encode(k), a.Encode(k); !bytes.Equal(got, want) {
				t.Fatalf("%v: Encode(%q) diverged: %x vs %x", s, k, got, want)
			}
		}
		gotAll, wantAll := re.EncodeAll(keys), orig.EncodeAll(keys)
		for i := range keys {
			if !bytes.Equal(gotAll[i], wantAll[i]) {
				t.Fatalf("%v: EncodeAll(%q) diverged", s, keys[i])
			}
		}
	}
}

// TestReassembleRefusesDisorderedCodes: a snapshot whose codes are not
// strictly increasing and prefix-free would encode keys out of order or
// merge them, so every scheme's Reassemble must refuse it.
func TestReassembleRefusesDisorderedCodes(t *testing.T) {
	encs := buildAll(t, nil)
	for _, s := range Schemes {
		opt := Options{DictLimit: 1024, MaxPatternLen: 16}
		if s == DoubleChar {
			opt = Options{}
		}
		entries := append([]dict.Entry(nil), encs[s].Entries()...)
		i := len(entries) / 2
		entries[i].Code, entries[i+1].Code = entries[i+1].Code, entries[i].Code
		if _, err := Reassemble(s, opt, entries); err == nil {
			t.Fatalf("%v: Reassemble accepted swapped codes at %d", s, i)
		}
	}
}
