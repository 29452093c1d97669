package dict

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hutucker"
	"repro/internal/stringaxis"
)

// makeEntries builds a valid covering entry set from a sorted list of
// unique boundaries (each starting the axis at "\x00"). Symbols are the
// interval common prefixes; codes are sequential fixed-length.
func makeEntries(t testing.TB, boundaries [][]byte) []Entry {
	t.Helper()
	entries := make([]Entry, len(boundaries))
	for i, b := range boundaries {
		var hi []byte
		if i+1 < len(boundaries) {
			hi = boundaries[i+1]
		}
		sym := stringaxis.IntervalCommonPrefix(b, hi)
		if len(sym) == 0 {
			t.Fatalf("boundary %q..%q has empty symbol; bad test fixture", b, hi)
		}
		entries[i] = Entry{
			Boundary:  b,
			SymbolLen: uint8(len(sym)),
			Code:      hutucker.Code{Bits: uint64(i), Len: 32},
		}
	}
	return entries
}

// randomCoveringBoundaries produces a sorted boundary set that covers the
// axis: all 256 single bytes plus random longer strings, split so symbols
// stay non-empty (longer boundaries under a single byte are fine).
func randomCoveringBoundaries(rng *rand.Rand, extra, maxLen, alphabet int) [][]byte {
	set := map[string]bool{}
	for c := 0; c < 256; c++ {
		set[string([]byte{byte(c)})] = true
	}
	for i := 0; i < extra; i++ {
		n := 2 + rng.Intn(maxLen-1)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Intn(alphabet))
		}
		set[string(b)] = true
	}
	var out [][]byte
	for s := range set {
		out = append(out, []byte(s))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

func randSrc(rng *rand.Rand, maxLen, alphabet int) []byte {
	n := 1 + rng.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(alphabet))
	}
	return b
}

func TestBinarySearchFloorSemantics(t *testing.T) {
	boundaries := [][]byte{{0}, {'a'}, {'a', 'b'}, {'a', 'b', 'c'}, {'b'}}
	// Fill coverage below 'a' and above 'b'.
	var all [][]byte
	for c := 0; c < 256; c++ {
		all = append(all, []byte{byte(c)})
	}
	all = append(all, boundaries[2], boundaries[3])
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i], all[j]) < 0 })
	d, err := NewBinarySearch(makeEntries(t, all))
	if err != nil {
		t.Fatal(err)
	}
	code, _ := d.Lookup([]byte("abb"))
	// Floor of "abb" is boundary "ab".
	wantIdx := sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i], []byte("abb")) > 0 }) - 1
	if code.Bits != uint64(wantIdx) {
		t.Fatalf("floor code %d, want %d (boundary %q)", code.Bits, wantIdx, all[wantIdx])
	}
}

func TestValidateEntriesRejectsBadInput(t *testing.T) {
	good := makeEntries(t, randomCoveringBoundaries(rand.New(rand.NewSource(1)), 10, 4, 256))
	if _, err := NewBinarySearch(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	// Not covering from 0x00.
	bad := append([]Entry{}, good[5:]...)
	if _, err := NewBinarySearch(bad); err == nil {
		t.Fatal("non-covering set accepted")
	}
	// Unsorted.
	bad2 := append([]Entry{}, good...)
	bad2[3], bad2[4] = bad2[4], bad2[3]
	if _, err := NewBinarySearch(bad2); err == nil {
		t.Fatal("unsorted set accepted")
	}
	// Empty symbol.
	bad3 := append([]Entry{}, good...)
	bad3[2].SymbolLen = 0
	if _, err := NewBinarySearch(bad3); err == nil {
		t.Fatal("empty symbol accepted")
	}
	// Symbol longer than boundary.
	bad4 := append([]Entry{}, good...)
	bad4[2].SymbolLen = uint8(len(bad4[2].Boundary) + 1)
	if _, err := NewBinarySearch(bad4); err == nil {
		t.Fatal("overlong symbol accepted")
	}
}

// TestConstructorsRejectDisorderedCodes: every constructor refuses a code
// set that is not strictly increasing and prefix-free, since encoding
// through it would misorder keys or map distinct keys to the same bytes.
func TestConstructorsRejectDisorderedCodes(t *testing.T) {
	var singles [][]byte
	for c := 0; c < 256; c++ {
		singles = append(singles, []byte{byte(c)})
	}
	const alpha = 8
	ctors := []struct {
		name    string
		entries []Entry
		build   func([]Entry) error
	}{
		{"binary-search", makeEntries(t, singles), func(e []Entry) error { _, err := NewBinarySearch(e); return err }},
		{"single-char", makeEntries(t, singles), func(e []Entry) error { _, err := NewSingleCharArray(e); return err }},
		{"double-char", doubleCharEntries(alpha), func(e []Entry) error { _, err := NewDoubleCharArray(alpha, e); return err }},
	}
	for _, c := range ctors {
		if err := c.build(c.entries); err != nil {
			t.Fatalf("%s: valid codes refused: %v", c.name, err)
		}
		swapped := append([]Entry{}, c.entries...)
		swapped[3].Code, swapped[4].Code = swapped[4].Code, swapped[3].Code
		if c.build(swapped) == nil {
			t.Fatalf("%s: decreasing codes accepted", c.name)
		}
		equal := append([]Entry{}, c.entries...)
		equal[4].Code = equal[3].Code
		if c.build(equal) == nil {
			t.Fatalf("%s: equal adjacent codes accepted", c.name)
		}
		// 0...010 (31 bits) is a prefix of its successor 0...0100 (32
		// bits) and orders before it, so only the prefix check catches it.
		prefix := append([]Entry{}, c.entries...)
		prefix[3].Code = hutucker.Code{Bits: 2, Len: 31}
		if c.build(prefix) == nil {
			t.Fatalf("%s: a code that is a prefix of its successor accepted", c.name)
		}
	}
}

func TestSingleCharArray(t *testing.T) {
	var boundaries [][]byte
	for c := 0; c < 256; c++ {
		boundaries = append(boundaries, []byte{byte(c)})
	}
	entries := makeEntries(t, boundaries)
	d, err := NewSingleCharArray(entries)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 256; c++ {
		code, n := d.Lookup([]byte{byte(c), 'x'})
		if n != 1 || code.Bits != uint64(c) {
			t.Fatalf("Lookup(%#02x) = (%v,%d)", c, code, n)
		}
	}
	if d.NumEntries() != 256 || d.MemoryUsage() <= 0 {
		t.Fatal("metadata")
	}
	if _, err := NewSingleCharArray(entries[:200]); err == nil {
		t.Fatal("short entry set accepted")
	}
}

// doubleCharEntries builds the full Double-Char entry layout for a small
// alphabet: per first byte, one terminator entry then alphabet pair
// entries.
func doubleCharEntries(alphabet int) []Entry {
	entries := make([]Entry, 0, DoubleCharEntries(alphabet))
	idx := 0
	for c1 := 0; c1 < alphabet; c1++ {
		entries = append(entries, Entry{
			Boundary:  []byte{byte(c1)},
			SymbolLen: 1,
			Code:      hutucker.Code{Bits: uint64(idx), Len: 32},
		})
		idx++
		for c2 := 0; c2 < alphabet; c2++ {
			entries = append(entries, Entry{
				Boundary:  []byte{byte(c1), byte(c2)},
				SymbolLen: 2,
				Code:      hutucker.Code{Bits: uint64(idx), Len: 32},
			})
			idx++
		}
	}
	return entries
}

func TestDoubleCharArray(t *testing.T) {
	const alpha = 8
	d, err := NewDoubleCharArray(alpha, doubleCharEntries(alpha))
	if err != nil {
		t.Fatal(err)
	}
	// Two bytes remaining: pair entry.
	code, n := d.Lookup([]byte{3, 5, 7})
	if n != 2 {
		t.Fatalf("pair lookup consumed %d", n)
	}
	wantIdx := 3*(alpha+1) + 1 + 5
	if code.Bits != uint64(wantIdx) {
		t.Fatalf("pair code %d, want %d", code.Bits, wantIdx)
	}
	// One byte remaining: terminator entry.
	code, n = d.Lookup([]byte{3})
	if n != 1 || code.Bits != uint64(3*(alpha+1)) {
		t.Fatalf("terminator lookup = (%v,%d)", code, n)
	}
	if d.NumEntries() != DoubleCharEntries(alpha) {
		t.Fatal("entries")
	}
	if _, err := NewDoubleCharArray(alpha, doubleCharEntries(alpha)[:10]); err == nil {
		t.Fatal("short set accepted")
	}
}

func TestDoubleCharTerminatorOrdering(t *testing.T) {
	// The terminator boundary [c1] must sort before [c1, 0x00]: entry
	// order in the layout must equal interval order on the axis.
	entries := doubleCharEntries(4)
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i-1].Boundary, entries[i].Boundary) >= 0 {
			t.Fatalf("layout order violates axis order at %d: %q then %q",
				i, entries[i-1].Boundary, entries[i].Boundary)
		}
	}
}

func TestBitmapTrieMatchesBinarySearch(t *testing.T) {
	for _, depth := range []int{3, 4} {
		for _, alphabet := range []int{3, 256} {
			rng := rand.New(rand.NewSource(int64(depth*100 + alphabet)))
			boundaries := randomCoveringBoundaries(rng, 500, depth, alphabet)
			entries := makeEntries(t, boundaries)
			ref, err := NewBinarySearch(entries)
			if err != nil {
				t.Fatal(err)
			}
			bt, err := NewBitmapTrie(depth, entries)
			if err != nil {
				t.Fatal(err)
			}
			if bt.NumEntries() != len(entries) {
				t.Fatal("entries")
			}
			for i := 0; i < 20000; i++ {
				src := randSrc(rng, depth+3, 257&0xFF|alphabet) // mix in-alphabet and beyond
				wc, wn := ref.Lookup(src)
				gc, gn := bt.Lookup(src)
				if wc != gc || wn != gn {
					t.Fatalf("depth=%d alpha=%d: Lookup(%q) = (%v,%d), want (%v,%d)",
						depth, alphabet, src, gc, gn, wc, wn)
				}
			}
		}
	}
}

func TestBitmapTrieBoundaryEqualsQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	boundaries := randomCoveringBoundaries(rng, 300, 3, 5)
	entries := makeEntries(t, boundaries)
	ref, _ := NewBinarySearch(entries)
	bt, err := NewBitmapTrie(3, entries)
	if err != nil {
		t.Fatal(err)
	}
	// Query exactly at each boundary: floor must be that boundary.
	for _, b := range boundaries {
		wc, wn := ref.Lookup(b)
		gc, gn := bt.Lookup(b)
		if wc != gc || wn != gn {
			t.Fatalf("Lookup(boundary %q) = (%v,%d), want (%v,%d)", b, gc, gn, wc, wn)
		}
	}
}

func TestBitmapTrieShortQuery(t *testing.T) {
	// Queries shorter than the trie depth exercise the terminator path.
	rng := rand.New(rand.NewSource(5))
	boundaries := randomCoveringBoundaries(rng, 400, 4, 4)
	entries := makeEntries(t, boundaries)
	ref, _ := NewBinarySearch(entries)
	bt, err := NewBitmapTrie(4, entries)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		src := randSrc(rng, 2, 6)
		wc, wn := ref.Lookup(src)
		gc, gn := bt.Lookup(src)
		if wc != gc || wn != gn {
			t.Fatalf("Lookup(%q) = (%v,%d), want (%v,%d)", src, gc, gn, wc, wn)
		}
	}
}

func TestBitmapTrieRejectsOverlongBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	boundaries := randomCoveringBoundaries(rng, 100, 4, 4)
	entries := makeEntries(t, boundaries)
	if _, err := NewBitmapTrie(3, entries); err == nil {
		t.Fatal("depth-3 trie accepted 4-byte boundaries")
	}
}

func TestBitmapTrieMemorySmallerThanART(t *testing.T) {
	// The paper reports the bitmap-trie up to an order of magnitude
	// smaller than the ART-based dictionary. That holds for realistic gram
	// dictionaries, whose boundaries cluster under few prefixes (natural-
	// language n-grams); use a clustered fixture, not uniform noise.
	rng := rand.New(rand.NewSource(7))
	boundaries := randomCoveringBoundaries(rng, 20000, 3, 16)
	entries := makeEntries(t, boundaries)
	bt, err := NewBitmapTrie(3, entries)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := NewARTDict(entries)
	if err != nil {
		t.Fatal(err)
	}
	if bt.MemoryUsage() >= ad.MemoryUsage() {
		t.Fatalf("bitmap-trie (%d B) not smaller than ART dict (%d B)",
			bt.MemoryUsage(), ad.MemoryUsage())
	}
}

func TestARTDictMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// ALM-style boundaries: arbitrary lengths.
	boundaries := randomCoveringBoundaries(rng, 800, 9, 5)
	entries := makeEntries(t, boundaries)
	ref, _ := NewBinarySearch(entries)
	ad, err := NewARTDict(entries)
	if err != nil {
		t.Fatal(err)
	}
	if ad.NumEntries() != len(entries) {
		t.Fatal("entries")
	}
	for i := 0; i < 20000; i++ {
		src := randSrc(rng, 12, 6)
		wc, wn := ref.Lookup(src)
		gc, gn := ad.Lookup(src)
		if wc != gc || wn != gn {
			t.Fatalf("Lookup(%q) = (%v,%d), want (%v,%d)", src, gc, gn, wc, wn)
		}
	}
}

func TestLookupBelowCoveragePanics(t *testing.T) {
	// A dictionary starting above \x00 passes validation only when its
	// first boundary is "\x00"; build one artificially and check the
	// panic guard in the reference dictionary.
	entries := makeEntries(t, randomCoveringBoundaries(rand.New(rand.NewSource(9)), 10, 3, 256))
	d, err := NewBinarySearch(entries[1:]) // drop "\x00"
	if err == nil {
		// Constructor may reject; if not, lookup must panic.
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on uncovered lookup")
			}
		}()
		d.Lookup([]byte{0x00})
	}
}
