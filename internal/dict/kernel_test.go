package dict

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitops"
	"repro/internal/hutucker"
)

// orderedCodes returns n strictly increasing, prefix-free codes, as the
// constructors require: the leaves, left to right, of a random binary tree
// no deeper than maxLen, each extended by random bits to a length drawn
// from [max(depth, minLen), maxLen]. n must not exceed 2^maxLen.
func orderedCodes(rng *rand.Rand, n, minLen, maxLen int) []hutucker.Code {
	codes := make([]hutucker.Code, 0, n)
	var grow func(n int, c hutucker.Code)
	grow = func(n int, c hutucker.Code) {
		d := int(c.Len)
		if n == 1 {
			l := max(d, minLen)
			l += rng.Intn(maxLen - l + 1)
			ext := uint(l - d)
			bits := c.Bits<<ext | rng.Uint64()&(1<<ext-1)
			codes = append(codes, hutucker.Code{Bits: bits, Len: uint8(l)})
			return
		}
		// Leaves each subtree can hold; int64 so deep trees do not
		// overflow a 32-bit int.
		half := int64(1) << (maxLen - d - 1)
		lo, hi := max(1, int64(n)-half), min(int64(n)-1, half)
		left := int(lo + rng.Int63n(hi-lo+1))
		grow(left, hutucker.Code{Bits: c.Bits << 1, Len: c.Len + 1})
		grow(n-left, hutucker.Code{Bits: c.Bits<<1 | 1, Len: c.Len + 1})
	}
	grow(n, hutucker.Code{})
	return codes
}

// skewedCodes returns the Hu-Tucker codes of n symbols with Zipf weights
// in random order, so 1-4-bit codes sit next to long ones as in a real
// dictionary. It fails the test if no code is 4 bits or shorter.
func skewedCodes(t testing.TB, rng *rand.Rand, n int) []hutucker.Code {
	t.Helper()
	weights := make([]float64, n)
	for i, r := range rng.Perm(n) {
		weights[i] = 1 / float64(r+1)
	}
	codes := hutucker.Build(weights)
	for _, c := range codes {
		if c.Len <= 4 {
			return codes
		}
	}
	t.Fatalf("skewedCodes(%d): no code of 4 bits or fewer", n)
	return nil
}

// singleFixture builds a Single-Char dictionary with the given 256 codes;
// wide length ranges force the staging-word spill paths.
func singleFixture(t testing.TB, codes []hutucker.Code) *SingleCharArray {
	t.Helper()
	entries := make([]Entry, 256)
	for i := range entries {
		entries[i] = Entry{
			Boundary:  []byte{byte(i)},
			SymbolLen: 1,
			Code:      codes[i],
		}
	}
	d, err := NewSingleCharArray(entries)
	if err != nil {
		t.Fatalf("NewSingleCharArray: %v", err)
	}
	return d
}

// doubleFixture builds a Double-Char dictionary over alphabet with the
// given DoubleCharEntries(alphabet) codes.
func doubleFixture(t testing.TB, alphabet int, codes []hutucker.Code) *DoubleCharArray {
	t.Helper()
	entries := make([]Entry, DoubleCharEntries(alphabet))
	for i := range entries {
		c1, c2 := i/(alphabet+1), i%(alphabet+1)
		entries[i] = Entry{Boundary: []byte{byte(c1)}, SymbolLen: 1, Code: codes[i]}
		if c2 > 0 {
			entries[i].Boundary = []byte{byte(c1), byte(c2 - 1)}
			entries[i].SymbolLen = 2
		}
	}
	d, err := NewDoubleCharArray(alphabet, entries)
	if err != nil {
		t.Fatalf("NewDoubleCharArray: %v", err)
	}
	return d
}

// trieFixture builds a bitmap trie of the given depth over all 256 single
// bytes plus, for depths above 1, 2000 random longer boundaries.
func trieFixture(t testing.TB, rng *rand.Rand, depth int) *BitmapTrie {
	t.Helper()
	extra := 2000
	if depth == 1 {
		extra = 0
	}
	boundaries := randomCoveringBoundaries(rng, extra, depth, 256)
	tr, err := NewBitmapTrie(depth, makeEntries(t, boundaries))
	if err != nil {
		t.Fatalf("NewBitmapTrie: %v", err)
	}
	return tr
}

type kernelFixture struct {
	name     string
	d        Dictionary
	alphabet int
}

// kernelFixtures covers every kernel body: Single-Char's pair table (short
// and mixed codes) and encodeWords (codes over 32 bits), Double-Char with
// short and long codes and a small alphabet, and the trie's one-byte
// tables (depth 1), root2 resolving at the leaves (depth 2) and root2
// continuing the walk (depths 3 and 4).
func kernelFixtures(t *testing.T, rng *rand.Rand) []kernelFixture {
	return []kernelFixture{
		{"Single-Char/short", singleFixture(t, skewedCodes(t, rng, 256)), 256},
		{"Single-Char/mixed", singleFixture(t, orderedCodes(rng, 256, 1, 24)), 256},
		{"Single-Char/long", singleFixture(t, orderedCodes(rng, 256, 40, 63)), 256},
		{"Double-Char/256", doubleFixture(t, 256, skewedCodes(t, rng, DoubleCharEntries(256))), 256},
		{"Double-Char/256-long", doubleFixture(t, 256, orderedCodes(rng, DoubleCharEntries(256), 30, 63)), 256},
		{"Double-Char/16", doubleFixture(t, 16, skewedCodes(t, rng, DoubleCharEntries(16))), 16},
		{"1-Grams", trieFixture(t, rng, 1), 256},
		{"2-Grams", trieFixture(t, rng, 2), 256},
		{"3-Grams", trieFixture(t, rng, 3), 256},
		{"4-Grams", trieFixture(t, rng, 4), 256},
	}
}

// batchCases yields key batches covering the tricky shapes: empty
// batches, empty keys, single keys, ragged tails around the 8-byte word
// size, and long keys.
func batchCases(rng *rand.Rand, alphabet int) [][][]byte {
	key := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(alphabet))
		}
		return b
	}
	cases := [][][]byte{
		{},
		{{}},
		{{}, {}, {}},
		{key(1)},
		{key(7), key(8), key(9)},
		{key(15), {}, key(16), key(17), {}},
		{key(64), key(63), key(65)},
		{key(256)},
	}
	for i := 0; i < 16; i++ {
		batch := make([][]byte, rng.Intn(20))
		for j := range batch {
			batch[j] = key(rng.Intn(40))
		}
		cases = append(cases, batch)
	}
	return cases
}

// lookupEncode is the reference: one Lookup and one masked Append per
// symbol.
func lookupEncode(d Dictionary, a *bitops.Appender, key []byte) {
	for pos := 0; pos < len(key); {
		code, n := d.Lookup(key[pos:])
		a.Append(code.Bits, uint(code.Len))
		pos += n
	}
}

// encodeBatch encodes keys back to back, each padded to a byte boundary,
// as EncodeAll lays them out, and returns the buffer and end offsets.
func encodeBatch(encode func(*bitops.Appender, []byte), keys [][]byte) ([]byte, []int) {
	var a bitops.Appender
	a.Reset(nil)
	offs := make([]int, len(keys)+1)
	for i, key := range keys {
		encode(&a, key)
		offs[i+1] = a.Pad()
	}
	buf, _ := a.Finish()
	return buf, offs
}

// TestBatchKernelMatchesPerKey pins every dictionary's encode kernel
// byte-identical to the per-key Lookup loop, including the spill-heavy
// long-code configurations and ragged batch shapes.
func TestBatchKernelMatchesPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range kernelFixtures(t, rng) {
		t.Run(tc.name, func(t *testing.T) {
			ref := func(a *bitops.Appender, key []byte) { lookupEncode(tc.d, a, key) }
			for ci, keys := range batchCases(rng, tc.alphabet) {
				wantBuf, wantOffs := encodeBatch(ref, keys)
				gotBuf, gotOffs := encodeBatch(tc.d.AppendEncode, keys)
				if !bytes.Equal(gotBuf, wantBuf) || !slices.Equal(gotOffs, wantOffs) {
					t.Fatalf("case %d: kernel diverges from the Lookup loop\n got %x %v\nwant %x %v",
						ci, gotBuf, gotOffs, wantBuf, wantOffs)
				}
			}
		})
	}
}

// TestBatchKernelGoPathMatches drives Single-Char's word-parallel
// encodeWords loop directly: the kernel reaches it only for codes longer
// than 32 bits, so short codes would otherwise leave its grouped fast path
// uncovered.
func TestBatchKernelGoPathMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	single := singleFixture(t, orderedCodes(rng, 256, 1, 20))
	for ci, keys := range batchCases(rng, 256) {
		for _, key := range keys {
			var want, got bitops.Appender
			want.Reset(nil)
			got.Reset(nil)
			lookupEncode(single, &want, key)
			single.encodeWords(&got, key)
			wb, wn := want.Finish()
			gb, gn := got.Finish()
			if wn != gn || !bytes.Equal(wb, gb) {
				t.Fatalf("case %d: encodeWords diverges for key %x", ci, key)
			}
		}
	}
}

// TestBatchKernelAppendsMidStream starts every kernel on an appender that
// already holds 1 to 63 bits, as EncodeBatch does after encoding a shared
// prefix once: the output must be the Lookup loop's from the same state.
func TestBatchKernelAppendsMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, tc := range kernelFixtures(t, rng) {
		for ci, keys := range batchCases(rng, tc.alphabet) {
			for _, key := range keys {
				lead := uint(1 + rng.Intn(63))
				bits := rng.Uint64() & (1<<lead - 1)
				var want, got bitops.Appender
				want.Reset(nil)
				got.Reset(nil)
				want.Append(bits, lead)
				got.Append(bits, lead)
				lookupEncode(tc.d, &want, key)
				tc.d.AppendEncode(&got, key)
				wb, wn := want.Finish()
				gb, gn := got.Finish()
				if wn != gn || !bytes.Equal(wb, gb) {
					t.Fatalf("%s case %d: after %d lead bits the kernel diverges for key %x", tc.name, ci, lead, key)
				}
			}
		}
	}
}
