package dict

import (
	"bytes"
	"fmt"
	"math/rand"
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
		half := 1 << (maxLen - d - 1) // leaves each subtree can hold
		lo, hi := max(1, n-half), min(n-1, half)
		left := lo + rng.Intn(hi-lo+1)
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

func trieFixture(t testing.TB, rng *rand.Rand, depth int) *BitmapTrie {
	t.Helper()
	boundaries := randomCoveringBoundaries(rng, 2000, depth, 256)
	tr, err := NewBitmapTrie(depth, makeEntries(t, boundaries))
	if err != nil {
		t.Fatalf("NewBitmapTrie: %v", err)
	}
	return tr
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

// refBatch is the batch contract restated over the per-key reference
// kernel: encode each key, pad, record the offset.
func refBatch(k Kernel, keys [][]byte) ([]byte, []int) {
	var a bitops.Appender
	a.Reset(nil)
	offs := make([]int, len(keys)+1)
	for i, key := range keys {
		k.AppendEncode(&a, key)
		a.Pad()
		buf, _ := a.Finish()
		offs[i+1] = len(buf)
	}
	buf, _ := a.Finish()
	return buf, offs
}

func runBatch(b BatchKernel, keys [][]byte) ([]byte, []int) {
	var a bitops.Appender
	a.Reset(nil)
	offs := make([]int, len(keys)+1)
	b.AppendEncodeBatch(&a, keys, offs)
	buf, _ := a.Finish()
	return buf, offs
}

func checkBatchMatches(t *testing.T, name string, d interface {
	Kernel
	BatchKernel
}, keys [][]byte) {
	t.Helper()
	wantBuf, wantOffs := refBatch(d, keys)
	gotBuf, gotOffs := runBatch(d, keys)
	if !bytes.Equal(gotBuf, wantBuf) {
		t.Fatalf("%s: batch buffer diverges from per-key kernel\n got %x\nwant %x", name, gotBuf, wantBuf)
	}
	for i := range wantOffs {
		if gotOffs[i] != wantOffs[i] {
			t.Fatalf("%s: offs[%d] = %d, want %d", name, i, gotOffs[i], wantOffs[i])
		}
	}
}

// TestBatchKernelMatchesPerKey pins every batch kernel byte-identical to
// the per-key reference across all dictionary structures, including the
// spill-heavy long-code configurations and ragged batch shapes.
func TestBatchKernelMatchesPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dicts := []struct {
		name string
		d    interface {
			Kernel
			BatchKernel
		}
		alphabet int
	}{
		{"Single-Char/short", singleFixture(t, skewedCodes(t, rng, 256)), 256},
		{"Single-Char/mixed", singleFixture(t, orderedCodes(rng, 256, 1, 24)), 256},
		{"Single-Char/long", singleFixture(t, orderedCodes(rng, 256, 40, 63)), 256},
		{"Double-Char/256", doubleFixture(t, 256, skewedCodes(t, rng, DoubleCharEntries(256))), 256},
		{"Double-Char/256-long", doubleFixture(t, 256, orderedCodes(rng, DoubleCharEntries(256), 30, 63)), 256},
		{"Double-Char/16", doubleFixture(t, 16, skewedCodes(t, rng, DoubleCharEntries(16))), 16},
		{"3-Grams", trieFixture(t, rng, 3), 256},
		{"4-Grams", trieFixture(t, rng, 4), 256},
	}
	for _, tc := range dicts {
		t.Run(tc.name, func(t *testing.T) {
			for ci, keys := range batchCases(rng, tc.alphabet) {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("case %d: panic: %v", ci, r)
						}
					}()
					checkBatchMatches(t, fmt.Sprintf("%s case %d", tc.name, ci), tc.d, keys)
				}()
			}
		})
	}
}

// TestBatchKernelGoPathMatches drives the word-parallel encodeWords loops
// directly: the batch kernels reach them only for codes longer than 32
// bits, so short-code dictionaries would otherwise leave them uncovered.
func TestBatchKernelGoPathMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	single := singleFixture(t, orderedCodes(rng, 256, 1, 20))
	double := doubleFixture(t, 256, orderedCodes(rng, DoubleCharEntries(256), 1, 20))
	for ci, keys := range batchCases(rng, 256) {
		for _, key := range keys {
			var want, got bitops.Appender
			want.Reset(nil)
			got.Reset(nil)
			single.AppendEncode(&want, key)
			single.encodeWords(&got, key)
			wb, wn := want.Finish()
			gb, gn := got.Finish()
			if wn != gn || !bytes.Equal(wb, gb) {
				t.Fatalf("Single-Char case %d: encodeWords diverges for key %x", ci, key)
			}
			want.Reset(nil)
			got.Reset(nil)
			double.AppendEncode(&want, key)
			double.encodeWords(&got, key)
			wb, wn = want.Finish()
			gb, gn = got.Finish()
			if wn != gn || !bytes.Equal(wb, gb) {
				t.Fatalf("Double-Char case %d: encodeWords diverges for key %x", ci, key)
			}
		}
	}
}

// TestBatchKernelAppendsMidStream checks the batch kernels compose with
// a non-empty appender: offsets are absolute byte counts, not per-batch.
func TestBatchKernelAppendsMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	d := singleFixture(t, orderedCodes(rng, 256, 1, 12))
	keys := [][]byte{[]byte("alpha"), []byte("beta-gamma-delta"), {}}

	var a bitops.Appender
	a.Reset(nil)
	d.AppendEncode(&a, []byte("prefix"))
	start := a.Pad()
	offs := make([]int, len(keys)+1)
	offs[0] = start
	d.AppendEncodeBatch(&a, keys, offs)
	buf, _ := a.Finish()

	var ref bitops.Appender
	ref.Reset(nil)
	refKeys, refOffs := refBatch(d, keys)
	_ = ref
	if !bytes.Equal(buf[start:], refKeys) {
		t.Fatalf("mid-stream batch bytes diverge")
	}
	for i := 1; i < len(offs); i++ {
		if offs[i]-start != refOffs[i] {
			t.Fatalf("mid-stream offs[%d] = %d, want %d", i, offs[i]-start, refOffs[i]+start)
		}
	}
}
