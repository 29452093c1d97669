package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/bitops"
	"repro/internal/dict"
)

// kernelCorpora returns the fuzz-style inputs the kernel differential
// tests run over: workload-shaped keys, arbitrary binary keys, and the
// adversarial edges (empty, all-0x00, all-0xFF, long runs).
func kernelCorpora(rng *rand.Rand) [][]byte {
	corpus := sampleKeys(rng, 1500)
	corpus = append(corpus, randomBinaryKeys(rng, 1500, 40)...)
	corpus = append(corpus,
		[]byte{},
		[]byte{0x00}, []byte{0xFF},
		bytes.Repeat([]byte{0x00}, 33),
		bytes.Repeat([]byte{0xFF}, 33),
		bytes.Repeat([]byte{0x00, 0xFF}, 40),
		[]byte("com.gmail@alice"),
	)
	return corpus
}

// appendEncodeGeneric is the reference every encode kernel is pinned to:
// one Dictionary.Lookup interface call and one sub-slice per symbol.
func (e *Encoder) appendEncodeGeneric(a *appender, key []byte) {
	for pos := 0; pos < len(key); {
		code, n := e.dict.Lookup(key[pos:])
		a.Append(code.Bits, uint(code.Len))
		pos += n
	}
}

// referenceEncode is the devirtualization baseline: drive the reference
// BinarySearch dictionary through the Dictionary interface, one Lookup and
// one masked Append per symbol.
func referenceEncode(d dict.Dictionary, key []byte) ([]byte, int) {
	var a bitops.Appender
	a.Reset(nil)
	for pos := 0; pos < len(key); {
		code, n := d.Lookup(key[pos:])
		a.Append(code.Bits, uint(code.Len))
		pos += n
	}
	return a.Finish()
}

// TestKernelMatchesBinarySearchReference asserts, for every scheme, that
// the specialized encode kernel produces byte-identical output (and bit
// length) to an independently built BinarySearch dictionary driven through
// the interface reference loop on fuzz-style corpora.
func TestKernelMatchesBinarySearchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	encs := buildAll(t, nil)
	corpus := kernelCorpora(rng)
	for _, s := range Schemes {
		e := encs[s]
		ref, err := dict.NewBinarySearch(e.Entries())
		if err != nil {
			t.Fatalf("%v: reference build: %v", s, err)
		}
		for _, k := range corpus {
			want, wantBits := referenceEncode(ref, k)
			got, gotBits := e.EncodeBits(nil, k)
			if gotBits != wantBits || !bytes.Equal(got, want) {
				t.Fatalf("%v: kernel diverged from reference on %q:\n got %x (%d bits)\nwant %x (%d bits)",
					s, k, got, gotBits, want, wantBits)
			}
		}
	}
}

// TestKernelMatchesGenericLoop cross-checks each concrete kernel against
// the generic interface loop over the same dictionary structure (not just
// the BinarySearch reference), so a bug in a specialized Lookup that the
// kernel faithfully reproduces is still caught by the reference test above
// while this one isolates kernel-vs-loop differences.
func TestKernelMatchesGenericLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	encs := buildAll(t, nil)
	corpus := kernelCorpora(rng)
	for _, s := range Schemes {
		e := encs[s]
		for _, k := range corpus {
			var a appender
			a.Reset(nil)
			e.appendEncodeGeneric(&a, k)
			want, wantBits := a.Finish()
			got, gotBits := e.EncodeBits(nil, k)
			if gotBits != wantBits || !bytes.Equal(got, want) {
				t.Fatalf("%v: kernel diverged from generic loop on %q", s, k)
			}
		}
	}
}

// TestForcedBinarySearchKernelMatches runs the BinarySearch kernel (used
// by the dictionary-structure ablation) against its own interface loop.
func TestForcedBinarySearchKernelMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	samples := sampleKeys(rng, 800)
	e, err := Build(ThreeGrams, samples, Options{DictLimit: 1024, ForceBinarySearchDict: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.dict.(*dict.BinarySearch); !ok {
		t.Fatalf("forced dict is %T", e.dict)
	}
	for _, k := range kernelCorpora(rng) {
		want, wantBits := referenceEncode(e.dict, k)
		got, gotBits := e.EncodeBits(nil, k)
		if gotBits != wantBits || !bytes.Equal(got, want) {
			t.Fatalf("binary-search kernel diverged on %q", k)
		}
	}
}

// TestEncodeZeroAllocs guards the tentpole's allocation contract: with a
// reused destination buffer the single-key encode path performs zero
// allocations per operation, for every scheme.
func TestEncodeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	encs := buildAll(t, nil)
	keys := sampleKeys(rng, 64)
	for _, s := range Schemes {
		e := encs[s]
		buf := make([]byte, 0, 256)
		// Warm up so the appender's backing store reaches steady state.
		for _, k := range keys {
			b, _ := e.EncodeBits(buf, k)
			buf = b[:0]
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			b, _ := e.EncodeBits(buf, keys[i%len(keys)])
			buf = b[:0]
			i++
		})
		if allocs != 0 {
			t.Errorf("%v: single-key encode allocates %.1f/op, want 0", s, allocs)
		}
	}
}

// TestEncodeAllMatchesSerial asserts the parallel bulk path is
// byte-identical to the serial encoder, across worker counts (including
// forced multi-worker sharding and the merge of per-worker buffers).
func TestEncodeAllMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	encs := buildAll(t, nil)
	keys := append(sampleKeys(rng, 3000), randomBinaryKeys(rng, 500, 24)...)
	keys = append(keys, []byte{})
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, s := range Schemes {
			e := encs[s]
			got := e.EncodeAll(keys)
			if len(got) != len(keys) {
				t.Fatalf("%v: EncodeAll returned %d results for %d keys", s, len(got), len(keys))
			}
			for i, k := range keys {
				want, _ := e.EncodeBits(nil, k)
				if !bytes.Equal(got[i], want) {
					t.Fatalf("%v (procs=%d): EncodeAll diverged on key %d %q", s, procs, i, k)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	// Empty input.
	if out := encs[SingleChar].EncodeAll(nil); len(out) != 0 {
		t.Fatal("EncodeAll(nil) returned results")
	}
}

// TestEncodeAllSharesBacking verifies the documented single-backing-buffer
// layout: results are contiguous slices of one array, in key order.
func TestEncodeAllSharesBacking(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	encs := buildAll(t, nil)
	keys := sampleKeys(rng, 600)
	out := encs[DoubleChar].EncodeAll(keys)
	var prev []byte
	for i, b := range out {
		if len(b) == 0 {
			continue
		}
		if prev != nil {
			end := uintptr(unsafe.Pointer(&prev[0])) + uintptr(len(prev))
			if uintptr(unsafe.Pointer(&b[0])) != end {
				t.Fatalf("result %d does not follow the previous one in the backing buffer", i)
			}
		}
		prev = b
	}
}
