package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dict"
	"repro/internal/hutucker"
	"repro/internal/symbolselect"
)

// zeroHeavyKeys returns keys dominated by 0x00 bytes, including the
// prefix/zero-extension pairs ("a", "a\x00", "a\x00\x00") that a short
// all-zero code would make share padded bytes.
func zeroHeavyKeys(rng *rand.Rand, n int) [][]byte {
	out := [][]byte{{}, {0}, {0, 0}, {0, 0, 0}, []byte("a"), []byte("a\x00"), []byte("a\x00\x00"), []byte("a\x00\x00\x00\x00\x00\x00\x00\x00")}
	for len(out) < n {
		k := make([]byte, rng.Intn(12))
		for j := range k {
			if rng.Intn(4) != 0 {
				k[j] = 0
			} else {
				k[j] = byte(rng.Intn(256))
			}
		}
		out = append(out, k)
	}
	return out
}

// guardCorpora are the datasets the exactness guard is checked on.
func guardCorpora() map[string][][]byte {
	return map[string][][]byte{
		"email": datagen.Generate(datagen.Email, 3000, 11),
		"url":   datagen.Generate(datagen.URL, 3000, 11),
		"wiki":  datagen.Generate(datagen.Wiki, 3000, 11),
		"zero":  zeroHeavyKeys(rand.New(rand.NewSource(11)), 3000),
	}
}

// checkDecodeExact asserts that every key's stored encoding decodes back
// to the key through both decoders, and that distinct keys never share
// stored bytes.
func checkDecodeExact(t *testing.T, label string, e *Encoder, keys [][]byte) {
	t.Helper()
	td, err := NewTableDecoder(e)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	bd, err := NewDecoder(e)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	owner := map[string]string{}
	var buf []byte
	for _, k := range keys {
		out, bits := e.EncodeBits(nil, k)
		if prev, ok := owner[string(out)]; ok && prev != string(k) {
			t.Fatalf("%s: %q and %q share stored bytes %x", label, prev, k, out)
		}
		owner[string(out)] = string(k)
		buf, err = td.AppendDecode(buf[:0], out)
		if err != nil || !bytes.Equal(buf, k) {
			t.Fatalf("%s: table decode of %q = %q, %v", label, k, buf, err)
		}
		if oracle, err := bd.Decode(out, bits); err != nil || !bytes.Equal(oracle, buf) {
			t.Fatalf("%s: bit-serial decode of %q = %q, %v", label, k, oracle, err)
		}
	}
}

// TestDecodeGuardAllSchemes is the exactness property: on every scheme
// built from email, URL, wiki and 0x00-heavy keys, padded encodings
// decode exactly and distinct keys give distinct stored bytes. Each
// dictionary is also checked against the other corpora, which exercises
// keys its build never saw.
func TestDecodeGuardAllSchemes(t *testing.T) {
	corpora := guardCorpora()
	rng := rand.New(rand.NewSource(12))
	binary := randomBinaryKeys(rng, 500, 24)
	for _, s := range Schemes {
		for name, keys := range corpora {
			opt := Options{DictLimit: 1024, MaxPatternLen: 16}
			if s == DoubleChar {
				opt = Options{}
			}
			e, err := Build(s, keys[:1000], opt)
			if err != nil {
				t.Fatalf("%v/%s: %v", s, name, err)
			}
			if c := e.Entries()[0].Code; c.Bits == 0 && c.Len < 8 {
				t.Fatalf("%v/%s: entry 0 code %v escaped the guard", s, name, c)
			}
			label := fmt.Sprintf("%v/%s", s, name)
			for other, ks := range corpora {
				checkDecodeExact(t, label+" on "+other, e, ks)
			}
			checkDecodeExact(t, label+" on binary", e, binary)
		}
	}
}

// TestDecodeGuardWidensShortZeroCode builds a Single-Char dictionary from
// a sample dominated by 0x00, on which the raw Hu-Tucker coder gives entry
// 0 (the 0x00 interval) a code under 8 bits. Build widens it to 8 zero
// bits; a dictionary reassembled from the raw codes is the counterexample:
// "a" and "a\x00" share stored bytes and the table decoder refuses it.
func TestDecodeGuardWidensShortZeroCode(t *testing.T) {
	var samples [][]byte
	for i := 0; i < 200; i++ {
		samples = append(samples, bytes.Repeat([]byte{0}, 16), []byte(fmt.Sprintf("k%d", i)))
	}
	ivs := symbolselect.SingleChar(samples)
	weights := make([]float64, len(ivs))
	for i, iv := range ivs {
		weights[i] = iv.Weight
	}
	raw := hutucker.Build(weights)
	if raw[0].Bits != 0 || raw[0].Len >= 8 {
		t.Fatalf("fixture: raw entry 0 code %v is not a short all-zero code", raw[0])
	}

	e, err := Build(SingleChar, samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Entries()[0].Code; got != (hutucker.Code{Len: 8}) {
		t.Fatalf("Build left entry 0 code %v, want 8 zero bits", got)
	}
	for i, ent := range e.Entries()[1:] {
		if ent.Code != raw[i+1] {
			t.Fatalf("entry %d code changed: %v, raw %v", i+1, ent.Code, raw[i+1])
		}
	}
	checkDecodeExact(t, "widened", e, zeroHeavyKeys(rand.New(rand.NewSource(3)), 2000))

	entries := make([]dict.Entry, len(e.Entries()))
	copy(entries, e.Entries())
	entries[0].Code = raw[0]
	unguarded, err := Reassemble(SingleChar, Options{}, entries)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := unguarded.Encode([]byte("a")), unguarded.Encode([]byte("a\x00")); !bytes.Equal(a, b) {
		t.Fatalf("counterexample: unguarded codes give distinct bytes %x, %x", a, b)
	}
	if _, err := NewTableDecoder(unguarded); !errors.Is(err, ErrAmbiguousPadding) {
		t.Fatalf("table decoder over the unguarded dictionary: %v, want ErrAmbiguousPadding", err)
	}
}

// TestTableDecodeLongCodes drives the path for codes longer than the 57
// bits the decoder buffers: a fixed-length dictionary whose codes are all
// 60 bits long, with every bit offset crossed.
func TestTableDecodeLongCodes(t *testing.T) {
	var entries []dict.Entry
	for b := 0; b < 256; b++ {
		entries = append(entries, dict.Entry{
			Boundary:  []byte{byte(b)},
			SymbolLen: 1,
			Code:      hutucker.Code{Bits: uint64(b)<<52 | 0x5a5a5a5a5a5a5, Len: 60},
		})
	}
	e, err := Reassemble(SingleChar, Options{ForceBinarySearchDict: true}, entries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	checkDecodeExact(t, "60-bit codes", e, randomBinaryKeys(rng, 300, 20))
}

// TestTableDecodeCorruptInput: truncated encodings, flipped bits and
// random garbage either decode or fail with a nil buffer, never a panic
// or a partial key.
func TestTableDecodeCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for s, e := range buildAll(t, nil) {
		td, err := NewTableDecoder(e)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		out := e.Encode([]byte("com.gmail@alice42"))
		for cut := 0; cut < len(out); cut++ {
			if got, err := td.AppendDecode([]byte("dst"), out[:cut]); err != nil && got != nil {
				t.Fatalf("%v: truncated decode returned %q with %v", s, got, err)
			}
		}
		for i := 0; i < 2000; i++ {
			buf := make([]byte, rng.Intn(24))
			rng.Read(buf)
			if got, err := td.AppendDecode([]byte("dst"), buf); err != nil && got != nil {
				t.Fatalf("%v: garbage decode returned %q with %v", s, got, err)
			}
		}
	}
}

func TestTableDecodeZeroAllocs(t *testing.T) {
	for s, e := range buildAll(t, nil) {
		td, err := NewTableDecoder(e)
		if err != nil {
			t.Fatal(err)
		}
		out := e.Encode([]byte("com.gmail@alice42"))
		buf := make([]byte, 0, 64)
		allocs := testing.AllocsPerRun(200, func() {
			buf, _ = td.AppendDecode(buf[:0], out)
		})
		if allocs != 0 {
			t.Fatalf("%v: AppendDecode allocates %.1f/op", s, allocs)
		}
	}
}

// decodeBench shares the email-key encoders of the decode benchmarks:
// the drift workload's 3-Grams at 4K entries and every other scheme at
// its default or 4K size.
var decodeBench struct {
	sync.Once
	encs map[Scheme]*Encoder
	keys [][]byte
	err  error
}

func decodeBenchFixture(b *testing.B) (map[Scheme]*Encoder, [][]byte) {
	b.Helper()
	decodeBench.Do(func() {
		keys := datagen.Generate(datagen.Email, 20000, 1)
		decodeBench.keys = keys
		decodeBench.encs = map[Scheme]*Encoder{}
		for _, s := range Schemes {
			opt := Options{DictLimit: 4096}
			if s == DoubleChar {
				opt = Options{}
			}
			e, err := Build(s, keys[:2000], opt)
			if err != nil {
				decodeBench.err = err
				return
			}
			decodeBench.encs[s] = e
		}
	})
	if decodeBench.err != nil {
		b.Fatal(decodeBench.err)
	}
	return decodeBench.encs, decodeBench.keys
}

// BenchmarkTableDecode measures AppendDecode per email key (ns/op is per
// key) beside BenchmarkDecodeEncodeBits, the per-key encode it must not
// be slower than.
func BenchmarkTableDecode(b *testing.B) {
	encs, keys := decodeBenchFixture(b)
	for _, s := range Schemes {
		b.Run(s.String(), func(b *testing.B) {
			e := encs[s]
			td, err := NewTableDecoder(e)
			if err != nil {
				b.Fatal(err)
			}
			stored := e.EncodeAll(keys)
			buf := make([]byte, 0, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = td.AppendDecode(buf[:0], stored[i%len(stored)])
			}
		})
	}
}

func BenchmarkDecodeEncodeBits(b *testing.B) {
	encs, keys := decodeBenchFixture(b)
	for _, s := range Schemes {
		b.Run(s.String(), func(b *testing.B) {
			e := encs[s].Clone()
			buf := make([]byte, 0, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = e.EncodeBits(buf[:0], keys[i%len(keys)])
			}
		})
	}
}
