package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// Fuzz fixtures share one encoder set; fuzzing explores arbitrary byte
// inputs against the completeness / order / losslessness contracts.
var fuzzFixture struct {
	sync.Once
	encs []*Encoder
	decs []*TableDecoder
	err  error
}

func fuzzEncoders(f *testing.F) ([]*Encoder, []*TableDecoder) {
	f.Helper()
	fuzzFixture.Do(func() {
		rng := rand.New(rand.NewSource(1))
		samples := sampleKeys(rng, 800)
		for _, s := range []Scheme{SingleChar, DoubleChar, ThreeGrams, ALMImproved} {
			e, err := Build(s, samples, Options{DictLimit: 1024, MaxPatternLen: 16})
			if err != nil {
				fuzzFixture.err = err
				return
			}
			d, err := NewTableDecoder(e)
			if err != nil {
				fuzzFixture.err = err
				return
			}
			fuzzFixture.encs = append(fuzzFixture.encs, e)
			fuzzFixture.decs = append(fuzzFixture.decs, d)
		}
	})
	if fuzzFixture.err != nil {
		f.Fatal(fuzzFixture.err)
	}
	return fuzzFixture.encs, fuzzFixture.decs
}

// FuzzEncodeRoundTrip: any byte string encodes, decodes back losslessly,
// and the padded length matches the bit length.
func FuzzEncodeRoundTrip(f *testing.F) {
	encs, decs := fuzzEncoders(f)
	f.Add([]byte("com.gmail@alice"))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte("\x00\xff\x00\xff binary soup \x01\x02"))
	f.Fuzz(func(t *testing.T, key []byte) {
		if len(key) > 256 {
			key = key[:256]
		}
		for i, e := range encs {
			out, bits := e.EncodeBits(nil, key)
			if len(out) != (bits+7)/8 {
				t.Fatalf("scheme %v: padding mismatch", e.Scheme())
			}
			back, err := decs[i].AppendDecode(nil, out)
			if err != nil {
				t.Fatalf("scheme %v: decode: %v", e.Scheme(), err)
			}
			if !bytes.Equal(back, key) {
				t.Fatalf("scheme %v: roundtrip %q -> %q", e.Scheme(), key, back)
			}
		}
	})
}

// FuzzOrderPreservation: for any two byte strings, encoded bit-string
// order matches input order.
func FuzzOrderPreservation(f *testing.F) {
	encs, _ := fuzzEncoders(f)
	f.Add([]byte("abc"), []byte("abd"))
	f.Add([]byte("a"), []byte("a\x00"))
	f.Add([]byte{}, []byte{0x00})
	f.Add([]byte("com.gmail@a"), []byte("com.gmail@b"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 128 {
			a = a[:128]
		}
		if len(b) > 128 {
			b = b[:128]
		}
		cmp := bytes.Compare(a, b)
		for _, e := range encs {
			ea, na := e.EncodeBits(nil, a)
			ea = append([]byte(nil), ea...)
			eb, nb := e.EncodeBits(nil, b)
			got := bitCompare(ea, na, eb, nb)
			if cmp == 0 && got != 0 {
				t.Fatalf("scheme %v: equal keys encode differently", e.Scheme())
			}
			if cmp < 0 && got >= 0 || cmp > 0 && got <= 0 {
				t.Fatalf("scheme %v: order(%q,%q)=%d but encoded order %d",
					e.Scheme(), a, b, cmp, got)
			}
		}
	})
}

// FuzzEncodedBounds: bound translation preserves the range-query
// invariants on arbitrary (prefix, key) pairs, strictly, under byte-wise
// comparison of the padded encodings (the form the search trees store and
// compare):
//
//   - complete-key bounds keep the order: p < k implies
//     EncodeBound(p) < EncodeBound(k), and equal keys encode equally;
//   - k starts with p exactly when Encode(p) <= Encode(k) <
//     Encode(succ(p)), where succ(p) is p's successor and a nil successor
//     (p all 0xff) means no upper bound.
func FuzzEncodedBounds(f *testing.F) {
	encs, _ := fuzzEncoders(f)
	f.Add([]byte("com.gmail@"), []byte("com.gmail@alice"))
	f.Add([]byte("a"), []byte("a\x00"))
	f.Add([]byte{}, []byte{0x00})
	f.Add([]byte{0xff}, []byte{0xff, 0xff})
	f.Add([]byte("app"), []byte("apz"))
	f.Add([]byte("zz"), []byte("aa"))
	f.Fuzz(func(t *testing.T, p, k []byte) {
		if len(p) > 64 {
			p = p[:64]
		}
		if len(k) > 128 {
			k = k[:128]
		}
		succ := successor(p)
		for _, e := range encs {
			lo, ek, hi := e.EncodeBound(p), e.Encode(k), e.EncodeBound(succ)
			in := bytes.Compare(lo, ek) <= 0 && (hi == nil || bytes.Compare(ek, hi) < 0)
			if in != bytes.HasPrefix(k, p) {
				t.Fatalf("scheme %v: key %q, prefix %q: in [enc(p), enc(succ(p))) = %v",
					e.Scheme(), k, p, in)
			}
			if c, got := bytes.Compare(p, k), bytes.Compare(lo, ek); c != got {
				t.Fatalf("scheme %v: order(%q, %q) = %d but EncodeBound order %d",
					e.Scheme(), p, k, c, got)
			}
		}
	})
}

// FuzzBatchEncode: EncodeAll and Encode must both be byte-identical to the
// Lookup loop (appendEncodeGeneric) for arbitrary batches, including
// empty keys and ragged lengths carved from the fuzz input.
func FuzzBatchEncode(f *testing.F) {
	encs, _ := fuzzEncoders(f)
	f.Add([]byte("com.gmail@alice\x00bob\x00\x00carol"), uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0xFF}, uint8(2))
	f.Add([]byte("aaaaaaaabbbbbbbbccccccccdddddddd"), uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, nkeys uint8) {
		if len(raw) > 1024 {
			raw = raw[:1024]
		}
		n := int(nkeys%32) + 1
		keys := make([][]byte, n)
		for i := range keys {
			lo := i * len(raw) / n
			hi := (i + 1) * len(raw) / n
			keys[i] = raw[lo:hi]
		}
		for _, e := range encs {
			got := e.EncodeAll(keys)
			if len(got) != n {
				t.Fatalf("scheme %v: EncodeAll returned %d of %d", e.Scheme(), len(got), n)
			}
			for i, k := range keys {
				var a appender
				a.Reset(nil)
				e.appendEncodeGeneric(&a, k)
				want, _ := a.Finish()
				if !bytes.Equal(got[i], want) {
					t.Fatalf("scheme %v: EncodeAll[%d](%q) = %x, Lookup loop %x",
						e.Scheme(), i, k, got[i], want)
				}
				if one := e.Encode(k); !bytes.Equal(one, want) {
					t.Fatalf("scheme %v: Encode(%q) = %x, Lookup loop %x", e.Scheme(), k, one, want)
				}
			}
		}
	})
}

// decodeFuzzFixture holds one encoder per scheme with both decoders.
var decodeFuzzFixture struct {
	sync.Once
	encs []*Encoder
	tds  []*TableDecoder
	bds  []*Decoder
	err  error
}

// FuzzDecodePadded: under every scheme the table decoder agrees with the
// bit-serial Decoder and inverts Encode on arbitrary keys; read as a
// stored encoding, the fuzz input itself must decode to what the
// bit-serial decoder reads before its zero padding, or fail with a nil
// buffer — never panic and never return a partial key.
func FuzzDecodePadded(f *testing.F) {
	decodeFuzzFixture.Do(func() {
		samples := sampleKeys(rand.New(rand.NewSource(1)), 800)
		for _, s := range Schemes {
			e, err := Build(s, samples, Options{DictLimit: 1024, MaxPatternLen: 16})
			if err == nil {
				decodeFuzzFixture.encs = append(decodeFuzzFixture.encs, e)
				var td *TableDecoder
				if td, err = NewTableDecoder(e); err == nil {
					decodeFuzzFixture.tds = append(decodeFuzzFixture.tds, td)
					var bd *Decoder
					bd, err = NewDecoder(e)
					decodeFuzzFixture.bds = append(decodeFuzzFixture.bds, bd)
				}
			}
			if err != nil {
				decodeFuzzFixture.err = err
				return
			}
		}
	})
	if decodeFuzzFixture.err != nil {
		f.Fatal(decodeFuzzFixture.err)
	}
	fx := &decodeFuzzFixture
	f.Add([]byte("com.gmail@alice"))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte("a\x00"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x80})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 256 {
			in = in[:256]
		}
		for i, e := range fx.encs {
			out, bits := e.EncodeBits(nil, in)
			got, err := fx.tds[i].AppendDecode(nil, out)
			if err != nil || !bytes.Equal(got, in) {
				t.Fatalf("scheme %v: decode(encode(%q)) = %q, %v", e.Scheme(), in, got, err)
			}
			if oracle, err := fx.bds[i].Decode(out, bits); err != nil || !bytes.Equal(oracle, got) {
				t.Fatalf("scheme %v: bit-serial decode %q, %v; table decode %q", e.Scheme(), oracle, err, got)
			}

			got, err = fx.tds[i].AppendDecode(nil, in)
			if err != nil {
				if got != nil {
					t.Fatalf("scheme %v: failed decode of %x returned %q", e.Scheme(), in, got)
				}
				got = nil
			}
			// The oracle reads every bit length that leaves only zero
			// padding (fewer than 8 bits); at most one may succeed.
			var want []byte
			wantOK := 0
			for pad := 0; pad < 8 && pad <= 8*len(in); pad++ {
				n := 8*len(in) - pad
				if pad > 0 && in[len(in)-1]&(1<<pad-1) != 0 {
					break
				}
				if o, oerr := fx.bds[i].Decode(in, n); oerr == nil {
					want = o
					wantOK++
				}
				if len(in) == 0 {
					break
				}
			}
			if wantOK > 1 {
				t.Fatalf("scheme %v: %x decodes at %d padding lengths", e.Scheme(), in, wantOK)
			}
			if (err == nil) != (wantOK == 1) || !bytes.Equal(got, want) {
				t.Fatalf("scheme %v: table decode of %x = %q, %v; bit-serial %q (%d)", e.Scheme(), in, got, err, want, wantOK)
			}
		}
	})
}
