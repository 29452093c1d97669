package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// prefixCorpus builds keys with heavy prefix sharing plus adversarial
// shapes: keys that are prefixes of other keys, an empty key, and 0xff
// runs.
func prefixCorpus(rng *rand.Rand) [][]byte {
	out := [][]byte{
		{}, // empty key
		[]byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"),
		[]byte("app"), []byte("apple"), []byte("applesauce"), []byte("application"),
		[]byte("com.gmail@"), []byte("com.gmail@alice"), []byte("com.gmail@bob"),
		[]byte("com.yahoo@carol"), []byte("org.wiki@dave"),
		{0xff}, {0xff, 0xff}, {0xff, 0xff, 0xff},
		[]byte("a\xff"), []byte("a\xff\xff"), []byte("a\xffz"),
		{0x00}, {0x00, 0x01}, []byte("zzz"),
	}
	out = append(out, sampleKeys(rng, 200)...)
	out = append(out, randomBinaryKeys(rng, 200, 12)...)
	return out
}

// withZeroRuns returns keys plus, for every key, its extensions by one,
// two and nine 0x00 bytes: the keys whose stored bytes an all-zero code
// hidden in the padding would merge with the key's own.
func withZeroRuns(keys [][]byte) [][]byte {
	out := append([][]byte(nil), keys...)
	for _, k := range keys {
		for _, n := range []int{1, 2, 9} {
			out = append(out, append(append([]byte(nil), k...), make([]byte, n)...))
		}
	}
	return out
}

// successor returns the smallest string above every string starting with
// p, or nil when p is all 0xff (no upper bound).
func successor(p []byte) []byte {
	i := len(p) - 1
	for ; i >= 0 && p[i] == 0xff; i-- {
	}
	if i < 0 {
		return nil
	}
	s := append([]byte(nil), p[:i+1]...)
	s[i]++
	return s
}

// TestStrictOrderAllSchemes is the order property every stored-key scan
// rests on. For all six schemes, each built on a mix of the corpora, and
// on email, URL, wiki and 0x00-heavy keys and the prefix corpus with
// zero-run extensions: distinct keys give strictly ascending padded
// encodings, and a key starts with prefix p exactly when
// Encode(p) <= Encode(k) < Encode(successor(p)).
func TestStrictOrderAllSchemes(t *testing.T) {
	corpora := guardCorpora()
	rng := rand.New(rand.NewSource(11))
	// Keys just above a fixed prefix's range: the successor must keep
	// them out even where one dictionary interval spans the boundary.
	var siblings [][]byte
	for _, above := range []string{"b", "aq", "apq", "com.gmailA", "\x01", "\x00\x01"} {
		for _, suffix := range []string{"", "a", "zz", "\xff\xff"} {
			siblings = append(siblings, []byte(above+suffix))
		}
	}
	corpora["prefix+zeros"] = withZeroRuns(append(prefixCorpus(rng), siblings...))
	var sample [][]byte
	for _, name := range []string{"email", "url", "wiki", "zero"} {
		sample = append(sample, corpora[name][:500]...)
	}
	fixed := [][]byte{
		{}, []byte("a"), []byte("ab"), []byte("app"), []byte("apple"),
		[]byte("com.gmail@"), []byte("com."), {0xff}, {0xff, 0xff},
		[]byte("a\xff"), {0x00}, {0x00, 0x00}, []byte("a\x00"), []byte("zz"),
		[]byte("http://"), []byte("nosuchprefix"),
	}
	for _, s := range Schemes {
		opt := Options{DictLimit: 1024, MaxPatternLen: 16}
		if s == DoubleChar {
			opt = Options{}
		}
		e, err := Build(s, sample, opt)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for name, keys := range corpora {
			keys = slices.Clone(keys)
			slices.SortFunc(keys, bytes.Compare)
			keys = slices.CompactFunc(keys, bytes.Equal)
			enc := e.EncodeAll(keys)
			for i := 1; i < len(keys); i++ {
				if bytes.Compare(enc[i-1], enc[i]) >= 0 {
					t.Fatalf("%v/%s: %q < %q but padded encodings %x >= %x",
						s, name, keys[i-1], keys[i], enc[i-1], enc[i])
				}
			}
			prefixes := slices.Clone(fixed)
			for range 40 {
				k := keys[rng.Intn(len(keys))]
				prefixes = append(prefixes, k[:rng.Intn(len(k)+1)])
			}
			for _, p := range prefixes {
				lo, hi := e.Encode(p), e.EncodeBound(successor(p))
				for i, k := range keys {
					in := bytes.Compare(lo, enc[i]) <= 0 && (hi == nil || bytes.Compare(enc[i], hi) < 0)
					if in != bytes.HasPrefix(k, p) {
						t.Fatalf("%v/%s: prefix %q key %q: in [enc(p), enc(succ(p))) = %v",
							s, name, p, k, in)
					}
				}
			}
		}
	}
}

// TestEncodeBound checks the complete-key bound translation, including the
// nil (unbounded) pass-through.
func TestEncodeBound(t *testing.T) {
	encs := buildAll(t, nil)
	for s, e := range encs {
		if e.EncodeBound(nil) != nil {
			t.Fatalf("%v: nil bound must stay nil", s)
		}
		k := []byte("com.gmail@alice")
		if !bytes.Equal(e.EncodeBound(k), e.Encode(k)) {
			t.Fatalf("%v: bound encoding differs from exact encoding", s)
		}
	}
}
