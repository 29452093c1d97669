package hope_test

import (
	"bytes"
	"sort"
	"testing"

	hope "repro"
	"repro/internal/datagen"
)

func TestFacadeEndToEnd(t *testing.T) {
	keys := datagen.Generate(datagen.Email, 5000, 1)
	samples := hope.SampleKeys(keys, 0.01, 42)
	if len(samples) == 0 || len(samples) > len(keys) {
		t.Fatalf("sample size %d", len(samples))
	}
	for _, scheme := range hope.Schemes {
		enc, err := hope.Build(scheme, samples, hope.Options{DictLimit: 1 << 10})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if cpr := enc.CompressionRate(keys); cpr <= 1 {
			t.Fatalf("%v: CPR %.2f", scheme, cpr)
		}
		// Order preservation through the façade.
		sorted := append([][]byte{}, keys[:500]...)
		sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
		var prev []byte
		for _, k := range sorted {
			out := enc.Encode(k)
			if prev != nil && bytes.Compare(prev, out) > 0 {
				t.Fatalf("%v: order violated", scheme)
			}
			prev = out
		}
		// Lossless roundtrip through the façade.
		dec, err := hope.NewDecoder(enc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dec.AppendDecode(nil, enc.Encode(keys[0]))
		if err != nil || !bytes.Equal(back, keys[0]) {
			t.Fatalf("%v: roundtrip", scheme)
		}
	}
}

// TestFacadeBulkAndConcurrent covers the public bulk-encode surface:
// EncodeAll matches per-key Encode, and a ConcurrentEncoder built through
// the façade agrees with both.
func TestFacadeBulkAndConcurrent(t *testing.T) {
	keys := datagen.Generate(datagen.Email, 3000, 3)
	samples := hope.SampleKeys(keys, 0.02, 42)
	enc, err := hope.Build(hope.DoubleChar, samples, hope.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bulk := hope.EncodeAll(enc, keys)
	if len(bulk) != len(keys) {
		t.Fatalf("EncodeAll returned %d results", len(bulk))
	}
	ce := hope.NewConcurrentEncoder(enc)
	for i, k := range keys[:200] {
		want := ce.Encode(k)
		if !bytes.Equal(bulk[i], want) {
			t.Fatalf("EncodeAll diverged on %q", k)
		}
	}
	bulk2 := ce.EncodeAll(keys[:100])
	for i := range bulk2 {
		if !bytes.Equal(bulk2[i], bulk[i]) {
			t.Fatal("ConcurrentEncoder.EncodeAll diverged")
		}
	}
}

func TestSampleKeys(t *testing.T) {
	keys := datagen.Generate(datagen.Wiki, 1000, 2)
	s := hope.SampleKeys(keys, 0.1, 7)
	if len(s) != 100 {
		t.Fatalf("sample size %d, want 100", len(s))
	}
	// Deterministic.
	s2 := hope.SampleKeys(keys, 0.1, 7)
	for i := range s {
		if !bytes.Equal(s[i], s2[i]) {
			t.Fatal("sampling not deterministic")
		}
	}
	// Bounds.
	if got := hope.SampleKeys(keys, 0, 1); len(got) != 1 {
		t.Fatal("minimum one sample")
	}
	if got := hope.SampleKeys(keys, 99, 1); len(got) != len(keys) {
		t.Fatal("capped at corpus size")
	}
	if hope.SampleKeys(nil, 0.5, 1) != nil {
		t.Fatal("empty corpus")
	}
}
