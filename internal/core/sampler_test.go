package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestSamplerFillsThenMaintainsCapacity(t *testing.T) {
	s := NewSampler(100, 1)
	for i := 0; i < 1000; i++ {
		s.Add([]byte(fmt.Sprintf("key-%04d", i)))
	}
	if s.Len() != 100 {
		t.Fatalf("reservoir size %d", s.Len())
	}
	if s.Seen() != 1000 {
		t.Fatalf("seen %d", s.Seen())
	}
}

func TestSamplerCopiesKeys(t *testing.T) {
	s := NewSampler(4, 1)
	k := []byte("mutable")
	s.Add(k)
	k[0] = 'X'
	if string(s.Samples()[0]) != "mutable" {
		t.Fatal("sampler aliased caller storage")
	}
}

// Reservoir property: every offered key lands in the sample with equal
// probability, regardless of arrival position.
func TestSamplerUniformity(t *testing.T) {
	const n, k, trials = 500, 50, 400
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		s := NewSampler(k, int64(trial))
		for i := 0; i < n; i++ {
			s.Add([]byte{byte(i >> 8), byte(i)})
		}
		for _, key := range s.Samples() {
			counts[int(key[0])<<8|int(key[1])]++
		}
	}
	expected := float64(trials) * k / n // 40 per position
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.5 {
			t.Fatalf("position %d sampled %d times, expected ~%.0f", i, c, expected)
		}
	}
}

// The paper's empty-tree integration flow: accumulate inserts in a
// reservoir, build after a threshold, re-encode, and verify semantics
// carry over to the compressed tree.
func TestEmptyTreeIntegrationFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSampler(500, 2)
	incoming := sampleKeys(rng, 5000)
	staging := map[string]uint64{} // the uncompressed tree stand-in
	for i, k := range incoming {
		staging[string(k)] = uint64(i)
		s.Add(k)
	}
	enc, err := s.Build(DoubleChar, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild: re-encode every staged key; lookups must keep working and
	// order must be preserved through the rebuild.
	rebuilt := map[string]uint64{}
	for k, v := range staging {
		rebuilt[string(enc.Encode([]byte(k)))] = v
	}
	for k, v := range staging {
		got, ok := rebuilt[string(enc.Encode([]byte(k)))]
		if !ok || got != v {
			t.Fatalf("lost %q through rebuild", k)
		}
	}
	if cpr := enc.CompressionRate(incoming); cpr < 1.5 {
		t.Fatalf("reservoir-built dictionary compresses poorly: %.2f", cpr)
	}
}

// Determinism: a fixed seed and input stream must produce an identical
// reservoir — the adaptive lifecycle relies on this for reproducible
// dictionary rebuilds in tests and benchmarks.
func TestSamplerDeterministic(t *testing.T) {
	build := func() [][]byte {
		s := NewSampler(64, 77)
		for i := 0; i < 5000; i++ {
			s.Add([]byte(fmt.Sprintf("key-%05d", i*13%5000)))
		}
		return s.Snapshot()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("reservoir sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("slot %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// Chi-square smoke test for uniform inclusion: over many trials, the
// per-position inclusion counts must be consistent with the uniform k/n
// inclusion probability a correct reservoir guarantees. The statistic is
// compared against a generous critical value so the test only catches
// gross bias (e.g. favoring early or late arrivals), not RNG noise.
func TestSamplerInclusionChiSquare(t *testing.T) {
	const n, k, trials = 200, 40, 500
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		s := NewSampler(k, int64(1000+trial))
		for i := 0; i < n; i++ {
			s.Add([]byte{byte(i >> 8), byte(i)})
		}
		for _, key := range s.Samples() {
			counts[int(key[0])<<8|int(key[1])]++
		}
	}
	expected := float64(trials) * k / n // 100 inclusions per position
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 199 degrees of freedom: mean 199, stddev ~20. Accept within ±6σ so
	// only a structurally biased reservoir fails.
	if chi2 > 199+6*20 || chi2 < 199-6*20 {
		t.Fatalf("chi-square statistic %.1f outside [79, 319] for df=199", chi2)
	}
}

func TestSamplerSnapshotAndReset(t *testing.T) {
	s := NewSampler(8, 3)
	for i := 0; i < 100; i++ {
		s.Add([]byte{byte(i)})
	}
	snap := s.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	// Snapshot must not alias reservoir storage.
	snap[0][0] ^= 0xff
	if s.Samples()[0][0] == snap[0][0] {
		t.Fatal("snapshot aliases reservoir storage")
	}
	s.Reset()
	if s.Len() != 0 || s.Seen() != 0 {
		t.Fatal("Reset left state behind")
	}
	s.Add([]byte("after"))
	if s.Len() != 1 || s.Seen() != 1 {
		t.Fatal("sampler unusable after Reset")
	}
}

func TestSamplerDefaultCapacity(t *testing.T) {
	s := NewSampler(0, 1)
	for i := 0; i < 100; i++ {
		s.Add([]byte{byte(i)})
	}
	if s.Len() != 100 {
		t.Fatal("default capacity should accept all 100")
	}
}

func TestRangeEncodingOptionEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	samples := sampleKeys(rng, 800)
	for _, scheme := range []Scheme{SingleChar, ThreeGrams} {
		e, err := Build(scheme, samples, Options{DictLimit: 1024, UseRangeEncoding: true})
		if err != nil {
			t.Fatal(err)
		}
		// Order preservation and losslessness hold for range codes too.
		keys := sampleKeys(rng, 1500)
		uniq := map[string]bool{}
		var sorted [][]byte
		for _, k := range keys {
			if !uniq[string(k)] {
				uniq[string(k)] = true
				sorted = append(sorted, k)
			}
		}
		sortBytes(sorted)
		if err := checkOrderPreserving(e, sorted); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		d, err := NewDecoder(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[:300] {
			out, bits := e.EncodeBits(nil, k)
			back, err := d.Decode(out, bits)
			if err != nil || !bytes.Equal(back, k) {
				t.Fatalf("%v: roundtrip failed for %q", scheme, k)
			}
		}
		// The paper's trade-off: range encoding compresses worse than
		// Hu-Tucker.
		ht, err := Build(scheme, samples, Options{DictLimit: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if e.CompressionRate(keys) > ht.CompressionRate(keys)+1e-9 {
			t.Fatalf("%v: range encoding beat Hu-Tucker", scheme)
		}
	}
}

func sortBytes(keys [][]byte) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && bytes.Compare(keys[j-1], keys[j]) > 0; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
}
