package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/hutucker"
)

// sampleKeys generates deterministic skewed ASCII-ish keys resembling the
// paper's email workload shape.
func sampleKeys(rng *rand.Rand, n int) [][]byte {
	domains := []string{"com.gmail@", "com.yahoo@", "com.outlook@", "org.wiki@", "net.mail@"}
	names := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	out := make([][]byte, n)
	for i := range out {
		k := domains[rng.Intn(len(domains))] + names[rng.Intn(len(names))]
		if rng.Intn(2) == 0 {
			k += string([]byte{byte('0' + rng.Intn(10)), byte('0' + rng.Intn(10))})
		}
		out[i] = []byte(k)
	}
	return out
}

func randomBinaryKeys(rng *rand.Rand, n, maxLen int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		k := make([]byte, 1+rng.Intn(maxLen))
		for j := range k {
			k[j] = byte(rng.Intn(256))
		}
		out[i] = k
	}
	return out
}

var sharedFixture struct {
	sync.Once
	encs map[Scheme]*Encoder
	err  error
}

// buildAll returns one encoder per scheme built once on a shared sample
// with test-scale dictionary limits (the Double-Char build dominates test
// time, so the fixture is cached; Encoders are not goroutine-safe but Go
// tests in one package run sequentially unless marked Parallel).
func buildAll(t *testing.T, _ [][]byte) map[Scheme]*Encoder {
	t.Helper()
	sharedFixture.Do(func() {
		rng := rand.New(rand.NewSource(1))
		samples := sampleKeys(rng, 2000)
		sharedFixture.encs = map[Scheme]*Encoder{}
		for _, s := range Schemes {
			opt := Options{DictLimit: 1024, MaxPatternLen: 16}
			if s == DoubleChar {
				// Full alphabet keeps correctness on arbitrary bytes; the
				// Garsia-Wachs coder handles 65,792 entries quickly.
				opt = Options{}
			}
			e, err := Build(s, samples, opt)
			if err != nil {
				sharedFixture.err = fmt.Errorf("build %v: %v", s, err)
				return
			}
			sharedFixture.encs[s] = e
		}
	})
	if sharedFixture.err != nil {
		t.Fatal(sharedFixture.err)
	}
	return sharedFixture.encs
}

func TestBuildAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := sampleKeys(rng, 2000)
	encs := buildAll(t, samples)
	for s, e := range encs {
		if e.NumEntries() == 0 {
			t.Fatalf("%v: empty dictionary", s)
		}
		if e.MemoryUsage() <= 0 {
			t.Fatalf("%v: no memory reported", s)
		}
		st := e.Stats()
		if st.Entries != e.NumEntries() {
			t.Fatalf("%v: stats entries mismatch", s)
		}
		if st.Total() <= 0 {
			t.Fatalf("%v: no build time recorded", s)
		}
	}
	// Fixed sizes per the paper.
	if n := encs[SingleChar].NumEntries(); n != 256 {
		t.Fatalf("Single-Char has %d entries", n)
	}
	if n := encs[DoubleChar].NumEntries(); n != 65792 {
		t.Fatalf("Double-Char has %d entries", n)
	}
	for _, s := range []Scheme{ThreeGrams, FourGrams, ALM, ALMImproved} {
		if n := encs[s].NumEntries(); n > 1024 {
			t.Fatalf("%v exceeded dict limit: %d", s, n)
		}
	}
}

// Completeness: every scheme must encode arbitrary byte strings, not just
// strings resembling the samples (paper Section 3.1).
func TestEncodeArbitraryKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	samples := sampleKeys(rng, 1000)
	encs := buildAll(t, samples)
	inputs := randomBinaryKeys(rng, 3000, 30)
	inputs = append(inputs, []byte{}, []byte{0x00}, []byte{0xFF},
		bytes.Repeat([]byte{0xFF}, 20), bytes.Repeat([]byte{0x00}, 20))
	for s, e := range encs {
		for _, k := range inputs {
			out, bits := e.EncodeBits(nil, k)
			if len(k) == 0 && (len(out) != 0 || bits != 0) {
				t.Fatalf("%v: empty key produced output", s)
			}
			if len(k) > 0 && bits == 0 {
				t.Fatalf("%v: key %q encoded to zero bits", s, k)
			}
			if len(out) != (bits+7)/8 {
				t.Fatalf("%v: padding mismatch", s)
			}
		}
	}
}

// Order preservation, bit-exact, on both sample-like and adversarial keys.
func TestOrderPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := sampleKeys(rng, 1000)
	encs := buildAll(t, samples)
	pool := append(sampleKeys(rng, 2000), randomBinaryKeys(rng, 2000, 24)...)
	set := map[string]bool{}
	var keys [][]byte
	for _, k := range pool {
		if !set[string(k)] {
			set[string(k)] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	for s, e := range encs {
		if err := checkOrderPreserving(e, keys); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

// Losslessness: decode(encode(k)) == k for every scheme.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	samples := sampleKeys(rng, 1000)
	encs := buildAll(t, samples)
	inputs := append(sampleKeys(rng, 500), randomBinaryKeys(rng, 1500, 40)...)
	for s, e := range encs {
		d, err := NewDecoder(e)
		if err != nil {
			t.Fatalf("%v: decoder: %v", s, err)
		}
		for _, k := range inputs {
			out, bits := e.EncodeBits(nil, k)
			got, err := d.Decode(out, bits)
			if err != nil {
				t.Fatalf("%v: decode %q: %v", s, k, err)
			}
			if !bytes.Equal(got, k) {
				t.Fatalf("%v: roundtrip %q -> %q", s, k, got)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, err := Build(SingleChar, sampleKeys(rng, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(e)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated sequences must error rather than silently succeed.
	out, bits := e.EncodeBits(nil, []byte("com.gmail@alice"))
	if bits < 2 {
		t.Fatal("fixture too small")
	}
	if _, err := d.Decode(out, bits-1); err == nil {
		t.Fatal("truncated sequence accepted")
	}
}

// Compression: skewed text keys must compress (CPR > 1) and richer schemes
// must beat Single-Char on first-order-structured data.
func TestCompressionRates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	samples := sampleKeys(rng, 3000)
	encs := buildAll(t, samples)
	eval := sampleKeys(rng, 3000)
	cpr := map[Scheme]float64{}
	for s, e := range encs {
		cpr[s] = e.CompressionRate(eval)
		if cpr[s] <= 1.0 {
			t.Fatalf("%v: CPR %.3f <= 1 on skewed keys", s, cpr[s])
		}
	}
	if cpr[DoubleChar] <= cpr[SingleChar] {
		t.Fatalf("Double-Char (%.3f) should beat Single-Char (%.3f) on first-order structure",
			cpr[DoubleChar], cpr[SingleChar])
	}
	// VIVC schemes exploit higher-order entropy (paper Figure 8 row 1).
	if cpr[ThreeGrams] <= cpr[SingleChar] {
		t.Fatalf("3-Grams (%.3f) should beat Single-Char (%.3f)", cpr[ThreeGrams], cpr[SingleChar])
	}
}

func TestBatchEncodeMatchesIndividual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := sampleKeys(rng, 1000)
	encs := buildAll(t, samples)
	// Sorted batches with long shared prefixes.
	base := "com.gmail@shared.prefix."
	var batch [][]byte
	for i := 0; i < 32; i++ {
		batch = append(batch, []byte(base+strings.Repeat("x", i%4)+string(rune('a'+i%26))))
	}
	sort.Slice(batch, func(i, j int) bool { return bytes.Compare(batch[i], batch[j]) < 0 })
	for s, e := range encs {
		for _, size := range []int{1, 2, 8, 32} {
			got := e.EncodeBatch(batch[:size])
			for i := 0; i < size; i++ {
				want, _ := e.EncodeBits(nil, batch[i])
				if !bytes.Equal(got[i], want) {
					t.Fatalf("%v: batch size %d key %d: %x != %x", s, size, i, got[i], want)
				}
			}
		}
	}
}

func TestBatchEncodeRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	samples := sampleKeys(rng, 500)
	encs := buildAll(t, samples)
	for s, e := range encs {
		for trial := 0; trial < 50; trial++ {
			n := 2 + rng.Intn(10)
			batch := randomBinaryKeys(rng, n, 12)
			// Give half the trials a forced shared prefix.
			if trial%2 == 0 {
				p := randomBinaryKeys(rng, 1, 6)[0]
				for i := range batch {
					batch[i] = append(append([]byte{}, p...), batch[i]...)
				}
			}
			sort.Slice(batch, func(i, j int) bool { return bytes.Compare(batch[i], batch[j]) < 0 })
			got := e.EncodeBatch(batch)
			for i := range batch {
				want, _ := e.EncodeBits(nil, batch[i])
				if !bytes.Equal(got[i], want) {
					t.Fatalf("%v trial %d: batch mismatch on %q", s, trial, batch[i])
				}
			}
		}
	}
}

func TestEncodePair(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e, err := Build(DoubleChar, sampleKeys(rng, 500), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []byte("com.gmail@foo"), []byte("com.gmail@fop")
	elo, ehi := e.EncodePair(lo, hi)
	wlo, _ := e.EncodeBits(nil, lo)
	if !bytes.Equal(elo, wlo) {
		t.Fatal("pair lo mismatch")
	}
	whi, _ := e.EncodeBits(nil, hi)
	if !bytes.Equal(ehi, whi) {
		t.Fatal("pair hi mismatch")
	}
	// Swapped order is handled.
	elo2, ehi2 := e.EncodePair(hi, lo)
	if !bytes.Equal(elo2, elo) || !bytes.Equal(ehi2, ehi) {
		t.Fatal("swapped pair mismatch")
	}
}

func TestALMNotBatchable(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	samples := sampleKeys(rng, 500)
	for _, s := range []Scheme{ALM, ALMImproved} {
		e, err := Build(s, samples, Options{DictLimit: 512, MaxPatternLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		if e.Batchable() {
			t.Fatalf("%v must not be batchable", s)
		}
	}
	e, _ := Build(SingleChar, samples, Options{})
	if !e.Batchable() {
		t.Fatal("Single-Char must be batchable")
	}
}

func TestSchemeMetadata(t *testing.T) {
	if SingleChar.Category() != "FIVC" || ALM.Category() != "VIFC" ||
		ThreeGrams.Category() != "VIVC" || ALMImproved.Category() != "VIVC" {
		t.Fatal("categories")
	}
	if !SingleChar.FixedDictSize() || ThreeGrams.FixedDictSize() {
		t.Fatal("fixed-size flags")
	}
	for _, s := range Schemes {
		if strings.Contains(s.String(), "Scheme(") {
			t.Fatalf("missing name for %v", int(s))
		}
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Fatal("unknown scheme name")
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	if _, err := Build(Scheme(99), nil, Options{}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestHuTuckerAlgorithmOption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := sampleKeys(rng, 500)
	gw, err := Build(SingleChar, samples, Options{CodeAlgorithm: hutucker.GarsiaWachs})
	if err != nil {
		t.Fatal(err)
	}
	ht, err := Build(SingleChar, samples, Options{CodeAlgorithm: hutucker.HuTucker})
	if err != nil {
		t.Fatal(err)
	}
	// Equal optimal cost implies equal compressed sizes on the samples.
	keys := sampleKeys(rng, 1000)
	g, h := gw.CompressionRate(keys), ht.CompressionRate(keys)
	if g < h*0.999 || g > h*1.001 {
		t.Fatalf("GW CPR %.4f != HT CPR %.4f", g, h)
	}
}

func TestForceBinarySearchDict(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	samples := sampleKeys(rng, 500)
	a, err := Build(ThreeGrams, samples, Options{DictLimit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ThreeGrams, samples, Options{DictLimit: 1024, ForceBinarySearchDict: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := sampleKeys(rng, 500)
	for _, k := range keys {
		x, _ := a.EncodeBits(nil, k)
		xx := append([]byte(nil), x...)
		y, _ := b.EncodeBits(nil, k)
		if !bytes.Equal(xx, y) {
			t.Fatalf("dictionary structures disagree on %q", k)
		}
	}
}

// The padded byte form is strictly order-preserving, also on keys that
// extend other keys by 0x00 runs.
func TestPaddedBytesStrictOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	samples := sampleKeys(rng, 500)
	encs := buildAll(t, samples)
	keys := withZeroRuns(randomBinaryKeys(rng, 1000, 16))
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	for s, e := range encs {
		prev := e.Encode(keys[0])
		for _, k := range keys[1:] {
			out := e.Encode(k)
			if bytes.Compare(prev, out) >= 0 {
				t.Fatalf("%v: padded order not strict at %q", s, k)
			}
			prev = out
		}
	}
}

// Regression: the ALM schemes must compress (CPR > 1) even when built on
// a tiny sample — one-off sample-specific suffixes must not crowd out the
// short codes of the common intervals.
func TestALMSmallSampleStillCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	corpus := sampleKeys(rng, 4000)
	tiny := corpus[:64]
	for _, s := range []Scheme{ALM, ALMImproved} {
		for _, limit := range []int{1024, 4096} {
			e, err := Build(s, tiny, Options{DictLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if cpr := e.CompressionRate(corpus); cpr <= 1.0 {
				t.Fatalf("%v limit %d: CPR %.3f <= 1 with tiny sample", s, limit, cpr)
			}
		}
	}
}

// Distribution shift (paper Appendix C): a dictionary built on one
// distribution still encodes another correctly, just less compactly.
func TestDistributionShiftCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	samplesA := sampleKeys(rng, 1000)
	e, err := Build(ThreeGrams, samplesA, Options{DictLimit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(e)
	if err != nil {
		t.Fatal(err)
	}
	// A disjoint distribution: numeric URLs (unique keys; the order check
	// requires strict ordering).
	var other [][]byte
	for i := 0; i < 500; i++ {
		other = append(other, []byte(fmt.Sprintf("http://198.51.100.7/id/%03d", i)))
	}
	sort.Slice(other, func(i, j int) bool { return bytes.Compare(other[i], other[j]) < 0 })
	if err := checkOrderPreserving(e, other); err != nil {
		t.Fatal(err)
	}
	for _, k := range other {
		out, bits := e.EncodeBits(nil, k)
		got, err := d.Decode(out, bits)
		if err != nil || !bytes.Equal(got, k) {
			t.Fatalf("shifted roundtrip failed for %q", k)
		}
	}
}

// checkOrderPreserving verifies on a key sample that encoding preserves
// order bit-exactly. Keys must be sorted and unique.
func checkOrderPreserving(e *Encoder, sortedKeys [][]byte) error {
	if len(sortedKeys) == 0 {
		return nil
	}
	prev, prevBits := cloneEnc(e, sortedKeys[0])
	for i := 1; i < len(sortedKeys); i++ {
		cur, curBits := cloneEnc(e, sortedKeys[i])
		if bitCompare(prev, prevBits, cur, curBits) >= 0 {
			return fmt.Errorf("core: order violated between %q and %q", sortedKeys[i-1], sortedKeys[i])
		}
		prev, prevBits = cur, curBits
	}
	return nil
}

func cloneEnc(e *Encoder, key []byte) ([]byte, int) {
	b, n := e.EncodeBits(nil, key)
	return append([]byte(nil), b...), n
}

// bitCompare orders two bit strings (byte buffers with exact bit lengths).
func bitCompare(a []byte, aBits int, b []byte, bBits int) int {
	min := aBits
	if bBits < min {
		min = bBits
	}
	nBytes := min / 8
	for i := 0; i < nBytes; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	for i := nBytes * 8; i < min; i++ {
		ab := (a[i/8] >> (7 - uint(i)%8)) & 1
		bb := (b[i/8] >> (7 - uint(i)%8)) & 1
		if ab != bb {
			return int(ab) - int(bb)
		}
	}
	switch {
	case aBits < bBits:
		return -1
	case aBits > bBits:
		return 1
	}
	return 0
}
