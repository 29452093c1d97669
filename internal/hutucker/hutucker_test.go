package hutucker

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// optimalAlphabeticCost is a Gilbert-Moore style O(n³) dynamic program for
// the minimum weighted external path length of an alphabetic binary tree.
// It is the ground truth both fast algorithms are validated against.
func optimalAlphabeticCost(w []float64) float64 {
	n := len(w)
	if n == 1 {
		return 0
	}
	// cost[i][j]: optimal cost of the subproblem over leaves i..j;
	// sum[i][j]: total weight, added once per level.
	sum := make([][]float64, n)
	cost := make([][]float64, n)
	for i := range sum {
		sum[i] = make([]float64, n)
		cost[i] = make([]float64, n)
		sum[i][i] = w[i]
		for j := i + 1; j < n; j++ {
			sum[i][j] = sum[i][j-1] + w[j]
		}
	}
	for ln := 2; ln <= n; ln++ {
		for i := 0; i+ln-1 < n; i++ {
			j := i + ln - 1
			best := math.Inf(1)
			for k := i; k < j; k++ {
				if c := cost[i][k] + cost[k+1][j]; c < best {
					best = c
				}
			}
			cost[i][j] = best + sum[i][j]
		}
	}
	return cost[0][n-1]
}

// kraftSum returns sum(2^-d) scaled by 2^63 so it is exact in uint64.
func kraftSum(depths []int) uint64 {
	var s uint64
	for _, d := range depths {
		if d > 63 {
			panic("depth too large for exact Kraft check")
		}
		s += uint64(1) << (63 - uint(d))
	}
	return s
}

func randWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch rng.Intn(4) {
		case 0:
			w[i] = float64(1 + rng.Intn(4)) // frequent ties
		case 1:
			w[i] = rng.Float64() * 1000
		case 2:
			w[i] = math.Pow(10, float64(rng.Intn(6)))
		default:
			w[i] = rng.Float64()
		}
	}
	return w
}

func normalize(w []float64) []float64 {
	var s float64
	for _, x := range w {
		s += x
	}
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = x / s
	}
	return out
}

func TestGarsiaWachsMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(40)
		w := normalize(randWeights(rng, n))
		depths := BuildDepthsWith(w, GarsiaWachs)
		got := Cost(w, depths)
		want := optimalAlphabeticCost(w)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (n=%d): GW cost %v, optimal %v\nweights=%v\ndepths=%v",
				trial, n, got, want, w, depths)
		}
		if ks := kraftSum(depths); ks != 1<<63 {
			t.Fatalf("trial %d: Kraft sum %d != 2^63 (depths %v)", trial, ks, depths)
		}
	}
}

func TestHuTuckerMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(40)
		w := normalize(randWeights(rng, n))
		depths := BuildDepthsWith(w, HuTucker)
		got := Cost(w, depths)
		want := optimalAlphabeticCost(w)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (n=%d): HT cost %v, optimal %v\nweights=%v\ndepths=%v",
				trial, n, got, want, w, depths)
		}
		if ks := kraftSum(depths); ks != 1<<63 {
			t.Fatalf("trial %d: Kraft sum %d != 2^63", trial, ks)
		}
	}
}

func TestBothAlgorithmsAgreeOnCost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		w := normalize(randWeights(rng, n))
		gw := Cost(w, BuildDepthsWith(w, GarsiaWachs))
		ht := Cost(w, BuildDepthsWith(w, HuTucker))
		if math.Abs(gw-ht) > 1e-9*(1+gw) {
			t.Fatalf("trial %d (n=%d): GW %v != HT %v", trial, n, gw, ht)
		}
	}
}

func TestAllEqualWeights(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8, 9, 255, 256, 257} {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		depths := BuildDepths(w)
		// Equal weights: optimal is the balanced tree, depths in
		// {floor(log2 n), ceil(log2 n)}.
		lo := int(math.Floor(math.Log2(float64(n))))
		hi := int(math.Ceil(math.Log2(float64(n))))
		for i, d := range depths {
			if d != lo && d != hi {
				t.Fatalf("n=%d: depth[%d]=%d, want %d or %d", n, i, d, lo, hi)
			}
		}
		if ks := kraftSum(depths); ks != 1<<63 {
			t.Fatalf("n=%d: Kraft violated", n)
		}
	}
}

func TestAlphabeticCostAtLeastHuffman(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(200)
		w := normalize(randWeights(rng, n))
		alpha := Cost(w, BuildDepths(w))
		huff := Cost(w, HuffmanDepths(w))
		if alpha < huff-1e-9 {
			t.Fatalf("alphabetic cost %v below Huffman lower bound %v", alpha, huff)
		}
		// Classic upper bound: optimal alphabetic <= Huffman + 2.
		if alpha > huff+2+1e-9 {
			t.Fatalf("alphabetic cost %v exceeds Huffman+2 (%v)", alpha, huff)
		}
	}
}

func TestHuffmanMatchesHeapReference(t *testing.T) {
	// Reference: O(n²) repeated min-pair merge.
	ref := func(w []float64) float64 {
		ws := append([]float64{}, w...)
		var cost float64
		for len(ws) > 1 {
			a, b := 0, 1
			if ws[b] < ws[a] {
				a, b = b, a
			}
			for i := 2; i < len(ws); i++ {
				if ws[i] < ws[a] {
					b = a
					a = i
				} else if ws[i] < ws[b] {
					b = i
				}
			}
			m := ws[a] + ws[b]
			cost += m
			if a > b {
				a, b = b, a
			}
			ws[a] = m
			ws = append(ws[:b], ws[b+1:]...)
		}
		return cost
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(60)
		w := normalize(randWeights(rng, n))
		got := Cost(w, HuffmanDepths(w))
		want := ref(w)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("huffman cost %v, want %v", got, want)
		}
	}
}

func TestCodesFromDepthsPrefixFreeAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(100)
		w := normalize(randWeights(rng, n))
		alg := GarsiaWachs
		if trial%2 == 1 {
			alg = HuTucker
		}
		codes := BuildWith(w, alg)
		for i := 1; i < len(codes); i++ {
			if !codes[i-1].Less(codes[i]) {
				t.Fatalf("codes not strictly increasing at %d: %v then %v",
					i, codes[i-1], codes[i])
			}
		}
		// Prefix-freeness: no code is a bit-prefix of another.
		for i := 0; i < len(codes); i++ {
			for j := i + 1; j < len(codes); j++ {
				a, b := codes[i], codes[j]
				if a.Len > b.Len {
					a, b = b, a
				}
				if a.Len == 0 {
					t.Fatalf("zero-length code at n=%d", n)
				}
				if b.Bits>>(b.Len-a.Len) == a.Bits {
					t.Fatalf("code %v is a prefix of %v", a, b)
				}
			}
		}
	}
}

func TestDepthCapUnderExtremeSkew(t *testing.T) {
	// A geometric distribution steep enough to exceed 63 levels if not
	// floored; the builder must cap depths at MaxCodeLen.
	n := 300
	w := make([]float64, n)
	v := 1.0
	for i := n - 1; i >= 0; i-- {
		w[i] = v
		v *= 1.7
	}
	for _, alg := range []Algorithm{GarsiaWachs, HuTucker} {
		depths := BuildDepthsWith(w, alg)
		for i, d := range depths {
			if d > MaxCodeLen {
				t.Fatalf("alg %v: depth[%d]=%d exceeds cap", alg, i, d)
			}
		}
		if ks := kraftSum(depths); ks != 1<<63 {
			t.Fatalf("alg %v: Kraft violated after flooring", alg)
		}
	}
}

func TestZeroAndNegativeWeights(t *testing.T) {
	w := []float64{0, -1, 5, 0, 3, math.NaN(), math.Inf(1)}
	codes := Build(w)
	if len(codes) != len(w) {
		t.Fatal("wrong number of codes")
	}
	for i := 1; i < len(codes); i++ {
		if !codes[i-1].Less(codes[i]) {
			t.Fatal("codes not increasing with degenerate weights")
		}
	}
}

func TestSingleAndEmpty(t *testing.T) {
	if got := Build(nil); len(got) != 0 {
		t.Fatal("empty weights")
	}
	got := Build([]float64{1})
	if len(got) != 1 || got[0].Len != 0 {
		t.Fatalf("single weight: %v", got)
	}
	if d := BuildDepths([]float64{4}); len(d) != 1 || d[0] != 0 {
		t.Fatal("single depth")
	}
	if d := HuffmanDepths([]float64{4}); len(d) != 1 || d[0] != 0 {
		t.Fatal("single huffman depth")
	}
}

func TestTwoSymbols(t *testing.T) {
	codes := Build([]float64{0.9, 0.1})
	if codes[0].Len != 1 || codes[1].Len != 1 {
		t.Fatalf("two symbols must get 1-bit codes: %v", codes)
	}
	if codes[0].Bits != 0 || codes[1].Bits != 1 {
		t.Fatalf("expected codes 0,1: %v", codes)
	}
}

func TestSkewGivesShorterCodeToHeavySymbol(t *testing.T) {
	w := []float64{0.05, 0.8, 0.05, 0.05, 0.05}
	depths := BuildDepths(w)
	for i, d := range depths {
		if i != 1 && d < depths[1] {
			t.Fatalf("heavy symbol deeper (%d) than light symbol %d (%d)", depths[1], i, d)
		}
	}
}

func TestFixedLengthCodes(t *testing.T) {
	for _, c := range []struct{ n, wantLen int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9}, {65536, 16},
	} {
		codes := FixedLengthCodes(c.n)
		if len(codes) != c.n {
			t.Fatalf("n=%d: got %d codes", c.n, len(codes))
		}
		for i, code := range codes {
			if int(code.Len) != c.wantLen {
				t.Fatalf("n=%d: code %d has len %d, want %d", c.n, i, code.Len, c.wantLen)
			}
			if code.Bits != uint64(i) {
				t.Fatalf("n=%d: code %d bits %d", c.n, i, code.Bits)
			}
		}
		for i := 1; i < len(codes); i++ {
			if !codes[i-1].Less(codes[i]) {
				t.Fatal("fixed codes must increase")
			}
		}
	}
	if FixedLengthCodes(0) != nil {
		t.Fatal("n=0 should be nil")
	}
}

func TestCodeLess(t *testing.T) {
	a := Code{Bits: 0b10, Len: 2}
	b := Code{Bits: 0b101, Len: 3}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("prefix must order before extension")
	}
	c := Code{Bits: 0b01, Len: 2}
	if !c.Less(a) {
		t.Fatal("01 < 10")
	}
	z := Code{Bits: 0, Len: 0}
	if !z.Less(a) || a.Less(z) {
		t.Fatal("empty code orders first")
	}
}

func TestCodeString(t *testing.T) {
	c := Code{Bits: 0b0101, Len: 4}
	if c.String() != "0101" {
		t.Fatalf("got %q", c.String())
	}
}

func TestLargeUniformBuildFast(t *testing.T) {
	// Sanity: GW handles Double-Char-scale inputs (65,792 symbols);
	// BenchmarkGarsiaWachs64K records how long it takes.
	n := 65792
	rng := rand.New(rand.NewSource(7))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64() + 1e-6
	}
	depths := BuildDepthsWith(w, GarsiaWachs)
	if ks := kraftSum(depths); ks != 1<<63 {
		t.Fatal("Kraft violated at scale")
	}
}

// TestEmailMixCodesOrdered is the regression test for Garsia-Wachs on
// float64-normalised weights: on this 3-Grams weight vector, rounding in
// the merged sums gave depths that no alphabetic tree has, so adjacent
// codes came out of order. On exact integer weights both coders must give
// strictly increasing, prefix-free codes.
func TestEmailMixCodesOrdered(t *testing.T) {
	raw, err := os.ReadFile("testdata/email_mix_3grams_weights.txt")
	if err != nil {
		t.Fatal(err)
	}
	var w []float64
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, f := range strings.Fields(line) {
			x, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatal(err)
			}
			w = append(w, x)
		}
	}
	if len(w) != 3739 {
		t.Fatalf("read %d weights, want 3739", len(w))
	}
	for _, alg := range []Algorithm{GarsiaWachs, HuTucker} {
		codes := BuildWith(w, alg)
		for i := 1; i < len(codes); i++ {
			a, b := codes[i-1], codes[i]
			if !a.Less(b) || a.Len <= b.Len && b.Bits>>(b.Len-a.Len) == a.Bits {
				t.Fatalf("alg %v: code %d (%v) does not strictly precede code %d (%v) prefix-free",
					alg, i-1, a, i, b)
			}
		}
	}
}
