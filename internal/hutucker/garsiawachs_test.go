package hutucker

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// quadraticGarsiaWachsDepths is the direct O(n²) Garsia-Wachs: scan for the
// leftmost locally minimal pair, merge it, shift the whole tail to re-insert
// the merged tree, and rescan from just left of it. It is the differential
// oracle for the stack formulation in garsiaWachsDepths.
func quadraticGarsiaWachsDepths(weights []uint64) []int {
	n := len(weights)
	parent := make([]int32, 2*n-1)
	wt := append(make([]uint64, 0, 2*n-1), weights...) // weight per node id
	seq := make([]int32, n)                            // node ids in sequence order
	for i := range seq {
		seq[i] = int32(i)
	}
	wOf := func(pos int) uint64 {
		if pos >= len(seq) {
			return math.MaxUint64
		}
		return wt[seq[pos]]
	}
	scan := 1
	for len(seq) > 1 {
		// Find minimal i >= 1 with w[i-1] <= w[i+1]; i = len(seq)-1 always
		// qualifies because w[len] is +inf.
		i := max(scan, 1)
		for wOf(i-1) > wOf(i+1) {
			i++
		}
		merged := wt[seq[i-1]] + wt[seq[i]]
		id := int32(len(wt))
		wt = append(wt, merged)
		parent[seq[i-1]] = id
		parent[seq[i]] = id
		seq = append(seq[:i-1], seq[i+1:]...)
		// Insert after the rightmost position j < i-1 with weight >= merged.
		j := i - 2
		for j >= 0 && wt[seq[j]] < merged {
			j--
		}
		q := j + 1
		seq = slices.Insert(seq, q, id)
		// Positions before q-1 have unchanged neighborhoods and were
		// already ruled out, so the next scan can resume there.
		scan = q - 1
	}
	return depthsFromParents(parent, n)
}

func checkAgainstOracle(t *testing.T, name string, w []uint64) {
	t.Helper()
	got := garsiaWachsDepths(w)
	want := quadraticGarsiaWachsDepths(w)
	if !slices.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("%s (n=%d): depth[%d] = %d, oracle %d", name, len(w), i, got[i], want[i])
	}
}

// tieAndSkewWeights draws weights that stress ties and skew: tiny integers,
// zeros, exponentials and wide uniforms, mixed per vector.
func tieAndSkewWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	mode := rng.Intn(4)
	for i := range w {
		switch k := rng.Intn(5); {
		case mode == 0 || k == 0:
			w[i] = float64(rng.Intn(4)) // zeros and frequent ties
		case k == 1:
			w[i] = rng.ExpFloat64()
		case k == 2:
			w[i] = math.Exp2(float64(rng.Intn(40)))
		default:
			w[i] = rng.Float64() * 1000
		}
	}
	return w
}

func TestGarsiaWachsMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10000; trial++ {
		n := 2 + rng.Intn(299)
		w := quantize(tieAndSkewWeights(rng, n))
		checkAgainstOracle(t, "quantized", w)
		// Raw small integers: ties everywhere, no quantization.
		raw := make([]uint64, n)
		for i := range raw {
			raw[i] = 1 + uint64(rng.Intn(3))
		}
		checkAgainstOracle(t, "raw", raw)
	}
}

func TestGarsiaWachsMatchesOracleLarge(t *testing.T) {
	dc := 65792 // Double-Char symbol count
	if raceEnabled {
		// The oracle is quadratic and the detector slows it about
		// tenfold; the uninstrumented run covers the full size.
		dc = 1 << 13
	}
	rng := rand.New(rand.NewSource(12))
	uniform := make([]float64, dc)
	mostlyZero := make([]float64, dc)
	for i := range uniform {
		uniform[i] = rng.Float64() + 1e-6
		if rng.Intn(50) == 0 {
			mostlyZero[i] = rng.ExpFloat64() * 1000
		}
	}
	checkAgainstOracle(t, "uniform", quantize(uniform))
	checkAgainstOracle(t, "mostly-zero", quantize(mostlyZero))
	// Monotone inputs stress the stack formulation: decreasing weights
	// keep every leaf on the stack, increasing ones merge at every push.
	// 16K symbols keep the oracle cheap.
	const mono = 1 << 14
	inc := make([]float64, mono)
	for i := range inc {
		inc[i] = float64(1000 + i)
	}
	dec := slices.Clone(inc)
	slices.Reverse(dec)
	checkAgainstOracle(t, "increasing", quantize(inc))
	checkAgainstOracle(t, "decreasing", quantize(dec))
}

func TestQuantize(t *testing.T) {
	got := quantize([]float64{0, -1, math.NaN(), math.Inf(1), 1, 3})
	want := []uint64{1, 1, 1, 1, quantUnits / 4, quantUnits / 4 * 3}
	if !slices.Equal(got, want) {
		t.Fatalf("quantize = %v, want %v", got, want)
	}
	for _, x := range quantize([]float64{0, 0}) {
		if x != 1 {
			t.Fatalf("all-zero weights must floor to one unit, got %d", x)
		}
	}
}
