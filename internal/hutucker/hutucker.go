// Package hutucker computes optimal order-preserving (alphabetic) binary
// prefix codes, the Code Assigner substrate of HOPE (paper Section 4.2).
//
// Two equivalent-optimum algorithms are provided:
//
//   - Hu-Tucker (1971), the algorithm named in the paper, in its O(n²)
//     formulation (Yohe 1972): repeatedly combine the minimum-weight
//     "compatible" pair (no leaf between them), then read code lengths off
//     the combination tree.
//   - Garsia-Wachs (1977), an equivalent algorithm in the left-to-right
//     stack formulation (Knuth, TAOCP §6.2.2), with binary-searched
//     re-insertion. It is the default because the paper's Double-Char
//     scheme needs codes for 65,792 symbols (tens of milliseconds; see
//     BenchmarkGarsiaWachs64K) and the n-gram schemes up to 2^18.
//
// Both run on exact integer weights: the input is quantised once to
// round(w/sum·2^40), at least 1, so no merge decision depends on float
// rounding (rounded sums can yield depths no alphabetic tree has). Both
// produce a depth (code length) per symbol; the actual monotonically
// increasing codes are then assembled canonically. The two algorithms may
// emit different depth vectors, but both achieve the optimal weighted code
// length, which the tests verify against a Gilbert-Moore dynamic program.
package hutucker

import (
	"fmt"
	"math"
	"slices"
)

// Code is a binary prefix code word of Len bits stored in the low bits of
// Bits. Len is at most MaxCodeLen.
type Code struct {
	Bits uint64
	Len  uint8
}

// MaxCodeLen is the maximum supported code length in bits; codes must fit
// the encoder's 64-bit concatenation buffers with room to spare.
const MaxCodeLen = 63

// Less reports whether c precedes d in the bit-string order that the
// encoder's output inherits (compare left-aligned, shorter-prefix first).
func (c Code) Less(d Code) bool {
	a := c.Bits << (64 - c.Len)
	b := d.Bits << (64 - d.Len)
	if c.Len == 0 {
		a = 0
	}
	if d.Len == 0 {
		b = 0
	}
	if a != b {
		return a < b
	}
	return c.Len < d.Len
}

func (c Code) String() string {
	return fmt.Sprintf("%0*b", c.Len, c.Bits)
}

// Algorithm selects which optimal alphabetic coding algorithm to run.
type Algorithm int

const (
	// GarsiaWachs is the fast default.
	GarsiaWachs Algorithm = iota
	// HuTucker is the paper-faithful O(n²) algorithm.
	HuTucker
)

// Build returns optimal order-preserving prefix codes for the given
// positive weights using the Garsia-Wachs algorithm. Weights need not be
// normalized. Zero or negative weights are floored to a tiny positive
// value so every symbol stays encodable.
func Build(weights []float64) []Code {
	return BuildWith(weights, GarsiaWachs)
}

// BuildWith is Build with an explicit algorithm choice.
func BuildWith(weights []float64, alg Algorithm) []Code {
	depths := BuildDepthsWith(weights, alg)
	return CodesFromDepths(depths)
}

// BuildDepths returns the optimal code length for each weight using the
// default algorithm.
func BuildDepths(weights []float64) []int {
	return BuildDepthsWith(weights, GarsiaWachs)
}

// BuildDepthsWith returns the optimal code length for each weight.
// Both algorithms run on the exact integer weights of quantize. If the
// optimal tree would exceed MaxCodeLen (possible only under extreme skew),
// weights are floored at a geometrically rising level until the depth
// bound holds; the result is then optimal for the floored distribution.
// Once the floor reaches the largest weight all weights are equal and the
// depth is ceil(log2 n), so the loop ends.
func BuildDepthsWith(weights []float64, alg Algorithm) []int {
	n := len(weights)
	switch n {
	case 0:
		return nil
	case 1:
		return []int{0}
	}
	w := quantize(weights)
	for floor := uint64(1); ; floor <<= 10 {
		for i := range w {
			w[i] = max(w[i], floor)
		}
		var depths []int
		if alg == HuTucker {
			depths = huTuckerDepths(w)
		} else {
			depths = garsiaWachsDepths(w)
		}
		if slices.Max(depths) <= MaxCodeLen {
			return depths
		}
	}
}

// quantUnits is the integer total that quantize scales the weights to.
const quantUnits = 1 << 40

// quantize maps weights onto exact integers: a finite positive weight w
// becomes round(w/sum·2^40), where sum is the total of those weights, and
// every symbol gets at least one unit so it stays encodable. NaN, infinite
// and non-positive weights count as zero. The coders then add and compare
// integers only, so rounding can never make their merge decisions
// inconsistent.
func quantize(weights []float64) []uint64 {
	usable := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	var sum float64
	for _, x := range weights {
		if usable(x) {
			sum += x
		}
	}
	out := make([]uint64, len(weights))
	for i, x := range weights {
		out[i] = 1
		if usable(x) {
			out[i] = max(1, uint64(math.Round(x/sum*quantUnits)))
		}
	}
	return out
}

// prepareWeights normalizes to sum 1 and floors each weight at relFloor of
// the total, bounding the maximum code depth.
func prepareWeights(weights []float64, relFloor float64) []float64 {
	var sum float64
	for _, x := range weights {
		if x > 0 && !math.IsInf(x, 1) && !math.IsNaN(x) {
			sum += x
		}
	}
	if sum <= 0 {
		sum = 1
	}
	out := make([]float64, len(weights))
	for i, x := range weights {
		v := x / sum
		if !(v > relFloor) { // also catches NaN/Inf/non-positive
			v = relFloor
		}
		out[i] = v
	}
	return out
}

// Cost returns the weighted code length sum(w_i * len_i) for the given
// weights and depths.
func Cost(weights []float64, depths []int) float64 {
	var c float64
	for i, w := range weights {
		c += w * float64(depths[i])
	}
	return c
}

// CodesFromDepths assembles the canonical monotonically increasing prefix
// codes for a depth sequence that comes from an alphabetic tree: the first
// code is all zeros; each subsequent code is previous+1 re-scaled to the
// new length. Panics if a depth exceeds MaxCodeLen (callers go through
// BuildDepthsWith, which guarantees the bound).
func CodesFromDepths(depths []int) []Code {
	codes := make([]Code, len(depths))
	if len(depths) == 0 {
		return codes
	}
	if len(depths) == 1 {
		codes[0] = Code{Bits: 0, Len: uint8(depths[0])}
		return codes
	}
	var prev uint64
	prevLen := depths[0]
	if prevLen > MaxCodeLen {
		panic("hutucker: code length exceeds MaxCodeLen")
	}
	codes[0] = Code{Bits: 0, Len: uint8(prevLen)}
	for i := 1; i < len(depths); i++ {
		d := depths[i]
		if d > MaxCodeLen {
			panic("hutucker: code length exceeds MaxCodeLen")
		}
		c := prev + 1
		if d >= prevLen {
			c <<= uint(d - prevLen)
		} else {
			c >>= uint(prevLen - d)
		}
		codes[i] = Code{Bits: c, Len: uint8(d)}
		prev, prevLen = c, d
	}
	return codes
}

// FixedLengthCodes returns the monotonically increasing fixed-length codes
// 0..n-1, each ceil(log2(n)) bits wide, used by the VIFC schemes (ALM).
func FixedLengthCodes(n int) []Code {
	if n <= 0 {
		return nil
	}
	ln := uint8(0)
	for 1<<ln < n {
		ln++
	}
	if ln == 0 {
		ln = 1 // avoid zero-length codes for degenerate single-entry dicts
	}
	codes := make([]Code, n)
	for i := range codes {
		codes[i] = Code{Bits: uint64(i), Len: ln}
	}
	return codes
}
