package hutucker

import (
	"math/rand"
	"testing"
)

func benchWeights(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64() + 1e-6
	}
	return w
}

func BenchmarkGarsiaWachs4K(b *testing.B) {
	w := benchWeights(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildDepthsWith(w, GarsiaWachs)
	}
}

func BenchmarkHuTucker4K(b *testing.B) {
	w := benchWeights(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildDepthsWith(w, HuTucker)
	}
}

// BenchmarkGarsiaWachs64K codes Double-Char's 65,792 symbols. Monotone
// weights are the stack formulation's worst case: decreasing weights keep
// every leaf on the stack, increasing ones merge at every push.
func BenchmarkGarsiaWachs64K(b *testing.B) {
	uniform := benchWeights(65792)
	inc := make([]float64, len(uniform))
	dec := make([]float64, len(uniform))
	for i := range inc {
		inc[i] = float64(1000 + i)
		dec[len(dec)-1-i] = inc[i]
	}
	for _, c := range []struct {
		name string
		w    []float64
	}{{"uniform", uniform}, {"increasing", inc}, {"decreasing", dec}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildDepthsWith(c.w, GarsiaWachs)
			}
		})
	}
}

func BenchmarkRangeCodes4K(b *testing.B) {
	w := benchWeights(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RangeCodes(w)
	}
}
