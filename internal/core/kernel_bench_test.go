package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// benchFixture shares one encoder set and key corpus across the encode
// benchmarks.
var benchFixture struct {
	sync.Once
	encs map[Scheme]*Encoder
	keys [][]byte
	n    int // total corpus bytes
	err  error
}

func benchEncoders(b *testing.B) (map[Scheme]*Encoder, [][]byte, int) {
	b.Helper()
	benchFixture.Do(func() {
		rng := rand.New(rand.NewSource(1))
		samples := sampleKeys(rng, 2000)
		benchFixture.encs = map[Scheme]*Encoder{}
		for _, s := range Schemes {
			opt := Options{DictLimit: 4096, MaxPatternLen: 16}
			if s == DoubleChar {
				opt = Options{}
			}
			e, err := Build(s, samples, opt)
			if err != nil {
				benchFixture.err = err
				return
			}
			benchFixture.encs[s] = e
		}
		benchFixture.keys = sampleKeys(rng, 20000)
		for _, k := range benchFixture.keys {
			benchFixture.n += len(k)
		}
	})
	if benchFixture.err != nil {
		b.Fatal(benchFixture.err)
	}
	return benchFixture.encs, benchFixture.keys, benchFixture.n
}

// BenchmarkEncodeKernel measures the single-key path: the dictionary's
// encode kernel, reused destination buffer, 0 allocs/op.
func BenchmarkEncodeKernel(b *testing.B) {
	encs, keys, _ := benchEncoders(b)
	for _, s := range Schemes {
		b.Run(s.String(), func(b *testing.B) {
			e := encs[s]
			var buf []byte
			chars := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				out, _ := e.EncodeBits(buf, k)
				buf = out[:0]
				chars += len(k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(chars), "ns/char")
		})
	}
}

// BenchmarkEncodeGeneric measures the interface-dispatch baseline the
// kernels replace (one Dictionary.Lookup call and one sub-slice per
// symbol) so the devirtualization win stays visible in one bench run.
func BenchmarkEncodeGeneric(b *testing.B) {
	encs, keys, _ := benchEncoders(b)
	for _, s := range Schemes {
		b.Run(s.String(), func(b *testing.B) {
			e := encs[s]
			var a appender
			var buf []byte
			chars := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				a.Reset(buf)
				e.appendEncodeGeneric(&a, k)
				out, _ := a.Finish()
				buf = out[:0]
				chars += len(k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(chars), "ns/char")
		})
	}
}

// BenchmarkEncodeAll measures the parallel bulk path at 1 worker and at
// GOMAXPROCS workers; comparing the two runs gives the bulk scaling
// factor on the machine at hand.
func BenchmarkEncodeAll(b *testing.B) {
	encs, keys, chars := benchEncoders(b)
	procs := runtime.GOMAXPROCS(0)
	for _, s := range []Scheme{SingleChar, DoubleChar, ThreeGrams, FourGrams} {
		for _, workers := range []int{1, procs} {
			b.Run(fmt.Sprintf("%v/workers=%d", s, workers), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(workers)
				defer runtime.GOMAXPROCS(prev)
				e := encs[s]
				b.SetBytes(int64(chars))
				// allocs/op here is the pooling satellite's proof: it must
				// stay O(workers), never O(keys) or O(chunks).
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.EncodeAll(keys)
				}
			})
			if procs == 1 {
				break // identical run; skip the duplicate
			}
		}
	}
}
