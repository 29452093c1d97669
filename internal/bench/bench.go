// Package bench is the experiment harness: one runner per table/figure of
// the paper's evaluation (Sections 6 and 7 plus the appendices), each
// producing the same rows/series the paper reports. The cmd/hopebench
// binary and the repository-root benchmarks are thin wrappers around
// these runners. Absolute numbers differ from the paper (different
// hardware, synthetic datasets, Go); the comparisons — who wins, by what
// factor, where crossovers fall — are the reproduction target, recorded in
// EXPERIMENTS.md.
package bench

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
)

// Config scales an experiment run.
type Config struct {
	Dataset    datagen.Kind
	NumKeys    int     // dataset size (paper: 14-25M; default laptop scale)
	NumOps     int     // workload operations (paper: 10M)
	SampleFrac float64 // HOPE build sample (paper: 1%)
	Seed       int64
	Quick      bool // shrink dictionary limits for CI-speed runs
}

// DefaultConfig returns the laptop-scale default.
func DefaultConfig(ds datagen.Kind) Config {
	return Config{Dataset: ds, NumKeys: 100000, NumOps: 100000, SampleFrac: 0.01, Seed: 42}
}

// QuickConfig returns a CI-scale configuration.
func QuickConfig(ds datagen.Kind) Config {
	return Config{Dataset: ds, NumKeys: 8000, NumOps: 8000, SampleFrac: 0.02, Seed: 42, Quick: true}
}

// Keys generates the configured dataset.
func (c Config) Keys() [][]byte { return datagen.Generate(c.Dataset, c.NumKeys, c.Seed) }

// Sample draws the HOPE build sample.
func (c Config) Sample(keys [][]byte) [][]byte {
	n := int(c.SampleFrac * float64(len(keys)))
	if n < 64 {
		n = 64
	}
	if n > len(keys) {
		n = len(keys)
	}
	return keys[:n] // keys are generated in random order already
}

// TreeConfig is one encoder configuration applied to a search tree: the
// paper evaluates seven (Section 7): Uncompressed, Single-Char,
// Double-Char, 3-Grams (64K), 4-Grams (64K), ALM-Improved (4K) and
// ALM-Improved (64K).
type TreeConfig struct {
	Name      string
	Scheme    core.Scheme
	DictLimit int
	// Plain marks the uncompressed baseline (no encoder).
	Plain bool
}

// StandardConfigs returns the paper's seven tree configurations, shrunk in
// quick mode.
func StandardConfigs(quick bool) []TreeConfig {
	big, small := 1<<16, 1<<12
	if quick {
		big, small = 1<<12, 1<<10
	}
	return []TreeConfig{
		{Name: "Uncompressed", Plain: true},
		{Name: "Single-Char", Scheme: core.SingleChar},
		{Name: "Double-Char", Scheme: core.DoubleChar},
		{Name: fmt.Sprintf("3-Grams (%s)", sizeName(big)), Scheme: core.ThreeGrams, DictLimit: big},
		{Name: fmt.Sprintf("4-Grams (%s)", sizeName(big)), Scheme: core.FourGrams, DictLimit: big},
		{Name: fmt.Sprintf("ALM-Improved (%s)", sizeName(small)), Scheme: core.ALMImproved, DictLimit: small},
		{Name: fmt.Sprintf("ALM-Improved (%s)", sizeName(big)), Scheme: core.ALMImproved, DictLimit: big},
	}
}

func sizeName(n int) string {
	if n >= 1<<10 && n%(1<<10) == 0 {
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%d", n)
}

// BuildEncoder builds the configuration's encoder (nil for Uncompressed)
// and reports the build time.
func (tc TreeConfig) BuildEncoder(samples [][]byte) (*core.Encoder, time.Duration, error) {
	if tc.Plain {
		return nil, 0, nil
	}
	t0 := time.Now()
	enc, err := core.Build(tc.Scheme, samples, core.Options{DictLimit: tc.DictLimit})
	return enc, time.Since(t0), err
}

// encodeAll encodes keys serially (or passes them through for a nil
// encoder), reporting elapsed encode time. The figures that report
// per-character encode latency use this: the paper's metric is
// single-thread latency, which the parallel bulk path would distort.
func encodeAll(enc *core.Encoder, keys [][]byte) ([][]byte, time.Duration) {
	if enc == nil {
		return keys, 0
	}
	out := make([][]byte, len(keys))
	t0 := time.Now()
	var buf []byte
	for i, k := range keys {
		b, _ := enc.EncodeBits(buf, k)
		out[i] = append([]byte(nil), b...)
		buf = b[:0]
	}
	return out, time.Since(t0)
}

// encodeAllBulk encodes keys through the parallel EncodeAll path. Load
// phases whose encode time is not a reported metric use it so figure runs
// finish faster on multi-core machines.
func encodeAllBulk(enc *core.Encoder, keys [][]byte) [][]byte {
	if enc == nil {
		return keys
	}
	return enc.EncodeAll(keys)
}

// sortedUnique sorts byte strings and drops duplicates (filters need
// unique sorted input).
func sortedUnique(keys [][]byte) [][]byte {
	out := make([][]byte, len(keys))
	copy(out, keys)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	w := 0
	for i, k := range out {
		if i == 0 || !bytes.Equal(out[w-1], k) {
			out[w] = k
			w++
		}
	}
	return out[:w]
}

// totalBytes sums key lengths.
func totalBytes(keys [][]byte) int {
	n := 0
	for _, k := range keys {
		n += len(k)
	}
	return n
}

// nsPerChar converts an elapsed duration over a corpus into the paper's
// encode-latency metric.
func nsPerChar(d time.Duration, corpusBytes int) float64 {
	if corpusBytes == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(corpusBytes)
}
