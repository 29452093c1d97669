// Package hope is the public API of this repository: a from-scratch Go
// implementation of HOPE, the High-speed Order-Preserving Encoder for
// in-memory search trees (Zhang et al., "Order-Preserving Key Compression
// for In-Memory Search Trees", SIGMOD 2020).
//
// HOPE compresses string keys through a small entropy dictionary while
// preserving their lexicographic order, so the compressed keys can be
// stored in any ordered search tree (B+tree, trie, radix tree, filter) and
// still answer point and range queries correctly. Typical use:
//
//	samples := hope.SampleKeys(keys, 0.01, 42)       // 1% sample
//	enc, err := hope.Build(hope.DoubleChar, samples, hope.Options{})
//	ck := enc.Encode(key)                            // order-preserving
//
// Six compression schemes are available, trading compression rate against
// encoding speed (paper Section 3.3): SingleChar, DoubleChar, ALM,
// ThreeGrams, FourGrams and ALMImproved.
//
// The repository also contains the five search trees the paper evaluates
// (SuRF, ART, HOT, B+tree, Prefix B+tree) under internal/, composed with
// the encoder by ShardedIndex (one Put/Get/Delete/Scan/Bulk interface
// with transparent key compression and encoded range queries, over one
// lock-striped shard or many: shared read-only dictionary, zero-alloc
// point reads, merged encoded scans), and by AdaptiveIndex, which
// automates the dictionary
// lifecycle the paper leaves to the application — online sampling, drift
// detection, and background re-encode migration to a new-generation
// dictionary without blocking traffic — plus a YCSB A-F workload driver
// and a benchmark harness regenerating every figure of the paper's
// evaluation; see DESIGN.md and EXPERIMENTS.md.
package hope

import (
	"math/rand"

	"repro/internal/core"
)

// Scheme identifies a HOPE compression scheme.
type Scheme = core.Scheme

// The six published schemes (paper Table 1).
const (
	// SingleChar exploits zeroth-order byte entropy; fastest encoder.
	SingleChar = core.SingleChar
	// DoubleChar exploits first-order entropy; the paper's best overall
	// latency/compression trade-off.
	DoubleChar = core.DoubleChar
	// ALM is Antoshenkov's variable-interval scheme with fixed codes.
	ALM = core.ALM
	// ThreeGrams compresses frequent 3-byte patterns.
	ThreeGrams = core.ThreeGrams
	// FourGrams compresses frequent 4-byte patterns.
	FourGrams = core.FourGrams
	// ALMImproved adds suffix-only statistics and Hu-Tucker codes to ALM;
	// highest compression, slowest encoder.
	ALMImproved = core.ALMImproved
)

// Schemes lists all supported schemes in the paper's order.
var Schemes = core.Schemes

// Options tunes the build phase; the zero value gives the paper defaults
// (64K dictionary limit, length-weighted probabilities, Garsia-Wachs code
// assignment).
type Options = core.Options

// Encoder compresses keys order-preservingly. Except for EncodeAll and
// EncodeRun, it is not safe for concurrent use; wrap it in a
// ConcurrentEncoder (dictionary lookups are read-only, only the
// bit-buffer state needs isolating).
// Encoding runs through a dictionary-specialized kernel captured at build
// time — an allocation-free fused lookup+append loop with no interface
// dispatch per symbol.
type Encoder = core.Encoder

// ConcurrentEncoder is a goroutine-safe encoder over a shared dictionary;
// use it when many request-handling goroutines encode against one index.
type ConcurrentEncoder = core.ConcurrentEncoder

// NewConcurrentEncoder wraps an encoder for concurrent use. The wrapped
// encoder must no longer be used directly.
func NewConcurrentEncoder(e *Encoder) *ConcurrentEncoder {
	return core.NewConcurrentEncoder(e)
}

// EncodeAll bulk-encodes keys with enc across GOMAXPROCS workers, returning
// the padded encodings as slices of a single backing buffer. This is the
// fast path for loading a search tree: contiguous sorted runs are sharded
// across workers with one bit appender each. Safe for concurrent use.
func EncodeAll(enc *Encoder, keys [][]byte) [][]byte { return enc.EncodeAll(keys) }

// BuildStats is the build-phase time breakdown (paper Figure 9).
type BuildStats = core.BuildStats

// Decoder reconstructs original keys from their stored encodings (the
// padded bytes Encode returns) with AppendDecode; search-tree queries
// never need it, but compression is lossless. Safe for concurrent use.
type Decoder = core.TableDecoder

// Build runs HOPE's build phase on a list of sampled keys and returns an
// encoder. A 1% sample of the indexed keys saturates the compression rate
// for every scheme (paper Appendix A).
func Build(scheme Scheme, samples [][]byte, opt Options) (*Encoder, error) {
	return core.Build(scheme, samples, opt)
}

// NewDecoder builds the optional decoder for an encoder's dictionary.
func NewDecoder(e *Encoder) (*Decoder, error) { return core.NewTableDecoder(e) }

// Sampler reservoir-samples keys arriving at an initially empty tree, the
// paper's Section 5 integration path: accumulate samples during inserts,
// build the dictionary once enough arrived, then rebuild the tree with
// compressed keys.
type Sampler = core.Sampler

// NewSampler returns a reservoir holding at most capacity keys.
func NewSampler(capacity int, seed int64) *Sampler { return core.NewSampler(capacity, seed) }

// SampleKeys returns a deterministic random sample of about frac*len(keys)
// keys (at least one when keys is non-empty), the input HOPE's build phase
// expects. It draws the sample's distinct positions directly (Floyd's
// algorithm, a bitmap marking the drawn ones) instead of permuting every
// position to keep 1% of them.
func SampleKeys(keys [][]byte, frac float64, seed int64) [][]byte {
	if len(keys) == 0 {
		return nil
	}
	n := min(max(int(frac*float64(len(keys))), 1), len(keys))
	rng := rand.New(rand.NewSource(seed))
	taken := make([]uint64, (len(keys)+63)/64)
	out := make([][]byte, 0, n)
	// Each round draws j uniformly from [0, i]; a j drawn before is
	// replaced by i, which no earlier round could draw.
	for i := len(keys) - n; i < len(keys); i++ {
		j := rng.Intn(i + 1)
		if taken[j/64]&(1<<(j%64)) != 0 {
			j = i
		}
		taken[j/64] |= 1 << (j % 64)
		out = append(out, keys[j])
	}
	return out
}
