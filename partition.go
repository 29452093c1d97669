package hope

import (
	"bytes"
	"sort"
	"sync/atomic"

	"repro/internal/core"
)

// A Partitioner maps original keys to ShardedIndex shards. Two policies
// ship with the package:
//
//   - HashPartitioner (the default): hash the original key bytes.
//     Point operations spread perfectly, but every range scan must consult
//     every shard — the hash scatters adjacent keys across all of them.
//   - RangePartitioner: route by sampled split points, so each shard owns
//     one contiguous interval of the keyspace. Short scans touch only the
//     one or two shards whose intervals overlap the query, skip the k-way
//     merge entirely, and stream straight off a single cursor.
//
// Split points live in ORIGINAL key space. Because HOPE encoding is
// order-preserving, a contiguous original-key interval is a contiguous
// encoded-key interval, so the partition this induces is exactly the
// partition sampled split points over encoded keys would induce — while
// routing stays independent of any particular dictionary. That
// independence is what lets AdaptiveIndex generations with different
// dictionaries (and different split points) coexist during a migration.
//
// Implementations must be safe for concurrent use: every index operation
// routes through Shard.
type Partitioner interface {
	// NumShards returns the shard count (fixed for the partitioner's life).
	NumShards() int
	// Shard routes one original key to its shard in [0, NumShards()).
	Shard(key []byte) int
	// Ordered reports whether shards hold pairwise-disjoint, ascending
	// key intervals — the property that lets a scan visit shards
	// sequentially (in shard order) with no merge, and prune shards whose
	// interval cannot overlap the query.
	Ordered() bool
	// Splits returns the ordered split points (original key space) for an
	// ordered partitioner: len(Splits()) == NumShards()-1, and shard i
	// holds keys k with Splits()[i-1] <= k < Splits()[i] (boundaries at
	// the ends are unbounded). Unordered partitioners, unseeded range
	// partitioners, and single-shard partitioners return nil.
	Splits() [][]byte
}

// PartitionMode selects how an AdaptiveIndex lays out each generation's
// tree shards.
type PartitionMode int

const (
	// HashPartitioned spreads keys by hash — the default; perfect point-op
	// balance, every-shard scans.
	HashPartitioned PartitionMode = iota
	// RangePartitioned gives each shard a contiguous key interval from
	// split points sampled off the lifecycle reservoir (or the first bulk
	// corpus), so short scans touch only the overlapping shards. Every
	// rebuild re-samples the split points from current traffic, so drift
	// migration doubles as shard re-balancing.
	RangePartitioned
)

func (m PartitionMode) String() string {
	switch m {
	case HashPartitioned:
		return "hash"
	case RangePartitioned:
		return "range"
	}
	return "PartitionMode(?)"
}

// HashPartitioner is the default policy: a word-at-a-time hash of the
// original key bytes, masked to a power-of-two shard count (see
// shardHash).
type HashPartitioner struct {
	n    int
	mask uint64
}

// NewHashPartitioner returns a hash partitioner over nShards shards
// (rounded up to a power of two; <= 0 selects DefaultShards()).
func NewHashPartitioner(nShards int) *HashPartitioner {
	if nShards <= 0 {
		nShards = DefaultShards()
	}
	nShards = ceilPow2(nShards)
	return &HashPartitioner{n: nShards, mask: uint64(nShards - 1)}
}

// NumShards returns the shard count.
func (p *HashPartitioner) NumShards() int { return p.n }

// Shard routes by the hash of the original key bytes.
func (p *HashPartitioner) Shard(key []byte) int { return int(shardHash(key) & p.mask) }

// Ordered reports false: hashed shards interleave the keyspace.
func (p *HashPartitioner) Ordered() bool { return false }

// Splits returns nil (hash shards have no boundaries).
func (p *HashPartitioner) Splits() [][]byte { return nil }

// RangePartitioner routes by split points: shard i owns the keys between
// split i-1 (inclusive) and split i (exclusive). Construct it seeded
// (NewRangePartitioner with splits from RangeSplits) or unseeded
// (NewUnseededRangePartitioner), in which case every key routes to shard 0
// until the first ShardedIndex.Bulk seeds split points from its corpus.
// Duplicate split points are legal and produce empty shards; so does any
// split the live keys never straddle — scans and point ops are
// partition-oblivious, only the load balance suffers.
type RangePartitioner struct {
	n      int
	splits atomic.Pointer[[][]byte] // nil until seeded; owned, never mutated
}

// NewRangePartitioner returns a range partitioner over len(splits)+1
// shards using the given ascending split points (deep-copied). Use
// RangeSplits to derive balanced split points from a sample of the
// expected corpus.
func NewRangePartitioner(splits [][]byte) *RangePartitioner {
	p := &RangePartitioner{n: len(splits) + 1}
	if len(splits) > 0 {
		p.seed(splits)
	}
	return p
}

// NewUnseededRangePartitioner returns a range partitioner over nShards
// shards (rounded up to a power of two; <= 0 selects DefaultShards()) with
// no split points yet: every key routes to shard 0 until the owning
// ShardedIndex's first Bulk samples split points from its corpus.
func NewUnseededRangePartitioner(nShards int) *RangePartitioner {
	if nShards <= 0 {
		nShards = DefaultShards()
	}
	return &RangePartitioner{n: ceilPow2(nShards)}
}

// seed installs deep-copied split points; the slice count must be
// n-1 or the partitioner adopts len(splits)+1 shards. Seeding is a
// one-time transition from the unseeded state and must happen before any
// key is stored under the final routing (ShardedIndex.Bulk enforces this
// by seeding only an empty index).
func (p *RangePartitioner) seed(splits [][]byte) {
	cp := make([][]byte, len(splits))
	for i, s := range splits {
		cp[i] = append([]byte(nil), s...)
	}
	if len(cp)+1 != p.n {
		p.n = len(cp) + 1
	}
	p.splits.Store(&cp)
}

// seeded reports whether split points are installed.
func (p *RangePartitioner) seeded() bool { return p.splits.Load() != nil }

// NumShards returns the shard count.
func (p *RangePartitioner) NumShards() int { return p.n }

// Shard binary-searches the split points: the shard index is the number of
// splits at or below the key.
func (p *RangePartitioner) Shard(key []byte) int {
	sp := p.splits.Load()
	if sp == nil {
		return 0
	}
	s := *sp
	return sort.Search(len(s), func(i int) bool { return bytes.Compare(s[i], key) > 0 })
}

// Ordered reports true: shards hold disjoint ascending intervals (the
// unseeded state trivially so — every key is in shard 0).
func (p *RangePartitioner) Ordered() bool { return true }

// Splits returns the installed split points (shared, read-only; nil until
// seeded).
func (p *RangePartitioner) Splits() [][]byte {
	sp := p.splits.Load()
	if sp == nil {
		return nil
	}
	return *sp
}

// rangeSplitSampleCap bounds the reservoir RangeSplits draws split points
// from: enough resolution for 256 shards' quantiles, small enough that
// seeding inside Bulk is a rounding error next to the load itself.
const rangeSplitSampleCap = 8192

// RangeSplits derives nShards-1 ascending split points from a corpus of
// original keys: the corpus is reservoir-sampled (core.Sampler, so a
// corpus too large to sort whole still yields unbiased quantiles), the
// sample is sorted, and the splits are its evenly spaced quantiles —
// giving every shard an approximately equal share of the sampled
// distribution. Skewed corpora are legal: duplicate quantiles produce
// empty shards, which the index serves correctly (only balance suffers).
// The corpus is read, never retained; determinism follows from the seed.
func RangeSplits(corpus [][]byte, nShards int, seed int64) [][]byte {
	if nShards <= 1 || len(corpus) == 0 {
		return nil
	}
	capacity := rangeSplitSampleCap
	if len(corpus) < capacity {
		capacity = len(corpus)
	}
	sampler := core.NewSampler(capacity, seed)
	for _, k := range corpus {
		sampler.Add(k)
	}
	sample := sampler.Snapshot()
	sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
	splits := make([][]byte, 0, nShards-1)
	for i := 1; i < nShards; i++ {
		splits = append(splits, sample[i*len(sample)/nShards])
	}
	return splits
}
