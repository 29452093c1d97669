package hope

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// openConfig accumulates Open's functional options before dispatch.
type openConfig struct {
	enc       *core.Encoder
	encSet    bool
	shards    int
	shardsSet bool
	rangePart bool
	corpus    [][]byte
	adaptive  *AdaptiveOptions

	snapDir  string
	snapKeep int
	snapFS   snapshot.VFS
}

// Option configures Open. Options compose: WithEncoder names the
// dictionary, WithShards and WithRangePartitioner select and shape the
// concurrent layer, WithAdaptive upgrades to the lifecycle-managed index.
type Option func(*openConfig)

// WithEncoder supplies the HOPE encoder (dictionary) the store compresses
// keys with; omit it for an uncompressed store. The encoder is captured as
// the build template — its read-only dictionary is shared, its mutable
// state is not — and must not be used directly afterwards (clone it first
// if independent use is needed). With WithAdaptive the encoder becomes the
// generation-0 dictionary (AdaptiveOptions.Encoder).
func WithEncoder(enc *Encoder) Option {
	return func(c *openConfig) { c.enc = enc; c.encSet = true }
}

// WithShards sets the shard count of the lock-striped ShardedIndex to n
// (rounded up to a power of two; n <= 0 selects DefaultShards). Without
// it — and without WithRangePartitioner or WithAdaptive — Open returns a
// ShardedIndex of one hash shard: one tree behind one lock.
func WithShards(n int) Option {
	return func(c *openConfig) { c.shards = n; c.shardsSet = true }
}

// WithRangePartitioner lays the shards out as disjoint ascending key
// intervals instead of hash stripes, so short scans touch only the shards
// their bounds overlap. corpus, when non-nil, is a sample of the expected
// key population from which the split points are drawn; with a nil corpus
// the partition starts unseeded and the first Bulk into the empty store
// seeds it. Implies a sharded store (DefaultShards unless WithShards is
// also given). With WithAdaptive the corpus is ignored — each adaptive
// generation re-samples its split points from the lifecycle reservoir.
func WithRangePartitioner(corpus [][]byte) Option {
	return func(c *openConfig) { c.rangePart = true; c.corpus = corpus }
}

// WithAdaptive selects the lifecycle-managed AdaptiveIndex: online
// sampling, drift detection, and background re-encode migration (see
// AdaptiveOptions). Other options override the corresponding fields of
// opts: WithEncoder sets opts.Encoder, WithShards sets opts.Shards, and
// WithRangePartitioner sets opts.Partition = RangePartitioned.
func WithAdaptive(opts AdaptiveOptions) Option {
	return func(c *openConfig) { c.adaptive = &opts }
}

// WithSnapshotDir enables crash-safe persistence: Open returns a
// *Persistent (behind the Store interface) that snapshots into dir and —
// when dir already holds a valid snapshot — restores the newest good
// generation instead of starting empty. Restore is structural: the
// snapshot's store kind, shard count, partition layout, and dictionary
// override the caller's shape options, which only apply on a first boot
// into an empty directory (lifecycle tuning from WithAdaptive still
// applies either way). If every generation on disk is torn or corrupt,
// Open fails with the typed error rather than serving a partial index.
func WithSnapshotDir(dir string) Option {
	return func(c *openConfig) { c.snapDir = dir }
}

// WithSnapshotRetain sets how many committed snapshot generations are
// kept on disk (default DefaultSnapshotRetain; minimum 1 — the newest
// generation is never pruned).
func WithSnapshotRetain(n int) Option {
	return func(c *openConfig) { c.snapKeep = n }
}

// WithSnapshotFS substitutes the filesystem every snapshot I/O goes
// through — the crash suites wrap the real one with snapshot.Faulty so a
// fault plan can kill a commit at any write/fsync/rename checkpoint. Nil
// (the default) uses the real filesystem.
func WithSnapshotFS(fs snapshot.VFS) Option {
	return func(c *openConfig) { c.snapFS = fs }
}

// Open constructs a Store over the named backend, selecting the
// implementation from the options:
//
//	Open(BTree)                                  // 1-shard ShardedIndex, uncompressed
//	Open(ART, WithEncoder(enc))                  // compressed, 1 shard
//	Open(ART, WithEncoder(enc), WithShards(16))  // 16 hash shards
//	Open(ART, WithEncoder(enc), WithShards(16),
//	     WithRangePartitioner(corpus))           // range-partitioned ShardedIndex
//	Open(ART, WithAdaptive(AdaptiveOptions{      // lifecycle-managed AdaptiveIndex
//	     Scheme: DoubleChar, Shards: 16}))
//
// Open constructs every store kind; only a ShardedIndex over a
// caller-supplied Partitioner is built directly, through
// NewShardedIndexWithPartitioner. Callers needing implementation-specific
// surface (MemoryUsage, Stats, Rebuild, ...) type-assert the returned
// Store to the concrete type the options imply.
func Open(backend Backend, opts ...Option) (Store, error) {
	var c openConfig
	for _, o := range opts {
		o(&c)
	}
	if c.snapDir != "" {
		return asStore(openPersistent(backend, &c))
	}
	return buildStore(backend, &c)
}

// buildStore is Open's option dispatch for a fresh (non-restored) store.
func buildStore(backend Backend, c *openConfig) (Store, error) {
	if c.adaptive != nil {
		ao := *c.adaptive
		if c.encSet {
			if ao.Encoder != nil {
				return nil, fmt.Errorf("hope: both WithEncoder and AdaptiveOptions.Encoder are set")
			}
			ao.Encoder = c.enc
		}
		if c.shardsSet {
			ao.Shards = c.shards
		}
		if c.rangePart {
			ao.Partition = RangePartitioned
		}
		return asStore(newAdaptiveIndexWithSplits(backend, ao, nil))
	}
	if c.rangePart {
		return asStore(NewShardedIndexWithPartitioner(backend, c.enc, newRangePartitioner(c.shards, c.corpus)))
	}
	shards := 1
	if c.shardsSet {
		shards = c.shards
	}
	return asStore(NewShardedIndexWithPartitioner(backend, c.enc, NewHashPartitioner(shards)))
}

// asStore returns a built store as a Store, or a nil Store beside a build
// error: never a typed nil pointer inside a non-nil interface.
func asStore[S Store](s S, err error) (Store, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ParseScheme maps a scheme name to its Scheme: the canonical
// Scheme.String() forms ("Single-Char", "3-Grams", "ALM-Improved", ...),
// case-insensitively. It is the -scheme flag parser of the cmds.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range []Scheme{SingleChar, DoubleChar, ALM, ThreeGrams, FourGrams, ALMImproved} {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("hope: unknown scheme %q (want Single-Char, Double-Char, ALM, 3-Grams, 4-Grams or ALM-Improved)", name)
}
