package hope

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// This file is the restore half of the persistence layer: it rebuilds a
// live Store from a validated snapshot.Snapshot. The defining property is
// that no key is re-encoded: the dictionary is reassembled from its
// serialized entries (core.Reassemble skips symbol selection and code
// assignment entirely), and the stored encodings in the run sections load
// back verbatim through each backend's bulk path, shard-parallel. Runs are
// dumped in encoded order, so for every backend that path is one linear
// sortedness check and a bottom-up build (sortRun's fast path). The one
// exception is a hash-partitioned store written before format version 3,
// whose routing hash has since changed: its keys are decoded and
// re-Bulked (rerouteRuns).

// restoreStore rebuilds the store a snapshot serialized. backend is the
// caller's requested backend and must match the dumped one — a snapshot
// is not a migration tool. The caller's shape options (shards, partition)
// are ignored in favor of the snapshot's structural truth; for an
// adaptive store c.adaptive still supplies the lifecycle tuning
// (thresholds, timeouts, Manual) the snapshot deliberately does not carry.
func restoreStore(backend Backend, snap *snapshot.Snapshot, c *openConfig) (Store, error) {
	if len(snap.Sections) == 0 || snap.Sections[0].Kind != secMeta {
		return nil, fmt.Errorf("%w: first section is not meta", ErrSnapshotCorrupt)
	}
	meta, err := decodeMeta(snap.Sections[0].Payload, snap.Version)
	if err != nil {
		return nil, err
	}
	if meta.backend != backend {
		return nil, fmt.Errorf("hope: snapshot holds a %s store, Open requested %s", meta.backend, backend)
	}
	if meta.shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrSnapshotCorrupt, meta.shards)
	}
	if meta.partition == 1 && len(meta.splits) > 0 && len(meta.splits) != int(meta.shards)-1 {
		return nil, fmt.Errorf("%w: %d split points for %d shards", ErrSnapshotCorrupt, len(meta.splits), meta.shards)
	}
	if meta.storeKind == kindAdaptive && ceilPow2(int(meta.shards)) != int(meta.shards) {
		return nil, fmt.Errorf("%w: adaptive shard count %d is not a power of two", ErrSnapshotCorrupt, meta.shards)
	}

	var enc *core.Encoder
	rest := snap.Sections[1:]
	if meta.scheme >= 0 {
		if len(rest) == 0 || rest[0].Kind != secDict {
			return nil, fmt.Errorf("%w: compressed snapshot has no dictionary section", ErrSnapshotCorrupt)
		}
		entries, err := decodeDict(rest[0].Payload)
		if err != nil {
			return nil, err
		}
		enc, err = core.Reassemble(core.Scheme(meta.scheme), core.Options{
			DoubleCharAlphabet:    int(meta.alphabet),
			ForceBinarySearchDict: meta.forceBS,
		}, entries)
		if err != nil {
			// A code set Reassemble refuses would misorder or merge
			// stored keys (core.ErrAmbiguousPadding among others).
			return nil, fmt.Errorf("%w: reassemble dictionary: %w", ErrSnapshotCorrupt, err)
		}
		rest = rest[1:]
	}

	// Before version 3 a hash partition routed keys by FNV-1a, so its runs
	// sit in the wrong shards for today's hash.
	reroute := snap.Version < 3 && meta.partition != 1 && meta.shards > 1
	switch meta.storeKind {
	case kindIndex, kindSharded:
		// A kindIndex snapshot (no longer written) is a 1-shard hash store.
		return restoreSharded(backend, meta, enc, rest, reroute)
	case kindAdaptive:
		return restoreAdaptive(backend, meta, enc, rest, c, reroute)
	}
	return nil, fmt.Errorf("%w: unknown store kind %d", ErrSnapshotCorrupt, meta.storeKind)
}

// runSections validates that sections holds exactly the expected run
// sections of the given kind, indexed by shard.
func runSections(sections []snapshot.Section, kind uint8, shards int) ([][]byte, error) {
	payloads := make([][]byte, shards)
	seen := 0
	for _, s := range sections {
		if s.Kind != kind {
			return nil, fmt.Errorf("%w: unexpected section kind %d", ErrSnapshotCorrupt, s.Kind)
		}
		if s.Shard < 0 || s.Shard >= shards || payloads[s.Shard] != nil {
			return nil, fmt.Errorf("%w: bad or duplicate run shard %d", ErrSnapshotCorrupt, s.Shard)
		}
		payloads[s.Shard] = s.Payload
		seen++
	}
	if seen != shards {
		return nil, fmt.Errorf("%w: %d run sections for %d shards", ErrSnapshotCorrupt, seen, shards)
	}
	return payloads, nil
}

// restorePartitioner rebuilds the dumped partition layout.
func restorePartitioner(meta snapMeta) Partitioner {
	if meta.partition != 1 {
		return NewHashPartitioner(int(meta.shards))
	}
	if len(meta.splits) == 0 {
		return NewUnseededRangePartitioner(int(meta.shards))
	}
	return NewRangePartitioner(meta.splits)
}

func restoreSharded(backend Backend, meta snapMeta, enc *core.Encoder, sections []snapshot.Section, reroute bool) (*ShardedIndex, error) {
	payloads, err := runSections(sections, secRun, int(meta.shards))
	if err != nil {
		return nil, err
	}
	s, err := NewShardedIndexWithPartitioner(backend, enc, restorePartitioner(meta))
	if err != nil {
		return nil, err
	}
	if err := loadRuns(s, payloads, reroute); err != nil {
		return nil, err
	}
	return s, nil
}

// loadRuns loads the decoded secRun payloads into s's shards: run i into
// shard i, or, with reroute, every run through s.Bulk (rerouteRuns).
// Shard loads are independent: decode and bulk-insert each shard's run in
// parallel, the restore-side mirror of Bulk's layout.
func loadRuns(s *ShardedIndex, payloads [][]byte, reroute bool) error {
	if reroute {
		return rerouteRuns(s, payloads)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(payloads))
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys, vals, err := decodeRun(payloads[i])
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = s.shards[i].be.bulk(keys, vals)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rerouteRuns loads runs whose shards s's partitioner no longer agrees
// with: it decodes every stored key back to its original key
// (core.TableDecoder; an uncompressed run already holds them) and
// bulk-loads them all, so each lands where today's routing looks for it.
func rerouteRuns(s *ShardedIndex, payloads [][]byte) error {
	var dec *core.TableDecoder
	if s.enc != nil {
		var err error
		if dec, err = core.NewTableDecoder(s.enc); err != nil {
			return err
		}
	}
	var arena []byte
	var ends []int
	var keys [][]byte
	var vals []uint64
	for _, p := range payloads {
		stored, vs, err := decodeRun(p)
		if err != nil {
			return err
		}
		vals = append(vals, vs...)
		if dec == nil {
			keys = append(keys, stored...)
			continue
		}
		for _, k := range stored {
			if arena, err = dec.AppendDecode(arena, k); err != nil {
				return fmt.Errorf("%w: decode stored key: %w", ErrSnapshotCorrupt, err)
			}
			ends = append(ends, len(arena))
		}
	}
	start := 0
	for _, end := range ends {
		keys = append(keys, arena[start:end:end])
		start = end
	}
	return s.Bulk(keys, vals)
}

// restoreAdaptive rebuilds an AdaptiveIndex whose serving generation is
// the dumped sharded store. Snapshots of the retired format, whose
// sections held per-stripe records (section kind 4), are refused with
// ErrSnapshotCorrupt.
func restoreAdaptive(backend Backend, meta snapMeta, enc *core.Encoder, sections []snapshot.Section, c *openConfig, reroute bool) (*AdaptiveIndex, error) {
	for _, sec := range sections {
		if sec.Kind == secRetiredARun {
			return nil, fmt.Errorf("%w: adaptive snapshot in the retired record-run format", ErrSnapshotCorrupt)
		}
	}
	payloads, err := runSections(sections, secRun, int(meta.shards))
	if err != nil {
		return nil, err
	}
	var opts AdaptiveOptions
	if c != nil && c.adaptive != nil {
		opts = *c.adaptive
	}
	// Structural truth comes from the snapshot: shard count, partition
	// shape, split points, and the serving dictionary override whatever the
	// caller's options say. With a compressed snapshot the index restores
	// straight into the Steady state (opts.Encoder semantics); the
	// lifecycle reservoir starts empty and refills from live traffic.
	opts.Encoder = enc
	if enc != nil {
		opts.Scheme = enc.Scheme()
	}
	a, err := newAdaptiveIndex(backend, opts, restorePartitioner(meta))
	if err != nil {
		return nil, err
	}
	if err := loadRuns(a.cur.Load().idx, payloads, reroute); err != nil {
		return nil, err
	}
	return a, nil
}
