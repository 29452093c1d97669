package hope

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
)

// This file is the dump half of the persistence layer: it serializes a
// live Store into the section stream a snapshot.Writer frames. Restore is
// persist_restore.go; the commit protocol and file format framing are
// internal/snapshot.

// dumpStore writes st's sections to w and reports how many keys and
// payload bytes it serialized. trace, when non-nil, receives a
// snapshot-section event per section.
func dumpStore(st Store, w *snapshot.Writer, trace *telemetry.EventTrace) (keys, bytes int, err error) {
	switch s := st.(type) {
	case *Index:
		return dumpIndex(s, w, trace)
	case *ShardedIndex:
		return dumpSharded(s, w, trace)
	case *AdaptiveIndex:
		return dumpAdaptive(s, w, trace)
	case *Persistent:
		return dumpStore(s.Store, w, trace)
	}
	return 0, 0, fmt.Errorf("hope: cannot snapshot store of type %T", st)
}

// emitSection writes one section and its trace event.
func emitSection(w *snapshot.Writer, trace *telemetry.EventTrace, kind uint8, shard int, payload []byte) (int, error) {
	if err := w.Section(kind, shard, payload); err != nil {
		return 0, err
	}
	if trace != nil {
		trace.Emit("snapshot-section", shard, 0, fmt.Sprintf("kind=%d bytes=%d", kind, len(payload)))
	}
	return len(payload), nil
}

// encoderMeta fills the scheme and structural-option fields of a meta
// section from enc (nil = uncompressed).
func encoderMeta(m *snapMeta, enc *core.Encoder) {
	m.scheme = -1
	if enc == nil {
		return
	}
	m.scheme = int32(enc.Scheme())
	so := enc.StructuralOptions()
	m.alphabet = uint32(so.DoubleCharAlphabet)
	m.forceBS = so.ForceBinarySearchDict
}

// writeDict emits the dictionary section when the store is compressed.
func writeDict(w *snapshot.Writer, trace *telemetry.EventTrace, enc *core.Encoder) (int, error) {
	if enc == nil {
		return 0, nil
	}
	return emitSection(w, trace, secDict, -1, encodeDict(enc.Entries()))
}

// dumpIndex serializes a single-goroutine Index: the meta and dictionary
// sections, then one secRun with the tree's stored keys in encoded order.
// The Index concurrency contract applies — the caller must not mutate the
// index while the dump runs.
func dumpIndex(x *Index, w *snapshot.Writer, trace *telemetry.EventTrace) (keys, size int, err error) {
	m := snapMeta{
		storeKind: kindIndex,
		backend:   x.backend,
		shards:    1,
		maxKeyLen: uint64(x.maxKeyLen),
		keyCount:  uint64(x.Len()),
	}
	encoderMeta(&m, x.enc)
	n, err := emitSection(w, trace, secMeta, -1, encodeMeta(m))
	if err != nil {
		return 0, 0, err
	}
	size += n
	if n, err = writeDict(w, trace, x.enc); err != nil {
		return 0, 0, err
	}
	size += n

	var ks [][]byte
	var vs []uint64
	x.be.scan([]byte{}, nil, false, func(k []byte, v uint64) bool {
		ks = append(ks, append([]byte(nil), k...))
		vs = append(vs, v)
		return true
	})
	if n, err = emitSection(w, trace, secRun, 0, encodeRun(ks, vs)); err != nil {
		return 0, 0, err
	}
	return len(ks), size + n, nil
}

// dumpSharded serializes a ShardedIndex: meta (including the partition
// shape and its split points), the dictionary, then one secRun per shard,
// each drained in a single pass under that shard's read lock. Consistency
// is per-shard — the same moment-in-time contract Len and Scan give under
// concurrent writers.
func dumpSharded(s *ShardedIndex, w *snapshot.Writer, trace *telemetry.EventTrace) (keys, size int, err error) {
	m := snapMeta{
		storeKind: kindSharded,
		backend:   s.backend,
		shards:    uint32(len(s.shards)),
		maxKeyLen: uint64(s.maxKeyLen.Load()),
		splits:    s.part.Splits(),
	}
	if s.part.Ordered() {
		m.partition = 1
	}
	encoderMeta(&m, s.enc)

	// Gather every shard's run first so the meta key count is exact for
	// this dump (advisory under concurrent writers, like Len).
	runs := make([][][]byte, len(s.shards))
	vals := make([][]uint64, len(s.shards))
	total := 0
	for i := range s.shards {
		var ks [][]byte
		var vs []uint64
		s.scanShard(i, []byte{}, nil, false, func(k []byte, v uint64) bool {
			ks = append(ks, append([]byte(nil), k...))
			vs = append(vs, v)
			return true
		})
		runs[i], vals[i] = ks, vs
		total += len(ks)
	}
	m.keyCount = uint64(total)

	n, err := emitSection(w, trace, secMeta, -1, encodeMeta(m))
	if err != nil {
		return 0, 0, err
	}
	size += n
	if n, err = writeDict(w, trace, s.enc); err != nil {
		return 0, 0, err
	}
	size += n
	for i := range runs {
		if n, err = emitSection(w, trace, secRun, i, encodeRun(runs[i], vals[i])); err != nil {
			return 0, 0, err
		}
		size += n
	}
	return total, size, nil
}

// dumpAdaptive serializes an AdaptiveIndex without quiescing it: the
// serving generation (and its dictionary) is pinned once, then each
// stripe's live records are collected under that stripe's read lock from
// the generation serving at that moment — the one every write lands in —
// sorted by original key, and batch re-encoded through the pinned
// dictionary outside all locks. The snapshot is per-stripe consistent
// (the Len contract); it never blocks a rebuild and a rebuild never
// blocks it.
//
// Lifecycle state (reservoir contents, drift baselines, rebuild counters)
// is deliberately not persisted: a restored index starts its lifecycle
// fresh on the restored dictionary and re-learns the traffic distribution
// from live writes.
func dumpAdaptive(a *AdaptiveIndex, w *snapshot.Writer, trace *telemetry.EventTrace) (keys, size int, err error) {
	gen := a.cur.Load()
	enc := gen.enc

	m := snapMeta{
		storeKind: kindAdaptive,
		backend:   a.backend,
		shards:    uint32(len(a.shards)),
		maxKeyLen: uint64(a.maxKeyLen.Load()),
		splits:    gen.idx.part.Splits(),
	}
	if a.opts.Partition == RangePartitioned {
		m.partition = 1
	}
	encoderMeta(&m, enc)

	// Collect each stripe's live records. A record collected here is live
	// at collection time, whether or not a cutover happened since gen was
	// pinned (original keys encode under any dictionary). Record-store
	// append order is arrival order, not key order — sort each stripe so
	// the run loads back in encoded order.
	type stripeRun struct {
		origs [][]byte
		vals  []uint64
	}
	stripes := make([]stripeRun, len(a.shards))
	total := 0
	for i, sh := range a.shards {
		sh.mu.RLock()
		srecs := a.cur.Load().recs[i]
		run := stripeRun{
			origs: make([][]byte, 0, srecs.live),
			vals:  make([]uint64, 0, srecs.live),
		}
		for _, r := range srecs.recs {
			if r.dead {
				continue
			}
			run.origs = append(run.origs, append([]byte(nil), r.key...))
			run.vals = append(run.vals, r.val)
		}
		sh.mu.RUnlock()
		sort.Sort(&stripeSorter{run.origs, run.vals})
		stripes[i] = run
		total += len(run.origs)
	}
	m.keyCount = uint64(total)

	n, err := emitSection(w, trace, secMeta, -1, encodeMeta(m))
	if err != nil {
		return 0, 0, err
	}
	size += n
	if n, err = writeDict(w, trace, enc); err != nil {
		return 0, 0, err
	}
	size += n
	for i := range stripes {
		var encs [][]byte
		if enc != nil {
			// EncodeAll is safe for concurrent use (read-only dictionary,
			// private appenders), so the serving template encodes the batch
			// while traffic keeps flowing.
			encs = enc.EncodeAll(stripes[i].origs)
		}
		if n, err = emitSection(w, trace, secARun, i, encodeARun(stripes[i].origs, encs, stripes[i].vals)); err != nil {
			return 0, 0, err
		}
		size += n
	}
	return total, size, nil
}

// stripeSorter sorts one stripe's (original key, value) pairs by key.
// Original-key order is encoded order under any HOPE dictionary (the
// order-preservation invariant), so the dump needs no encode to sort.
type stripeSorter struct {
	keys [][]byte
	vals []uint64
}

func (s *stripeSorter) Len() int           { return len(s.keys) }
func (s *stripeSorter) Less(i, j int) bool { return bytes.Compare(s.keys[i], s.keys[j]) < 0 }
func (s *stripeSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}
