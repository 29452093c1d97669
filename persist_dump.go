package hope

import (
	"fmt"

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
	// A cursor's keys alias memory no write changes (see cursor), so the
	// run holds them without copying.
	c := x.be.seek(nil, []byte{}, nil)
	for k, v, ok := c.Next(); ok; k, v, ok = c.Next() {
		ks = append(ks, k)
		vs = append(vs, v)
	}
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
	return dumpRuns(s, kindSharded, w, trace)
}

// dumpAdaptive serializes an AdaptiveIndex without quiescing it: the
// serving generation is pinned once and dumped like a ShardedIndex — its
// dictionary and one secRun of stored keys per tree shard. A cutover
// during the dump retires the pinned generation, which then holds the
// writes made before the cutover, so the snapshot stays per-shard
// consistent (the Len contract); it never blocks a rebuild and a rebuild
// never blocks it.
//
// Lifecycle state (reservoir contents, drift baselines, rebuild counters)
// is deliberately not persisted: a restored index starts its lifecycle
// fresh on the restored dictionary and re-learns the traffic distribution
// from live writes.
func dumpAdaptive(a *AdaptiveIndex, w *snapshot.Writer, trace *telemetry.EventTrace) (keys, size int, err error) {
	return dumpRuns(a.cur.Load().idx, kindAdaptive, w, trace)
}

// dumpRuns writes s as a store of the given kind.
func dumpRuns(s *ShardedIndex, kind uint8, w *snapshot.Writer, trace *telemetry.EventTrace) (keys, size int, err error) {
	m := snapMeta{
		storeKind: kind,
		backend:   s.backend,
		shards:    uint32(len(s.shards)),
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
		s.scanShard(i, []byte{}, nil, func(k []byte, v uint64) bool {
			ks = append(ks, k) // intact after the lock is released (see cursor)
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
