package hope

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snapshot"
	"repro/internal/telemetry"
)

// Typed persistence failures, re-exported from internal/snapshot so
// callers classify restore outcomes without importing an internal package:
//
//   - ErrSnapshotTorn: a snapshot file ends before its footer — the
//     classic crash-mid-write shape. LoadNewest falls back to the previous
//     generation; Open only surfaces this when no valid generation exists.
//   - ErrSnapshotCorrupt: a snapshot file is structurally complete but
//     fails validation (bad magic, CRC mismatch, trailing bytes, malformed
//     payload). Same fallback behavior.
//
// Open with a snapshot directory either restores a fully-validated
// generation or fails with a typed error — it never serves a partially
// restored index.
var (
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	ErrSnapshotTorn    = snapshot.ErrTorn
)

// DefaultSnapshotRetain is how many committed snapshot generations are
// kept on disk when WithSnapshotRetain is not given: the newest plus one
// fallback.
const DefaultSnapshotRetain = 2

// Persistent adds crash-safe snapshot persistence to any Store. It is
// what Open returns when WithSnapshotDir is given: the embedded Store
// serves all traffic untouched, and Snapshot serializes a consistent
// image of it — dictionary included — to a new generation file using a
// write-temp, fsync, rename commit (see internal/snapshot). A later Open
// over the same directory restores the newest valid generation without
// re-encoding a single key: the dictionary is reassembled from its
// serialized entries and the stored encodings bulk-load shard-parallel.
// (A hash-partitioned store written before format version 3 is the
// exception: its routing hash has changed, so its keys are decoded and
// re-Bulked.)
//
// Snapshot may be called concurrently with serving traffic; the image is
// per-shard consistent, the same contract Len and Scan give. Concurrent
// Snapshot calls serialize.
type Persistent struct {
	Store

	dir      snapshot.Dir
	keep     int
	restored bool

	mu     sync.Mutex // serializes Snapshot
	gen    atomic.Uint64
	closed atomic.Bool

	snapStats    *telemetry.OpStats
	restoreStats *telemetry.OpStats
	lastBytes    atomic.Int64
	lastKeys     atomic.Int64
	trace        *telemetry.EventTrace
}

// openPersistent implements Open's WithSnapshotDir path: restore the
// newest valid generation, or build a fresh store from the options when
// the directory holds no snapshot at all.
func openPersistent(backend Backend, c *openConfig) (*Persistent, error) {
	fs := c.snapFS
	if fs == nil {
		fs = snapshot.OS()
	}
	keep := c.snapKeep
	if keep <= 0 {
		keep = DefaultSnapshotRetain
	}
	p := &Persistent{
		dir:          snapshot.Dir{FS: fs, Path: c.snapDir},
		keep:         keep,
		snapStats:    telemetry.NewOpStats(1),
		restoreStats: telemetry.NewOpStats(1),
	}
	snap, err := p.dir.LoadNewest()
	var restoreDur time.Duration
	switch {
	case errors.Is(err, snapshot.ErrNoSnapshot):
		st, berr := buildStore(backend, c)
		if berr != nil {
			return nil, berr
		}
		p.Store = st
	case err != nil:
		// Generations exist but none validates: refuse to serve rather
		// than guess. The error carries the newest generation's typed
		// failure (ErrSnapshotTorn / ErrSnapshotCorrupt).
		return nil, fmt.Errorf("hope: restore from %s: %w", c.snapDir, err)
	default:
		t := p.restoreStats.Begin(0)
		start := time.Now()
		st, rerr := restoreStore(backend, snap, c)
		restoreDur = time.Since(start)
		p.restoreStats.End(t)
		if rerr != nil {
			return nil, fmt.Errorf("hope: restore from %s: %w", c.snapDir, rerr)
		}
		p.Store = st
		p.gen.Store(snap.Generation)
		p.restored = true
	}
	if tr, ok := p.Store.(Traced); ok {
		// Share the store's trace so snapshot events interleave with
		// lifecycle events in one timeline.
		p.trace = tr.Trace()
	} else {
		p.trace = telemetry.NewEventTrace(0)
	}
	if p.restored {
		p.lastKeys.Store(int64(p.Store.Len()))
		p.trace.Emit("restore", -1, restoreDur.Nanoseconds(),
			fmt.Sprintf("gen=%d keys=%d", p.gen.Load(), p.Store.Len()))
	}
	return p, nil
}

// Snapshot serializes the current store contents as the next generation
// and commits it durably (write-temp, fsync, rename, dirsync). The
// previous generation is retained until the new one is fully durable, so
// a crash at any instant leaves a valid generation on disk; older
// generations beyond the retain count are pruned after the commit.
func (p *Persistent) Snapshot() error {
	if p.closed.Load() {
		return ErrClosed
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	gen := p.gen.Load() + 1
	p.trace.Emit("snapshot-start", -1, 0, fmt.Sprintf("gen=%d", gen))
	t := p.snapStats.Begin(0)
	start := time.Now()
	var keys, size int
	err := p.dir.Commit(gen, func(w *snapshot.Writer) error {
		var derr error
		keys, size, derr = dumpStore(p.Store, w, p.trace)
		return derr
	})
	p.snapStats.End(t)
	if err != nil {
		p.trace.Emit("snapshot-abort", -1, time.Since(start).Nanoseconds(), err.Error())
		return err
	}
	p.gen.Store(gen)
	p.lastKeys.Store(int64(keys))
	p.lastBytes.Store(int64(size))
	p.trace.Emit("snapshot-commit", -1, time.Since(start).Nanoseconds(),
		fmt.Sprintf("gen=%d keys=%d bytes=%d", gen, keys, size))
	if perr := p.dir.Prune(p.keep); perr != nil {
		// Debris never threatens correctness (restore validates and steps
		// over it); record and carry on.
		p.trace.Emit("snapshot-prune-error", -1, 0, perr.Error())
	}
	return nil
}

// Generation returns the newest committed (or restored) snapshot
// generation; 0 means no snapshot exists yet.
func (p *Persistent) Generation() uint64 { return p.gen.Load() }

// Restored reports whether Open rebuilt this store from a snapshot (false
// means it started fresh).
func (p *Persistent) Restored() bool { return p.restored }

// Unwrap returns the underlying store, for callers needing
// implementation-specific surface (Stats, Rebuild, MemoryUsage, ...).
func (p *Persistent) Unwrap() Store { return p.Store }

// Close closes the underlying store (mutations start returning ErrClosed,
// reads keep serving — see Store) and finalizes persistence: subsequent
// Snapshot calls are refused with ErrClosed. Close does not snapshot
// implicitly; callers wanting a final image call Snapshot first, as the
// server's drain hook does. Idempotent.
func (p *Persistent) Close() error {
	p.closed.Store(true)
	return p.Store.Close()
}

// RegisterMetrics exposes the persistence instruments — snapshot and
// restore latencies plus generation/size gauges — alongside whatever the
// underlying store registers.
func (p *Persistent) RegisterMetrics(reg *telemetry.Registry) error {
	if ins, ok := p.Store.(Instrumented); ok {
		if err := ins.RegisterMetrics(reg); err != nil {
			return err
		}
	}
	if err := reg.Register("hope_snapshot", p.snapStats); err != nil {
		return err
	}
	if err := reg.Register("hope_restore", p.restoreStats); err != nil {
		return err
	}
	return registerGauges(reg, []namedGauge{
		{"hope_snapshot_generation", func() float64 { return float64(p.gen.Load()) }},
		{"hope_snapshot_last_keys", func() float64 { return float64(p.lastKeys.Load()) }},
		{"hope_snapshot_last_bytes", func() float64 { return float64(p.lastBytes.Load()) }},
		{"hope_snapshot_restored", func() float64 { return boolGauge(p.restored) }},
	})
}

// Trace returns the event trace snapshot/restore events are emitted to —
// the underlying store's own trace when it keeps one (so persistence and
// lifecycle events share a timeline), else a private ring.
func (p *Persistent) Trace() *telemetry.EventTrace { return p.trace }

// Quiesce forwards to the underlying store when it has background work to
// settle (AdaptiveIndex rebuilds); otherwise it is a no-op. Keeping
// Persistent a Quiescer preserves the server's drain ordering: quiesce,
// snapshot-on-drain, close.
func (p *Persistent) Quiesce() {
	if q, ok := p.Store.(Quiescer); ok {
		q.Quiesce()
	}
}

var (
	_ Store        = (*Persistent)(nil)
	_ Instrumented = (*Persistent)(nil)
	_ Traced       = (*Persistent)(nil)
)
