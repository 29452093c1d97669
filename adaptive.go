package hope

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/telemetry"
)

// AdaptiveIndex automates the full dictionary lifecycle the paper leaves
// to the application (Section 5 / Appendix C): it wraps a sharded
// compressed index and (1) reservoir-samples live write traffic while
// tracking a rolling compression rate, (2) builds a new-generation
// dictionary in the background when the rate drifts below the build-time
// baseline (or on an explicit Rebuild), and (3) rebuilds the index under
// the new dictionary by reconstruction — one compressed-key sort and a
// bottom-up build off every lock — while reads and writes keep flowing.
// The lifecycle state machine (Sampling → Building → Migrating → Steady,
// with drift rebuilds looping back through Building) lives in
// internal/lifecycle; this type is the data plane.
//
// # Decoded keys
//
// Each generation is a ShardedIndex mapping encoded keys to the caller's
// values; no other copy of a key is kept. HOPE's codes are lossless, and
// core.Build widens an all-zero entry-0 code to 8 bits, so a stored
// (zero-padded) encoding decodes to exactly one original key. A rebuild
// decodes the old generation's keys to re-encode them, and scans decode
// what they emit (core.TableDecoder): scan callbacks receive the
// *original* key — unlike Index and ShardedIndex, which hand out stored
// encodings. Keys passed to callbacks are only valid during the callback.
//
// # Stripes versus tree shards
//
// The adaptive layer's unit of bookkeeping is the *stripe*: a fixed,
// generation-independent hash of the original key bytes (see shardHash)
// selects one adaptiveShard, whose lock serializes that stripe's writes
// and, during a migration, guards its change list. Each generation's
// ShardedIndex routes the same key to its *tree shards* by its own
// Partitioner — hash by default, or range with split points re-sampled
// from the lifecycle reservoir at every rebuild
// (AdaptiveOptions.Partition). Decoupling the two is what lets a rebuild
// change the key partition: the change lists stay stripe-addressed while
// the trees re-balance underneath, so a drift migration doubles as shard
// re-balancing.
//
// # Migration protocol
//
// Exactly one generation serves at every instant; a rebuild builds the
// next one beside it and flips once. Every backend runs the same steps:
//
//   - Build the dictionary from a reservoir snapshot with no locks held.
//   - Start every stripe's change list: from then on each Put and Delete
//     also logs (op, key, value) there.
//   - Walk: every old tree shard in parallel, decoding its stored keys
//     in chunks, one read-lock hold per chunk.
//   - Build the next generation's trees off every lock with one Bulk:
//     one parallel route-and-encode pass, one sort of each shard's
//     compressed keys, a bottom-up BulkLoad.
//   - Replay, pass one: per stripe, under its own lock, take the change
//     list; apply it to next's trees after the unlock — each key's last
//     logged write, which is exact whatever the walk saw of a concurrent
//     write. Pass one repeats while each round replays less than the last.
//   - Replay, pass two, and flip: with every stripe lock held, replay only
//     what arrived since pass one, then make next the serving generation.
//
// Until the flip only the old generation takes writes, so an abort — a
// failed build, a fault injected by tests, a watchdog timeout — simply
// drops next. The bulk-only SuRF backend takes no writes, so its replay
// is empty.
//
// All methods are safe for concurrent use.
type AdaptiveIndex struct {
	backend Backend
	opts    AdaptiveOptions
	ctl     *lifecycle.Controller
	mask    uint64
	shards  []*adaptiveShard

	// rebuildMu serializes rebuilds and excludes Bulk's stop-the-world
	// load from overlapping a migration; rebuilding dedupes async
	// triggers.
	rebuildMu  sync.Mutex
	rebuilding atomic.Bool

	// cur is the serving generation. It changes only at a flip, with every
	// stripe lock held, so an op holding one stripe lock sees it stable.
	// next is the generation a migration is building (nil otherwise).
	cur, next atomic.Pointer[generation]

	// injector, when set (tests and chaos harnesses), fires at every
	// rebuild checkpoint; an error it returns aborts the rebuild at that
	// point, a panic it raises is recovered and converted to
	// *ErrRebuildPanic, and a stall it imposes is subject to the watchdog.
	// Set it before any traffic and do not change it while a rebuild may
	// be running (fault.Plan.Disarm defuses one in place).
	injector fault.Injector

	// watch is the in-flight rebuild's cancellation scoreboard (nil when no
	// rebuild is running): the watchdog, Close, and interruptible stalls
	// all cancel through it; checkpoints observe it.
	watch atomic.Pointer[rebuildWatch]

	// lastStage/lastShard name the most recent checkpoint passed. They are
	// written and read only on the rebuilding goroutine (rebuildMu holder),
	// purely to attribute a recovered panic.
	lastStage string
	lastShard int

	// asyncWG tracks triggered background rebuild goroutines from the
	// moment the trigger wins its CAS — before the goroutine exists — so
	// Quiesce cannot miss one that has not yet reached rebuildMu.
	asyncWG sync.WaitGroup
	closed  atomic.Bool

	skewTick atomic.Int64 // inserts since construction, for ResplitAbove cadence

	// met instruments the public ops; trace is the structured rebuild
	// event ring (see observe.go). Both are always-on from construction.
	met   opMetrics
	trace *telemetry.EventTrace
}

// AdaptiveOptions configures an AdaptiveIndex. The zero value serves
// uncompressed while sampling, then builds a Single-Char dictionary after
// lifecycle defaults; set Scheme (and Build) for stronger compression.
type AdaptiveOptions struct {
	// Scheme is the compression scheme rebuilt dictionaries use.
	Scheme core.Scheme
	// Build tunes HOPE's build phase for every generation.
	Build core.Options
	// Encoder, when non-nil, is the generation-0 dictionary: the index
	// starts Steady and compressed instead of Sampling (generations count
	// completed rebuilds). The encoder is
	// captured as the build template (like WithEncoder) and must not
	// be used directly afterwards. Its drift baseline self-calibrates
	// from the first full window of live traffic.
	Encoder *core.Encoder
	// Shards is the shard count (rounded up to a power of two; <= 0
	// selects DefaultShards). Every generation uses the same count.
	Shards int
	// Partition selects each generation's tree-shard layout:
	// HashPartitioned (default) or RangePartitioned, which samples split
	// points from the lifecycle reservoir at every rebuild so short scans
	// stay confined to the overlapping shards and migrations re-balance
	// the partition. Before the first rebuild a range-partitioned index
	// seeded by Bulk partitions on the bulk corpus; one populated by Puts
	// alone serves from a single tree shard until the first rebuild
	// spreads it.
	Partition PartitionMode
	// MigrationTimeout is the watchdog's progress bound: a rebuild that
	// makes no checkpoint progress for this long is cancelled and aborts
	// with ErrMigrationTimeout, restoring the old generation. It should
	// comfortably exceed the dictionary build time and the next
	// generation's bulk build. 0 disables the watchdog's progress check.
	MigrationTimeout time.Duration
	// RebuildDeadline caps one whole rebuild — build plus migration — the
	// same way. 0 disables the deadline.
	RebuildDeadline time.Duration
	// ResplitAbove arms skew-triggered re-balancing for range-partitioned
	// indexes: when the largest tree shard of the serving generation holds
	// more than this fraction of the keys (e.g. 0.5 on 8 shards), a rebuild
	// is triggered even without CPR drift, re-sampling split points from
	// the reservoir. Checked on the lifecycle's CheckEvery insert cadence
	// and gated by the same cooldown and failure backoff as drift rebuilds.
	// 0 disables; ignored unless Partition == RangePartitioned.
	ResplitAbove float64
	// Manual disables automatic rebuilds: the lifecycle still samples and
	// tracks drift, but only an explicit Rebuild call acts on it.
	Manual bool
	// Lifecycle tunes the sampling and drift policy (zero fields take
	// lifecycle defaults).
	Lifecycle lifecycle.Config
}

// Re-exported lifecycle states, so callers can switch on
// AdaptiveIndex.State without importing an internal package.
type LifecycleState = lifecycle.State

const (
	StateSampling  = lifecycle.Sampling
	StateSteady    = lifecycle.Steady
	StateBuilding  = lifecycle.Building
	StateMigrating = lifecycle.Migrating
)

// AdaptiveStats is a point-in-time snapshot of the lifecycle.
type AdaptiveStats struct {
	lifecycle.Stats
	Backend   Backend
	Shards    int
	Partition PartitionMode
}

// generation is one dictionary era: a sharded tree mapping encoded keys
// to the caller's values, and the decoder of its stored keys.
type generation struct {
	idx *ShardedIndex
	enc *core.Encoder      // build template (nil = uncompressed)
	dec *core.TableDecoder // nil = uncompressed
}

// decode appends the original key of one of g's stored keys to dst.
func (g *generation) decode(dst, stored []byte) ([]byte, error) {
	if g.dec == nil {
		return append(dst, stored...), nil
	}
	return g.dec.AppendDecode(dst, stored)
}

// memory is g's modeled footprint: trees, dictionary and decoder.
func (g *generation) memory() int {
	m := g.idx.MemoryUsage()
	if g.dec != nil {
		m += g.dec.MemoryUsage()
	}
	return m
}

// walk visits every stored key of g's tree shard w in order, with its
// value, through a shard cursor: scanChunk keys per hold of the shard's
// read lock, resuming the tree cursor while the shard goes unwritten. fn
// runs outside the lock; its key aliases tree memory and must not be
// modified. An error from fn ends the walk.
func (g *generation) walk(w int, fn func(stored []byte, val uint64) error) error {
	c := scanCursorPool.Get().(*shardCursor)
	defer c.release()
	c.reset(g.idx.shards[w], []byte{}, nil)
	for {
		if _, ok := c.peek(); !ok {
			return nil
		}
		if err := fn(c.pop()); err != nil {
			return err
		}
	}
}

// walkRun is one old tree shard's decoded keys, back to back in arena,
// each ending at its ends entry, and their values.
type walkRun struct {
	arena []byte
	ends  []int
	vals  []uint64
}

// decodeShard walks g's tree shard w into a walkRun.
func (g *generation) decodeShard(w int) (walkRun, error) {
	n := g.idx.ShardLens()[w]
	r := walkRun{ends: make([]int, 0, n), vals: make([]uint64, 0, n)}
	err := g.walk(w, func(stored []byte, v uint64) error {
		var err error
		if r.arena, err = g.decode(r.arena, stored); err != nil {
			return fmt.Errorf("hope: decode stored key of shard %d: %w", w, err)
		}
		r.ends = append(r.ends, len(r.arena))
		r.vals = append(r.vals, v)
		return nil
	})
	return r, err
}

// adaptiveShard is one stripe. Its lock serializes the stripe's writes
// and guards its change list. Lock order: adaptiveShard.mu before any
// tree lock.
type adaptiveShard struct {
	mu  sync.Mutex
	mig *changeList // nil unless a migration is in flight
}

// changeList is one stripe's writes since a migration started, in order,
// their keys back to back in keys.
type changeList struct {
	keys []byte
	ops  []change
}

// change is a put of val, or a delete, of the key that ends at keys[end].
type change struct {
	end int
	val uint64
	del bool
}

// log appends one write to the stripe's change list, when a migration is
// in flight.
func (sh *adaptiveShard) log(key []byte, val uint64, del bool) {
	if c := sh.mig; c != nil {
		c.keys = append(c.keys, key...)
		c.ops = append(c.ops, change{end: len(c.keys), val: val, del: del})
	}
}

// apply replays c on stripe i of next's trees. Only a key's last logged
// write decides its state, so the writes are encoded in one batch, sorted
// with each key's duplicates collapsed to its last write (sortRun), and
// applied in key order, where neighbouring inserts share cache-warm
// paths; a round then costs less than the puts that filled it, so rounds
// shrink even under a closed-loop writer.
func (c *changeList) apply(i int, next *generation) error {
	if len(c.ops) == 0 {
		return nil
	}
	keys := make([][]byte, len(c.ops))
	order := make([]uint64, len(c.ops))
	start := 0
	for j, op := range c.ops {
		keys[j] = c.keys[start:op.end:op.end]
		order[j] = uint64(j)
		start = op.end
	}
	stored := keys
	if next.enc != nil {
		stored = next.enc.EncodeAll(keys)
	}
	stored, order = sortRun(stored, order)
	for j, ek := range stored {
		op, key := c.ops[order[j]], keys[order[j]]
		if err := next.idx.writeStored(route(next, i, key), ek, op.val, op.del); err != nil {
			return err
		}
	}
	return nil
}

// newAdaptiveIndexWithSplits builds an adaptive index over the named
// backend (Open with WithAdaptive is the public constructor). With
// opts.Encoder nil the index starts in the Sampling state, serving
// uncompressed until enough keys arrived for the first dictionary.
// splits, when non-nil, seed generation 0's range partitioner — the
// restore path hands back the persisted split points so the restored
// trees keep the dumped partition instead of starting unseeded.
func newAdaptiveIndexWithSplits(backend Backend, opts AdaptiveOptions, splits [][]byte) (*AdaptiveIndex, error) {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards()
	}
	opts.Shards = ceilPow2(opts.Shards)
	a := &AdaptiveIndex{
		backend: backend,
		opts:    opts,
		mask:    uint64(opts.Shards - 1),
		shards:  make([]*adaptiveShard, opts.Shards),
		met:     newOpMetrics(),
		trace:   telemetry.NewEventTrace(0),
	}
	initial := lifecycle.Sampling
	if opts.Encoder != nil {
		initial = lifecycle.Steady
	}
	a.ctl = lifecycle.NewController(opts.Lifecycle, initial)
	gen, err := a.newGeneration(opts.Encoder, splits)
	if err != nil {
		return nil, err
	}
	a.cur.Store(gen)
	for i := range a.shards {
		a.shards[i] = &adaptiveShard{}
	}
	return a, nil
}

// newGeneration builds one dictionary era's sharded index. splits, when
// the index is range-partitioned, are the generation's split points
// (re-sampled from the reservoir at every rebuild); nil leaves a
// range partitioner unseeded (generation 0 before any bulk corpus
// exists — Bulk seeds it, or the first rebuild replaces it).
func (a *AdaptiveIndex) newGeneration(enc *core.Encoder, splits [][]byte) (*generation, error) {
	var p Partitioner
	switch {
	case a.opts.Partition == RangePartitioned && splits != nil:
		p = NewRangePartitioner(splits)
	case a.opts.Partition == RangePartitioned:
		p = NewUnseededRangePartitioner(a.opts.Shards)
	default:
		p = NewHashPartitioner(a.opts.Shards)
	}
	idx, err := NewShardedIndexWithPartitioner(a.backend, enc, p)
	if err != nil {
		return nil, err
	}
	g := &generation{idx: idx, enc: enc}
	if enc != nil {
		if g.dec, err = core.NewTableDecoder(enc); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// route routes a key whose stripe is already known to one
// generation's tree shard: for a hash-partitioned generation the tree
// shard IS the stripe (same hash, same power-of-two count), so no hash is
// recomputed; range partitioners binary-search the key.
func route(g *generation, stripe int, key []byte) int {
	if _, ok := g.idx.part.(*HashPartitioner); ok {
		return stripe
	}
	return g.idx.part.Shard(key)
}

// Backend returns the wrapped tree's name.
func (a *AdaptiveIndex) Backend() Backend { return a.backend }

// NumShards returns the shard count (a power of two, fixed for life).
func (a *AdaptiveIndex) NumShards() int { return len(a.shards) }

// State returns the lifecycle state.
func (a *AdaptiveIndex) State() LifecycleState { return a.ctl.State() }

// Generation returns the serving dictionary generation — the number of
// completed rebuilds (generation 0 is the initial era: uncompressed, or
// opts.Encoder when one was supplied).
func (a *AdaptiveIndex) Generation() int { return a.ctl.Generation() }

// Encoder returns the serving generation's build template (nil while
// uncompressed). During a migration this is still the old generation's
// encoder, until the flip.
func (a *AdaptiveIndex) Encoder() *core.Encoder { return a.cur.Load().enc }

// Stats snapshots the lifecycle counters.
func (a *AdaptiveIndex) Stats() AdaptiveStats {
	return AdaptiveStats{
		Stats:     a.ctl.Stats(),
		Backend:   a.backend,
		Shards:    len(a.shards),
		Partition: a.opts.Partition,
	}
}

// ShardLens returns the serving generation's per-tree-shard key counts —
// the partition's skew profile (see ShardedIndex.ShardLens). After a
// range-mode rebuild this reflects the re-sampled split points.
func (a *AdaptiveIndex) ShardLens() []int { return a.cur.Load().idx.ShardLens() }

func (a *AdaptiveIndex) shardIdx(key []byte) int { return int(shardHash(key) & a.mask) }

// Put inserts or overwrites one key in the serving generation: one
// encode and one tree-lock hold through ShardedIndex.putShard, under the
// stripe lock, which also logs the write when a migration is in flight.
func (a *AdaptiveIndex) Put(key []byte, val uint64) error {
	if a.closed.Load() {
		return ErrClosed
	}
	if a.backend == SuRF {
		return ErrImmutableBackend
	}
	i := a.shardIdx(key)
	t := a.met.put.Begin(uint64(i))
	sh := a.shards[i]
	sh.mu.Lock()
	g := a.cur.Load()
	existed, storedLen, err := g.idx.putShard(route(g, i, key), key, val)
	if err == nil {
		sh.log(key, val, false)
	}
	sh.mu.Unlock()
	a.met.put.End(t)
	if err != nil {
		return err
	}
	if !existed {
		sig := a.ctl.Observe(key, storedLen)
		if !a.opts.Manual {
			if sig != lifecycle.None {
				a.triggerAsync(driftReason(sig), a.revalidateDrift)
			} else if a.skewCheck() {
				a.triggerAsync("skew", a.revalidateSkew)
			}
		}
	} else {
		// Overwrites are traffic for the reservoir but do not change the
		// stored bytes the rolling CPR measures.
		a.ctl.ObserveBulk(key)
	}
	return nil
}

// Get returns the value stored under key in the serving generation. It
// takes no stripe lock: a generation retired by a concurrent flip holds
// exactly the writes made before the flip, so reading it is a read at
// the flip.
func (a *AdaptiveIndex) Get(key []byte) (uint64, bool) {
	i := a.shardIdx(key)
	t := a.met.get.Begin(uint64(i))
	g := a.cur.Load()
	v, ok := g.idx.getShard(route(g, i, key), key)
	a.met.get.End(t)
	return v, ok
}

// Delete removes key, reporting whether it was present.
func (a *AdaptiveIndex) Delete(key []byte) (bool, error) {
	if a.closed.Load() {
		return false, ErrClosed
	}
	if a.backend == SuRF {
		return false, ErrImmutableBackend
	}
	i := a.shardIdx(key)
	mt := a.met.del.Begin(uint64(i))
	sh := a.shards[i]
	sh.mu.Lock()
	g := a.cur.Load()
	found, err := g.idx.deleteShard(route(g, i, key), key)
	if found {
		sh.log(key, 0, true)
	}
	sh.mu.Unlock()
	a.met.del.End(mt)
	if err != nil {
		return false, err
	}
	return found, nil
}

// Len returns the number of keys the serving generation holds.
func (a *AdaptiveIndex) Len() int { return a.cur.Load().idx.Len() }

// MemoryUsage returns the modeled footprint in bytes: the serving
// generation's trees, dictionary and decoder, and a migrating next
// generation's.
func (a *AdaptiveIndex) MemoryUsage() int {
	m := a.cur.Load().memory()
	if next := a.next.Load(); next != nil {
		m += next.memory()
	}
	return m
}

// Bulk loads keys[i] -> vals[i] (nil vals assigns positions; a key given
// more than once keeps its last value). It is the only way to populate a
// SuRF-backed index, and the fast path for an initial load elsewhere; on
// a non-empty mutable index it degrades to a Put loop (overwrite
// semantics). Bulk excludes rebuilds for its duration and must not run
// concurrently with other writers.
func (a *AdaptiveIndex) Bulk(keys [][]byte, vals []uint64) error {
	if a.closed.Load() {
		return ErrClosed
	}
	if vals != nil && len(vals) != len(keys) {
		return fmt.Errorf("hope: %d keys but %d values", len(keys), len(vals))
	}
	viaPuts, err := a.bulkLoad(keys, vals)
	if err != nil {
		return err
	}
	if !viaPuts {
		// The stop-the-world path bypasses Put, so the lifecycle has not
		// seen these keys yet; the Put-loop path already observed each one.
		for _, k := range keys {
			a.ctl.ObserveBulk(k)
		}
	}
	if !a.opts.Manual {
		if sig := a.ctl.Check(); sig != lifecycle.None {
			a.triggerAsync(driftReason(sig), a.revalidateDrift)
		}
	}
	return nil
}

// bulkLoad performs the load and reports whether it went through the Put
// loop (which feeds the lifecycle tracker itself).
func (a *AdaptiveIndex) bulkLoad(keys [][]byte, vals []uint64) (viaPuts bool, err error) {
	a.rebuildMu.Lock()
	defer a.rebuildMu.Unlock()
	if a.backend != SuRF && a.Len() > 0 {
		for i, k := range keys {
			v := uint64(i)
			if vals != nil {
				v = vals[i]
			}
			if err := a.Put(k, v); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	// Stop-the-world load: lock every stripe and bulk-load the serving
	// generation's trees through the parallel encode pipeline. For SuRF
	// this replaces the whole contents.
	for _, sh := range a.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range a.shards {
			sh.mu.Unlock()
		}
	}()
	return false, a.cur.Load().idx.Bulk(keys, vals)
}

// ---------------------------------------------------------------------------
// Rebuild: build → migrate → cutover (or abort).
// ---------------------------------------------------------------------------

// Rebuild forces a full dictionary rebuild and migration now, blocking
// until the cutover (or the abort) completes. Traffic keeps flowing except
// during the flip, which holds every stripe lock while it replays the
// writes that arrived since the last replay pass. The drift detector
// triggers this same path automatically unless opts.Manual.
//
// Failures are typed: errors.Is(err, ErrMigrationTimeout) for a
// watchdog abort, errors.As(err, new(*ErrRebuildPanic)) for a recovered
// panic, errors.Is(err, ErrClosed) after Close. An explicit Rebuild is
// not gated by the failure backoff — it is how a degraded index is
// revived — but its failures still count toward the circuit breaker, and
// when the breaker is (or stays) open the returned error also matches
// ErrDegraded.
func (a *AdaptiveIndex) Rebuild() error {
	a.rebuildMu.Lock()
	defer a.rebuildMu.Unlock()
	a.trace.Emit("trigger", -1, 0, a.triggerEvidence("explicit"))
	err := a.rebuildLocked()
	if err != nil && !errors.Is(err, ErrClosed) && a.ctl.Degraded() {
		err = fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return err
}

// Err reports the index's health: nil while healthy; an error matching
// ErrDegraded (wrapping the last rebuild failure) while the circuit
// breaker is open — the index still serves reads, writes, and scans on
// the frozen dictionary; ErrClosed after Close.
func (a *AdaptiveIndex) Err() error {
	if a.closed.Load() {
		return ErrClosed
	}
	if a.ctl.Degraded() {
		if last := a.ctl.LastError(); last != nil {
			return fmt.Errorf("%w (last failure: %w)", ErrDegraded, last)
		}
		return ErrDegraded
	}
	return nil
}

// Quiesce blocks until every background rebuild in flight — including one
// whose trigger fired but whose goroutine has not yet started running —
// has completed or aborted. On return, no background rebuild is running
// and none will start without a new trigger.
func (a *AdaptiveIndex) Quiesce() {
	a.asyncWG.Wait()
	a.rebuildMu.Lock()
	defer a.rebuildMu.Unlock()
}

// Close makes the index final: new rebuilds (explicit or automatic) and
// mutations (Put, Delete, Bulk) are refused with ErrClosed, an in-flight
// rebuild is cancelled at its next checkpoint (waking any interruptible
// stall) and aborts down the usual restore path, and Close blocks until
// the background goroutine has fully exited. Reads and scans keep serving
// the final contents — which is what lets a snapshot-on-drain serialize a
// closed-to-writes index. Close is idempotent and always returns nil.
func (a *AdaptiveIndex) Close() error {
	a.closed.Store(true)
	if w := a.watch.Load(); w != nil {
		w.fire(ErrClosed)
	}
	a.Quiesce()
	return nil
}

// triggerAsync starts one background rebuild; concurrent signals collapse
// into it. revalidate re-checks the trigger's reason once the goroutine
// holds rebuildMu — an explicit Rebuild may have serviced the signal, or
// a failure may have armed the retry backoff, while it waited. reason
// names the trigger for the event trace ("first-build", "drift", "skew")
// and is only recorded once revalidation confirms the rebuild will run.
func (a *AdaptiveIndex) triggerAsync(reason string, revalidate func() bool) {
	if a.closed.Load() {
		return
	}
	if !a.rebuilding.CompareAndSwap(false, true) {
		return
	}
	// Register with Quiesce before the goroutine exists: a Quiesce between
	// the CAS above and the goroutine's first instruction must still wait
	// for it (see TestAdaptiveQuiesceWaitsForTriggeredRebuild).
	a.asyncWG.Add(1)
	go func() {
		defer a.asyncWG.Done()
		a.rebuildMu.Lock()
		defer a.rebuildMu.Unlock()
		defer a.rebuilding.Store(false)
		if a.closed.Load() || !revalidate() {
			return
		}
		a.trace.Emit("trigger", -1, 0, a.triggerEvidence(reason))
		// Failures are recorded in the lifecycle health stats (LastError,
		// ConsecutiveFailures, NextRetryAt); background rebuilds have no
		// caller to return an error to.
		_ = a.rebuildLocked()
	}()
}

// triggerEvidence is a trigger event's detail: the reason, then what the
// decision saw — the baseline and recent CPR against the drift threshold,
// the reservoir's samples and the largest tree shard's key fraction.
func (a *AdaptiveIndex) triggerEvidence(reason string) string {
	st := a.ctl.Stats()
	return fmt.Sprintf("%s baseline_cpr=%.3f recent_cpr=%.3f threshold=%.2f samples=%d max_shard_frac=%.3f",
		reason, st.BuildCPR, st.RecentCPR, a.ctl.Config().DriftThreshold, st.Reservoir, a.MaxShardFrac())
}

// revalidateDrift re-checks the lifecycle's own signals (first build,
// drift) under rebuildMu; the controller gates them through the failure
// backoff itself.
func (a *AdaptiveIndex) revalidateDrift() bool { return a.ctl.Check() != lifecycle.None }

// revalidateSkew re-checks the skew trigger under rebuildMu.
func (a *AdaptiveIndex) revalidateSkew() bool {
	return a.skewExceeded() && a.ctl.ResplitAllowed()
}

// skewCheck implements the ResplitAbove trigger on Put's insert path: on
// the lifecycle's CheckEvery cadence, measure the serving partition's
// skew and ask the controller whether a re-split rebuild may run (Steady,
// cooldown elapsed, failure backoff expired).
func (a *AdaptiveIndex) skewCheck() bool {
	if a.opts.ResplitAbove <= 0 || a.opts.Partition != RangePartitioned || len(a.shards) < 2 {
		return false
	}
	if a.skewTick.Add(1)%int64(a.ctl.Config().CheckEvery) != 0 {
		return false
	}
	return a.skewExceeded() && a.ctl.ResplitAllowed()
}

// skewExceeded reports whether the serving generation's largest tree
// shard exceeds the ResplitAbove fraction. A population below one
// CheckEvery window never counts as skewed — a handful of keys on one
// shard is noise, not skew.
func (a *AdaptiveIndex) skewExceeded() bool {
	frac, total := a.cur.Load().idx.maxShardFrac()
	return total >= a.ctl.Config().CheckEvery && frac > a.opts.ResplitAbove
}

// MaxShardFrac returns the serving generation's largest tree-shard
// fraction (see ShardedIndex.MaxShardFrac) — the skew measure the
// ResplitAbove trigger acts on.
func (a *AdaptiveIndex) MaxShardFrac() float64 { return a.cur.Load().idx.MaxShardFrac() }

// sampleKeys draws up to capacity original keys from the serving
// generation by a walk that decodes only the keys it keeps, striding
// evenly so one shard's keys cannot dominate the sample.
func (a *AdaptiveIndex) sampleKeys(capacity int) ([][]byte, error) {
	g := a.cur.Load()
	live := g.idx.Len()
	if live == 0 || capacity <= 0 {
		return nil, nil
	}
	stride := (live + capacity - 1) / capacity
	var out [][]byte
	seen := 0
	for w := range g.idx.shards {
		err := g.walk(w, func(stored []byte, _ uint64) error {
			i := seen
			seen++
			if i%stride != 0 || len(out) == capacity {
				return nil
			}
			key, err := g.decode(nil, stored)
			out = append(out, key)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rebuildWatch is one rebuild's cancellation scoreboard. fire is
// idempotent and first-reason-wins: it records why, marks the watch
// cancelled, and closes the cancel channel (waking any interruptible
// stall blocked in the injector). Checkpoints observe the cancellation
// and surface the reason as the rebuild's error, so the abort-restore
// path always runs on the rebuilding goroutine — the watchdog and Close
// never mutate index state themselves.
type rebuildWatch struct {
	cancel    chan struct{}
	cancelled atomic.Bool
	lastBeat  atomic.Int64 // UnixNano of the most recent checkpoint
	reason    atomic.Value // error
	once      sync.Once
}

func (w *rebuildWatch) progress() { w.lastBeat.Store(time.Now().UnixNano()) }

func (w *rebuildWatch) fire(reason error) {
	w.once.Do(func() {
		w.reason.Store(reason)
		w.cancelled.Store(true)
		close(w.cancel)
	})
}

func (w *rebuildWatch) err() error {
	if !w.cancelled.Load() {
		return nil
	}
	return w.reason.Load().(error)
}

// checkpoint marks rebuild progress at a named point, fires the fault
// injector (its error is returned unwrapped, so tests can assert
// identity), and observes cancellation — from the watchdog
// (ErrMigrationTimeout) or Close (ErrClosed). It runs only on the
// rebuilding goroutine.
func (a *AdaptiveIndex) checkpoint(stage string, shard int) error {
	a.lastStage, a.lastShard = stage, shard
	w := a.watch.Load()
	if w != nil {
		w.progress()
	}
	if inj := a.injector; inj != nil {
		if err := inj.Fire(stage, shard); err != nil {
			return err
		}
	}
	if a.closed.Load() {
		return ErrClosed
	}
	if w != nil {
		return w.err()
	}
	return nil
}

// startWatchdog polices the in-flight rebuild: MigrationTimeout bounds
// the gap between checkpoints, RebuildDeadline the whole rebuild. On a
// violation it fires the watch with ErrMigrationTimeout and the next
// checkpoint aborts the rebuild. The returned stop function waits for
// the watchdog goroutine to exit.
func (a *AdaptiveIndex) startWatchdog(w *rebuildWatch) (stop func()) {
	progress, deadline := a.opts.MigrationTimeout, a.opts.RebuildDeadline
	if progress <= 0 && deadline <= 0 {
		return func() {}
	}
	start := time.Now()
	tick := time.Hour
	if progress > 0 && progress/4 < tick {
		tick = progress / 4
	}
	if deadline > 0 && deadline/4 < tick {
		tick = deadline / 4
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-ticker.C:
				wedged := progress > 0 && now.UnixNano()-w.lastBeat.Load() > int64(progress)
				overdue := deadline > 0 && now.Sub(start) > deadline
				if wedged || overdue {
					w.fire(ErrMigrationTimeout)
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}

// recoveredErr converts a recovered panic value into the typed
// *ErrRebuildPanic, attributing it to the last checkpoint passed and
// capturing the stack while the panicking frames are still live.
func (a *AdaptiveIndex) recoveredErr(r any) error {
	if e, ok := r.(*ErrRebuildPanic); ok {
		return e // already converted by an inner recover
	}
	return &ErrRebuildPanic{Stage: a.lastStage, Shard: a.lastShard, Value: r, Stack: debug.Stack()}
}

func (a *AdaptiveIndex) rebuildLocked() (err error) {
	if a.closed.Load() {
		return ErrClosed
	}
	if err := a.ctl.BeginBuild(); err != nil {
		return err
	}
	a.lastStage, a.lastShard = "build-start", -1
	w := &rebuildWatch{cancel: make(chan struct{})}
	w.progress()
	a.watch.Store(w)
	if ca, ok := a.injector.(fault.CancelAware); ok {
		ca.SetCancel(w.cancel)
	}
	stopWatchdog := a.startWatchdog(w)
	start := time.Now()
	var buildCPR float64
	var replayed int
	var pause time.Duration
	// Any failure from here on rolls the lifecycle back and feeds the
	// retry/breaker policy; any panic is isolated here (migrate's own
	// recovery has already cleared the change lists before the panic
	// converts to an error). The trace records the terminal event —
	// cutover on success; abort plus the resulting backoff or breaker
	// state on failure — so /debug/events tells the whole story.
	defer func() {
		if r := recover(); r != nil {
			err = a.recoveredErr(r)
		}
		stopWatchdog()
		a.watch.Store(nil)
		if err == nil {
			a.trace.Emit("cutover", -1, time.Since(start).Nanoseconds(),
				fmt.Sprintf("gen=%d cpr=%.3f replayed=%d pause_ns=%d", a.ctl.Generation(), buildCPR, replayed, pause.Nanoseconds()))
			return
		}
		a.trace.Emit("abort", a.lastShard, time.Since(start).Nanoseconds(), err.Error())
		_ = a.ctl.Abort()
		if !errors.Is(err, ErrClosed) {
			a.ctl.RecordFailure(err)
			st := a.ctl.Stats()
			if st.Degraded {
				a.trace.Emit("degraded", -1, 0, fmt.Sprintf("failures=%d", st.ConsecutiveFailures))
			} else {
				a.trace.Emit("backoff", -1, 0, fmt.Sprintf("failures=%d", st.ConsecutiveFailures))
			}
		}
	}()
	if err := a.checkpoint("build-start", -1); err != nil {
		return err
	}
	a.trace.Emit("build-start", -1, 0, "")
	samples := a.ctl.SampleSnapshot()
	if len(samples) == 0 {
		// A cutover resets the reservoir, so an explicit Rebuild issued
		// before new traffic arrives would have nothing to build from;
		// fall back to sampling the stored keys themselves.
		if samples, err = a.sampleKeys(a.ctl.Config().ReservoirSize); err != nil {
			return err
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("hope: rebuild of an empty index with an empty reservoir")
	}
	enc, err := core.Build(a.opts.Scheme, samples, a.opts.Build)
	if err != nil {
		return err
	}
	buildCPR = enc.CompressionRate(samples)
	a.trace.Emit("build-done", -1, time.Since(start).Nanoseconds(),
		fmt.Sprintf("cpr=%.3f samples=%d", buildCPR, len(samples)))
	// Range mode re-samples split points from the same reservoir snapshot
	// the dictionary is built from: the migration that re-encodes every
	// key also re-balances the partition to current traffic.
	var splits [][]byte
	if a.opts.Partition == RangePartitioned {
		splits = RangeSplits(samples, a.opts.Shards, splitSeed)
	}
	next, err := a.newGeneration(enc, splits)
	if err != nil {
		return err
	}
	if err := a.ctl.BeginMigration(); err != nil {
		return err
	}
	a.trace.Emit("migrate-start", -1, 0, "")
	if replayed, pause, err = a.migrate(next); err != nil {
		return err
	}
	return a.ctl.Cutover(buildCPR)
}

// migrate runs the protocol described on the type: change lists, walk,
// build, replay twice, flip. It reports how many logged writes the
// replays applied and how long the flip held every stripe lock. Any error
// — or any panic, recovered here so the change lists are cleared before
// the error propagates — drops next; the old generation was the only one
// written, so nothing is lost.
func (a *AdaptiveIndex) migrate(next *generation) (replayed int, pause time.Duration, err error) {
	old := a.cur.Load()
	a.next.Store(next)
	defer func() {
		if r := recover(); r != nil {
			err = a.recoveredErr(r)
		}
		if err != nil {
			for _, sh := range a.shards {
				withLock(sh, func() { sh.mig = nil })
			}
		}
		a.next.Store(nil)
	}()

	start := time.Now()
	for _, sh := range a.shards {
		withLock(sh, func() { sh.mig = &changeList{} })
	}
	// Walk the old tree shards in parallel, one decoded run each.
	runs := make([]walkRun, len(old.idx.shards))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for w := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[w], errs[w] = old.decodeShard(w)
		}()
	}
	wg.Wait()
	total := 0
	for _, r := range runs {
		total += len(r.ends)
	}
	keys, vals := make([][]byte, 0, total), make([]uint64, 0, total)
	for w := range runs {
		if errs[w] != nil {
			return 0, 0, errs[w]
		}
		if err := a.checkpoint("gathered", w); err != nil {
			return 0, 0, err
		}
		from := 0
		for _, end := range runs[w].ends {
			keys = append(keys, runs[w].arena[from:end:end])
			from = end
		}
		vals = append(vals, runs[w].vals...)
	}
	if err := next.idx.Bulk(keys, vals); err != nil {
		return 0, 0, err
	}
	a.trace.Emit("built", -1, time.Since(start).Nanoseconds(), fmt.Sprintf("keys=%d", len(keys)))
	if err := a.checkpoint("built", -1); err != nil {
		return 0, 0, err
	}

	// Pass one repeats while it keeps shrinking, so the all-locks flip is
	// left only what arrived during the last round.
	for prev := math.MaxInt; ; {
		n, err := a.replayPass(next)
		if err != nil {
			return 0, 0, err
		}
		replayed += n
		if n == 0 || n >= prev {
			break
		}
		prev = n
	}
	n, pause, err := a.flip(next)
	return replayed + n, pause, err
}

// replayPass is one round of replay pass one. It holds each stripe lock
// only to take the stripe's change list and replays it after the unlock,
// so writers keep flowing: only this goroutine touches next's trees, and
// it applies every round in order.
func (a *AdaptiveIndex) replayPass(next *generation) (replayed int, err error) {
	for i, sh := range a.shards {
		var c *changeList
		withLock(sh, func() { c, sh.mig = sh.mig, &changeList{} })
		if err := c.apply(i, next); err != nil {
			return 0, err
		}
		replayed += len(c.ops)
	}
	return replayed, nil
}

// flip is the migration's one stop-the-world step: with every stripe lock
// held it replays what arrived since the last round of pass one and makes
// next the serving generation. The unlocks are deferred so an injected panic
// cannot leak a lock on its way to migrate's recovery.
func (a *AdaptiveIndex) flip(next *generation) (replayed int, pause time.Duration, err error) {
	start := time.Now()
	for _, sh := range a.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range a.shards {
			sh.mu.Unlock()
		}
	}()
	for i, sh := range a.shards {
		if err := sh.mig.apply(i, next); err != nil {
			return 0, 0, err
		}
		replayed += len(sh.mig.ops)
		if err := a.checkpoint("mid-replay", i); err != nil {
			return 0, 0, err
		}
	}
	if err := a.checkpoint("cutover", -1); err != nil {
		return 0, 0, err
	}
	a.cur.Store(next)
	for _, sh := range a.shards {
		sh.mig = nil
	}
	return replayed, time.Since(start), nil
}

// withLock runs fn under sh's write lock, releasing it even if fn panics.
func withLock(sh *adaptiveShard, fn func()) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn()
}

// ---------------------------------------------------------------------------
// Scans: the serving generation's sharded scan, decoding what it emits.
// ---------------------------------------------------------------------------

// Scan visits, in ascending original-key order, every stored key k with
// lo <= k < hi (bounds in original key space; nil hi is unbounded) and
// returns how many keys it visited. fn receives the original key — valid
// only during the callback — and may stop the scan by returning false.
// Like ShardedIndex, a scan is per-shard consistent (chunk snapshots)
// rather than a global snapshot. A scan overlapping a cutover keeps
// reading the generation it started on, but re-validates every key it
// emits afterwards against the new serving generation — deletes and
// overwrites made after the cutover are honored
// (TestAdaptiveScanSurvivesCutover); only keys *inserted* after the
// cutover may be missed, matching the insert semantics of any chunked
// concurrent scan.
func (a *AdaptiveIndex) Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	t := a.met.scan.Begin(0)
	g := a.cur.Load()
	s := a.newScan(g, fn)
	g.idx.scan(lo, hi, s.visit)
	n := s.release()
	a.met.scan.End(t)
	return n
}

// ScanPrefix visits every stored key that starts with prefix, in
// ascending original-key order (see Scan for the callback contract): the
// scan of [prefix, prefixSuccessor(prefix)), as in Index.ScanPrefix.
func (a *AdaptiveIndex) ScanPrefix(prefix []byte, fn func(key []byte, val uint64) bool) int {
	t := a.met.scan.Begin(0)
	g := a.cur.Load()
	s := a.newScan(g, fn)
	g.idx.scanPrefix(prefix, s.visit)
	n := s.release()
	a.met.scan.End(t)
	return n
}

// adaptiveScan decodes the stored keys one scan of generation g emits
// into a reused buffer before handing them to the caller's callback.
// Scans are pooled, so a steady-state scan allocates nothing of its own.
type adaptiveScan struct {
	a     *AdaptiveIndex
	g     *generation
	fn    func(key []byte, val uint64) bool
	buf   []byte
	n     int
	visit func(stored []byte, val uint64) bool // bound once per pooled scan
}

var adaptiveScanPool = sync.Pool{New: func() any {
	s := new(adaptiveScan)
	s.visit = s.emit
	return s
}}

func (a *AdaptiveIndex) newScan(g *generation, fn func(key []byte, val uint64) bool) *adaptiveScan {
	s := adaptiveScanPool.Get().(*adaptiveScan)
	s.a, s.g, s.fn, s.n = a, g, fn, 0
	return s
}

// release returns the scan to the pool and reports how many keys it
// emitted.
func (s *adaptiveScan) release() int {
	n := s.n
	s.a, s.g, s.fn = nil, nil, nil
	adaptiveScanPool.Put(s)
	return n
}

func (s *adaptiveScan) emit(stored []byte, val uint64) bool {
	key, err := s.g.decode(s.buf[:0], stored)
	if err != nil {
		return false // the decode guard makes every stored key decodable
	}
	s.buf = key
	if cur := s.a.cur.Load(); cur != s.g {
		// A cutover retired g mid-scan: it no longer receives writes,
		// so take the key's value from the serving generation and drop
		// keys deleted there — a scan never resurrects a deleted key or
		// emits a stale value.
		var ok bool
		if val, ok = cur.idx.getShard(cur.idx.shardIdx(key), key); !ok {
			return true
		}
	}
	s.n++
	return s.fn(key, val)
}
