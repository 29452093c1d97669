package hope

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
// # Record store
//
// Search trees store only the padded encodings, and paddings make decoding
// ambiguous, so re-encoding under a new dictionary needs the original
// keys. The AdaptiveIndex therefore owns a per-shard, per-generation
// record store: trees map encoded keys to record ids, records hold the
// original key bytes and the caller's value. This mirrors how a DBMS
// integrates HOPE — the index entry points at a record that contains the
// full key — and it is what makes background re-encode possible at all.
// The memory cost (the original key bytes, retained) is the price of
// adaptivity; a DBMS would source them from its base table instead.
//
// Because the index owns original keys, scan callbacks receive the
// *original* key — unlike Index and ShardedIndex, which hand out stored
// encodings. Keys passed to callbacks are only valid during the callback.
//
// # Stripes versus tree shards
//
// The adaptive layer's unit of bookkeeping is the *stripe*: a fixed,
// generation-independent hash of the original key bytes (see shardHash)
// selects one adaptiveShard, whose lock guards that stripe's record slots
// in every generation. Each generation's ShardedIndex routes the same key
// to its *tree shards* by its own Partitioner — hash by default, or range
// with split points re-sampled from the lifecycle reservoir at every
// rebuild (AdaptiveOptions.Partition). Decoupling the two is what lets a
// rebuild change the key partition: records keep stable stripe-addressed
// ids while the trees re-balance underneath, so a drift migration doubles
// as shard re-balancing.
//
// # Migration protocol
//
// Exactly one generation serves at every instant; a rebuild builds the
// next one beside it and flips once. Every backend runs the same steps:
//
//   - Build the dictionary from a reservoir snapshot with no locks held.
//   - Gather: per stripe, under its lock, copy the live records into the
//     next generation's compacted record store (an old→new slot remap
//     remembers where each went) and start the stripe's change list,
//     which from then on logs every copied slot Put overwrites or Delete
//     kills.
//   - Build the next generation's trees off every lock with one Bulk:
//     EncodeAll, one sort of the compressed keys, a bottom-up BulkLoad.
//   - Replay, pass one: per stripe, under its own lock, apply the logged
//     changes to the copies and copy the slots appended since the gather;
//     the matching deletes and inserts into next's trees run after the
//     unlock. Pass one repeats while each round replays less than the
//     last.
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

	maxKeyLen atomic.Int64

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
	// captured as the build template (like NewShardedIndex) and must not
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

// generation is one dictionary era: a sharded tree whose values are
// record ids, plus the per-shard record stores those ids resolve through.
type generation struct {
	idx  *ShardedIndex
	enc  *core.Encoder            // build template (nil = uncompressed)
	cenc *core.ConcurrentEncoder  // bound translation for scans (nil = uncompressed)
	recs []generationShardRecords // one per shard, guarded by the adaptiveShard lock
}

type generationShardRecords struct {
	recs []record
	live int
}

// record holds one original key and the caller's value. Slots are
// append-only within a generation (ids stored in trees stay valid); dead
// slots are reclaimed when their generation is dropped at cutover — a
// rebuild doubles as compaction.
type record struct {
	key  []byte
	val  uint64
	dead bool
}

// adaptiveShard is one stripe. Its lock guards the stripe's record
// stores in every generation and, while a migration is in flight, the
// stripe's change list. Lock order: adaptiveShard.mu before any tree lock.
type adaptiveShard struct {
	mu  sync.RWMutex
	mig *stripeMigration // nil unless a migration is in flight
}

// stripeMigration is one stripe's share of an in-flight migration. The
// old generation's slots below horizon have been copied into the next
// generation: remap[s] is slot s's next-generation slot, -1 for a record
// that was already dead. changed lists the copied slots that Put
// overwrote or Delete killed since; the slots at and above horizon are
// the tail still to copy.
type stripeMigration struct {
	horizon int
	remap   []int32
	changed []int32
}

// logChange records that old slot's record changed, when the migration in
// flight has already copied it.
func (sh *adaptiveShard) logChange(slot int) {
	if m := sh.mig; m != nil && slot < m.horizon {
		m.changed = append(m.changed, int32(slot))
	}
}

// recordSize is what one record slot costs beside its key bytes: the
// slice header, value and dead flag, padded (40 bytes on 64-bit).
const recordSize = int(unsafe.Sizeof(record{}))

func recordID(shard, slot int) uint64 { return uint64(shard)<<32 | uint64(uint32(slot)) }
func slotOf(id uint64) int            { return int(uint32(id)) }

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
// exists — Bulk seeds it, or the first rebuild replaces it). The record
// stores are always stripe-indexed (opts.Shards stripes), regardless of
// how the partitioner lays out the trees.
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
	g := &generation{idx: idx, enc: enc, recs: make([]generationShardRecords, a.opts.Shards)}
	if enc != nil {
		g.cenc = core.NewConcurrentEncoder(enc.Clone())
	}
	return g, nil
}

// routeRecord routes a key whose stripe is already known to one
// generation's tree shard: for a hash-partitioned generation the tree
// shard IS the stripe (same FNV, same power-of-two count), so no hash is
// recomputed; range partitioners binary-search the key.
func routeRecord(g *generation, stripe int, key []byte) int {
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

func (a *AdaptiveIndex) trackLen(n int) {
	for {
		cur := a.maxKeyLen.Load()
		if int64(n) <= cur || a.maxKeyLen.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Put inserts or overwrites one key. An overwrite only updates the record
// the tree already points at; an insert appends a record. Either way the
// serving generation is resolved in a single pass — one encode, one
// tree-lock hold — through ShardedIndex.upsertShard. A migration in
// flight picks the change up from the stripe's change list or its tail.
func (a *AdaptiveIndex) Put(key []byte, val uint64) error {
	if a.closed.Load() {
		return ErrClosed
	}
	if a.backend == SuRF {
		return ErrImmutableBackend
	}
	a.trackLen(len(key))
	i := a.shardIdx(key)
	t := a.met.put.Begin(uint64(i))
	sh := a.shards[i]
	sh.mu.Lock()
	g := a.cur.Load()
	gr := &g.recs[i]
	existing, existed, storedLen, err := g.idx.upsertShard(routeRecord(g, i, key), key, recordID(i, len(gr.recs)))
	switch {
	case err != nil:
	case existed:
		gr.recs[slotOf(existing)].val = val
		sh.logChange(slotOf(existing))
	default:
		gr.recs = append(gr.recs, record{key: append([]byte(nil), key...), val: val})
		gr.live++
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

// Get returns the value stored under key in the serving generation.
func (a *AdaptiveIndex) Get(key []byte) (uint64, bool) {
	i := a.shardIdx(key)
	t := a.met.get.Begin(uint64(i))
	defer a.met.get.End(t)
	sh := a.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	g := a.cur.Load()
	id, ok := g.idx.getShard(routeRecord(g, i, key), key)
	if !ok {
		return 0, false
	}
	r := &g.recs[i].recs[slotOf(id)]
	if r.dead {
		return 0, false
	}
	return r.val, true
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
	var err error
	sh.mu.Lock()
	g := a.cur.Load()
	t := routeRecord(g, i, key)
	id, found := g.idx.getShard(t, key)
	if found {
		g.recs[i].recs[slotOf(id)].dead = true
		g.recs[i].live--
		sh.logChange(slotOf(id))
		_, err = g.idx.deleteShard(t, key)
	}
	sh.mu.Unlock()
	a.met.del.End(mt)
	if err != nil {
		return false, err
	}
	return found, nil
}

// Len returns the number of live keys.
func (a *AdaptiveIndex) Len() int {
	n := 0
	for i, sh := range a.shards {
		sh.mu.RLock()
		n += a.cur.Load().recs[i].live
		sh.mu.RUnlock()
	}
	return n
}

// MemoryUsage returns the modeled footprint in bytes: the serving
// generation's trees and dictionary — and a migrating next generation's —
// plus the record store (original keys and per-record overhead): the
// honest total, since the record store is what buys background re-encode.
func (a *AdaptiveIndex) MemoryUsage() int {
	gens := []*generation{a.cur.Load()}
	if next := a.next.Load(); next != nil {
		gens = append(gens, next)
	}
	m := 0
	for _, g := range gens {
		m += g.idx.MemoryUsage()
	}
	for i, sh := range a.shards {
		sh.mu.RLock()
		for _, g := range gens {
			for _, r := range g.recs[i].recs {
				m += len(r.key) + recordSize
			}
		}
		sh.mu.RUnlock()
	}
	return m
}

// Bulk loads keys[i] -> vals[i] (nil vals assigns positions). It is the
// only way to populate a SuRF-backed index, and the fast path for an
// initial load elsewhere; on a non-empty mutable index it degrades to a
// Put loop (overwrite semantics). Bulk excludes rebuilds for its
// duration and must not run concurrently with other writers.
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
	// Stop-the-world load: lock every shard, append records, bulk-load the
	// trees through the parallel encode pipeline, release. For SuRF this
	// replaces the whole contents (the backend rebuilds its filter over
	// exactly the new run).
	for _, sh := range a.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range a.shards {
			sh.mu.Unlock()
		}
	}()
	g := a.cur.Load()
	if a.backend == SuRF {
		for i := range g.recs {
			g.recs[i] = generationShardRecords{}
		}
	}
	// One record per input position: each stripe appends its keys' records
	// in input order, their key bytes copied into one arena per stripe.
	stripeOf := make([][]int, len(a.shards))
	maxLen := 0
	for i, k := range keys {
		w := a.shardIdx(k)
		stripeOf[w] = append(stripeOf[w], i)
		maxLen = max(maxLen, len(k))
	}
	a.trackLen(maxLen)
	ids := make([]uint64, len(keys))
	base := make([]int, len(a.shards))
	var wg sync.WaitGroup
	for w, pos := range stripeOf {
		base[w] = len(g.recs[w].recs)
		if len(pos) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, pos []int) {
			defer wg.Done()
			sk := make([][]byte, len(pos))
			for j, i := range pos {
				sk[j] = keys[i]
			}
			owned := copyAll(sk)
			gr := &g.recs[w]
			gr.recs = slices.Grow(gr.recs, len(pos))
			for j, i := range pos {
				v := uint64(i)
				if vals != nil {
					v = vals[i]
				}
				ids[i] = recordID(w, len(gr.recs))
				gr.recs = append(gr.recs, record{key: owned[j], val: v})
			}
			gr.live += len(pos)
		}(w, pos)
	}
	wg.Wait()
	if err := g.idx.Bulk(keys, ids); err != nil {
		return false, err
	}
	// A record is live iff its tree maps its key to its id. The tree kept
	// the last position of a duplicated key (last write wins, as a Put
	// loop would), so only inputs with duplicates leave records to retire.
	if g.idx.Len() == len(keys) {
		return false, nil
	}
	for w, pos := range stripeOf {
		gr := &g.recs[w]
		for slot := base[w]; slot < base[w]+len(pos); slot++ {
			r := &gr.recs[slot]
			if id, ok := g.idx.getShard(routeRecord(g, w, r.key), r.key); !ok || id != recordID(w, slot) {
				r.dead = true
				gr.live--
			}
		}
	}
	return false, nil
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
	a.trace.Emit("trigger", -1, 0, "explicit")
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
		a.trace.Emit("trigger", -1, 0, reason)
		// Failures are recorded in the lifecycle health stats (LastError,
		// ConsecutiveFailures, NextRetryAt); background rebuilds have no
		// caller to return an error to.
		_ = a.rebuildLocked()
	}()
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

// sampleRecords draws up to capacity live original keys from the
// authoritative generation's record store, striding evenly so one shard's
// keys cannot dominate the sample.
func (a *AdaptiveIndex) sampleRecords(capacity int) [][]byte {
	live := a.Len()
	if live == 0 || capacity <= 0 {
		return nil
	}
	stride := (live + capacity - 1) / capacity
	var out [][]byte
	seen := 0
	for i, sh := range a.shards {
		sh.mu.RLock()
		for _, r := range a.cur.Load().recs[i].recs {
			if r.dead {
				continue
			}
			if seen%stride == 0 && len(out) < capacity {
				out = append(out, append([]byte(nil), r.key...))
			}
			seen++
		}
		sh.mu.RUnlock()
	}
	return out
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
		// fall back to sampling the live records themselves.
		samples = a.sampleRecords(a.ctl.Config().ReservoirSize)
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
	// record also re-balances the partition to current traffic.
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

// migrate runs the protocol described on the type: gather, build, replay
// twice, flip. It reports how many slots the replays applied and how long
// the flip held every stripe lock. Any error — or any panic, recovered
// here so the change lists are cleared before the error propagates —
// drops next; the old generation was the only one written, so nothing
// is lost.
func (a *AdaptiveIndex) migrate(next *generation) (replayed int, pause time.Duration, err error) {
	old := a.cur.Load()
	a.next.Store(next)
	defer func() {
		if r := recover(); r != nil {
			err = a.recoveredErr(r)
		}
		if err != nil {
			for _, sh := range a.shards {
				sh.mu.Lock()
				sh.mig = nil
				sh.mu.Unlock()
			}
		}
		a.next.Store(nil)
	}()

	start := time.Now()
	total := 0
	for i, sh := range a.shards {
		// Size the copies under the read lock and allocate them before
		// taking the write lock, which then covers the copy alone.
		sh.mu.RLock()
		slots, live := len(old.recs[i].recs), old.recs[i].live
		sh.mu.RUnlock()
		m := &stripeMigration{remap: make([]int32, 0, slots)}
		recs := make([]record, 0, live)
		withLock(sh, func() {
			sh.mig, next.recs[i].recs = m, recs
			copyTail(i, old, next, m)
		})
		total += len(next.recs[i].recs)
		if err := a.checkpoint("gathered", i); err != nil {
			return 0, 0, err
		}
	}
	keys, ids := make([][]byte, 0, total), make([]uint64, 0, total)
	for i := range a.shards {
		for slot, r := range next.recs[i].recs {
			keys = append(keys, r.key)
			ids = append(ids, recordID(i, slot))
		}
	}
	if err := next.idx.Bulk(keys, ids); err != nil {
		return 0, 0, err
	}
	a.trace.Emit("built", -1, time.Since(start).Nanoseconds(), fmt.Sprintf("keys=%d", len(keys)))
	if err := a.checkpoint("built", -1); err != nil {
		return 0, 0, err
	}

	// Pass one repeats while it keeps shrinking, so the all-locks flip is
	// left only what arrived during the last round.
	for prev := math.MaxInt; ; {
		n, err := a.replayPass(old, next)
		if err != nil {
			return 0, 0, err
		}
		replayed += n
		if n == 0 || n >= prev {
			break
		}
		prev = n
	}
	n, pause, err := a.flip(old, next)
	return replayed + n, pause, err
}

// replayPass is one round of replay pass one. It holds each stripe lock
// only to bring that stripe's record store up to date and does the tree
// work after the unlock, so writers keep flowing: only this goroutine
// touches next's trees, and it applies every round in order.
func (a *AdaptiveIndex) replayPass(old, next *generation) (replayed int, err error) {
	for i, sh := range a.shards {
		var rp stripeReplay
		withLock(sh, func() { rp = replay(i, old, next, sh.mig) })
		if err := rp.apply(i, next); err != nil {
			return 0, err
		}
		replayed += rp.n
	}
	return replayed, nil
}

// flip is the migration's one stop-the-world step: with every stripe lock
// held it replays what arrived since the last round of pass one and makes
// next the serving generation. The unlocks are deferred so an injected panic
// cannot leak a lock on its way to migrate's recovery.
func (a *AdaptiveIndex) flip(old, next *generation) (replayed int, pause time.Duration, err error) {
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
		rp := replay(i, old, next, sh.mig)
		if err := rp.apply(i, next); err != nil {
			return 0, 0, err
		}
		replayed += rp.n
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

// stripeReplay is one replay pass over one stripe: how many slots it
// replayed, the keys whose copies it killed, and the slots [from, to) it
// appended to the next generation's record store.
type stripeReplay struct {
	n        int
	dead     [][]byte
	from, to int
}

// replay brings stripe i of next's record store up to date with old:
// logged changes first, then the tail. The matching tree work is left to
// stripeReplay.apply.
func replay(i int, old, next *generation, m *stripeMigration) stripeReplay {
	rp := stripeReplay{n: len(m.changed) + len(old.recs[i].recs) - m.horizon}
	dst := &next.recs[i]
	for _, s := range m.changed {
		r, nr := &old.recs[i].recs[s], &dst.recs[m.remap[s]]
		if !r.dead {
			nr.val = r.val
		} else if !nr.dead {
			nr.dead = true
			dst.live--
			rp.dead = append(rp.dead, nr.key)
		}
	}
	m.changed = m.changed[:0]
	rp.from = copyTail(i, old, next, m)
	rp.to = len(dst.recs)
	return rp
}

// apply makes rp's changes to next's trees: deletes first, so a key
// deleted and put again since the last pass loses its stale entry before
// its new record is inserted.
func (rp stripeReplay) apply(i int, next *generation) error {
	for _, k := range rp.dead {
		if _, err := next.idx.deleteShard(routeRecord(next, i, k), k); err != nil {
			return err
		}
	}
	for slot := rp.from; slot < rp.to; slot++ {
		key := next.recs[i].recs[slot].key
		if _, err := next.idx.putShard(routeRecord(next, i, key), key, recordID(i, slot)); err != nil {
			return err
		}
	}
	return nil
}

// copyTail copies stripe i's old slots from the horizon on into next's
// record store — live records only, compacted — advances the horizon, and
// returns the first slot it filled in next.
func copyTail(i int, old, next *generation, m *stripeMigration) int {
	src, dst := old.recs[i].recs, &next.recs[i]
	first := len(dst.recs)
	for _, r := range src[m.horizon:] {
		if r.dead {
			m.remap = append(m.remap, -1)
			continue
		}
		m.remap = append(m.remap, int32(len(dst.recs)))
		dst.recs = append(dst.recs, record{key: r.key, val: r.val})
	}
	dst.live += len(dst.recs) - first
	m.horizon = len(src)
	return first
}

// ---------------------------------------------------------------------------
// Scans: per-tree-shard cursors over the serving generation, merged in
// original-key order.
// ---------------------------------------------------------------------------

// Scan visits, in ascending original-key order, every stored key k with
// lo <= k < hi (bounds in original key space; nil hi is unbounded) and
// returns how many keys it visited. fn receives the original key — valid
// only during the callback — and may stop the scan by returning false.
// Like ShardedIndex, a scan is per-shard consistent (chunk snapshots)
// rather than a global snapshot. A scan overlapping a cutover keeps its
// cursors on the generation it started on but re-validates every later
// chunk against the new serving generation — deletes and overwrites
// made after the cutover are honored (TestAdaptiveScanSurvivesCutover);
// only keys *inserted* after the cutover may be missed for shards not yet
// reached, matching the insert semantics of any chunked concurrent scan.
func (a *AdaptiveIndex) Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	t := a.met.scan.Begin(0)
	g := a.cur.Load()
	if g.cenc != nil {
		loEnc := g.cenc.EncodeBound(lo)
		if loEnc == nil {
			loEnc = []byte{}
		}
		lo, hi = loEnc, g.cenc.EncodeBound(hi)
	}
	n := a.mergeScan(g, lo, hi, false, fn)
	a.met.scan.End(t)
	return n
}

// ScanPrefix visits every stored key that starts with prefix, in
// ascending original-key order (see Scan for the callback contract).
// Bound translation follows Index.ScanPrefix: exact lower bound,
// interval-ceiling upper bound.
func (a *AdaptiveIndex) ScanPrefix(prefix []byte, fn func(key []byte, val uint64) bool) int {
	t := a.met.scan.Begin(0)
	g := a.cur.Load()
	var n int
	if g.cenc == nil {
		n = a.mergeScan(g, prefix, prefixSuccessor(prefix), false, fn)
	} else {
		lo, hi := g.cenc.EncodePrefix(prefix, max(int(a.maxKeyLen.Load()), len(prefix)))
		n = a.mergeScan(g, lo, hi, true, fn)
	}
	a.met.scan.End(t)
	return n
}

// mergeScan drains generation g's tree shards over encoded bounds [lo, hi)
// (or [lo, hi] when hiIncl), one cursor per shard g's partitioner says can
// overlap them (range partitions prune; hash partitions span everything).
func (a *AdaptiveIndex) mergeScan(g *generation, lo, hi []byte, hiIncl bool, fn func(key []byte, val uint64) bool) int {
	first, last, ok := g.idx.scanSpan(lo, hi)
	if !ok {
		first, last = 0, len(g.idx.shards)-1
	}
	cursors := make([]*adaptiveCursor, 0, last-first+1)
	for w := first; w <= last; w++ {
		cursors = append(cursors, &adaptiveCursor{
			a: a, g: g, tshard: w,
			from: append([]byte(nil), lo...), hi: hi, hiIncl: hiIncl,
		})
	}

	// An ordered (range) partition's cursors cover disjoint ascending
	// intervals — stream them in shard order with no merge and no heap,
	// the same fast path as ShardedIndex.orderedScan.
	if g.idx.part.Ordered() {
		count := 0
		for _, c := range cursors {
			for {
				k, ok := c.peek()
				if !ok {
					break
				}
				_, v := c.pop()
				count++
				if !fn(k, v) {
					return count
				}
			}
		}
		return count
	}

	heap := make([]*adaptiveCursor, 0, len(cursors))
	for _, c := range cursors {
		if _, ok := c.peek(); ok {
			heap = append(heap, c)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i, adaptiveCursorLess)
	}
	count := 0
	for len(heap) > 0 {
		k, v := heap[0].pop()
		count++
		if !fn(k, v) {
			return count
		}
		if _, ok := heap[0].peek(); ok {
			siftDown(heap, 0, adaptiveCursorLess)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) > 0 {
				siftDown(heap, 0, adaptiveCursorLess)
			}
		}
	}
	return count
}

// adaptiveCursor drains one tree shard of one generation in chunks. A
// fill is two phases with distinct lock domains: phase one drains a chunk
// of record ids from the tree under the tree-shard lock (record stores
// are guarded by stripe locks, which rank above tree locks — resolving
// inside the tree callback would invert the order); phase two resolves
// each id to (original key, live value) under its stripe's read lock.
// Emitted keys alias record storage — record key bytes are immutable for
// the record's lifetime — and are only valid during the scan callback.
// The encoded resume key (lastKey+0x00) tracks tree positions, including
// ones whose records died mid-scan.
type adaptiveCursor struct {
	a      *AdaptiveIndex
	g      *generation
	tshard int // tree shard within g's index
	from   []byte
	hi     []byte // shared, read-only
	hiIncl bool

	ids     []uint64
	keys    [][]byte // resolved original keys (alias record memory)
	vals    []uint64
	i       int
	chunk   int
	done    bool
	lastEnc []byte // reused resume scratch
}

func (c *adaptiveCursor) fill() {
	c.keys, c.vals, c.i = c.keys[:0], c.vals[:0], 0
	if c.done {
		return
	}
	if c.chunk == 0 {
		c.chunk = scanChunkInit
	}
	// Phase 1: one locked pass over the tree shard, ids only.
	n := 0
	c.ids = c.ids[:0]
	last := c.lastEnc[:0]
	c.g.idx.scanShard(c.tshard, c.from, c.hi, c.hiIncl, func(ek []byte, id uint64) bool {
		n++
		last = append(last[:0], ek...)
		c.ids = append(c.ids, id)
		return n < c.chunk
	})
	c.lastEnc = last
	if n < c.chunk {
		c.done = true
	} else {
		c.from = append(append(c.from[:0], last...), 0x00)
		if c.chunk < scanChunk {
			c.chunk *= 2
		}
	}
	// Phase 2: resolve ids against the record stores. The stripe lock is
	// held across runs of same-stripe ids — for a hash-partitioned
	// generation every id in this tree shard shares one stripe (tree
	// routing IS the stripe hash), so the whole chunk resolves under a
	// single lock hold; range-partitioned generations interleave stripes
	// and pay a lock transition per run.
	var sh *adaptiveShard
	var cur *generation
	curStripe := -1
	for _, id := range c.ids {
		stripe, slot := int(id>>32), slotOf(id)
		if stripe != curStripe {
			if sh != nil {
				sh.mu.RUnlock()
			}
			curStripe = stripe
			sh = c.a.shards[stripe]
			sh.mu.RLock()
			cur = c.a.cur.Load()
		}
		if cur == c.g {
			r := &c.g.recs[stripe].recs[slot]
			if !r.dead {
				c.keys = append(c.keys, r.key)
				c.vals = append(c.vals, r.val)
			}
			continue
		}
		// A cutover completed mid-scan: the cursor's generation no longer
		// receives writes, so its trees and records are frozen, and
		// deletes and overwrites land only in the serving generation.
		// Re-validate against it: drop keys it no longer holds and take
		// its values, so the scan never resurrects a deleted key or emits
		// a stale value. (Entries buffered in a previous chunk are a
		// snapshot, the same per-chunk semantics as ShardedIndex.)
		k := c.g.recs[stripe].recs[slot].key
		id2, ok := cur.idx.getShard(routeRecord(cur, stripe, k), k)
		if ok {
			if r2 := &cur.recs[stripe].recs[slotOf(id2)]; !r2.dead {
				c.keys = append(c.keys, r2.key)
				c.vals = append(c.vals, r2.val)
			}
		}
	}
	if sh != nil {
		sh.mu.RUnlock()
	}
}

// peek returns the cursor's current original key, refilling (and skipping
// all-dead or all-filtered chunks) as needed; ok is false when the shard
// is exhausted.
func (c *adaptiveCursor) peek() ([]byte, bool) {
	for c.i >= len(c.keys) {
		if c.done {
			return nil, false
		}
		c.fill()
	}
	return c.keys[c.i], true
}

func (c *adaptiveCursor) pop() ([]byte, uint64) {
	k, v := c.keys[c.i], c.vals[c.i]
	c.i++
	return k, v
}

// adaptiveCursorLess orders cursors by current original key. Ties cannot
// occur: one generation's tree shards partition the keyspace.
func adaptiveCursorLess(a, b *adaptiveCursor) bool {
	return bytes.Compare(a.keys[a.i], b.keys[b.i]) < 0
}
