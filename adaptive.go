package hope

import (
	"bytes"
	"errors"
	"fmt"
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
// baseline (or on an explicit Rebuild), and (3) migrates the stored
// entries into the new generation incrementally — per-shard, per-batch —
// while reads and writes keep flowing. The lifecycle state machine
// (Sampling → Building → Migrating → Steady, with drift rebuilds looping
// back through Building) lives in internal/lifecycle; this type is the
// data plane.
//
// # Record store
//
// Search trees store only the padded encodings, and paddings make decoding
// ambiguous, so re-encoding under a new dictionary needs the original
// keys. The AdaptiveIndex therefore owns a per-shard, per-generation
// record store: trees map encoded keys to record ids, records hold the
// original key bytes and the caller's value. This mirrors how a DBMS
// integrates HOPE — the index entry points at a record that contains the
// full key — and it is what makes background re-encode and
// cross-generation scan merging possible at all. The memory cost (the
// original key bytes, retained) is the price of adaptivity; a DBMS would
// source them from its base table instead.
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
// in every generation and whose read/write pointers are the generation
// map. Each generation's ShardedIndex routes the same key to its *tree
// shards* by its own Partitioner — hash by default, or range with split
// points re-sampled from the lifecycle reservoir at every rebuild
// (AdaptiveOptions.Partition). Decoupling the two is what lets a rebuild
// change the key partition: records keep stable stripe-addressed ids
// while the trees re-balance underneath, so a drift migration doubles as
// shard re-balancing.
//
// # Migration protocol
//
// Stripe routing is identical in every generation (it never consults a
// dictionary or a partitioner), so one generation map per stripe
// suffices:
//
//   - Rebuild builds the new dictionary from a reservoir snapshot with no
//     locks held, then enters migration: every shard starts dual-writing
//     (writes apply to the old and new generations; reads stay on the
//     old).
//   - A background pass copies each shard's live records into the new
//     generation in bounded batches under the shard lock (writers to that
//     shard wait for at most one batch; all other shards flow). Records
//     appended after migration start need no copy — dual-writing already
//     landed them in both generations.
//   - As each shard finishes, its reads flip to the new generation; both
//     generations keep receiving writes, so a mid-migration index serves
//     some shards from each generation and scans merge old- and
//     new-generation cursors (the record store supplies original keys, the
//     only order the two dictionaries share).
//   - When every shard has flipped, the cutover drops the old generation.
//     Until that instant the old generation has seen every write, so an
//     abort — a failed build, a fault injected by tests — simply points
//     every shard back at it, intact.
//
// The bulk-only SuRF backend cannot dual-write; its rebuild takes the
// stop-the-world path: all shards lock, live records bulk-load into the
// new generation, and the swap is atomic.
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

	// genMu guards the generation pointers (ops never touch them — they
	// go through the per-shard generation map).
	genMu sync.Mutex
	cur   *generation
	next  *generation

	migrated atomic.Int32 // shards flipped in the current migration

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
	// MigrationBatch bounds how many records one migration step copies
	// while holding a shard's lock (default 512) — the writer-visible
	// pause ceiling.
	MigrationBatch int
	// MigrationTimeout is the watchdog's progress bound: a rebuild that
	// makes no checkpoint progress (build start, migration batch, shard
	// flip, cutover) for this long is cancelled and aborts with
	// ErrMigrationTimeout, restoring the old generation. It should
	// comfortably exceed the dictionary build time and one migration
	// batch. 0 disables the watchdog's progress check.
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

// AdaptiveStats is a point-in-time snapshot of the lifecycle and
// migration progress.
type AdaptiveStats struct {
	lifecycle.Stats
	Backend        Backend
	Shards         int
	Partition      PartitionMode
	MigratedShards int // shards flipped in the in-flight migration (0 when steady)
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

// adaptiveShard is one stripe of the generation map: which generation
// serves this shard's reads, and which generation(s) — old first — its
// writes apply to. The lock also guards both generations' record stores
// for this shard. Lock order: adaptiveShard.mu before any tree lock.
type adaptiveShard struct {
	mu    sync.RWMutex
	read  *generation
	write []*generation
}

// recordSize is what one record slot costs beside its key bytes: the
// slice header, value and dead flag, padded (40 bytes on 64-bit).
const recordSize = int(unsafe.Sizeof(record{}))

func recordID(shard, slot int) uint64 { return uint64(shard)<<32 | uint64(uint32(slot)) }
func slotOf(id uint64) int            { return int(uint32(id)) }

// NewAdaptiveIndex builds an adaptive index over the named backend. With
// opts.Encoder nil the index starts in the Sampling state, serving
// uncompressed until enough keys arrived for the first dictionary.
//
// Deprecated: use Open(backend, WithAdaptive(opts)), which returns the
// same index behind the unified Store interface.
func NewAdaptiveIndex(backend Backend, opts AdaptiveOptions) (*AdaptiveIndex, error) {
	return newAdaptiveIndexWithSplits(backend, opts, nil)
}

// newAdaptiveIndexWithSplits is the constructor proper. splits, when
// non-nil, seed generation 0's range partitioner — the restore path hands
// back the persisted split points so the restored trees keep the dumped
// partition instead of starting unseeded.
func newAdaptiveIndexWithSplits(backend Backend, opts AdaptiveOptions, splits [][]byte) (*AdaptiveIndex, error) {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards()
	}
	opts.Shards = ceilPow2(opts.Shards)
	if opts.MigrationBatch <= 0 {
		opts.MigrationBatch = 512
	}
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
	a.cur = gen
	for i := range a.shards {
		a.shards[i] = &adaptiveShard{read: gen, write: []*generation{gen}}
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

// genShard routes a key to one generation's tree shard, reusing the
// stripe hash the caller already computed when the generation is
// hash-partitioned (the common case pays no second hash).
func genShard(g *generation, key []byte, h uint64) int {
	if hp, ok := g.idx.part.(*HashPartitioner); ok {
		return hp.shardOfHash(h)
	}
	return g.idx.part.Shard(key)
}

// routeRecord routes a record whose stripe is already known: for a
// hash-partitioned generation the tree shard IS the stripe (same FNV,
// same power-of-two count), so no hash at all is recomputed; range
// partitioners binary-search the key.
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
// encoder — the one every shard's authoritative writes run through.
func (a *AdaptiveIndex) Encoder() *core.Encoder {
	a.genMu.Lock()
	defer a.genMu.Unlock()
	return a.cur.enc
}

// Stats snapshots the lifecycle counters and migration progress.
func (a *AdaptiveIndex) Stats() AdaptiveStats {
	return AdaptiveStats{
		Stats:          a.ctl.Stats(),
		Backend:        a.backend,
		Shards:         len(a.shards),
		Partition:      a.opts.Partition,
		MigratedShards: int(a.migrated.Load()),
	}
}

// ShardLens returns the serving generation's per-tree-shard key counts —
// the partition's skew profile (see ShardedIndex.ShardLens). After a
// range-mode rebuild this reflects the re-sampled split points.
func (a *AdaptiveIndex) ShardLens() []int {
	a.genMu.Lock()
	idx := a.cur.idx
	a.genMu.Unlock()
	return idx.ShardLens()
}

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
// (both generations' trees already point at it); an insert appends a
// record and inserts into every write generation, so a migration in
// flight never loses it. Each generation is resolved in a single pass —
// one encode, one tree-lock hold — through ShardedIndex.upsertShard: the
// presence probe and the insert-if-absent share the work the old
// probe-then-put sequence paid twice.
func (a *AdaptiveIndex) Put(key []byte, val uint64) error {
	if a.closed.Load() {
		return ErrClosed
	}
	if a.backend == SuRF {
		return ErrImmutableBackend
	}
	a.trackLen(len(key))
	h := shardHash(key)
	i := int(h & a.mask)
	t := a.met.put.Begin(uint64(i))
	sh := a.shards[i]
	storedLen, inserted := 0, false
	sh.mu.Lock()
	for gi, g := range sh.write {
		slot := len(g.recs[i].recs)
		existing, existed, n, err := g.idx.upsertShard(genShard(g, key, h), key, recordID(i, slot))
		if err != nil {
			sh.mu.Unlock()
			a.met.put.End(t)
			return err
		}
		if existed {
			g.recs[i].recs[slotOf(existing)].val = val
			continue
		}
		g.recs[i].recs = append(g.recs[i].recs, record{key: append([]byte(nil), key...), val: val})
		g.recs[i].live++
		if gi == 0 {
			storedLen, inserted = n, true
		}
	}
	sh.mu.Unlock()
	a.met.put.End(t)
	if inserted {
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

// Get returns the value stored under key, consulting the shard's read
// generation.
func (a *AdaptiveIndex) Get(key []byte) (uint64, bool) {
	h := shardHash(key)
	i := int(h & a.mask)
	t := a.met.get.Begin(uint64(i))
	defer a.met.get.End(t)
	sh := a.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	g := sh.read
	id, ok := g.idx.getShard(genShard(g, key, h), key)
	if !ok {
		return 0, false
	}
	r := &g.recs[i].recs[slotOf(id)]
	if r.dead {
		return 0, false
	}
	return r.val, true
}

// Delete removes key from every write generation, reporting whether it
// was present.
func (a *AdaptiveIndex) Delete(key []byte) (bool, error) {
	if a.closed.Load() {
		return false, ErrClosed
	}
	if a.backend == SuRF {
		return false, ErrImmutableBackend
	}
	h := shardHash(key)
	i := int(h & a.mask)
	mt := a.met.del.Begin(uint64(i))
	sh := a.shards[i]
	found := false
	sh.mu.Lock()
	for gi, g := range sh.write {
		t := genShard(g, key, h)
		id, ok := g.idx.getShard(t, key)
		if ok {
			g.recs[i].recs[slotOf(id)].dead = true
			g.recs[i].live--
			if _, err := g.idx.deleteShard(t, key); err != nil {
				sh.mu.Unlock()
				a.met.del.End(mt)
				return false, err
			}
		}
		if gi == 0 {
			found = ok
		}
	}
	sh.mu.Unlock()
	a.met.del.End(mt)
	return found, nil
}

// Len returns the number of live keys (authoritative generation).
func (a *AdaptiveIndex) Len() int {
	n := 0
	for i, sh := range a.shards {
		sh.mu.RLock()
		n += sh.write[0].recs[i].live
		sh.mu.RUnlock()
	}
	return n
}

// MemoryUsage returns the modeled footprint in bytes: every serving
// generation's trees and dictionary, plus the record store (original keys
// and per-record overhead) — the honest total, since the record store is
// what buys background re-encode.
func (a *AdaptiveIndex) MemoryUsage() int {
	a.genMu.Lock()
	gens := []*generation{a.cur}
	if a.next != nil {
		gens = append(gens, a.next)
	}
	a.genMu.Unlock()
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
	g := a.shards[0].write[0]
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
// until the cutover (or the abort) completes. Traffic keeps flowing on
// mutable backends; the SuRF backend rebuilds stop-the-world. The drift
// detector triggers this same path automatically unless opts.Manual.
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
	a.genMu.Lock()
	idx := a.cur.idx
	a.genMu.Unlock()
	frac, total := idx.maxShardFrac()
	return total >= a.ctl.Config().CheckEvery && frac > a.opts.ResplitAbove
}

// MaxShardFrac returns the serving generation's largest tree-shard
// fraction (see ShardedIndex.MaxShardFrac) — the skew measure the
// ResplitAbove trigger acts on.
func (a *AdaptiveIndex) MaxShardFrac() float64 {
	a.genMu.Lock()
	idx := a.cur.idx
	a.genMu.Unlock()
	return idx.MaxShardFrac()
}

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
		for _, r := range sh.write[0].recs[i].recs {
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
	// Any failure from here on rolls the lifecycle back and feeds the
	// retry/breaker policy; any panic is isolated here (the shard maps
	// were already restored by migrateConcurrent's own recovery before
	// the panic converts to an error). The trace records the terminal
	// event — cutover on success; abort plus the resulting backoff or
	// breaker state on failure — so /debug/events tells the whole story.
	defer func() {
		if r := recover(); r != nil {
			err = a.recoveredErr(r)
		}
		stopWatchdog()
		a.watch.Store(nil)
		if err == nil {
			a.trace.Emit("cutover", -1, time.Since(start).Nanoseconds(),
				fmt.Sprintf("gen=%d cpr=%.3f", a.ctl.Generation(), buildCPR))
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
	if a.backend == SuRF {
		a.trace.Emit("migrate-start", -1, 0, "stop-the-world")
		err = a.migrateStopTheWorld(next)
	} else {
		a.trace.Emit("migrate-start", -1, 0, "concurrent")
		err = a.migrateConcurrent(next)
	}
	if err != nil {
		return err
	}
	return a.ctl.Cutover(buildCPR)
}

// migrateConcurrent runs the incremental protocol described on the type:
// dual-write everywhere, copy per shard in batches, flip reads per shard,
// cut over when all shards flipped. Any error — or any panic, recovered
// here so the restore runs before the error propagates — aborts by
// pointing every shard back at the old generation, which saw every write
// throughout.
func (a *AdaptiveIndex) migrateConcurrent(next *generation) (err error) {
	a.genMu.Lock()
	old := a.cur
	a.next = next
	a.genMu.Unlock()
	a.migrated.Store(0)

	defer func() {
		if r := recover(); r != nil {
			err = a.recoveredErr(r)
		}
		if err == nil {
			return
		}
		for _, sh := range a.shards {
			sh.mu.Lock()
			sh.read = old
			sh.write = []*generation{old}
			sh.mu.Unlock()
		}
		a.genMu.Lock()
		a.next = nil
		a.genMu.Unlock()
		a.migrated.Store(0)
	}()

	for _, sh := range a.shards {
		sh.mu.Lock()
		sh.write = []*generation{old, next}
		sh.mu.Unlock()
	}
	for i := range a.shards {
		copyStart := time.Now()
		if err := a.migrateShard(i, old, next); err != nil {
			return err
		}
		a.trace.Emit("shard-copied", i, time.Since(copyStart).Nanoseconds(), "")
		sh := a.shards[i]
		sh.mu.Lock()
		sh.read = next
		sh.mu.Unlock()
		a.migrated.Add(1)
		a.trace.Emit("shard-flipped", i, 0, "")
		if err := a.checkpoint("shard-flipped", i); err != nil {
			return err
		}
	}
	if err := a.checkpoint("cutover", -1); err != nil {
		return err
	}
	for _, sh := range a.shards {
		sh.mu.Lock()
		sh.read = next
		sh.write = []*generation{next}
		sh.mu.Unlock()
	}
	a.genMu.Lock()
	a.cur = next
	a.next = nil
	a.genMu.Unlock()
	a.migrated.Store(0)
	return nil
}

// migrateShard copies one stripe's live records into the next generation
// in MigrationBatch-bounded steps. Slots at or above the horizon snapshot
// were appended after dual-writing began and are already in both
// generations; slots below it that the dual-writer races in are caught by
// upsertShard's presence probe (a single encode-probe-insert pass per
// record). The next generation routes each key through its own
// partitioner, so a re-sampled range partition redistributes the records
// as a side effect of the copy.
func (a *AdaptiveIndex) migrateShard(stripe int, old, next *generation) error {
	sh := a.shards[stripe]
	sh.mu.Lock()
	horizon := len(old.recs[stripe].recs)
	sh.mu.Unlock()
	for start := 0; start < horizon; start += a.opts.MigrationBatch {
		end := start + a.opts.MigrationBatch
		if end > horizon {
			end = horizon
		}
		if err := a.copyBatch(sh, stripe, old, next, start, end); err != nil {
			return err
		}
		if err := a.checkpoint("batch", stripe); err != nil {
			return err
		}
	}
	return nil
}

// copyBatch copies slots [start, end) of one stripe under its lock. The
// unlock is deferred so an injected panic cannot leak the lock on its way
// to migrateConcurrent's recovery. The "mid-batch" checkpoint fires per
// record but only when an injector is armed — it exists to let fault
// plans abort with the stripe lock held and the batch half-copied, the
// worst possible instant.
func (a *AdaptiveIndex) copyBatch(sh *adaptiveShard, stripe int, old, next *generation, start, end int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Gather the batch's live keys, re-encode them in ONE bulk call (the
	// word-parallel batch kernels), then probe-and-insert each stored form
	// under its shard lock. The per-record scratch encode the old loop
	// paid is the dominant migration cost for compressed generations.
	slots := make([]int, 0, end-start)
	keys := make([][]byte, 0, end-start)
	for slot := start; slot < end; slot++ {
		r := &old.recs[stripe].recs[slot]
		if r.dead {
			continue
		}
		slots = append(slots, slot)
		keys = append(keys, r.key)
	}
	encs := next.idx.encodeBatch(keys) // nil when next stores keys raw
	for bi, slot := range slots {
		r := &old.recs[stripe].recs[slot]
		enc := keys[bi]
		if encs != nil {
			enc = encs[bi]
		}
		nslot := len(next.recs[stripe].recs)
		_, existed, err := next.idx.upsertShardEncoded(
			routeRecord(next, stripe, r.key), r.key, enc, recordID(stripe, nslot))
		if err != nil {
			return err
		}
		if existed {
			continue // dual-written (or re-inserted) since the snapshot
		}
		next.recs[stripe].recs = append(next.recs[stripe].recs, record{key: r.key, val: r.val})
		next.recs[stripe].live++
		if a.injector != nil {
			if err := a.checkpoint("mid-batch", stripe); err != nil {
				return err
			}
		}
	}
	return nil
}

// migrateStopTheWorld is the bulk-only fallback (SuRF): with every shard
// locked, live records bulk-load into the next generation through the
// parallel encode pipeline and the swap is atomic. Reads and writes wait
// for the duration; nothing can race, so an error simply discards next.
func (a *AdaptiveIndex) migrateStopTheWorld(next *generation) error {
	for _, sh := range a.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range a.shards {
			sh.mu.Unlock()
		}
	}()
	old := a.shards[0].write[0]
	var keys [][]byte
	var ids []uint64
	for i := range a.shards {
		for _, r := range old.recs[i].recs {
			if r.dead {
				continue
			}
			slot := len(next.recs[i].recs)
			next.recs[i].recs = append(next.recs[i].recs, record{key: r.key, val: r.val})
			next.recs[i].live++
			keys = append(keys, r.key)
			ids = append(ids, recordID(i, slot))
		}
	}
	if err := next.idx.Bulk(keys, ids); err != nil {
		return err
	}
	// Same cutover checkpoint as the concurrent path, so fault plans and
	// the watchdog cover the stop-the-world rebuild too; the deferred
	// unlocks make an injected panic here safe.
	if err := a.checkpoint("cutover", -1); err != nil {
		return err
	}
	for _, sh := range a.shards {
		sh.read = next
		sh.write = []*generation{next}
	}
	a.genMu.Lock()
	a.cur = next
	a.genMu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Scans: per-shard cursors over each shard's read generation, merged in
// original-key order (the only order two dictionaries share).
// ---------------------------------------------------------------------------

// genBounds caches one generation's encoded translation of a scan's
// bounds; mid-migration a scan needs one per generation in play.
type genBounds struct {
	lo, hi []byte
	hiIncl bool
}

// Scan visits, in ascending original-key order, every stored key k with
// lo <= k < hi (bounds in original key space; nil hi is unbounded) and
// returns how many keys it visited. fn receives the original key — valid
// only during the callback — and may stop the scan by returning false.
// Like ShardedIndex, a scan is per-shard consistent (chunk snapshots)
// rather than a global snapshot. A scan overlapping a cutover keeps its
// per-generation cursors but re-validates every later chunk against the
// new serving generation — deletes and overwrites issued after the
// cutover are honored (TestAdaptiveScanSurvivesCutover); only keys
// *inserted* after the cutover may be missed for shards not yet reached,
// matching the insert semantics of any chunked concurrent scan.
func (a *AdaptiveIndex) Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	bounds := func(g *generation) genBounds {
		if g.cenc == nil {
			return genBounds{lo: lo, hi: hi}
		}
		loEnc := g.cenc.EncodeBound(lo)
		if loEnc == nil {
			loEnc = []byte{}
		}
		return genBounds{lo: loEnc, hi: g.cenc.EncodeBound(hi)}
	}
	t := a.met.scan.Begin(0)
	n := a.mergeScan(bounds, fn)
	a.met.scan.End(t)
	return n
}

// ScanPrefix visits every stored key that starts with prefix, in
// ascending original-key order (see Scan for the callback contract).
// Bound translation follows Index.ScanPrefix per generation: exact lower
// bound, interval-ceiling upper bound.
func (a *AdaptiveIndex) ScanPrefix(prefix []byte, fn func(key []byte, val uint64) bool) int {
	maxLen := int(a.maxKeyLen.Load())
	if len(prefix) > maxLen {
		maxLen = len(prefix)
	}
	bounds := func(g *generation) genBounds {
		if g.cenc == nil {
			return genBounds{lo: prefix, hi: prefixSuccessor(prefix)}
		}
		lo, hi := g.cenc.EncodePrefix(prefix, maxLen)
		return genBounds{lo: lo, hi: hi, hiIncl: true}
	}
	t := a.met.scan.Begin(0)
	n := a.mergeScan(bounds, fn)
	a.met.scan.End(t)
	return n
}

// scanSnap pins one scan's view of the generation map: which generation
// serves each stripe's reads, captured once at scan start. Cursors filter
// every record through it, so a key dual-written into two generations is
// emitted by exactly one cursor, and a stripe flip mid-scan cannot
// duplicate or drop keys the snapshot covered.
type scanSnap struct {
	gens      []*generation // distinct read generations, discovery order
	stripeGen []*generation // per-stripe read generation at scan start
	multi     bool          // len(gens) > 1: stripe filter required
}

func (a *AdaptiveIndex) mergeScan(bounds func(*generation) genBounds, fn func(key []byte, val uint64) bool) int {
	snap := &scanSnap{stripeGen: make([]*generation, len(a.shards))}
	for i, sh := range a.shards {
		sh.mu.RLock()
		g := sh.read
		sh.mu.RUnlock()
		snap.stripeGen[i] = g
		seen := false
		for _, e := range snap.gens {
			if e == g {
				seen = true
				break
			}
		}
		if !seen {
			snap.gens = append(snap.gens, g)
		}
	}
	snap.multi = len(snap.gens) > 1

	// One cursor per tree shard of each generation in play, pruned to the
	// shards that generation's partitioner says can overlap the bounds
	// (range partitions prune; hash partitions span everything).
	var cursors []*adaptiveCursor
	for _, g := range snap.gens {
		b := bounds(g)
		first, last, ok := g.idx.scanSpan(b.lo, b.hi)
		if !ok {
			first, last = 0, len(g.idx.shards)-1
		}
		for w := first; w <= last; w++ {
			cursors = append(cursors, &adaptiveCursor{
				a: a, g: g, snap: snap, order: len(cursors), tshard: w,
				from: append([]byte(nil), b.lo...), hi: b.hi, hiIncl: b.hiIncl,
			})
		}
	}

	// Steady state over an ordered (range) partition: the cursors cover
	// disjoint ascending intervals of one generation — stream them in
	// shard order with no merge and no heap, the same fast path as
	// ShardedIndex.orderedScan.
	if !snap.multi && snap.gens[0].idx.part.Ordered() {
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
// each id to (original key, live value) under its stripe's read lock,
// filtering through the scan snapshot. Emitted keys alias record storage
// — record key bytes are immutable for the record's lifetime — and are
// only valid during the scan callback. The encoded resume key
// (lastKey+0x00) tracks tree positions, including ones whose records died
// or were filtered mid-scan.
type adaptiveCursor struct {
	a      *AdaptiveIndex
	g      *generation
	snap   *scanSnap
	order  int // creation index; deterministic heap tie-break
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
	curStripe, live := -1, false
	for _, id := range c.ids {
		stripe, slot := int(id>>32), slotOf(id)
		if stripe != curStripe {
			if sh != nil {
				sh.mu.RUnlock()
			}
			curStripe = stripe
			sh = c.a.shards[stripe]
			sh.mu.RLock()
			live = false
			for _, g := range sh.write {
				if g == c.g {
					live = true
					break
				}
			}
		}
		if c.snap.multi && c.snap.stripeGen[stripe] != c.g {
			// Another generation owns this stripe's reads for the scan;
			// its cursor will emit the key (dual-writes guarantee it holds
			// every live key of the stripe).
			continue
		}
		if live {
			r := &c.g.recs[stripe].recs[slot]
			if !r.dead {
				c.keys = append(c.keys, r.key)
				c.vals = append(c.vals, r.val)
			}
			continue
		}
		// The cursor's generation no longer receives writes — a cutover
		// (or an abort of the generation the snapshot pinned) completed
		// mid-scan — so its trees and records are frozen, and deletes and
		// overwrites land only in the serving generation. Re-validate
		// against the stripe's current read generation: drop keys it no
		// longer holds and take its values, so the scan never resurrects
		// a deleted key or emits a stale value. (Entries buffered in a
		// previous chunk are a snapshot, the same per-chunk semantics as
		// ShardedIndex.)
		k := c.g.recs[stripe].recs[slot].key
		cur := sh.read
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

// adaptiveCursorLess orders cursors by current original key — valid
// across generations, unlike encoded keys — breaking ties by creation
// order for determinism (ties cannot occur between emitting cursors: one
// generation's tree shards partition the keyspace, and across generations
// the snapshot filter gives every stripe exactly one emitting
// generation).
func adaptiveCursorLess(a, b *adaptiveCursor) bool {
	if c := bytes.Compare(a.keys[a.i], b.keys[b.i]); c != 0 {
		return c < 0
	}
	return a.order < b.order
}
