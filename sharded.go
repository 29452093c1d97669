package hope

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ShardedIndex is the concurrent serving layer over the compressed-index
// facade: N lock-striped shards, each wrapping one search tree
// (indexBackend) behind its own RWMutex, partitioned on the original key
// bytes by a pluggable Partitioner (hash by default; range with sampled
// split points via WithRangePartitioner). The expensive build artifact —
// the HOPE dictionary — is built once and shared read-only by every shard
// and by the pooled point-encode state, so memory overhead versus a single
// Index is a lock and a tree header per shard, not a dictionary per shard.
//
// Concurrency model:
//
//   - Put/Get/Delete route the original key to one shard and encode it
//     outside any lock through a pooled scratch buffer
//     (core.ConcurrentEncoder); the trees copy what they keep. Writers
//     then take that shard's exclusive lock, Get only its read lock for
//     the tree probe, so read-mostly workloads scale with the shard count
//     and point ops are allocation-free in steady state.
//   - Scan/ScanPrefix translate bounds once (through the concurrent
//     encoder) and plan by partition shape. Hash shards interleave the
//     keyspace, so every shard is drained in chunks under its read lock
//     and a k-way merge interleaves the chunks by encoded-byte order,
//     which is original-key order. Range shards hold disjoint ascending
//     intervals, so the planner prunes to the shards whose interval
//     overlaps the query (compared in encoded space against precomputed
//     encoded split points) and streams them sequentially with no merge
//     and no heap — a short scan touches one or two shards and pays one
//     cursor. Either way a scan is *per-shard* consistent, not a
//     point-in-time snapshot across shards: keys inserted or deleted while
//     the scan runs may or may not appear, exactly as in any lock-striped
//     map.
//   - Bulk partitions the keys once by shard and loads all shards in
//     parallel, each shard running the bulk-encode pipeline over its
//     partition and then its backend's bulk path: into an empty shard,
//     one sort of the encoded keys and a bottom-up build; populated
//     mutable shards insert key by key. An unseeded range partitioner is
//     seeded here: the first Bulk into an empty index samples split
//     points from its corpus (RangeSplits over a core.Sampler reservoir).
//
// The callback contract differs from Index in one respect: the stored
// (encoded) key passed to a scan callback is only valid for the duration
// of the callback (it lives in a reused merge buffer).
type ShardedIndex struct {
	backend Backend
	enc     *core.Encoder           // build-phase template; nil = uncompressed
	cenc    *core.ConcurrentEncoder // pooled encode state for the read path
	shards  []*indexShard
	part    Partitioner

	// encSplits caches the partitioner's split points translated into
	// encoded space (EncodeBound per split) so the scan planner can prune
	// shards by comparing encoded query bounds against encoded shard
	// boundaries directly. nil when the partitioner is unordered, has no
	// splits yet, or is single-shard.
	encSplits atomic.Pointer[[][]byte]

	scratch sync.Pool // *pointScratch; Get's zero-alloc encode buffers

	// closed is set by Close; the public mutation entry points (Put,
	// Delete, Bulk) refuse with ErrClosed afterwards. Internal
	// shard-routed hooks stay unchecked — AdaptiveIndex drives those and
	// gates its own lifecycle.
	closed atomic.Bool

	// met instruments the public ops (always-on, sampled latencies; see
	// observe.go). Internal shard-routed entry points (getShard and
	// friends) are not counted — AdaptiveIndex drives those and keeps its
	// own instruments, so nothing double-counts.
	met opMetrics
}

// indexShard is one lock stripe: a search tree behind its lock.
type indexShard struct {
	mu sync.RWMutex
	be indexBackend
}

// pointScratch is a pooled encode destination for the lock-free read path.
type pointScratch struct{ buf []byte }

// DefaultShards returns the default shard count: the smallest power of two
// at or above 4x GOMAXPROCS (striping beyond the parallelism level keeps
// hash collisions from serializing unrelated keys), clamped to [1, 256].
func DefaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n > 256 {
		n = 256
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newRangePartitioner returns the range partitioner of nShards shards
// (rounded up to a power of two; <= 0 selects DefaultShards). corpus,
// when it yields split points (RangeSplits), seeds it; otherwise the
// partitioner starts unseeded and the first Bulk into the empty index
// seeds it from the loaded keys.
func newRangePartitioner(nShards int, corpus [][]byte) *RangePartitioner {
	p := NewUnseededRangePartitioner(nShards)
	if splits := RangeSplits(corpus, p.n, splitSeed); splits != nil {
		p.seed(splits)
	}
	return p
}

// splitSeed drives split-point reservoir sampling; fixed so identical
// corpora partition identically across runs.
const splitSeed = 1

// NewShardedIndexWithPartitioner builds a concurrent index whose shards
// are laid out by the given partitioner (one lock-striped shard per
// partition). enc may be nil for an uncompressed index; otherwise it is
// the build-phase template: its read-only dictionary is shared by every
// shard and by the pooled read-path encoder, and the template must not be
// used directly afterwards (clone it first if independent use is needed).
func NewShardedIndexWithPartitioner(backend Backend, enc *core.Encoder, p Partitioner) (*ShardedIndex, error) {
	s := &ShardedIndex{
		backend: backend,
		enc:     enc,
		shards:  make([]*indexShard, p.NumShards()),
		part:    p,
		met:     newOpMetrics(),
	}
	if enc != nil {
		s.cenc = core.NewConcurrentEncoder(enc)
	}
	for i := range s.shards {
		be, err := newIndexBackend(backend)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &indexShard{be: be}
	}
	s.scratch.New = func() any { return new(pointScratch) }
	s.refreshEncSplits()
	return s, nil
}

// refreshEncSplits (re)translates the partitioner's split points into
// encoded space for the scan planner. Called at construction and after
// Bulk seeds an unseeded range partitioner; both points precede or
// serialize with key storage under the final routing, and the pointer swap
// is atomic, so concurrent scans see either no splits (full span) or the
// complete set.
func (s *ShardedIndex) refreshEncSplits() {
	splits := s.part.Splits()
	if !s.part.Ordered() || len(splits) == 0 {
		return
	}
	es := make([][]byte, len(splits))
	for i, sp := range splits {
		if s.cenc != nil {
			es[i] = s.cenc.EncodeBound(sp)
		} else {
			es[i] = append([]byte(nil), sp...)
		}
	}
	s.encSplits.Store(&es)
}

// Backend returns the wrapped tree's name.
func (s *ShardedIndex) Backend() Backend { return s.backend }

// Encoder returns the shared build-phase encoder template (nil when
// uncompressed). It must not be used for point encodes while the index is
// serving; clone it first.
func (s *ShardedIndex) Encoder() *core.Encoder { return s.enc }

// NumShards returns the shard count.
func (s *ShardedIndex) NumShards() int { return len(s.shards) }

// Partitioner returns the policy routing original keys to shards.
func (s *ShardedIndex) Partitioner() Partitioner { return s.part }

// ShardLens returns the per-shard key counts — the skew profile of the
// partition (a moment's snapshot under concurrent writers). Hash
// partitions are near-uniform by construction; range partitions are as
// balanced as their split points, so this is the observability hook for
// re-sampling decisions.
func (s *ShardedIndex) ShardLens() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		out[i] = sh.be.length()
		sh.mu.RUnlock()
	}
	return out
}

// MaxShardFrac reduces ShardLens to the one number skew policies act on:
// the largest shard's fraction of the stored keys (0 for an empty index).
// 1/NumShards is perfectly balanced; values near 1 mean one shard holds
// nearly everything.
func (s *ShardedIndex) MaxShardFrac() float64 {
	frac, _ := s.maxShardFrac()
	return frac
}

func (s *ShardedIndex) maxShardFrac() (frac float64, total int) {
	maxLen := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n := sh.be.length()
		sh.mu.RUnlock()
		total += n
		if n > maxLen {
			maxLen = n
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(maxLen) / float64(total), total
}

// Put inserts or overwrites one key.
func (s *ShardedIndex) Put(key []byte, val uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	shard := s.shardIdx(key)
	t := s.met.put.Begin(uint64(shard))
	_, _, err := s.putShard(shard, key, val)
	s.met.put.End(t)
	return err
}

// putShard is Put routed to a known shard — the hook AdaptiveIndex writes
// and replays through, having routed the original key itself. It reports
// whether the key was already stored (the tree's length did not grow) and
// the stored (encoded) key length, in one encode and one lock hold.
func (s *ShardedIndex) putShard(shard int, key []byte, val uint64) (existed bool, storedLen int, err error) {
	sh := s.shards[shard]
	if s.cenc == nil {
		sh.mu.Lock()
		n := sh.be.length()
		err = sh.be.insert(key, val)
		existed = sh.be.length() == n
		sh.mu.Unlock()
		return existed, len(key), err
	}
	sc := s.scratch.Get().(*pointScratch)
	ek, _ := s.cenc.EncodeBits(sc.buf, key)
	sh.mu.Lock()
	n := sh.be.length()
	err = sh.be.insert(ek, val)
	existed = sh.be.length() == n
	sh.mu.Unlock()
	sc.buf = ek[:0]
	s.scratch.Put(sc)
	return existed, len(ek), err
}

// writeStored puts (or, with del, deletes) an already encoded key in one
// shard — the hook AdaptiveIndex replays batch-encoded change lists
// through.
func (s *ShardedIndex) writeStored(shard int, stored []byte, val uint64, del bool) error {
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if del {
		_, err := sh.be.remove(stored)
		return err
	}
	return sh.be.insert(stored, val)
}

// Get returns the value stored under key. Zero allocations in steady
// state: the encode destination comes from a pool, the shard probe runs
// under a read lock, and the buffer returns to the pool afterwards.
func (s *ShardedIndex) Get(key []byte) (uint64, bool) {
	shard := s.shardIdx(key)
	t := s.met.get.Begin(uint64(shard))
	v, ok := s.getShard(shard, key)
	s.met.get.End(t)
	return v, ok
}

// getShard is Get routed to a known shard (see putShard).
func (s *ShardedIndex) getShard(shard int, key []byte) (uint64, bool) {
	sh := s.shards[shard]
	if s.cenc == nil {
		sh.mu.RLock()
		v, ok := sh.be.get(key)
		sh.mu.RUnlock()
		return v, ok
	}
	sc := s.scratch.Get().(*pointScratch)
	ek, _ := s.cenc.EncodeBits(sc.buf, key)
	sh.mu.RLock()
	v, ok := sh.be.get(ek)
	sh.mu.RUnlock()
	sc.buf = ek[:0]
	s.scratch.Put(sc)
	return v, ok
}

// Delete removes key, reporting whether it was present. Like Get it
// encodes through the pooled scratch (backends do not retain point-op
// buffers — see TestPointOpScratchNotRetained), but holds the shard's
// write lock for the tree mutation.
func (s *ShardedIndex) Delete(key []byte) (bool, error) {
	if s.closed.Load() {
		return false, ErrClosed
	}
	shard := s.shardIdx(key)
	t := s.met.del.Begin(uint64(shard))
	ok, err := s.deleteShard(shard, key)
	s.met.del.End(t)
	return ok, err
}

// deleteShard is Delete routed to a known shard (see putShard).
func (s *ShardedIndex) deleteShard(shard int, key []byte) (bool, error) {
	sh := s.shards[shard]
	if s.cenc == nil {
		sh.mu.Lock()
		ok, err := sh.be.remove(key)
		sh.mu.Unlock()
		return ok, err
	}
	sc := s.scratch.Get().(*pointScratch)
	ek, _ := s.cenc.EncodeBits(sc.buf, key)
	sh.mu.Lock()
	ok, err := sh.be.remove(ek)
	sh.mu.Unlock()
	sc.buf = ek[:0]
	s.scratch.Put(sc)
	return ok, err
}

// Bulk loads keys[i] -> vals[i]: the keys are partitioned once by the
// partitioner, then every shard loads its partition in parallel, each
// running the parallel bulk-encode pipeline over its own slice of the
// shared dictionary. A nil vals assigns each key its position. For the
// SuRF backend this is the only way to populate the index, and it replaces
// the contents: each shard rebuilds its filter over its partition, empty
// or not.
//
// An unseeded range partitioner is seeded here: when the index is still
// empty, split points are sampled from the corpus (RangeSplits) before
// partitioning, so the load itself defines the key intervals. Seeding
// requires the empty index — Bulk into a populated unseeded index loads
// everything into shard 0 rather than silently re-routing stored keys.
func (s *ShardedIndex) Bulk(keys [][]byte, vals []uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if vals != nil && len(vals) != len(keys) {
		return fmt.Errorf("hope: %d keys but %d values", len(keys), len(vals))
	}
	if rp, ok := s.part.(*RangePartitioner); ok && !rp.seeded() && rp.NumShards() > 1 &&
		len(keys) > 0 && s.Len() == 0 {
		if splits := RangeSplits(keys, rp.NumShards(), splitSeed); splits != nil {
			rp.seed(splits)
			s.refreshEncSplits()
		}
	}
	n := len(s.shards)
	parts := make([][][]byte, n)
	pvals := make([][]uint64, n)
	// Pre-size from an even split; skew is bounded by the hash.
	for i := range parts {
		parts[i] = make([][]byte, 0, len(keys)/n+1)
		pvals[i] = make([]uint64, 0, len(keys)/n+1)
	}
	for i, k := range keys {
		w := s.shardIdx(k)
		parts[w] = append(parts[w], k)
		if vals != nil {
			pvals[w] = append(pvals[w], vals[i])
		} else {
			pvals[w] = append(pvals[w], uint64(i))
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		// SuRF's Bulk replaces the contents, so a shard that receives no
		// keys must still be emptied.
		if len(parts[w]) == 0 && s.backend != SuRF {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := s.shards[w]
			var encoded [][]byte
			if s.enc != nil {
				// EncodeAll is safe for concurrent use (read-only
				// dictionary, private appenders), so shards share the
				// template directly.
				encoded = s.enc.EncodeAll(parts[w])
			} else {
				encoded = copyAll(parts[w])
			}
			sh.mu.Lock()
			errs[w] = sh.be.bulk(encoded, pvals[w])
			sh.mu.Unlock()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardIdx maps an original key to its lock stripe via the partitioner.
// Routing the *original* bytes (not the encoding) keeps it independent of
// the dictionary, so a rebuilt encoder never re-partitions live data. This
// is the single routing function — point ops and Bulk partitioning must
// agree exactly.
func (s *ShardedIndex) shardIdx(key []byte) int {
	return s.part.Shard(key)
}

// shardHash is the shared routing hash: FNV-1a over the key bytes, high
// half folded in (FNV's low bits alone mix short keys poorly). Callers
// mask it to their power-of-two shard count; AdaptiveIndex relies on every
// generation with the same shard count routing a key identically.
func shardHash(key []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h ^ h>>32
}

// Len returns the number of stored keys (summed over shards; a moment's
// snapshot under concurrent writers).
func (s *ShardedIndex) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.be.length()
		sh.mu.RUnlock()
	}
	return n
}

// MemoryUsage returns the modeled footprint in bytes: all shard trees plus
// the shared dictionary once.
func (s *ShardedIndex) MemoryUsage() int {
	m := s.TreeMemoryUsage()
	if s.enc != nil {
		m += s.enc.MemoryUsage()
	}
	return m
}

// TreeMemoryUsage returns the shard trees' modeled footprint alone.
func (s *ShardedIndex) TreeMemoryUsage() int {
	m := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		m += sh.be.memory()
		sh.mu.RUnlock()
	}
	return m
}

// Scan visits, in ascending original-key order, every stored key k with
// lo <= k < hi (bounds in original key space; nil hi is unbounded) and
// returns how many keys it visited. fn receives the stored (encoded) key —
// valid only during the callback — and may stop the scan by returning
// false. See the type comment for the cross-shard consistency contract.
func (s *ShardedIndex) Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	t := s.met.scan.Begin(0)
	n := s.scan(lo, hi, fn)
	s.met.scan.End(t)
	return n
}

// scan is Scan without the instrument — the entry point AdaptiveIndex
// scans a generation through. The bounds are encoded into the pooled scan
// state's buffers, so a steady-state scan allocates nothing.
func (s *ShardedIndex) scan(lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	m := scanStatePool.Get().(*scanState)
	defer m.release()
	return s.scanWith(m, lo, hi, fn)
}

// scanWith is scan on a scan state the caller holds.
func (s *ShardedIndex) scanWith(m *scanState, lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	if s.cenc != nil {
		// A nil lo still becomes a present (empty) bound; a nil hi stays
		// unbounded.
		m.lo = s.encodeBound(m.lo, lo)
		lo = m.lo
		if hi != nil {
			m.hi = s.encodeBound(m.hi, hi)
			hi = m.hi
		}
	}
	return s.planScan(m, lo, hi, fn)
}

// encodeBound encodes one complete-key bound into dst's storage. The
// result is never nil: the empty key is an empty but present bound.
func (s *ShardedIndex) encodeBound(dst, key []byte) []byte {
	b, _ := s.cenc.EncodeBits(dst[:0], key)
	if b == nil {
		b = []byte{}
	}
	return b
}

// ScanPrefix visits every stored key that starts with prefix, in ascending
// order, and returns how many keys it visited: the scan of
// [prefix, prefixSuccessor(prefix)), as in Index.ScanPrefix.
func (s *ShardedIndex) ScanPrefix(prefix []byte, fn func(key []byte, val uint64) bool) int {
	t := s.met.scan.Begin(0)
	n := s.scanPrefix(prefix, fn)
	s.met.scan.End(t)
	return n
}

// scanPrefix is ScanPrefix without the instrument (see scan). The
// successor is built in the scan state's buffer and encoded into its hi
// buffer, so a steady-state prefix scan allocates nothing either.
func (s *ShardedIndex) scanPrefix(prefix []byte, fn func(key []byte, val uint64) bool) int {
	m := scanStatePool.Get().(*scanState)
	defer m.release()
	m.succ = appendSuccessor(m.succ, prefix)
	return s.scanWith(m, prefix, m.succ, fn)
}

// planScan routes a translated (encoded-space) scan to the cheapest
// strategy the partition shape allows: a pruned sequential walk for
// ordered partitions — single-shard scans skip the merge machinery
// entirely — or the k-way merge for hash partitions.
func (s *ShardedIndex) planScan(m *scanState, lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	if first, last, ok := s.scanSpan(lo, hi); ok {
		return s.orderedScan(first, last, lo, hi, fn)
	}
	return s.mergeScan(m, lo, hi, fn)
}

// scanSpan prunes an ordered partition to the inclusive shard span whose
// key intervals overlap the encoded query range [lo, hi). Shard i holds
// the keys in [split[i-1], split[i]), and the encoded order is strict, so
// its stored encodings lie in [encSplit[i-1], encSplit[i]). ok is false
// for unordered (hash) partitions, which have no prunable structure.
func (s *ShardedIndex) scanSpan(lo, hi []byte) (first, last int, ok bool) {
	if !s.part.Ordered() {
		return 0, 0, false
	}
	last = len(s.shards) - 1
	es := s.encSplits.Load()
	if es == nil {
		if rp, isRange := s.part.(*RangePartitioner); isRange && !rp.seeded() {
			// No split points installed yet: every key lives in shard 0.
			return 0, 0, true
		}
		return 0, last, true
	}
	splits := *es
	// The first shard whose upper boundary lies above lo, and the last
	// whose lower boundary lies below hi.
	first = sort.Search(len(splits), func(i int) bool {
		return bytes.Compare(splits[i], lo) > 0
	})
	if hi != nil {
		last = sort.Search(len(splits), func(i int) bool {
			return bytes.Compare(splits[i], hi) >= 0
		})
	}
	if first > last {
		first = last // degenerate bounds: scan one shard, find nothing
	}
	return first, last, true
}

// scanCursorPool recycles shardCursor shells (chunk arenas, resume
// buffers, fill callbacks) across scans of either plan, so neither the
// single-shard fast path nor the k-way merge allocates a cursor per scan.
var scanCursorPool = sync.Pool{New: func() any { return new(shardCursor) }}

// scanState is one scan's pooled scratch: the encoded lo/hi bound
// buffers, a prefix scan's successor bound, and, for a hash-merged scan,
// the merge heap of per-shard cursors taken from scanCursorPool. With it a
// steady-state scan allocates nothing.
type scanState struct {
	lo, hi []byte
	succ   []byte
	heap   []*shardCursor
}

var scanStatePool = sync.Pool{New: func() any { return new(scanState) }}

// release returns the cursors still in the heap to scanCursorPool and the
// state to its pool. Scans defer it, so a panicking callback returns them
// too.
func (m *scanState) release() {
	for i, c := range m.heap {
		c.release()
		m.heap[i] = nil
	}
	m.heap = m.heap[:0]
	scanStatePool.Put(m)
}

// orderedScan drains shards first..last sequentially. Ordered disjoint
// shard intervals make interleaving impossible: everything in shard w
// precedes everything in shard w+1 in encoded (hence original) order, so
// the global order is the concatenation of per-shard orders and no merge
// or heap is needed. Each shard still drains in chunks under its read
// lock, exactly like the merge path's cursors.
func (s *ShardedIndex) orderedScan(first, last int, lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	c := scanCursorPool.Get().(*shardCursor)
	count := 0
	for w := first; w <= last; w++ {
		c.reset(s.shards[w], lo, hi)
		for {
			k, ok := c.peek()
			if !ok {
				break
			}
			_, v := c.pop()
			count++
			if !fn(k, v) {
				c.release()
				return count
			}
		}
	}
	c.release()
	return count
}

// Shard-cursor chunk sizing: each lock acquisition drains one chunk. The
// first chunk is small — most range queries stop after a handful of
// results, and with S shards a scan pre-drains up to S chunks before the
// merge emits anything — then doubles per refill so long scans amortize
// the lock and resume cost. scanChunk caps the growth to bound writer
// latency impact and early-stop over-scan.
const (
	scanChunkInit = 8
	scanChunk     = 64
)

// shardCursor drains one shard's stored keys in [next, hi) in chunks.
// Keys are copied into a reused arena so the cursor never retains tree
// memory across lock releases; the resume point after a chunk is
// lastKey+0x00, the smallest stored key strictly above lastKey in byte
// order.
type shardCursor struct {
	sh   *indexShard
	next []byte // inclusive resume bound (owned)
	hi   []byte // shared, read-only

	arena []byte
	keys  [][]byte
	vals  []uint64
	i     int
	chunk int
	done  bool // underlying shard exhausted; current chunk is the last

	// collect is the fill callback, bound once per cursor lifetime (it
	// captures only the cursor) so pooled cursors refill without
	// allocating a fresh closure per chunk; nFill is its per-fill counter.
	collect func(k []byte, v uint64) bool
	nFill   int
}

// scanShard drains one shard's stored keys in [from, hi) (nil hi
// unbounded) in encoded order under the shard's read lock, until fn
// returns false: one locked pass, the hook behind the snapshot dump and
// AdaptiveIndex's chunked walks. Keys passed to fn alias tree memory and
// are only valid during the callback, which must not call back into the
// index.
func (s *ShardedIndex) scanShard(shard int, from, hi []byte, fn func(k []byte, v uint64) bool) {
	sh := s.shards[shard]
	sh.mu.RLock()
	sh.be.scan(from, hi, fn)
	sh.mu.RUnlock()
}

// reset re-aims a (possibly pooled) cursor at one shard's [lo, hi) span,
// keeping its arena and resume buffers for reuse.
func (c *shardCursor) reset(sh *indexShard, lo, hi []byte) {
	c.sh = sh
	c.next = append(c.next[:0], lo...)
	c.hi = hi
	c.arena, c.keys, c.vals = c.arena[:0], c.keys[:0], c.vals[:0]
	c.i, c.chunk, c.done = 0, 0, false
}

// release drops live references and returns the cursor to the pool.
func (c *shardCursor) release() {
	c.sh, c.hi = nil, nil
	scanCursorPool.Put(c)
}

func (c *shardCursor) fill() {
	c.arena = c.arena[:0]
	c.keys = c.keys[:0]
	c.vals = c.vals[:0]
	c.i = 0
	if c.done {
		return
	}
	if c.chunk == 0 {
		c.chunk = scanChunkInit
	}
	if c.collect == nil {
		c.collect = func(k []byte, v uint64) bool {
			start := len(c.arena)
			c.arena = append(c.arena, k...)
			c.keys = append(c.keys, c.arena[start:len(c.arena):len(c.arena)])
			c.vals = append(c.vals, v)
			c.nFill++
			return c.nFill < c.chunk
		}
	}
	c.nFill = 0
	c.sh.mu.RLock()
	c.sh.be.scan(c.next, c.hi, c.collect)
	c.sh.mu.RUnlock()
	n := c.nFill
	if n < c.chunk {
		c.done = true
		return
	}
	c.next = append(append(c.next[:0], c.keys[n-1]...), 0x00)
	if c.chunk < scanChunk {
		c.chunk *= 2
	}
}

// peek returns the cursor's current key, refilling from the shard when the
// chunk is consumed; ok is false when the shard is exhausted.
func (c *shardCursor) peek() (key []byte, ok bool) {
	if c.i >= len(c.keys) {
		if c.done {
			return nil, false
		}
		c.fill()
		if c.i >= len(c.keys) {
			return nil, false
		}
	}
	return c.keys[c.i], true
}

func (c *shardCursor) pop() (key []byte, val uint64) {
	key, val = c.keys[c.i], c.vals[c.i]
	c.i++
	return key, val
}

// mergeScan k-way-merges the per-shard encoded iterators over [lo, hi).
// Encoded byte order is original-key order (HOPE's invariant), so merging
// per-shard runs by encoded bytes yields the global ascending order
// regardless of how the hash scattered the keys. The cursors sit in a
// binary min-heap keyed by their current encoded key, so each emission
// costs O(log shards) comparisons rather than a linear sweep (at the
// 4×GOMAXPROCS default shard count of a large machine the difference is
// ~30× on the scan hot path). The heap lives in m and its cursors come
// from scanCursorPool; a cursor goes back as soon as its shard is
// exhausted, the rest when the caller releases m.
func (s *ShardedIndex) mergeScan(m *scanState, lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	for _, sh := range s.shards {
		c := scanCursorPool.Get().(*shardCursor)
		c.reset(sh, lo, hi)
		if _, ok := c.peek(); ok {
			m.heap = append(m.heap, c)
		} else {
			c.release()
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		siftDown(m.heap, i)
	}
	count := 0
	for len(m.heap) > 0 {
		k, v := m.heap[0].pop()
		count++
		if !fn(k, v) {
			return count
		}
		if _, ok := m.heap[0].peek(); !ok {
			last := len(m.heap) - 1
			m.heap[0].release()
			m.heap[0], m.heap[last] = m.heap[last], nil
			m.heap = m.heap[:last]
		}
		if len(m.heap) > 0 {
			siftDown(m.heap, 0)
		}
	}
	return count
}

// cursorLess orders heap cursors by current encoded key. Distinct
// originals have distinct encodings and a key lives in one shard, so two
// cursors never tie. Both cursors must have a current item.
func cursorLess(a, b *shardCursor) bool {
	return bytes.Compare(a.keys[a.i], b.keys[b.i]) < 0
}

// siftDown restores the merge heap's min-heap property at index i.
func siftDown(h []*shardCursor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && cursorLess(h[l], h[min]) {
			min = l
		}
		if r < len(h) && cursorLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
