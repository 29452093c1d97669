package hope

import (
	"bytes"
	"encoding/binary"
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
// and by the pooled encode state, so each further shard costs a lock and
// a tree header, not a dictionary. Open without a shape option returns one
// hash shard: one tree behind one lock, the paper's single-index
// configuration, still safe for concurrent use.
//
// Concurrency model:
//
//   - Put/Get/Delete route the original key to one shard and encode it
//     outside any lock through pooled scratch (opScratch: an encoder clone
//     and its output buffer); the trees copy what they keep. Writers
//     then take that shard's exclusive lock, Get only its read lock for
//     the tree probe, so read-mostly workloads scale with the shard count
//     and point ops are allocation-free in steady state.
//   - Scan/ScanPrefix translate bounds once (through the pooled encoder
//     clone) and plan by partition shape. Hash shards interleave the
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
//   - Bulk routes and encodes every key once, on GOMAXPROCS workers that
//     each take a contiguous slice of the input, then loads all shards in
//     parallel, each gathering its keys from every worker and running its
//     backend's bulk path: into an empty shard, one sort of the encoded
//     keys and a bottom-up build; populated mutable shards insert key by
//     key. An unseeded range partitioner is seeded here: the first Bulk
//     into an empty index samples split points from its corpus
//     (RangeSplits over a core.Sampler reservoir).
//
// The stored (encoded) key passed to a scan callback aliases tree memory,
// must not be modified, and is valid only during the callback.
type ShardedIndex struct {
	backend Backend
	enc     *core.Encoder // build-phase template; nil = uncompressed
	shards  []*indexShard
	part    Partitioner

	// encSplits caches the partitioner's split points translated into
	// encoded space (EncodeBound per split) so the scan planner can prune
	// shards by comparing encoded query bounds against encoded shard
	// boundaries directly. nil when the partitioner is unordered, has no
	// splits yet, or is single-shard.
	encSplits atomic.Pointer[[][]byte]

	scratch sync.Pool // *opScratch; one per point op or scan in flight

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

// indexShard is one lock stripe: a search tree behind its lock, and the
// tree's write version, bumped under the write lock by every write, which
// tells a shard cursor whether the tree cursor it kept across a lock
// release still holds.
type indexShard struct {
	mu  sync.RWMutex
	be  indexBackend
	ver uint64
}

// lock takes sh's write lock for a write: it bumps the version.
func (sh *indexShard) lock() {
	sh.mu.Lock()
	sh.ver++
}

// opScratch is one operation's pooled state, so that a steady-state point
// op or scan takes one pool round trip and allocates nothing: a clone of
// the encoder (its own bit buffer over the shared read-only dictionary;
// nil when uncompressed), the point-encode destination, and a scan's
// encoded bounds, prefix successor, ordered-plan cursor and merge heap.
type opScratch struct {
	enc    *core.Encoder
	buf    []byte
	lo, hi []byte
	succ   []byte
	cur    shardCursor
	heap   []*shardCursor // taken from scanCursorPool
}

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
	for i := range s.shards {
		be, err := newIndexBackend(backend)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &indexShard{be: be}
	}
	s.scratch.New = func() any {
		sc := new(opScratch)
		if enc != nil {
			sc.enc = enc.Clone()
		}
		return sc
	}
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
	var enc *core.Encoder
	if s.enc != nil {
		enc = s.enc.Clone()
	}
	es := make([][]byte, len(splits))
	for i, sp := range splits {
		es[i] = encodeBound(enc, nil, sp)
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
	if s.enc == nil {
		sh.lock()
		n := sh.be.length()
		err = sh.be.insert(key, val)
		existed = sh.be.length() == n
		sh.mu.Unlock()
		return existed, len(key), err
	}
	sc := s.scratch.Get().(*opScratch)
	ek, _ := sc.enc.EncodeBits(sc.buf, key)
	sh.lock()
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
	sh.lock()
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
	if s.enc == nil {
		sh.mu.RLock()
		v, ok := sh.be.get(key)
		sh.mu.RUnlock()
		return v, ok
	}
	sc := s.scratch.Get().(*opScratch)
	ek, _ := sc.enc.EncodeBits(sc.buf, key)
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
	if s.enc == nil {
		sh.lock()
		ok, err := sh.be.remove(key)
		sh.mu.Unlock()
		return ok, err
	}
	sc := s.scratch.Get().(*opScratch)
	ek, _ := sc.enc.EncodeBits(sc.buf, key)
	sh.lock()
	ok, err := sh.be.remove(ek)
	sh.mu.Unlock()
	sc.buf = ek[:0]
	s.scratch.Put(sc)
	return ok, err
}

// Bulk loads keys[i] -> vals[i] in one parallel pass (bulkPass): every
// key is routed by the partitioner and encoded once, by GOMAXPROCS
// workers, and then every shard loads its keys in parallel. A nil vals
// assigns each key its position; a key given more than once keeps the
// value of its last position. For the SuRF backend this is the only way
// to populate the index, and it replaces the contents: each shard
// rebuilds its filter over its keys, empty or not.
//
// An unseeded range partitioner is seeded here: when the index is still
// empty, split points are sampled from the corpus (RangeSplits) before
// routing, so the load itself defines the key intervals. Seeding
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
	var shardOf func([]byte) int
	if len(s.shards) > 1 {
		shardOf = s.shardIdx
	}
	return bulkPass(s.enc, len(s.shards), shardOf, keys, vals, s.backend == SuRF,
		func(shard int, keys [][]byte, vals []uint64) error {
			sh := s.shards[shard]
			sh.lock()
			defer sh.mu.Unlock()
			return sh.be.bulk(keys, vals)
		})
}

// bulkChunk is how many keys a bulk worker routes and then encodes at a
// time: few enough that a key's bytes are still in cache when the encode
// reads them after the routing hash did.
const bulkChunk = 256

// bulkWorker is one worker's share of a bulk load: a contiguous slice of
// the input, its encodings, and per shard the keys routed there.
type bulkWorker struct {
	lo    int       // input position of the worker's first key
	buf   []byte    // encodings back to back (compressed stores)
	ends  []int     // key lo+j's encoding is buf[ends[j]:ends[j+1]]
	picks [][]int32 // per shard, ascending offsets from lo of its keys
}

// bulkPass loads keys[i] -> vals[i] (i when vals is nil) into nShards
// shards, Index's and ShardedIndex's one bulk path. Up to GOMAXPROCS
// workers each take a contiguous slice of the input and, bulkChunk keys at
// a time, route every key (shardOf; nil sends all to shard 0) and encode it
// (enc; nil passes the keys through as given, since every backend copies
// the bytes it keeps). Then one goroutine per shard gathers that shard's
// keys from every worker in input order — so a key given twice keeps its
// last value, and keys that arrive ascending stay ascending for sortRun —
// and hands them to load. A shard that receives no keys is loaded only
// when loadEmpty is set (SuRF, whose bulk replaces the contents).
func bulkPass(enc *core.Encoder, nShards int, shardOf func([]byte) int, keys [][]byte, vals []uint64,
	loadEmpty bool, load func(shard int, keys [][]byte, vals []uint64) error) error {
	workers := max(min(runtime.GOMAXPROCS(0), (len(keys)+bulkChunk-1)/bulkChunk), 1)
	ws := make([]bulkWorker, workers)
	var wg sync.WaitGroup
	for w := range ws {
		lo, hi := w*len(keys)/workers, (w+1)*len(keys)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws[w].run(enc, nShards, shardOf, keys[lo:hi], lo)
		}()
	}
	wg.Wait()

	errs := make([]error, nShards)
	for shard := range errs {
		n := 0
		for w := range ws {
			n += len(ws[w].picks[shard])
		}
		if n == 0 && !loadEmpty {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ks, vs := make([][]byte, 0, n), make([]uint64, 0, n)
			for w := range ws {
				ks, vs = ws[w].gather(ks, vs, shard, keys, vals)
			}
			errs[shard] = load(shard, ks, vs)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run routes and encodes mine, the input from position lo on, a chunk at
// a time.
func (bw *bulkWorker) run(enc *core.Encoder, nShards int, shardOf func([]byte) int, mine [][]byte, lo int) {
	bw.lo = lo
	// An even share plus slack: hash shards rarely outgrow it.
	per := len(mine)/nShards + len(mine)/(8*nShards) + 8
	bw.picks = make([][]int32, nShards)
	for s := range bw.picks {
		bw.picks[s] = make([]int32, 0, per)
	}
	if enc != nil {
		bw.buf = make([]byte, 0, core.SizeHint(mine))
		bw.ends = make([]int, 1, len(mine)+1)
	}
	for c := 0; c < len(mine); c += bulkChunk {
		chunk := mine[c:min(c+bulkChunk, len(mine))]
		for j, k := range chunk {
			s := 0
			if shardOf != nil {
				s = shardOf(k)
			}
			bw.picks[s] = append(bw.picks[s], int32(c+j))
		}
		if enc != nil {
			bw.buf, bw.ends = enc.EncodeRun(bw.buf, chunk, bw.ends)
		}
	}
}

// gather appends the worker's keys routed to shard, in input order, and
// their values to ks and vs.
func (bw *bulkWorker) gather(ks [][]byte, vs []uint64, shard int, keys [][]byte, vals []uint64) ([][]byte, []uint64) {
	for _, j := range bw.picks[shard] {
		i := bw.lo + int(j)
		if bw.ends != nil {
			ks = append(ks, bw.buf[bw.ends[j]:bw.ends[j+1]:bw.ends[j+1]])
		} else {
			ks = append(ks, keys[i])
		}
		v := uint64(i)
		if vals != nil {
			v = vals[i]
		}
		vs = append(vs, v)
	}
	return ks, vs
}

// shardIdx maps an original key to its lock stripe via the partitioner.
// Routing the *original* bytes (not the encoding) keeps it independent of
// the dictionary, so a rebuilt encoder never re-partitions live data. This
// is the single routing function — point ops and Bulk partitioning must
// agree exactly. One shard holds every key, so it is not hashed (Bulk
// passes no routing function at all then).
func (s *ShardedIndex) shardIdx(key []byte) int {
	if len(s.shards) == 1 {
		return 0
	}
	return s.part.Shard(key)
}

// shardHash is the shared routing hash, a word at a time: each 8-byte
// load is xored in, multiplied and its high half folded down; the 0-7
// tail bytes make one more word, and the key length seeds the state. The
// closing multiply and fold bring the high bits, where a multiply leaves
// a word's top bytes, into the low bits callers mask to their
// power-of-two shard count (DESIGN.md, "The routing hash"). AdaptiveIndex
// relies on every generation with the same shard count routing a key
// identically.
func shardHash(key []byte) uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h := uint64(len(key)) * m1
	for ; len(key) >= 8; key = key[8:] {
		h = (h ^ binary.LittleEndian.Uint64(key)) * m1
		h ^= h >> 32
	}
	var w uint64
	switch n := len(key); {
	case n >= 4:
		w = uint64(binary.LittleEndian.Uint32(key)) | uint64(binary.LittleEndian.Uint32(key[n-4:]))<<32
	case n > 0:
		w = uint64(key[0]) | uint64(key[n/2])<<8 | uint64(key[n-1])<<16
	}
	h = (h ^ w) * m1
	h = (h ^ h>>32) * m2
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
// scans a generation through. The bounds are encoded into the pooled
// scratch's buffers, so a steady-state scan allocates nothing.
func (s *ShardedIndex) scan(lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	m := s.scratch.Get().(*opScratch)
	defer s.release(m)
	return s.scanWith(m, lo, hi, fn)
}

// scanWith is scan on scratch the caller holds.
func (s *ShardedIndex) scanWith(m *opScratch, lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	if m.enc != nil {
		// A nil lo still becomes a present (empty) bound; a nil hi stays
		// unbounded.
		m.lo = encodeBound(m.enc, m.lo, lo)
		lo = m.lo
		if hi != nil {
			m.hi = encodeBound(m.enc, m.hi, hi)
			hi = m.hi
		}
	}
	return s.planScan(m, lo, hi, fn)
}

// encodeBound encodes one complete-key bound with enc (nil copies it
// as is) into dst's storage. The result is never nil: the empty key is an
// empty but present bound.
func encodeBound(enc *core.Encoder, dst, key []byte) []byte {
	var b []byte
	if enc != nil {
		b, _ = enc.EncodeBits(dst[:0], key)
	} else {
		b = append(dst[:0], key...)
	}
	if b == nil {
		b = []byte{}
	}
	return b
}

// release returns a scan's merge cursors to scanCursorPool, drops the
// ordered cursor's references and returns m to the pool. Scans defer it,
// so a panicking callback returns them too.
func (s *ShardedIndex) release(m *opScratch) {
	for i, c := range m.heap {
		c.release()
		m.heap[i] = nil
	}
	m.heap = m.heap[:0]
	m.cur.drop()
	s.scratch.Put(m)
}

// ScanPrefix visits every stored key that starts with prefix, in ascending
// order, and returns how many keys it visited: the scan of
// [prefix, prefixSuccessor(prefix)): both bounds are complete keys, so
// they translate exactly.
func (s *ShardedIndex) ScanPrefix(prefix []byte, fn func(key []byte, val uint64) bool) int {
	t := s.met.scan.Begin(0)
	n := s.scanPrefix(prefix, fn)
	s.met.scan.End(t)
	return n
}

// scanPrefix is ScanPrefix without the instrument (see scan). The
// successor is built in the scratch's buffer and encoded into its hi
// buffer, so a steady-state prefix scan allocates nothing either.
func (s *ShardedIndex) scanPrefix(prefix []byte, fn func(key []byte, val uint64) bool) int {
	m := s.scratch.Get().(*opScratch)
	defer s.release(m)
	m.succ = appendSuccessor(m.succ, prefix)
	return s.scanWith(m, prefix, m.succ, fn)
}

// planScan routes a translated (encoded-space) scan to the cheapest
// strategy the partition shape allows: a pruned sequential walk for
// ordered partitions — single-shard scans skip the merge machinery
// entirely — or the k-way merge for hash partitions.
func (s *ShardedIndex) planScan(m *opScratch, lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	if first, last, ok := s.scanSpan(lo, hi); ok {
		return s.orderedScan(&m.cur, first, last, lo, hi, fn)
	}
	return s.mergeScan(m, lo, hi, fn)
}

// scanSpan prunes an ordered partition to the inclusive shard span whose
// key intervals overlap the encoded query range [lo, hi). Shard i holds
// the keys in [split[i-1], split[i]), and the encoded order is strict, so
// its stored encodings lie in [encSplit[i-1], encSplit[i]). ok is false
// for unordered (hash) partitions over several shards, which have no
// prunable structure.
func (s *ShardedIndex) scanSpan(lo, hi []byte) (first, last int, ok bool) {
	if len(s.shards) == 1 {
		// A single shard holds every key: nothing to prune or merge.
		return 0, 0, true
	}
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

// scanCursorPool recycles shardCursor shells (tree cursors, resume
// buffers) for the k-way merge's per-shard cursors and the rebuild walk,
// so neither allocates a cursor per scan.
var scanCursorPool = sync.Pool{New: func() any { return new(shardCursor) }}

// orderedScan drains shards first..last sequentially. Ordered disjoint
// shard intervals make interleaving impossible: everything in shard w
// precedes everything in shard w+1 in encoded (hence original) order, so
// the global order is the concatenation of per-shard orders and no merge
// or heap is needed. Each shard still drains in chunks under its read
// lock, exactly like the merge path's cursors, through c, the scratch's
// cursor; with nothing to compare, the keys go out straight from each
// chunk.
func (s *ShardedIndex) orderedScan(c *shardCursor, first, last int, lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	count := 0
	for w := first; w <= last; w++ {
		c.reset(s.shards[w], lo, hi)
		for !c.done {
			c.fill()
			for i := range c.n {
				count++
				if !fn(c.keys[i], c.vals[i]) {
					return count
				}
			}
		}
	}
	return count
}

// scanChunk is how many keys a shard cursor takes per hold of its shard's
// read lock. Most range queries stop after a handful of results, and a
// merged scan over S shards takes S chunks before it emits anything, so
// chunks stay small; a refill that finds the shard unwritten resumes the
// tree cursor where it stopped, so small chunks cost a lock hold each,
// not a seek.
const scanChunk = 8

// shardCursor drains one shard's stored keys in [lo, hi) in chunks of
// scanChunk, one read-lock hold each. It keeps the tree cursor across the
// lock release, with the shard's version when it last moved: a refill
// that finds the version unchanged resumes the tree cursor, and one that
// finds a write in between seeks again from lastKey+0x00, the smallest
// key strictly above the last key it handed out. The chunk's keys alias
// tree memory, which no write changes (see cursor), so they stay valid
// after the lock is released.
type shardCursor struct {
	sh     *indexShard
	cur    cursor // the shard tree's cursor; kept for reuse across scans
	ver    uint64 // sh.ver when cur last moved
	sought bool   // cur is positioned in sh's tree
	lo, hi []byte // shared, read-only
	from   []byte // owned resume bound lastKey+0x00

	keys [scanChunk][]byte
	vals [scanChunk]uint64
	n, i int
	done bool // the tree cursor is exhausted; the current chunk is the last
}

// scanShard visits one shard's stored keys in [from, hi) (nil hi
// unbounded) in encoded order under the shard's read lock, until fn
// returns false: one locked pass, the hook behind the snapshot dump. Keys
// passed to fn alias tree memory (see cursor); fn must not call back into
// the index.
func (s *ShardedIndex) scanShard(shard int, from, hi []byte, fn func(k []byte, v uint64) bool) {
	sh := s.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c := sh.be.seek(nil, from, hi)
	for k, v, ok := c.Next(); ok && fn(k, v); k, v, ok = c.Next() {
	}
}

// reset re-aims a (possibly pooled) cursor at one shard's [lo, hi) span,
// keeping its tree cursor and resume buffer for reuse.
func (c *shardCursor) reset(sh *indexShard, lo, hi []byte) {
	c.sh, c.lo, c.hi = sh, lo, hi
	c.sought, c.done = false, false
	c.n, c.i = 0, 0
}

// drop drops the chunk's and the bounds' references, keeping the tree
// cursor and resume buffer for reuse.
func (c *shardCursor) drop() {
	c.sh, c.lo, c.hi = nil, nil, nil
	clear(c.keys[:c.n])
}

// release drops the cursor's references and returns it to the pool.
func (c *shardCursor) release() {
	c.drop()
	scanCursorPool.Put(c)
}

// fill takes the next chunk under the shard's read lock.
func (c *shardCursor) fill() {
	c.sh.mu.RLock()
	if !c.sought || c.ver != c.sh.ver {
		from := c.lo
		if c.sought {
			// A full chunk was handed out before the write: its last key
			// is still intact.
			c.from = append(append(c.from[:0], c.keys[c.n-1]...), 0x00)
			from = c.from
		}
		c.cur = c.sh.be.seek(c.cur, from, c.hi)
		c.ver, c.sought = c.sh.ver, true
	}
	n := 0
	for ; n < scanChunk; n++ {
		k, v, ok := c.cur.Next()
		if !ok {
			c.done = true
			break
		}
		c.keys[n], c.vals[n] = k, v
	}
	c.sh.mu.RUnlock()
	c.n, c.i = n, 0
}

// peek returns the cursor's current key, refilling from the shard when the
// chunk is consumed; ok is false when the shard is exhausted.
func (c *shardCursor) peek() (key []byte, ok bool) {
	if c.i >= c.n {
		if c.done {
			return nil, false
		}
		c.fill()
		if c.n == 0 {
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
func (s *ShardedIndex) mergeScan(m *opScratch, lo, hi []byte, fn func(key []byte, val uint64) bool) int {
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
