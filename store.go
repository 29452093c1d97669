package hope

// Store is the unified contract every index in this package serves: the
// lock-striped ShardedIndex (one shard unless Open is asked for more) and
// the lifecycle-managed AdaptiveIndex both implement it, and everything
// built on top of the library — the network server in package server
// above all — accepts a Store rather than a concrete index type. Construct
// one with Open, which selects the implementation from functional options.
// Every store is safe for concurrent use.
//
// Semantics shared by every implementation:
//
//   - Keys passed in are original (uncompressed) bytes; Put copies what it
//     must retain, so callers may reuse their buffers.
//   - Scan and ScanPrefix visit keys in ascending original-key order and
//     return how many keys they visited; fn may stop the traversal by
//     returning false. The key handed to fn is in the implementation's
//     stored form — the HOPE encoding for a compressed ShardedIndex, the
//     original bytes for an AdaptiveIndex (which decodes its stored
//     keys) — must not be modified, and is only valid for the duration
//     of the callback. On a ShardedIndex it aliases tree memory.
//   - Bulk with nil vals assigns each key its position. On the bulk-only
//     SuRF backend it is the only way to load keys.
//   - Close makes the store final: it releases background machinery,
//     after which every mutation (Put, Delete, Bulk) is refused with
//     ErrClosed while Get, Scan, ScanPrefix, and Len keep serving the
//     final contents. Close is idempotent — a second call is a no-op
//     returning nil. Finality is what lets a snapshot-on-drain serialize
//     a store that can no longer change underneath it (see Persistent).
type Store interface {
	// Put inserts or overwrites one key.
	Put(key []byte, val uint64) error
	// Get returns the value stored under key.
	Get(key []byte) (uint64, bool)
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) (bool, error)
	// Bulk loads keys[i] -> vals[i] through the fast load path.
	Bulk(keys [][]byte, vals []uint64) error
	// Scan visits stored keys with lo <= k < hi in ascending order.
	Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) int
	// ScanPrefix visits stored keys carrying prefix in ascending order.
	ScanPrefix(prefix []byte, fn func(key []byte, val uint64) bool) int
	// Len returns the number of live keys.
	Len() int
	// Close makes the store final: mutations return ErrClosed, reads and
	// scans keep serving. Idempotent.
	Close() error
}

// Quiescer is implemented by stores with background work that a server
// wants settled before shutdown completes: Quiesce blocks until every
// background task in flight has finished or aborted. AdaptiveIndex
// implements it (rebuild migrations); the static indexes have nothing to
// quiesce and do not.
type Quiescer interface {
	Quiesce()
}

// Every index implements Store; the server layer depends on it.
var (
	_ Store    = (*ShardedIndex)(nil)
	_ Store    = (*AdaptiveIndex)(nil)
	_ Quiescer = (*AdaptiveIndex)(nil)
)

// Close implements Store. ShardedIndex runs no background goroutines —
// shards are plain lock stripes — so Close only marks the index final:
// subsequent Put/Delete/Bulk return ErrClosed while reads and scans keep
// serving. Idempotent; always returns nil.
func (s *ShardedIndex) Close() error {
	s.closed.Store(true)
	return nil
}
