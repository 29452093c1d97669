package hope

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/art"
	"repro/internal/btree"
	"repro/internal/hot"
	"repro/internal/prefixbtree"
	"repro/internal/surf"
)

// Backend names one of the five search trees the paper evaluates; every
// store holds its keys in one of them per shard.
type Backend string

const (
	// ART is the adaptive radix tree (Leis et al.).
	ART Backend = "ART"
	// HOT is the height-optimized trie (Binna et al.).
	HOT Backend = "HOT"
	// SuRF is the succinct range filter in front of a sorted static run;
	// it is bulk-loaded and immutable (Put and Delete return
	// ErrImmutableBackend).
	SuRF Backend = "SuRF"
	// BTree is the B+tree.
	BTree Backend = "B+tree"
	// PrefixBTree is the prefix-compressed B+tree.
	PrefixBTree Backend = "Prefix B+tree"
)

// Backends lists every facade backend in the paper's order.
var Backends = []Backend{ART, HOT, SuRF, BTree, PrefixBTree}

// ErrImmutableBackend is returned by Put and Delete on bulk-only backends
// (SuRF builds a succinct static structure that cannot be updated in
// place).
var ErrImmutableBackend = errors.New("hope: backend is immutable; load it with Bulk")

// newIndexBackend constructs the named search tree, one per shard.
func newIndexBackend(backend Backend) (indexBackend, error) {
	switch backend {
	case ART:
		return &artBackend{t: art.New(art.IndexMode)}, nil
	case HOT:
		return &hotBackend{t: hot.New()}, nil
	case SuRF:
		return &surfBackend{}, nil
	case BTree:
		return &btreeBackend{t: btree.New()}, nil
	case PrefixBTree:
		return &prefixBackend{t: prefixbtree.New()}, nil
	}
	return nil, fmt.Errorf("hope: unknown backend %q", backend)
}

// copyAll deep-copies keys into slices of one backing array: the run a
// SuRF backend retains owns its bytes and nothing else.
func copyAll(keys [][]byte) [][]byte {
	backing := make([]byte, 0, totalLen(keys))
	out := make([][]byte, len(keys))
	for i, k := range keys {
		start := len(backing)
		backing = append(backing, k...)
		out[i] = backing[start:len(backing):len(backing)]
	}
	return out
}

func totalLen(keys [][]byte) int {
	n := 0
	for _, k := range keys {
		n += len(k)
	}
	return n
}

// prefixSuccessor returns the smallest byte string greater than every
// string with the given prefix, or nil if none exists (all-0xff prefixes).
func prefixSuccessor(p []byte) []byte {
	return appendSuccessor(nil, p)
}

// appendSuccessor writes p's successor into dst's storage (p with its
// trailing 0xff run dropped and its last remaining byte incremented) and
// returns it, or nil when p is all 0xff.
func appendSuccessor(dst, p []byte) []byte {
	i := len(p) - 1
	for ; i >= 0 && p[i] == 0xff; i-- {
	}
	if i < 0 {
		return nil
	}
	dst = append(dst[:0], p[:i+1]...)
	dst[i]++
	return dst
}

// indexBackend adapts one search tree to the facade. Keys at this layer
// are already in stored (encoded) form. insert and bulk copy the key
// bytes they keep (every tree does, and SuRF copies its run), so callers
// may pass scratch buffers, bulk workers' shared encode buffers or
// snapshot file bytes.
type indexBackend interface {
	insert(k []byte, v uint64) error
	bulk(keys [][]byte, vals []uint64) error
	get(k []byte) (uint64, bool)
	remove(k []byte) (bool, error)
	// seek returns a cursor over the stored keys in [lo, hi) (nil hi
	// unbounded), reusing c's storage when c is a cursor of the same
	// backend type (c may be nil).
	seek(c cursor, lo, hi []byte) cursor
	memory() int
	length() int
}

// cursor walks a backend's stored keys in ascending byte order; Next
// reports ok false past the last key of its range. A key it returns
// aliases memory that no write changes — tree memory, or for the Prefix
// B+tree the cursor's own arena, until the cursor is sought again — so
// the key outlives the call and later writes, and must not be modified.
// The cursor's position is valid only until the tree's next write.
type cursor interface {
	Next() (key []byte, val uint64, ok bool)
}

// seekTree seeks a tree package's cursor (type C, over a tree of type T)
// in t, reusing c when it is one.
func seekTree[C any, PC interface {
	*C
	cursor
	Seek(t *T, lo, hi []byte)
}, T any](c cursor, t *T, lo, hi []byte) cursor {
	tc, ok := c.(PC)
	if !ok {
		tc = new(C)
	}
	tc.Seek(t, lo, hi)
	return tc
}

// insertLoop implements bulk for a mutable tree that already holds keys:
// a Put per key keeps the overwrite semantics against what is stored. An
// empty tree is built bottom-up from one sortRun instead.
func insertLoop(be indexBackend, keys [][]byte, vals []uint64) error {
	for i, k := range keys {
		if err := be.insert(k, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

type artBackend struct{ t *art.Tree }

func (b *artBackend) insert(k []byte, v uint64) error { b.t.Insert(k, v); return nil }
func (b *artBackend) bulk(ks [][]byte, vs []uint64) error {
	if b.t.Len() > 0 {
		return insertLoop(b, ks, vs)
	}
	keys, vals := sortRun(ks, vs)
	b.t = art.BulkLoad(art.IndexMode, keys, vals)
	return nil
}
func (b *artBackend) get(k []byte) (uint64, bool)   { return b.t.Get(k) }
func (b *artBackend) remove(k []byte) (bool, error) { return b.t.Delete(k), nil }
func (b *artBackend) memory() int                   { return b.t.MemoryUsage() }
func (b *artBackend) length() int                   { return b.t.Len() }
func (b *artBackend) seek(c cursor, lo, hi []byte) cursor {
	return seekTree[art.Cursor](c, b.t, lo, hi)
}

type hotBackend struct{ t *hot.Tree }

func (b *hotBackend) insert(k []byte, v uint64) error { b.t.Insert(k, v); return nil }
func (b *hotBackend) bulk(ks [][]byte, vs []uint64) error {
	if b.t.Len() > 0 {
		return insertLoop(b, ks, vs)
	}
	b.t = hot.BulkLoad(sortRun(ks, vs))
	return nil
}
func (b *hotBackend) get(k []byte) (uint64, bool)   { return b.t.Get(k) }
func (b *hotBackend) remove(k []byte) (bool, error) { return b.t.Delete(k), nil }
func (b *hotBackend) memory() int                   { return b.t.MemoryUsage() }
func (b *hotBackend) length() int                   { return b.t.Len() }
func (b *hotBackend) seek(c cursor, lo, hi []byte) cursor {
	return seekTree[hot.Cursor](c, b.t, lo, hi)
}

type btreeBackend struct{ t *btree.Tree }

func (b *btreeBackend) insert(k []byte, v uint64) error { b.t.Insert(k, v); return nil }
func (b *btreeBackend) bulk(ks [][]byte, vs []uint64) error {
	if b.t.Len() > 0 {
		return insertLoop(b, ks, vs)
	}
	b.t = btree.BulkLoad(sortRun(ks, vs))
	return nil
}
func (b *btreeBackend) get(k []byte) (uint64, bool)   { return b.t.Get(k) }
func (b *btreeBackend) remove(k []byte) (bool, error) { return b.t.Delete(k), nil }
func (b *btreeBackend) memory() int                   { return b.t.MemoryUsage() }
func (b *btreeBackend) length() int                   { return b.t.Len() }
func (b *btreeBackend) seek(c cursor, lo, hi []byte) cursor {
	return seekTree[btree.Cursor](c, b.t, lo, hi)
}

type prefixBackend struct{ t *prefixbtree.Tree }

func (b *prefixBackend) insert(k []byte, v uint64) error { b.t.Insert(k, v); return nil }
func (b *prefixBackend) bulk(ks [][]byte, vs []uint64) error {
	if b.t.Len() > 0 {
		return insertLoop(b, ks, vs)
	}
	b.t = prefixbtree.BulkLoad(sortRun(ks, vs))
	return nil
}
func (b *prefixBackend) get(k []byte) (uint64, bool)   { return b.t.Get(k) }
func (b *prefixBackend) remove(k []byte) (bool, error) { return b.t.Delete(k), nil }
func (b *prefixBackend) memory() int                   { return b.t.MemoryUsage() }
func (b *prefixBackend) length() int                   { return b.t.Len() }
func (b *prefixBackend) seek(c cursor, lo, hi []byte) cursor {
	return seekTree[prefixbtree.Cursor](c, b.t, lo, hi)
}

// surfBackend is SuRF in its production role: a succinct filter in front
// of a sorted run (as in an LSM level). Bulk sorts the encoded keys
// (sortRun: last write wins on duplicates), builds a SuRF-Real8 over them
// and retains the run, replacing any earlier contents; Get consults the
// filter before binary-searching the run, and scans short-circuit through
// MayIntersect. The backend is exact (the run is authoritative) and
// immutable.
type surfBackend struct {
	filter *surf.Filter
	keys   [][]byte
	vals   []uint64
}

func (b *surfBackend) insert([]byte, uint64) error { return ErrImmutableBackend }
func (b *surfBackend) remove([]byte) (bool, error) { return false, ErrImmutableBackend }

func (b *surfBackend) bulk(keys [][]byte, vals []uint64) error {
	keys, vals = sortRun(keys, vals)
	// The run may alias the caller's keys and vals; the backend retains
	// its own, the key bytes in one arena of exactly this run.
	b.keys, b.vals = copyAll(keys), slices.Clone(vals)
	b.filter = surf.Build(b.keys, surf.Real, 8)
	return nil
}

func (b *surfBackend) get(k []byte) (uint64, bool) {
	if b.filter == nil || !b.filter.MayContain(k) {
		return 0, false
	}
	i := sort.Search(len(b.keys), func(i int) bool { return bytes.Compare(b.keys[i], k) >= 0 })
	if i < len(b.keys) && bytes.Equal(b.keys[i], k) {
		return b.vals[i], true
	}
	return 0, false
}

// surfCursor walks a slice of the immutable run: bulk replaces the run
// rather than writing into it, so its keys outlive later loads.
type surfCursor struct {
	keys   [][]byte
	vals   []uint64
	i, end int
}

func (c *surfCursor) Next() ([]byte, uint64, bool) {
	if c.i >= c.end {
		return nil, 0, false
	}
	c.i++
	return c.keys[c.i-1], c.vals[c.i-1], true
}

// seek short-circuits through MayIntersect, then binary-searches both
// bounds in the run.
func (b *surfBackend) seek(c cursor, lo, hi []byte) cursor {
	sc, ok := c.(*surfCursor)
	if !ok {
		sc = new(surfCursor)
	}
	*sc = surfCursor{keys: b.keys, vals: b.vals}
	if b.filter == nil || !b.filter.MayIntersect(lo, hi) {
		return sc
	}
	search := func(bound []byte) int {
		return sort.Search(len(b.keys), func(i int) bool { return bytes.Compare(b.keys[i], bound) >= 0 })
	}
	sc.i, sc.end = search(lo), len(b.keys)
	if hi != nil {
		sc.end = search(hi)
	}
	return sc
}

func (b *surfBackend) memory() int {
	m := 0
	if b.filter != nil {
		m = b.filter.MemoryUsage()
	}
	// The run itself: key bytes plus slice headers and values.
	for _, k := range b.keys {
		m += len(k) + 24
	}
	return m + len(b.vals)*8
}

func (b *surfBackend) length() int { return len(b.keys) }
