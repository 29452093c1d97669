package core

import (
	"bytes"
	"sync"
)

// ConcurrentEncoder is a goroutine-safe wrapper around a shared dictionary.
// Dictionary lookups are read-only, so only the per-encode bit-buffer
// state needs isolating; a pool of appenders provides it. The paper's
// encoder is single-threaded — this wrapper is the natural extension for a
// DBMS running queries on many threads against one index dictionary.
// Encoding runs through the same dictionary kernel as the serial encoder.
type ConcurrentEncoder struct {
	enc  *Encoder
	pool sync.Pool
}

// NewConcurrentEncoder wraps an encoder for concurrent use. The wrapped
// encoder must no longer be used directly.
func NewConcurrentEncoder(e *Encoder) *ConcurrentEncoder {
	c := &ConcurrentEncoder{enc: e}
	c.pool.New = func() any { return new(appender) }
	return c
}

// Encode compresses key into a fresh buffer; safe for concurrent use.
func (c *ConcurrentEncoder) Encode(key []byte) []byte {
	out, _ := c.EncodeBits(nil, key)
	return out
}

// EncodeBits compresses key into dst; safe for concurrent use.
func (c *ConcurrentEncoder) EncodeBits(dst, key []byte) ([]byte, int) {
	a := c.pool.Get().(*appender)
	a.Reset(dst)
	c.enc.dict.AppendEncode(a, key)
	buf, bits := a.Finish()
	c.pool.Put(a)
	return buf, bits
}

// EncodeAll bulk-encodes keys across GOMAXPROCS workers; safe for
// concurrent use (see Encoder.EncodeAll).
func (c *ConcurrentEncoder) EncodeAll(keys [][]byte) [][]byte {
	return c.enc.EncodeAll(keys)
}

// EncodePair encodes the two boundary keys of a closed-range query; safe
// for concurrent use. Unlike Encoder.EncodePair it cannot share the
// encoder's appender, so ALM schemes fall back to two independent encodes.
func (c *ConcurrentEncoder) EncodePair(lo, hi []byte) ([]byte, []byte) {
	if !c.enc.Batchable() {
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		return c.Encode(lo), c.Encode(hi)
	}
	// A stack-local copy shares the read-only dictionary state and
	// supplies a fresh appender (the only mutable field), so no pool
	// round-trip is needed.
	e := *c.enc
	e.app = appender{}
	return e.EncodePair(lo, hi)
}

// EncodeBound translates one complete-key range bound into encoded space;
// safe for concurrent use (see Encoder.EncodeBound).
func (c *ConcurrentEncoder) EncodeBound(key []byte) []byte {
	e := *c.enc
	e.app = appender{}
	return e.EncodeBound(key)
}

// Scheme returns the wrapped encoder's scheme.
func (c *ConcurrentEncoder) Scheme() Scheme { return c.enc.scheme }

// NumEntries returns the dictionary size.
func (c *ConcurrentEncoder) NumEntries() int { return c.enc.NumEntries() }

// MemoryUsage returns the dictionary's modeled footprint in bytes.
func (c *ConcurrentEncoder) MemoryUsage() int { return c.enc.MemoryUsage() }
