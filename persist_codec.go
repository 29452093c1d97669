package hope

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dict"
	"repro/internal/hutucker"
)

// Section kinds of the hope-level snapshot format, layered on the framing
// internal/snapshot provides (which owns magic, CRCs, and the commit
// protocol; this file owns only the payload bytes inside each section).
//
//	secMeta  — exactly one, first: store shape (kind, backend, scheme,
//	           structural encoder options, partition, shards, splits).
//	secDict  — at most one: the serialized dictionary entries; present
//	           exactly when the meta scheme is >= 0 (compressed).
//	secRun   — one per tree shard (an AdaptiveIndex's serving generation
//	           included), the shard's stored (encoded) keys and values in
//	           encoded sort order. Restore is re-encode-free: the dictionary
//	           is reassembled from secDict and the runs load back verbatim.
//
// Kind 4 held an older AdaptiveIndex format (per-stripe records with
// original keys); restore refuses it.
const (
	secMeta        uint8 = 1
	secDict        uint8 = 2
	secRun         uint8 = 3
	secRetiredARun uint8 = 4
)

// Store kinds recorded in the meta section.
const (
	kindIndex    uint8 = 0
	kindSharded  uint8 = 1
	kindAdaptive uint8 = 2
)

// snapMeta is the decoded meta section: everything structural a restore
// needs before it touches a run payload. Structural truth lives in the
// snapshot, not in the caller's options — a restored store always has the
// dumped shape.
type snapMeta struct {
	storeKind uint8
	backend   Backend
	scheme    int32 // core.Scheme, or -1 when uncompressed
	alphabet  uint32
	forceBS   bool
	partition uint8 // 0 = hash, 1 = range
	shards    uint32
	keyCount  uint64
	splits    [][]byte // original-key-space split points (range partitions)
}

// --- little-endian append helpers -----------------------------------------

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBytes(b []byte, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// payloadReader cursors over one section payload, latching the first
// error. Framing integrity is already CRC-proven by internal/snapshot, so
// a short or trailing payload here means a format mismatch — reported as
// ErrSnapshotCorrupt, never a partial result.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated section payload at offset %d", ErrSnapshotCorrupt, r.off)
	}
}

func (r *payloadReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *payloadReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *payloadReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// count reads a u64 element count and refuses one that the rest of the
// payload cannot hold at minSize bytes an element, so no allocation is
// ever sized by a forged count.
func (r *payloadReader) count(n uint64, minSize int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.b)-r.off)/minSize) {
		r.err = fmt.Errorf("%w: count %d exceeds the %d-byte payload remainder", ErrSnapshotCorrupt, n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// bytes returns the next length-prefixed byte string, aliasing the
// payload buffer; callers that retain it must copy (see ownedCopies).
func (r *payloadReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) || n < 0 {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *payloadReader) bool() bool { return r.u8() != 0 }

// done reports the latched error, or flags trailing garbage — a payload
// must be consumed exactly.
func (r *payloadReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes in section payload", ErrSnapshotCorrupt, len(r.b)-r.off)
	}
	return nil
}

// --- meta section ----------------------------------------------------------

func encodeMeta(m snapMeta) []byte {
	b := make([]byte, 0, 64)
	b = appendU8(b, m.storeKind)
	b = appendBytes(b, []byte(m.backend))
	b = appendU32(b, uint32(m.scheme))
	b = appendU32(b, m.alphabet)
	b = appendBool(b, m.forceBS)
	b = appendU8(b, m.partition)
	b = appendU32(b, m.shards)
	b = appendU64(b, m.keyCount)
	b = appendU32(b, uint32(len(m.splits)))
	for _, s := range m.splits {
		b = appendBytes(b, s)
	}
	return b
}

// Minimum encoded sizes of one repeated element of a section payload.
const (
	minSplitSize = 4             // length prefix
	minDictEntry = 4 + 1 + 1 + 8 // boundary length, symbol length, code length, code bits
	minRunEntry  = 4 + 8         // key length, value
)

// decodeMeta parses a meta payload written in snapshot format version.
// Version 1 carried a u64 after the shard count (the longest stored key,
// which ScanPrefix then needed); it is read and ignored.
func decodeMeta(payload []byte, version uint32) (snapMeta, error) {
	r := &payloadReader{b: payload}
	var m snapMeta
	m.storeKind = r.u8()
	m.backend = Backend(append([]byte(nil), r.bytes()...))
	m.scheme = int32(r.u32())
	m.alphabet = r.u32()
	m.forceBS = r.bool()
	m.partition = r.u8()
	m.shards = r.u32()
	if version < 2 {
		r.u64() // maxKeyLen
	}
	m.keyCount = r.u64()
	nSplits := r.count(uint64(r.u32()), minSplitSize)
	if nSplits > 0 {
		m.splits = make([][]byte, 0, nSplits)
		for i := 0; i < nSplits; i++ {
			m.splits = append(m.splits, append([]byte(nil), r.bytes()...))
		}
	}
	if err := r.done(); err != nil {
		return snapMeta{}, err
	}
	if m.storeKind > kindAdaptive {
		return snapMeta{}, fmt.Errorf("%w: unknown store kind %d", ErrSnapshotCorrupt, m.storeKind)
	}
	return m, nil
}

// --- dictionary section ----------------------------------------------------

func encodeDict(entries []dict.Entry) []byte {
	n := 0
	for _, e := range entries {
		n += 4 + len(e.Boundary) + 1 + 1 + 8
	}
	b := make([]byte, 0, 4+n)
	b = appendU32(b, uint32(len(entries)))
	for _, e := range entries {
		b = appendBytes(b, e.Boundary)
		b = appendU8(b, e.SymbolLen)
		b = appendU8(b, e.Code.Len)
		b = appendU64(b, e.Code.Bits)
	}
	return b
}

func decodeDict(payload []byte) ([]dict.Entry, error) {
	r := &payloadReader{b: payload}
	count := r.count(uint64(r.u32()), minDictEntry)
	if r.err != nil {
		return nil, r.err
	}
	entries := make([]dict.Entry, 0, count)
	for i := 0; i < count; i++ {
		boundary := append([]byte(nil), r.bytes()...)
		symLen := r.u8()
		codeLen := r.u8()
		bits := r.u64()
		entries = append(entries, dict.Entry{
			Boundary:  boundary,
			SymbolLen: symLen,
			Code:      hutucker.Code{Bits: bits, Len: codeLen},
		})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return entries, nil
}

// --- run sections ----------------------------------------------------------

// encodeRun serializes one tree shard's stored keys and values (secRun):
// u64 count, then per entry a length-prefixed stored key and a u64 value.
func encodeRun(keys [][]byte, vals []uint64) []byte {
	n := 8
	for _, k := range keys {
		n += 4 + len(k) + 8
	}
	b := make([]byte, 0, n)
	b = appendU64(b, uint64(len(keys)))
	for i, k := range keys {
		b = appendBytes(b, k)
		b = appendU64(b, vals[i])
	}
	return b
}

// decodeRun parses a secRun payload. Returned key slices alias payload.
func decodeRun(payload []byte) (keys [][]byte, vals []uint64, err error) {
	r := &payloadReader{b: payload}
	count := r.count(r.u64(), minRunEntry)
	if r.err != nil {
		return nil, nil, r.err
	}
	keys = make([][]byte, 0, count)
	vals = make([]uint64, 0, count)
	for i := 0; i < count; i++ {
		keys = append(keys, r.bytes())
		vals = append(vals, r.u64())
	}
	if err := r.done(); err != nil {
		return nil, nil, err
	}
	return keys, vals, nil
}

// ownedCopies deep-copies key slices (typically aliasing a snapshot file
// buffer) into slices of one fresh backing array, the form backends may
// retain (they keep bulk-loaded keys by reference).
func ownedCopies(keys [][]byte) [][]byte {
	return copyAll(keys)
}
