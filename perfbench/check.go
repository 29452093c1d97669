package main

import (
	"bytes"
	"fmt"
	"slices"

	hope "repro"
)

// check counts one verified outcome; a false one fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

func (b *bench) checkLen(st hope.Store, want int) {
	b.check(st.Len() == want, "store holds %d keys, want %d", st.Len(), want)
}

// checkOrder checks that enc is order-preserving on sorted, distinct keys:
// each must encode strictly above its predecessor, or a tree would store
// the two out of order (or as one key).
func (b *bench) checkOrder(enc *hope.Encoder, sorted [][]byte) {
	encs := enc.Clone().EncodeAll(sorted)
	bad, first := 0, ""
	for i := 1; i < len(encs); i++ {
		if bytes.Compare(encs[i-1], encs[i]) >= 0 {
			if bad == 0 {
				first = fmt.Sprintf("%q -> %x, %q -> %x", sorted[i-1], encs[i-1], sorted[i], encs[i])
			}
			bad++
		}
	}
	b.check(bad == 0, "%s encoder is not order-preserving: %d of %d adjacent key pairs, first %s", enc.Scheme(), bad, len(sorted)-1, first)
}

// scanBuf keeps what a scan visited, checked after its timer stops.
type scanBuf struct {
	keys  [][]byte
	vals  []uint64
	arena []byte
}

func (s *scanBuf) reset() { s.keys, s.vals, s.arena = s.keys[:0], s.vals[:0], s.arena[:0] }

func (s *scanBuf) add(k []byte, v uint64) {
	off := len(s.arena)
	s.arena = append(s.arena, k...)
	s.keys = append(s.keys, s.arena[off:len(s.arena):len(s.arena)])
	s.vals = append(s.vals, v)
}

// ok reports whether a scan that asked for limit keys visited between 1
// and limit keys in strictly ascending order; with values, each value must
// be its key's.
func (s *scanBuf) ok(limit int, values bool) bool { return s.fault(limit, values) == "" }

// fault describes the first way the scan broke ok's rules, or "".
func (s *scanBuf) fault(limit int, values bool) string {
	if len(s.keys) < 1 || len(s.keys) > limit {
		return fmt.Sprintf("%d keys for limit %d", len(s.keys), limit)
	}
	for i, k := range s.keys {
		if i > 0 && bytes.Compare(s.keys[i-1], k) >= 0 {
			return fmt.Sprintf("key %d %q after %q", i, k, s.keys[i-1])
		}
		if values && s.vals[i] != valueOf(k) {
			return fmt.Sprintf("key %d %q has value %x, want %x", i, k, s.vals[i], valueOf(k))
		}
	}
	return ""
}

// oracleScans runs scans on one goroutine and checks them against sorted,
// the store's exact key set: each must return exactly the next limit keys,
// each with its key's value (keys compared byte for byte when the store
// hands back original keys). It returns their latencies in the order they
// ran.
func (b *bench) oracleScans(st hope.Store, sorted [][]byte, scans []scanOp, original bool) lat {
	var l lat
	for _, sc := range scans {
		i, _ := slices.BinarySearchFunc(sorted, sc.start, bytes.Compare)
		want := sorted[i:min(len(sorted), i+sc.limit)]
		var sb scanBuf
		t0 := now()
		st.Scan(sc.start, nil, func(k []byte, v uint64) bool {
			sb.add(k, v)
			return len(sb.keys) < sc.limit
		})
		l.add(now() - t0)
		ok := sb.ok(sc.limit, original) && len(sb.keys) == len(want)
		for j := 0; ok && j < len(want); j++ {
			ok = sb.vals[j] == valueOf(want[j]) && (!original || bytes.Equal(sb.keys[j], want[j]))
		}
		b.check(ok, "scan from %q: %d keys, want %d", sc.start, len(sb.keys), len(want))
	}
	return l
}
