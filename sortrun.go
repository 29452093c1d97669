package hope

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
)

// sortRun orders a bulk run of stored keys for a bottom-up tree build: it
// returns the distinct keys ascending, each paired with the value of its
// last input position (the overwrite semantics a Put loop would give).
// keys and vals are not modified; the result may alias them.
//
// A run that is already strictly ascending — every snapshot run — is
// recognised in one linear pass and returned as is. Anything else goes
// through an MSD radix sort over cached 8-byte big-endian words: each
// group is ordered on the word at its depth (16-bit LSD passes for large
// groups, pdqsort for small ones), and groups of equal words recurse
// 8 bytes deeper, so the work scales with the bytes that tell keys apart.
// Shorter, compressed keys finish in fewer rounds.
func sortRun(keys [][]byte, vals []uint64) ([][]byte, []uint64) {
	if isStrictlyAscending(keys) {
		return keys, vals
	}
	s := runSorter{keys: keys, items: make([]runItem, len(keys))}
	for i := range s.items {
		s.items[i].i = uint32(i)
	}
	s.sort(s.items, 0)
	outKeys := make([][]byte, 0, len(keys))
	outVals := make([]uint64, 0, len(keys))
	for _, it := range s.items {
		if it.n == dupItem {
			continue
		}
		outKeys = append(outKeys, keys[it.i])
		outVals = append(outVals, vals[it.i])
	}
	return outKeys, outVals
}

func isStrictlyAscending(keys [][]byte) bool {
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return false
		}
	}
	return true
}

// runItem is one key in the sort: w caches its 8 bytes at the current
// depth (big-endian, zero-padded), n how many of those bytes the key
// really has (0-8), and i its input position.
type runItem struct {
	w uint64
	i uint32
	n uint8
}

// dupItem marks an item whose key equals a later input's; it is dropped.
const dupItem = 0xff

const (
	// radixMin is the smallest group the 16-bit LSD passes sort: below
	// it, clearing four 64K-entry histograms costs more than pdqsort.
	radixMin    = 1 << 12
	radixDigits = 1 << 16
)

type runSorter struct {
	keys  [][]byte
	items []runItem
	tmp   []runItem // LSD scatter buffer, allocated on first use
	count []uint32  // four 16-bit digit histograms
}

// sort orders g, whose keys agree on their first depth bytes.
func (s *runSorter) sort(g []runItem, depth int) {
	for j := range g {
		k := s.keys[g[j].i]
		g[j].w, g[j].n = wordAt(k, depth)
	}
	if len(g) >= radixMin {
		s.radix(g)
	} else {
		slices.SortFunc(g, func(a, b runItem) int { return cmp.Compare(a.w, b.w) })
	}
	for lo := 0; lo < len(g); {
		hi := lo + 1
		for hi < len(g) && g[hi].w == g[lo].w {
			hi++
		}
		if hi-lo > 1 {
			s.resolve(g[lo:hi], depth)
		}
		lo = hi
	}
}

// resolve orders a run of items with equal words. A key with fewer real
// bytes in the word is a proper prefix of the longer ones (their extra
// bytes are the zeros it was padded with), so the run orders by n; equal
// n below 8 means equal keys, and the n == 8 tail recurses 8 bytes on.
func (s *runSorter) resolve(g []runItem, depth int) {
	slices.SortFunc(g, func(a, b runItem) int { return cmp.Compare(a.n, b.n) })
	for lo := 0; lo < len(g); {
		hi := lo + 1
		for hi < len(g) && g[hi].n == g[lo].n {
			hi++
		}
		switch {
		case hi-lo == 1:
		case g[lo].n == 8:
			s.sort(g[lo:hi], depth+8)
		default:
			keepLast(g[lo:hi])
		}
		lo = hi
	}
}

// keepLast keeps the item with the latest input position of a group of
// equal keys and marks the rest as duplicates. The group's order is
// whatever the unstable sorts left, so the survivor is found by position.
func keepLast(g []runItem) {
	last := 0
	for j := range g {
		if g[j].i > g[last].i {
			last = j
		}
	}
	g[0], g[last] = g[last], g[0]
	for j := 1; j < len(g); j++ {
		g[j].n = dupItem
	}
}

// wordAt returns key's 8 bytes from depth, big-endian and zero-padded,
// and how many of them the key has.
func wordAt(key []byte, depth int) (uint64, uint8) {
	if depth >= len(key) {
		return 0, 0
	}
	b := key[depth:]
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b), 8
	}
	var w uint64
	for _, c := range b {
		w = w<<8 | uint64(c)
	}
	return w << (8 * (8 - uint(len(b)))), uint8(len(b))
}

// radix sorts g on w with four 16-bit LSD passes, skipping a pass when
// every item shares its digit (common: a group's keys often agree on
// most of the word).
func (s *runSorter) radix(g []runItem) {
	if s.count == nil {
		s.count = make([]uint32, 4*radixDigits)
		s.tmp = make([]runItem, len(s.items))
	} else {
		clear(s.count)
	}
	for _, it := range g {
		s.count[it.w&0xffff]++
		s.count[radixDigits+int(it.w>>16&0xffff)]++
		s.count[2*radixDigits+int(it.w>>32&0xffff)]++
		s.count[3*radixDigits+int(it.w>>48)]++
	}
	src, dst := g, s.tmp[:len(g)]
	for p := 0; p < 4; p++ {
		c := s.count[p*radixDigits : (p+1)*radixDigits]
		shift := 16 * uint(p)
		if c[src[0].w>>shift&0xffff] == uint32(len(g)) {
			continue
		}
		sum := uint32(0)
		for d := range c {
			c[d], sum = sum, sum+c[d]
		}
		for _, it := range src {
			d := it.w >> shift & 0xffff
			dst[c[d]] = it
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &g[0] {
		copy(g, src)
	}
}
