package hope

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// cursorCorpus is the adversarial corpus — the empty key, prefix keys,
// keys ending in 0x00 and 0xff runs — plus ART fan-outs: a Node256 under
// a short path and a Node48 under a path longer than the inline prefix
// bytes, each child a bare leaf or an inner node holding a prefix key.
func cursorCorpus() [][]byte {
	keys := adversarialCorpus()
	for b := 0; b < 256; b++ {
		if b%3 != 0 {
			keys = append(keys, append([]byte("fan/"), byte(b)))
		}
		if b%6 == 1 {
			k := append([]byte("sharedpath-0123456789/"), byte(b))
			keys = append(keys, k, append(slices.Clone(k), 'a'), append(slices.Clone(k), 0x00))
		}
	}
	return dedupe(keys)
}

// TestShardCursorDifferential drives one shard's cursor chunk by chunk
// over random [lo, hi) ranges and checks every key and value it hands out
// against a sorted model, on every backend, uncompressed and 3-Grams
// compressed. Between refills it writes to the shard, or leaves it alone:
// it deletes the last key handed out, inserts lastKey+0x00 (the re-seek
// bound itself), overwrites, inserts and deletes keys elsewhere, and on
// the bulk-only SuRF replaces the whole run. A refill that finds the
// shard unwritten must resume the tree cursor; one after a write must
// seek again above the last key. Both cases must occur.
func TestShardCursorDifferential(t *testing.T) {
	keys := cursorCorpus()
	encs := testEncoders(t)
	for _, backend := range Backends {
		for _, cfg := range []struct {
			name string
			enc  *core.Encoder
		}{{"uncompressed", nil}, {"3-Grams", encs[core.ThreeGrams]}} {
			t.Run(string(backend)+"/"+cfg.name, func(t *testing.T) {
				var resumed, sought int
				for seed := int64(1); seed <= 4; seed++ {
					r, s := cursorDifferential(t, backend, cfg.enc, keys, seed)
					resumed += r
					sought += s
				}
				if resumed == 0 || sought == 0 {
					t.Fatalf("refills: %d resumed, %d sought again; want both", resumed, sought)
				}
			})
		}
	}
}

// cursorModel is the shard's content in stored (encoded) form: the sorted
// stored keys, their values, and the original key of each.
type cursorModel struct {
	sorted []string
	vals   map[string]uint64
	orig   map[string][]byte
}

func (m *cursorModel) put(stored string, key []byte, v uint64) {
	if _, ok := m.vals[stored]; !ok {
		i, _ := slices.BinarySearch(m.sorted, stored)
		m.sorted = slices.Insert(m.sorted, i, stored)
	}
	m.vals[stored], m.orig[stored] = v, key
}

func (m *cursorModel) del(stored string) {
	if i, ok := slices.BinarySearch(m.sorted, stored); ok {
		m.sorted = slices.Delete(m.sorted, i, i+1)
		delete(m.vals, stored)
	}
}

// next returns the smallest stored key at or above from (strictly above
// when strict) and below hi (nil: unbounded).
func (m *cursorModel) next(from string, strict bool, hi []byte) (string, bool) {
	i, found := slices.BinarySearch(m.sorted, from)
	if found && strict {
		i++
	}
	if i == len(m.sorted) || hi != nil && m.sorted[i] >= string(hi) {
		return "", false
	}
	return m.sorted[i], true
}

// cursorDifferential runs 30 chunked scans over one shard with writes
// between refills and returns how many refills resumed the tree cursor
// and how many sought again.
func cursorDifferential(t *testing.T, backend Backend, enc *core.Encoder, keys [][]byte, seed int64) (resumed, sought int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := NewShardedIndexWithPartitioner(backend, enc, NewHashPartitioner(1))
	if err != nil {
		t.Fatal(err)
	}
	var boundEnc *core.Encoder
	if enc != nil {
		boundEnc = enc.Clone()
	}
	stored := func(k []byte) string { return string(encodeBound(boundEnc, nil, k)) }
	m := &cursorModel{vals: map[string]uint64{}, orig: map[string][]byte{}}
	load := func() {
		var ks [][]byte
		var vs []uint64
		for _, k := range keys {
			if rng.Intn(3) > 0 {
				ks = append(ks, k)
				vs = append(vs, rng.Uint64())
			}
		}
		if err := s.Bulk(ks, vs); err != nil {
			t.Fatal(err)
		}
		if backend == SuRF { // Bulk replaces a SuRF shard's run
			m.sorted = m.sorted[:0]
			clear(m.vals)
		}
		for i, k := range ks {
			m.put(stored(k), k, vs[i])
		}
	}
	load()
	put := func(k []byte) {
		v := rng.Uint64()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		m.put(stored(k), k, v)
	}
	del := func(k []byte) {
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		m.del(stored(k))
	}
	// write changes the shard between two refills, after last was handed
	// out.
	write := func(last string) {
		if backend == SuRF {
			load()
			return
		}
		lastKey := m.orig[last]
		switch rng.Intn(5) {
		case 0:
			del(lastKey)
		case 1:
			put(append(slices.Clone(lastKey), 0x00))
		case 2:
			put(keys[rng.Intn(len(keys))])
		case 3:
			del(keys[rng.Intn(len(keys))])
		case 4:
			if k, ok := m.next(last, true, nil); ok { // overwrite the next key
				put(m.orig[k])
			}
		}
	}

	for scan := range 30 {
		lo := keys[rng.Intn(len(keys))]
		if scan%5 == 0 {
			lo = nil
		}
		var hi []byte
		if scan%3 != 0 {
			hi = keys[rng.Intn(len(keys))]
		}
		loS := stored(lo)
		var hiS []byte
		if hi != nil {
			hiS = []byte(stored(hi))
		}
		c := scanCursorPool.Get().(*shardCursor)
		c.reset(s.shards[0], []byte(loS), hiS)
		from, strict := loS, false
		for n := 0; ; n++ {
			if c.i >= c.n && !c.done && c.sought { // the next peek refills
				if rng.Intn(2) == 0 {
					write(from)
				}
				if c.ver == c.sh.ver {
					resumed++
				} else {
					sought++
				}
			}
			want, wok := m.next(from, strict, hiS)
			k, ok := c.peek()
			if ok != wok || ok && string(k) != want {
				t.Fatalf("seed %d scan %d [%q, %q) key %d: cursor %q (%v), model %q (%v)",
					seed, scan, lo, hi, n, k, ok, want, wok)
			}
			if !ok {
				break
			}
			k, v := c.pop()
			if w := m.vals[want]; v != w {
				t.Fatalf("seed %d scan %d: value of %q is %d, model %d", seed, scan, k, v, w)
			}
			from, strict = string(k), true
		}
		c.release()
	}
	return resumed, sought
}

// TestScanKeysSurviveWrites holds on to the key slices a scan callback
// received — without copying them — and checks they are byte-identical
// after writes that rebuild their leaves: B+tree splits (inserts between
// every pair of keys), merges and compactions (deleting most keys), ART
// and HOT overwrites and deletes and inserts that turn a leaf into an
// inner node, and a SuRF bulk that replaces the run. The contract only
// promises the key during the callback; this pins what lets a shard
// cursor hand out a chunk of keys after releasing the lock.
func TestScanKeysSurviveWrites(t *testing.T) {
	var keys [][]byte
	for i := range 200 {
		keys = append(keys, []byte(fmt.Sprintf("key-%04d", i*2)))
	}
	for _, backend := range []Backend{BTree, ART, HOT, SuRF} {
		t.Run(string(backend), func(t *testing.T) {
			s, err := NewShardedIndexWithPartitioner(backend, nil, NewHashPartitioner(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Bulk(keys, nil); err != nil {
				t.Fatal(err)
			}
			var held [][]byte
			s.Scan(nil, nil, func(k []byte, _ uint64) bool {
				held = append(held, k)
				return true
			})
			if len(held) != len(keys) {
				t.Fatalf("scan saw %d keys, want %d", len(held), len(keys))
			}
			if backend == SuRF {
				if err := s.Bulk(keys[:10], nil); err != nil {
					t.Fatal(err)
				}
			} else {
				for i := range keys {
					for _, k := range [][]byte{
						[]byte(fmt.Sprintf("key-%04d", i*2+1)), // between neighbours: splits
						append(slices.Clone(keys[i]), 0x00),    // a leaf becomes a prefix key
					} {
						if err := s.Put(k, 1); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Put(keys[i], 2); err != nil { // overwrite
						t.Fatal(err)
					}
				}
				for i, k := range keys {
					if i%8 != 0 { // deletes merge and compact leaves
						if _, err := s.Delete(k); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for i, k := range held {
				if !bytes.Equal(k, keys[i]) {
					t.Fatalf("held key %d reads %q after writes, want %q", i, k, keys[i])
				}
			}
		})
	}
}
