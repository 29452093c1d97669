package hope

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// refSortRun is sortRun's specification: a stable sort on the key bytes,
// then, per run of equal keys, the value of the last input position.
func refSortRun(keys [][]byte, vals []uint64) ([][]byte, []uint64) {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	var outK [][]byte
	var outV []uint64
	for _, i := range idx {
		if n := len(outK); n > 0 && bytes.Equal(outK[n-1], keys[i]) {
			outV[n-1] = vals[i] // stable: i is later in the input
			continue
		}
		outK = append(outK, keys[i])
		outV = append(outV, vals[i])
	}
	return outK, outV
}

func checkSortRun(t *testing.T, keys [][]byte) {
	t.Helper()
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)*7 + 3
	}
	before := slices.Clone(keys)
	gotK, gotV := sortRun(keys, vals)
	wantK, wantV := refSortRun(keys, vals)
	for i := range keys {
		if !bytes.Equal(keys[i], before[i]) {
			t.Fatalf("sortRun reordered its input at %d", i)
		}
	}
	if len(gotK) != len(wantK) || len(gotV) != len(wantV) {
		t.Fatalf("sortRun kept %d keys (%d vals), want %d", len(gotK), len(gotV), len(wantK))
	}
	for i := range wantK {
		if !bytes.Equal(gotK[i], wantK[i]) || gotV[i] != wantV[i] {
			t.Fatalf("entry %d of %d: got %q=%d, want %q=%d", i, len(wantK), gotK[i], gotV[i], wantK[i], wantV[i])
		}
	}
}

// runGen draws n keys of one adversarial shape.
type runGen struct {
	name string
	gen  func(rng *rand.Rand, n int) [][]byte
}

// randKey draws a key of length 0..maxLen over alphabet.
func randKey(rng *rand.Rand, maxLen int, alphabet []byte) []byte {
	k := make([]byte, rng.Intn(maxLen+1))
	for j := range k {
		k[j] = alphabet[rng.Intn(len(alphabet))]
	}
	return k
}

var runGens = []runGen{
	{"binary", func(rng *rand.Rand, n int) [][]byte {
		var alpha [256]byte
		for i := range alpha {
			alpha[i] = byte(i)
		}
		out := make([][]byte, n)
		for i := range out {
			out[i] = randKey(rng, 20, alpha[:])
		}
		return out
	}},
	// A tiny alphabet of 0x00/0xff-heavy bytes at lengths around the
	// 8-byte word boundary: prefixes, zero-padded look-alikes and
	// duplicates on every word.
	{"zero-ff-boundary", func(rng *rand.Rand, n int) [][]byte {
		alpha := []byte{0x00, 0x00, 0x01, 0xfe, 0xff, 0xff}
		out := make([][]byte, n)
		for i := range out {
			k := randKey(rng, 3, alpha)
			pad := 5 + rng.Intn(12) // lengths 5..19 straddle 8 and 16
			for len(k) < pad {
				k = append(k, alpha[rng.Intn(len(alpha))])
			}
			out[i] = k[:rng.Intn(len(k)+1)]
		}
		return out
	}},
	{"prefix-chains", func(rng *rand.Rand, n int) [][]byte {
		base := []byte("http://www.example.com/a/very/long/shared/path/segment/")
		out := make([][]byte, n)
		for i := range out {
			k := slices.Clone(base[:rng.Intn(len(base)+1)])
			for j := rng.Intn(4); j > 0; j-- {
				k = append(k, "\x00a\xff"[rng.Intn(3)])
			}
			out[i] = k
		}
		return out
	}},
	{"heavy-duplicates", func(rng *rand.Rand, n int) [][]byte {
		distinct := max(1, n/7)
		pool := make([][]byte, distinct)
		for i := range pool {
			pool[i] = []byte(fmt.Sprintf("com.mail@user%06d", rng.Intn(distinct*2)))
		}
		out := make([][]byte, n)
		for i := range out {
			out[i] = pool[rng.Intn(distinct)]
		}
		return out
	}},
	{"sorted-with-duplicates", func(rng *rand.Rand, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("k%08d", i/3))
		}
		return out
	}},
	{"reverse-sorted", func(rng *rand.Rand, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("k%08d", n-i))
		}
		return out
	}},
	{"sorted-unique", func(rng *rand.Rand, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("k%08d", i))
		}
		return out
	}},
}

// TestSortRunMatchesReference covers both sort paths (pdqsort below
// radixMin, LSD radix at and above it) on every adversarial shape.
func TestSortRunMatchesReference(t *testing.T) {
	for _, g := range runGens {
		for _, n := range []int{0, 1, 2, 3, 100, radixMin - 1, radixMin, 3 * radixMin} {
			t.Run(fmt.Sprintf("%s/%d", g.name, n), func(t *testing.T) {
				checkSortRun(t, g.gen(rand.New(rand.NewSource(int64(n)+1)), n))
			})
		}
	}
}

// TestSortRunSortedFastPath pins that a strictly ascending run (every
// snapshot run) is returned without a copy.
func TestSortRunSortedFastPath(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("ab"), []byte("b")}
	vals := []uint64{1, 2, 3}
	gotK, gotV := sortRun(keys, vals)
	if &gotK[0] != &keys[0] || &gotV[0] != &vals[0] {
		t.Fatal("sorted run was copied")
	}
}

// FuzzSortRun compares sortRun with the stable reference on key lists
// decoded from the fuzz input: each byte either starts a new key, repeats
// an earlier key, extends the current one, or cuts it to a prefix, so
// duplicates, prefix pairs and 0x00/0xff bytes are the common case. A set
// low bit in the first byte scales the list past radixMin so the radix
// path is fuzzed too.
func FuzzSortRun(f *testing.F) {
	f.Add([]byte("\x00abc\x00ab\xff\xff"))
	f.Add([]byte("\x01http://a.b/\x00\x00\x00\x00\x00\x00\x00\x00\x00x"))
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		scale := data[0]&1 == 1
		var keys [][]byte
		var cur []byte
		for _, c := range data[1:] {
			switch c % 8 {
			case 0: // new key
				keys = append(keys, cur)
				cur = nil
			case 1: // repeat an earlier key
				if len(keys) > 0 {
					keys = append(keys, keys[int(c)%len(keys)])
				}
			case 2: // cut the current key to a prefix
				n := int(c>>3) % (len(cur) + 1)
				cur = cur[:n:n]
			default:
				cur = append(cur, c)
			}
		}
		keys = append(keys, cur)
		if scale {
			base := keys
			for r := 0; len(keys) < radixMin+len(base); r++ {
				for _, k := range base {
					if r%3 == 0 {
						keys = append(keys, k)
					} else {
						keys = append(keys, append(slices.Clip(k), byte(r), byte(r>>8)))
					}
				}
			}
		}
		checkSortRun(t, keys)
	})
}

// bulkShape is one store shape Open builds: plain, sharded by hash and by
// range, adaptive by hash and by range.
type bulkShape struct {
	name string
	opts []Option
}

// bulkShapes returns the five store shapes over clones of e (nil for an
// uncompressed store).
func bulkShapes(e *core.Encoder) []bulkShape {
	clone := func() *core.Encoder {
		if e == nil {
			return nil
		}
		return e.Clone()
	}
	return []bulkShape{
		{"Index", []Option{WithEncoder(clone())}}, // the default store: one shard
		{"Sharded/hash", []Option{WithEncoder(clone()), WithShards(4)}},
		{"Sharded/range", []Option{WithEncoder(clone()), WithShards(4), WithRangePartitioner(nil)}},
		{"Adaptive/hash", []Option{WithAdaptive(AdaptiveOptions{Encoder: clone(), Shards: 4, Manual: true})}},
		{"Adaptive/range", []Option{WithAdaptive(AdaptiveOptions{
			Encoder: clone(), Shards: 4, Manual: true, Partition: RangePartitioned,
		})}},
	}
}

// TestBulkDuplicatesLastWins: on every backend and store shape (plain,
// sharded by hash and by range, adaptive by hash and by range), with and
// without an encoder, Bulk of a run with duplicate keys stores each key's
// value from its last position — what a Put loop would leave. Adaptive
// stores are checked again after a Rebuild: migration copies only live
// records, so a stale duplicate record would reappear there.
func TestBulkDuplicatesLastWins(t *testing.T) {
	distinct := datagen.Generate(datagen.Email, 3000, 5)
	rng := rand.New(rand.NewSource(6))
	keys := make([][]byte, 20_000)
	vals := make([]uint64, len(keys))
	last := map[string]uint64{}
	for i := range keys {
		keys[i] = distinct[rng.Intn(len(distinct))]
		vals[i] = uint64(i) + 1
		last[string(keys[i])] = vals[i]
	}
	enc, err := core.Build(core.DoubleChar, distinct, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, phase string, s Store) {
		t.Helper()
		if s.Len() != len(last) {
			t.Fatalf("%s: Len = %d, want %d distinct keys", phase, s.Len(), len(last))
		}
		if n := s.Scan(nil, nil, func([]byte, uint64) bool { return true }); n != len(last) {
			t.Fatalf("%s: full scan saw %d keys, want %d", phase, n, len(last))
		}
		wrong := 0
		for k, want := range last {
			if v, ok := s.Get([]byte(k)); !ok || v != want {
				wrong++
			}
		}
		if wrong > 0 {
			t.Fatalf("%s: %d of %d keys do not return their last value", phase, wrong, len(last))
		}
	}
	for _, backend := range Backends {
		for _, e := range []*core.Encoder{nil, enc} {
			t.Run(fmt.Sprintf("%s/encoded=%v", backend, e != nil), func(t *testing.T) {
				for _, shape := range bulkShapes(e) {
					t.Run(shape.name, func(t *testing.T) {
						s := mustOpen(t, backend, shape.opts...)
						if err := s.Bulk(keys, vals); err != nil {
							t.Fatal(err)
						}
						check(t, "after Bulk", s)
						if a, ok := s.(*AdaptiveIndex); ok {
							if err := a.Rebuild(); err != nil {
								t.Fatal(err)
							}
							check(t, "after Rebuild", s)
						}
					})
				}
			})
		}
	}
}

// TestBulkIntoNonEmptyUpserts: on every backend and store shape, a second
// Bulk into a populated mutable store takes the insert path, so it
// overwrites the keys it repeats and keeps the ones it does not. SuRF,
// which cannot insert, replaces its contents instead — in a sharded store
// that includes the shards the second run sends no keys to. The second
// run is a single key, so most shards receive none.
func TestBulkIntoNonEmptyUpserts(t *testing.T) {
	all := datagen.Generate(datagen.URL, 4000, 8)
	first, second := all[:2500], all[1500:]
	enc, err := core.Build(core.ThreeGrams, all[:500], core.Options{DictLimit: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	firstVals := make([]uint64, len(first))
	for i := range firstVals {
		firstVals[i] = 1_000_000 + uint64(i)
	}
	for _, backend := range Backends {
		for _, e := range []*core.Encoder{nil, enc} {
			t.Run(fmt.Sprintf("%s/encoded=%v", backend, e != nil), func(t *testing.T) {
				for _, shape := range bulkShapes(e) {
					for _, run := range [][][]byte{second, second[:1]} {
						t.Run(fmt.Sprintf("%s/second=%d", shape.name, len(run)), func(t *testing.T) {
							s := mustOpen(t, backend, shape.opts...)
							if err := s.Bulk(first, firstVals); err != nil {
								t.Fatal(err)
							}
							if err := s.Bulk(run, nil); err != nil {
								t.Fatal(err)
							}
							want := map[string]uint64{}
							if backend != SuRF {
								for i, k := range first {
									want[string(k)] = firstVals[i]
								}
							}
							for i, k := range run {
								want[string(k)] = uint64(i)
							}
							if s.Len() != len(want) {
								t.Fatalf("Len = %d, want %d", s.Len(), len(want))
							}
							for _, k := range all {
								v, ok := s.Get(k)
								w, present := want[string(k)]
								if ok != present || v != w {
									t.Fatalf("Get(%q) = %d,%v, want %d,%v", k, v, ok, w, present)
								}
							}
						})
					}
				}
			})
		}
	}
}

var sortSink [][]byte

// BenchmarkSortRun times sortRun on 250k URL keys in random order, raw
// and encoded under four schemes, reporting each run's compression rate
// beside its sort time — the check on whether sort cost follows the
// compressed key bytes.
func BenchmarkSortRun(b *testing.B) {
	const n = 250_000
	keys := datagen.Generate(datagen.URL, n, 42)
	rand.New(rand.NewSource(43)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	vals := make([]uint64, n)
	sample := SampleKeys(keys, 0.01, 44)
	cases := []struct {
		name   string
		scheme Scheme
		opt    Options
	}{
		{"Single-Char", SingleChar, Options{}},
		{"Double-Char", DoubleChar, Options{}},
		{"3-Grams", ThreeGrams, Options{DictLimit: 1 << 16}},
		{"4-Grams", FourGrams, Options{DictLimit: 1 << 16}},
	}
	run := func(b *testing.B, run [][]byte, cpr float64) {
		b.ResetTimer()
		for range b.N {
			sortSink, _ = sortRun(run, vals)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
		b.ReportMetric(float64(totalLen(run))/n, "B/key")
		b.ReportMetric(cpr, "cpr")
	}
	b.Run("raw", func(b *testing.B) { run(b, keys, 1) })
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			enc, err := Build(c.scheme, sample, c.opt)
			if err != nil {
				b.Fatal(err)
			}
			run(b, enc.EncodeAll(keys), enc.CompressionRate(keys))
		})
	}
}
