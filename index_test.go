package hope

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// ---------------------------------------------------------------------------
// Fixtures: adversarial corpus + one encoder per tested scheme.
// ---------------------------------------------------------------------------

// adversarialCorpus builds the key set the differential scans run over:
// dense shared prefixes, keys that are proper prefixes of other keys, the
// empty key, 0xff runs, keys that extend other keys by 0x00 runs, plus
// deterministic email-ish and binary filler.
func adversarialCorpus() [][]byte {
	keys := [][]byte{
		{},
		[]byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"), []byte("abcde"),
		[]byte("app"), []byte("appl"), []byte("apple"), []byte("applesauce"),
		[]byte("application"), []byte("applications"), []byte("apply"),
		[]byte("com.gmail@alice"), []byte("com.gmail@bob"), []byte("com.gmail@carol"),
		[]byte("com.yahoo@dave"), []byte("com.yahoo@erin"), []byte("org.wiki@frank"),
		[]byte("com.gmail@"), []byte("com."), []byte("com"),
		{0xff}, {0xff, 0xff}, {0xff, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xff},
		[]byte("a\xff"), []byte("a\xff\xff"), []byte("a\xffz"), []byte("a\xff\xffz"),
		{0x00}, {0x00, 0x01}, {0x00, 0xff}, {0x01},
		[]byte("z"), []byte("zz"), []byte("zzz"),
		{0x00, 0x00}, {0x00, 0x00, 0x00}, []byte("a\x00"), []byte("a\x00\x00"),
		[]byte("app\x00"), []byte("apple\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("com\x00"), []byte("com.gmail@bob\x00"), []byte("z\x00"), []byte("\xff\x00"),
	}
	rng := rand.New(rand.NewSource(99))
	names := []string{"grace", "heidi", "ivan", "judy", "mallory", "nick"}
	doms := []string{"com.gmail@", "net.mail@", "org.wiki@"}
	for i := 0; i < 120; i++ {
		k := doms[rng.Intn(len(doms))] + names[rng.Intn(len(names))]
		if rng.Intn(2) == 0 {
			k += fmt.Sprintf("%02d", rng.Intn(100))
		}
		keys = append(keys, []byte(k))
	}
	for i := 0; i < 120; i++ {
		k := make([]byte, 1+rng.Intn(10))
		for j := range k {
			k[j] = byte(rng.Intn(256))
		}
		keys = append(keys, k)
	}
	return dedupe(keys)
}

func dedupe(keys [][]byte) [][]byte {
	seen := map[string]bool{}
	out := keys[:0]
	for _, k := range keys {
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, k)
		}
	}
	return out
}

// scanBounds is the bound set the differential scans sweep: keys present
// and absent, prefixes of stored keys, 0xff-run upper bounds, and the
// extremes.
func scanBounds() [][]byte {
	return [][]byte{
		{},
		{0x00}, {0x01},
		[]byte("a"), []byte("ab"), []byte("app"), []byte("apple"), []byte("applf"),
		[]byte("apply"), []byte("b"),
		[]byte("com.gmail@"), []byte("com.gmail@bob"), []byte("com.yahoo@"),
		[]byte("nosuchkey"),
		[]byte("a\xff"), []byte("a\xff\xff"), []byte("a\xffz"),
		{0xff}, {0xff, 0xff}, {0xff, 0xff, 0xff, 0xff},
		[]byte("zzz"), []byte("zzzz"),
		[]byte("a\x00"), []byte("app\x00"), {0x00, 0x00},
	}
}

// testSchemes are the encoder configurations the differential tests cover
// (≥3 schemes, spanning all three dictionary structures: array,
// bitmap-trie, ART-based).
var testSchemes = []core.Scheme{core.SingleChar, core.DoubleChar, core.ThreeGrams, core.ALMImproved}

var encFixture struct {
	sync.Once
	encs map[core.Scheme]*core.Encoder
	err  error
}

func testEncoders(t *testing.T) map[core.Scheme]*core.Encoder {
	t.Helper()
	encFixture.Do(func() {
		samples := adversarialCorpus()
		encFixture.encs = map[core.Scheme]*core.Encoder{}
		for _, s := range testSchemes {
			opt := core.Options{DictLimit: 1 << 10, MaxPatternLen: 16}
			if s == core.DoubleChar {
				opt = core.Options{} // fixed-size full-alphabet dictionary
			}
			e, err := core.Build(s, samples, opt)
			if err != nil {
				encFixture.err = fmt.Errorf("build %v: %v", s, err)
				return
			}
			encFixture.encs[s] = e
		}
	})
	if encFixture.err != nil {
		t.Fatal(encFixture.err)
	}
	return encFixture.encs
}

// openIndex opens a single-goroutine Index through Open.
func openIndex(t *testing.T, backend Backend, enc *core.Encoder) *Index {
	t.Helper()
	return mustOpen(t, backend, WithEncoder(enc)).(*Index)
}

// loadIndex builds an index over the corpus with val i for key i.
func loadIndex(t *testing.T, backend Backend, enc *core.Encoder, keys [][]byte) *Index {
	t.Helper()
	x := openIndex(t, backend, enc)
	if err := x.Bulk(keys, nil); err != nil {
		t.Fatalf("%s: bulk: %v", backend, err)
	}
	return x
}

// requireUniqueEncodings guards the differential comparison: if two corpus
// keys collided under padded encoding the backends would conflate them and
// the test would measure the collision, not scan correctness.
func requireUniqueEncodings(t *testing.T, enc *core.Encoder, keys [][]byte) {
	t.Helper()
	seen := map[string]int{}
	for i, k := range keys {
		ek := string(enc.Encode(k))
		if j, dup := seen[ek]; dup {
			t.Fatalf("corpus keys %q and %q collide under padded encoding", keys[j], k)
		}
		seen[ek] = i
	}
}

// ---------------------------------------------------------------------------
// Differential tests: encoded vs. unencoded result sets.
// ---------------------------------------------------------------------------

// collectScan runs one scan and returns the visited vals.
func collectScan(x *Index, lo, hi []byte) []uint64 {
	var out []uint64
	x.Scan(lo, hi, func(_ []byte, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// TestScanDifferential is the tentpole's acceptance test: on every backend
// × scheme combination, encoded Scan(lo, hi) returns exactly the keys the
// unencoded scan returns, over the adversarial corpus and bound sweep.
// Vals identify corpus keys, so equal val sequences mean byte-identical
// original-key result sets (in the same order).
func TestScanDifferential(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	bounds := scanBounds()
	for _, backend := range Backends {
		plain := loadIndex(t, backend, nil, keys)
		for _, scheme := range testSchemes {
			enc := encs[scheme]
			requireUniqueEncodings(t, enc, keys)
			coded := loadIndex(t, backend, enc, keys)
			if plain.Len() != coded.Len() {
				t.Fatalf("%s/%v: plain holds %d keys, coded %d", backend, scheme, plain.Len(), coded.Len())
			}
			// Unbounded and half-bounded sweeps.
			pairs := [][2][]byte{{nil, nil}}
			for _, b := range bounds {
				pairs = append(pairs, [2][]byte{b, nil}, [2][]byte{nil, b})
			}
			for _, lo := range bounds {
				for _, hi := range bounds {
					pairs = append(pairs, [2][]byte{lo, hi})
				}
			}
			for _, p := range pairs {
				want := collectScan(plain, p[0], p[1])
				got := collectScan(coded, p[0], p[1])
				if !equalU64(want, got) {
					t.Fatalf("%s/%v: Scan(%q, %q): plain %v != coded %v",
						backend, scheme, p[0], p[1], want, got)
				}
			}
		}
	}
}

// TestScanPrefixDifferential: encoded prefix scans, the range scans of
// [prefix, successor), must match unencoded prefix scans, including
// prefixes ending in 0xff or 0x00 runs and the empty (full-range) prefix.
func TestScanPrefixDifferential(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	prefixes := [][]byte{
		{}, []byte("a"), []byte("ap"), []byte("app"), []byte("apple"),
		[]byte("com."), []byte("com.gmail@"), []byte("com.gmail@bob"),
		{0x00}, {0xff}, {0xff, 0xff}, []byte("a\xff"), []byte("a\xff\xff"),
		[]byte("nosuchprefix"), []byte("z"), []byte("a\x00"), {0x00, 0x00},
	}
	collect := func(x *Index, p []byte) []uint64 {
		var out []uint64
		x.ScanPrefix(p, func(_ []byte, v uint64) bool {
			out = append(out, v)
			return true
		})
		return out
	}
	for _, backend := range Backends {
		plain := loadIndex(t, backend, nil, keys)
		for _, scheme := range testSchemes {
			coded := loadIndex(t, backend, encs[scheme], keys)
			for _, p := range prefixes {
				want := collect(plain, p)
				got := collect(coded, p)
				if !equalU64(want, got) {
					t.Fatalf("%s/%v: ScanPrefix(%q): plain %v != coded %v",
						backend, scheme, p, want, got)
				}
			}
		}
	}
}

// TestStrictOrderScanPrefixAllSchemes checks the property prefix scans
// rest on, for all six schemes on email, URL and wiki keys plus keys that
// extend others by 0x00 runs: sorted distinct keys give strictly
// ascending padded encodings, and ScanPrefix, the range scan of
// [prefix, successor), returns exactly the model's keys carrying the
// prefix, in order, from a 4-shard hash-merged B+tree and from a 4-shard
// range-partitioned ART (whose split points are probed as prefixes too).
func TestStrictOrderScanPrefixAllSchemes(t *testing.T) {
	var keys [][]byte
	for _, kind := range []datagen.Kind{datagen.Email, datagen.URL, datagen.Wiki} {
		keys = append(keys, datagen.Generate(kind, 800, 7)...)
	}
	for i := 0; i < len(keys); i += 8 {
		k := keys[i]
		keys = append(keys, append(bytes.Clone(k), 0), append(bytes.Clone(k), 0, 0))
	}
	keys = dedupe(keys)
	sorted := slices.Clone(keys)
	slices.SortFunc(sorted, bytes.Compare)
	index := map[string]uint64{}
	for i, k := range keys {
		index[string(k)] = uint64(i)
	}
	model := func(p []byte) []uint64 {
		var out []uint64
		for _, k := range sorted {
			if bytes.HasPrefix(k, p) {
				out = append(out, index[string(k)])
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	prefixes := [][]byte{{}, {0x00}, {0xff}, []byte("com."), []byte("http://"), []byte("a\x00")}
	for range 60 {
		k := keys[rng.Intn(len(keys))]
		prefixes = append(prefixes, k[:rng.Intn(len(k)+1)], append(bytes.Clone(k), 0))
	}
	var sample [][]byte
	for i := 0; i < len(keys); i += 4 {
		sample = append(sample, keys[i])
	}
	for _, scheme := range core.Schemes {
		opt := core.Options{DictLimit: 1024, MaxPatternLen: 16}
		if scheme == core.DoubleChar {
			opt = core.Options{}
		}
		enc, err := core.Build(scheme, sample, opt)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		stored := enc.EncodeAll(sorted)
		for i := 1; i < len(stored); i++ {
			if bytes.Compare(stored[i-1], stored[i]) >= 0 {
				t.Fatalf("%v: %q < %q but padded encodings %x >= %x",
					scheme, sorted[i-1], sorted[i], stored[i-1], stored[i])
			}
		}
		stores := map[string]Store{
			"hash B+tree": mustOpen(t, BTree, WithEncoder(enc.Clone()), WithShards(4)),
			"range ART":   mustOpen(t, ART, WithEncoder(enc.Clone()), WithShards(4), WithRangePartitioner(keys)),
		}
		probes := append(slices.Clone(prefixes), stores["range ART"].(*ShardedIndex).Partitioner().Splits()...)
		for name, st := range stores {
			if err := st.Bulk(keys, nil); err != nil {
				t.Fatal(err)
			}
			for _, p := range probes {
				var got []uint64
				st.ScanPrefix(p, func(_ []byte, v uint64) bool {
					got = append(got, v)
					return true
				})
				if want := model(p); !equalU64(got, want) {
					t.Fatalf("%v/%s: ScanPrefix(%q) returned %d keys, model %d", scheme, name, p, len(got), len(want))
				}
			}
		}
	}
}

// TestScanEarlyStop checks that a callback returning false stops both
// encoded and unencoded scans after the same result.
func TestScanEarlyStop(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	for _, backend := range Backends {
		plain := loadIndex(t, backend, nil, keys)
		coded := loadIndex(t, backend, encs[core.DoubleChar], keys)
		for _, limit := range []int{0, 1, 3, 10} {
			take := func(x *Index) []uint64 {
				var out []uint64
				x.Scan([]byte("a"), nil, func(_ []byte, v uint64) bool {
					out = append(out, v)
					return len(out) < limit
				})
				return out
			}
			if want, got := take(plain), take(coded); !equalU64(want, got) {
				t.Fatalf("%s limit %d: plain %v != coded %v", backend, limit, want, got)
			}
		}
	}
}

// TestPointOpsDifferential drives Put/Get/Delete through every mutable
// backend × scheme and cross-checks against a map; SuRF (bulk-only) is
// covered by Get probes over the bulk load plus immutability errors.
func TestPointOpsDifferential(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	probes := append(append([][]byte{}, keys...),
		[]byte("absent"), []byte("apples"), []byte("a\xffa"), []byte("zzzzz"), []byte{0x02})
	for _, backend := range Backends {
		for _, scheme := range testSchemes {
			enc := encs[scheme]
			if backend == SuRF {
				x := loadIndex(t, backend, enc, keys)
				if err := x.Put([]byte("k"), 1); err != ErrImmutableBackend {
					t.Fatalf("SuRF Put: got %v, want ErrImmutableBackend", err)
				}
				if _, err := x.Delete(keys[1]); err != ErrImmutableBackend {
					t.Fatalf("SuRF Delete: got %v, want ErrImmutableBackend", err)
				}
				for i, k := range keys {
					if v, ok := x.Get(k); !ok || v != uint64(i) {
						t.Fatalf("SuRF/%v: Get(%q) = %d,%v want %d,true", scheme, k, v, ok, i)
					}
				}
				continue
			}
			x := openIndex(t, backend, enc)
			model := map[string]uint64{}
			for i, k := range keys {
				if err := x.Put(k, uint64(i)); err != nil {
					t.Fatalf("%s/%v: Put(%q): %v", backend, scheme, k, err)
				}
				model[string(k)] = uint64(i)
			}
			// Overwrites.
			for i := 0; i < len(keys); i += 7 {
				if err := x.Put(keys[i], uint64(i)+1000); err != nil {
					t.Fatal(err)
				}
				model[string(keys[i])] = uint64(i) + 1000
			}
			// Deletes (every 5th key).
			for i := 0; i < len(keys); i += 5 {
				present := false
				if _, ok := model[string(keys[i])]; ok {
					present = true
					delete(model, string(keys[i]))
				}
				ok, err := x.Delete(keys[i])
				if err != nil {
					t.Fatal(err)
				}
				if ok != present {
					t.Fatalf("%s/%v: Delete(%q) = %v want %v", backend, scheme, keys[i], ok, present)
				}
			}
			if x.Len() != len(model) {
				t.Fatalf("%s/%v: Len = %d want %d", backend, scheme, x.Len(), len(model))
			}
			for _, k := range probes {
				wantV, wantOK := model[string(k)]
				gotV, gotOK := x.Get(k)
				if gotOK != wantOK || (wantOK && gotV != wantV) {
					t.Fatalf("%s/%v: Get(%q) = %d,%v want %d,%v",
						backend, scheme, k, gotV, gotOK, wantV, wantOK)
				}
			}
		}
	}
}

// TestIndexBasics covers facade plumbing: backend names, memory
// accounting, bulk validation, unknown backends.
func TestIndexBasics(t *testing.T) {
	keys := adversarialCorpus()
	encs := testEncoders(t)
	if _, err := Open(Backend("T-tree")); err == nil {
		t.Fatal("unknown backend accepted")
	}
	x := openIndex(t, BTree, encs[core.DoubleChar])
	if err := x.Bulk(keys, make([]uint64, 1)); err == nil {
		t.Fatal("mismatched vals length accepted")
	}
	if err := x.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	if x.Backend() != BTree || x.Encoder() == nil {
		t.Fatal("accessors broken")
	}
	if x.MemoryUsage() <= x.TreeMemoryUsage() {
		t.Fatal("dictionary memory not accounted")
	}
	plain := openIndex(t, BTree, nil)
	if err := plain.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	if plain.MemoryUsage() != plain.TreeMemoryUsage() {
		t.Fatal("uncompressed index should have no dictionary overhead")
	}
	// Compression: the encoded tree must be smaller than the plain one on
	// this text-heavy corpus.
	if x.TreeMemoryUsage() >= plain.TreeMemoryUsage() {
		t.Fatalf("encoded tree (%d B) not smaller than plain (%d B)",
			x.TreeMemoryUsage(), plain.TreeMemoryUsage())
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrefixSuccessor pins the uncompressed prefix-bound helper, including
// the all-0xff unbounded case.
func TestPrefixSuccessor(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{[]byte("a"), []byte("b")},
		{[]byte("ab"), []byte("ac")},
		{[]byte("a\xff"), []byte("b")},
		{[]byte("a\xff\xff"), []byte("b")},
		{[]byte{0xff}, nil},
		{[]byte{0xff, 0xff}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		if got := prefixSuccessor(c.in); !bytes.Equal(got, c.want) {
			t.Fatalf("prefixSuccessor(%q) = %q want %q", c.in, got, c.want)
		}
	}
}
