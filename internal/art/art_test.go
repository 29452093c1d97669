package art

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func randKey(rng *rand.Rand, maxLen int, alphabet int) []byte {
	n := rng.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(alphabet))
	}
	return b
}

// refMap is the model implementation: a map plus sorted key list.
type refMap struct {
	m map[string]uint64
}

func newRefMap() *refMap { return &refMap{m: map[string]uint64{}} }

func (r *refMap) insert(k []byte, v uint64) { r.m[string(k)] = v }

func (r *refMap) sortedKeys() []string {
	ks := make([]string, 0, len(r.m))
	for k := range r.m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (r *refMap) floor(q []byte) (string, uint64, bool) {
	ks := r.sortedKeys()
	i := sort.SearchStrings(ks, string(q))
	if i < len(ks) && ks[i] == string(q) {
		return ks[i], r.m[ks[i]], true
	}
	if i == 0 {
		return "", 0, false
	}
	return ks[i-1], r.m[ks[i-1]], true
}

func buildBoth(t *testing.T, mode Mode, keys [][]byte) (*Tree, *refMap) {
	t.Helper()
	tr := New(mode)
	ref := newRefMap()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
		ref.insert(k, uint64(i))
	}
	return tr, ref
}

func TestInsertGetRandom(t *testing.T) {
	for _, mode := range []Mode{IndexMode, DictMode} {
		for _, alpha := range []int{2, 8, 256} {
			rng := rand.New(rand.NewSource(int64(alpha) + int64(mode)*31))
			var keys [][]byte
			for i := 0; i < 3000; i++ {
				keys = append(keys, randKey(rng, 12, alpha))
			}
			tr, ref := buildBoth(t, mode, keys)
			if tr.Len() != len(ref.m) {
				t.Fatalf("mode %v alpha %d: Len=%d, want %d", mode, alpha, tr.Len(), len(ref.m))
			}
			for k, v := range ref.m {
				got, ok := tr.Get([]byte(k))
				if !ok || got != v {
					t.Fatalf("mode %v alpha %d: Get(%q)=(%d,%v), want %d", mode, alpha, k, got, ok, v)
				}
			}
			// Absent keys.
			for i := 0; i < 2000; i++ {
				k := randKey(rng, 14, alpha)
				want, present := ref.m[string(k)]
				got, ok := tr.Get(k)
				if ok != present || (present && got != want) {
					t.Fatalf("mode %v alpha %d: Get(%q)=(%d,%v), want (%d,%v)",
						mode, alpha, k, got, ok, want, present)
				}
			}
		}
	}
}

func TestUpdateValue(t *testing.T) {
	tr := New(IndexMode)
	tr.Insert([]byte("key"), 1)
	tr.Insert([]byte("key"), 2)
	if tr.Len() != 1 {
		t.Fatalf("Len=%d after duplicate insert", tr.Len())
	}
	if v, ok := tr.Get([]byte("key")); !ok || v != 2 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
}

func TestPrefixKeys(t *testing.T) {
	for _, mode := range []Mode{IndexMode, DictMode} {
		tr := New(mode)
		keys := []string{"", "a", "ab", "abc", "abcd", "abd", "b"}
		for i, k := range keys {
			tr.Insert([]byte(k), uint64(i))
		}
		for i, k := range keys {
			if v, ok := tr.Get([]byte(k)); !ok || v != uint64(i) {
				t.Fatalf("mode %v: Get(%q)=(%d,%v), want %d", mode, k, v, ok, i)
			}
		}
		if _, ok := tr.Get([]byte("abcde")); ok {
			t.Fatal("phantom key")
		}
	}
}

func TestNodeGrowthAllLayouts(t *testing.T) {
	tr := New(IndexMode)
	// 256 children under a shared prefix forces 4 -> 16 -> 48 -> 256.
	for b := 0; b < 256; b++ {
		tr.Insert([]byte{'p', 'x', byte(b), 'z'}, uint64(b))
	}
	for b := 0; b < 256; b++ {
		if v, ok := tr.Get([]byte{'p', 'x', byte(b), 'z'}); !ok || v != uint64(b) {
			t.Fatalf("lost key %d after growth", b)
		}
	}
	s := tr.ComputeStats()
	if s.Node256s == 0 {
		t.Fatalf("expected a node256, stats %+v", s)
	}
	if s.Leaves != 256 {
		t.Fatalf("leaves=%d", s.Leaves)
	}
}

func TestLongPrefixOCPS(t *testing.T) {
	// Compressed paths longer than the 8-byte optimistic cap.
	longA := append(bytes.Repeat([]byte{'q'}, 40), 'a')
	longB := append(bytes.Repeat([]byte{'q'}, 40), 'b')
	for _, mode := range []Mode{IndexMode, DictMode} {
		tr := New(mode)
		tr.Insert(longA, 1)
		tr.Insert(longB, 2)
		if v, ok := tr.Get(longA); !ok || v != 1 {
			t.Fatalf("mode %v: long A", mode)
		}
		if v, ok := tr.Get(longB); !ok || v != 2 {
			t.Fatalf("mode %v: long B", mode)
		}
		// A key diverging inside the skipped region must split correctly.
		div := append(bytes.Repeat([]byte{'q'}, 20), 'x')
		tr.Insert(div, 3)
		for _, c := range []struct {
			k []byte
			v uint64
		}{{longA, 1}, {longB, 2}, {div, 3}} {
			if v, ok := tr.Get(c.k); !ok || v != c.v {
				t.Fatalf("mode %v: Get(%q)=(%d,%v), want %d", mode, c.k, v, ok, c.v)
			}
		}
		// Mismatches inside the skipped (unstored) region must miss after
		// leaf verification.
		miss := append(bytes.Repeat([]byte{'q'}, 39), 'z', 'a')
		if _, ok := tr.Get(miss); ok {
			t.Fatalf("mode %v: false positive survived verification", mode)
		}
	}
}

func TestFloorRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var keys [][]byte
	for i := 0; i < 2000; i++ {
		k := randKey(rng, 8, 6)
		if len(k) == 0 {
			continue
		}
		keys = append(keys, k)
	}
	tr, ref := buildBoth(t, DictMode, keys)
	for i := 0; i < 5000; i++ {
		q := randKey(rng, 10, 7)
		wantK, wantV, wantOK := ref.floor(q)
		gotK, gotV, gotOK := tr.Floor(q)
		if gotOK != wantOK {
			t.Fatalf("Floor(%q): ok=%v, want %v", q, gotOK, wantOK)
		}
		if gotOK && (string(gotK) != wantK || gotV != wantV) {
			t.Fatalf("Floor(%q)=(%q,%d), want (%q,%d)", q, gotK, gotV, wantK, wantV)
		}
	}
}

func TestFloorExactAndBelow(t *testing.T) {
	tr := New(DictMode)
	for i, k := range []string{"b", "bd", "bf", "x"} {
		tr.Insert([]byte(k), uint64(i))
	}
	cases := []struct {
		q    string
		want string
		ok   bool
	}{
		{"b", "b", true}, {"bc", "b", true}, {"bd", "bd", true},
		{"bdzzz", "bd", true}, {"be", "bd", true}, {"z", "x", true},
		{"a", "", false}, {"", "", false},
	}
	for _, c := range cases {
		k, _, ok := tr.Floor([]byte(c.q))
		if ok != c.ok || (ok && string(k) != c.want) {
			t.Fatalf("Floor(%q)=(%q,%v), want (%q,%v)", c.q, k, ok, c.want, c.ok)
		}
	}
}

func TestScanRandom(t *testing.T) {
	for _, mode := range []Mode{IndexMode, DictMode} {
		rng := rand.New(rand.NewSource(7 + int64(mode)))
		var keys [][]byte
		for i := 0; i < 2500; i++ {
			keys = append(keys, randKey(rng, 10, 5))
		}
		tr, ref := buildBoth(t, mode, keys)
		sorted := ref.sortedKeys()
		for trial := 0; trial < 400; trial++ {
			start := randKey(rng, 10, 6)
			limit := 1 + rng.Intn(20)
			i := sort.SearchStrings(sorted, string(start))
			var want []string
			for j := i; j < len(sorted) && len(want) < limit; j++ {
				want = append(want, sorted[j])
			}
			var got []string
			tr.Scan(start, func(k []byte, v uint64) bool {
				got = append(got, string(k))
				return len(got) < limit
			})
			if len(got) != len(want) {
				t.Fatalf("mode %v: Scan(%q,%d) returned %d keys, want %d",
					mode, start, limit, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("mode %v: Scan(%q)[%d]=%q, want %q", mode, start, j, got[j], want[j])
				}
			}
		}
	}
}

func TestScanWithDeepSharedPrefix(t *testing.T) {
	// Exercises OCPS path loading during scans.
	tr := New(IndexMode)
	base := bytes.Repeat([]byte{'w'}, 30)
	var all []string
	for i := 0; i < 50; i++ {
		k := append(append([]byte{}, base...), []byte(fmt.Sprintf("%03d", i))...)
		tr.Insert(k, uint64(i))
		all = append(all, string(k))
	}
	start := append(append([]byte{}, base...), []byte("025")...)
	var got []string
	tr.Scan(start, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 25 {
		t.Fatalf("got %d keys, want 25", len(got))
	}
	if got[0] != all[25] {
		t.Fatalf("first key %q, want %q", got[0], all[25])
	}
}

func TestMinMax(t *testing.T) {
	tr := New(IndexMode)
	if _, _, ok := tr.Min(); ok {
		t.Fatal("empty Min")
	}
	for i, k := range []string{"pear", "apple", "zebra", "app"} {
		tr.Insert([]byte(k), uint64(i))
	}
	if k, _, _ := tr.Min(); string(k) != "app" {
		t.Fatalf("Min=%q", k)
	}
	if k, _, _ := tr.Max(); string(k) != "zebra" {
		t.Fatalf("Max=%q", k)
	}
}

func TestStatsAndMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New(IndexMode)
	n := 5000
	totalKeyBytes := 0
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		k := randKey(rng, 16, 26)
		if !seen[string(k)] {
			seen[string(k)] = true
			totalKeyBytes += len(k)
		}
		tr.Insert(k, uint64(i))
	}
	s := tr.ComputeStats()
	if s.Leaves != tr.Len() {
		t.Fatalf("stats leaves %d != size %d", s.Leaves, tr.Len())
	}
	if s.KeyBytes != totalKeyBytes {
		t.Fatalf("key bytes %d, want %d", s.KeyBytes, totalKeyBytes)
	}
	// IndexMode memory models partial keys + value pointers: it must not
	// include the full leaf key bytes (paper Figure 7).
	if s.MemoryBytes < s.Leaves*16 {
		t.Fatal("memory below leaf-pointer floor")
	}
	if tr.MemoryUsage() != s.MemoryBytes {
		t.Fatal("MemoryUsage inconsistent with stats")
	}
	if d := tr.AvgLeafDepth(); d <= 0 || d > 17 {
		t.Fatalf("implausible avg leaf depth %v", d)
	}
}

// TestDictModeFloorThroughLongPaths: Floor compares exact paths even
// where a compressed path is longer than the bytes a node keeps inline,
// including keys that diverge just past and far past the inline bytes.
func TestDictModeFloorThroughLongPaths(t *testing.T) {
	q := func(n int, tail string) []byte { return append(bytes.Repeat([]byte{'q'}, n), tail...) }
	tr := New(DictMode)
	longA, longB := q(40, "a"), q(40, "b")
	tr.Insert(longA, 1)
	tr.Insert(longB, 2)
	// Floor through the long prefix.
	if k, _, ok := tr.Floor(q(40, "az")); !ok || !bytes.Equal(k, longA) {
		t.Fatalf("Floor through long prefix: %q %v", k, ok)
	}
	if _, _, ok := tr.Floor(bytes.Repeat([]byte{'q'}, 10)); ok {
		t.Fatal("floor below all keys must miss")
	}

	// Keys that share 9 to 20 bytes and diverge past the inline bytes.
	keys := map[string]uint64{string(longA): 1, string(longB): 2}
	for i, k := range [][]byte{q(9, "m"), q(9, "x"), q(12, "c"), q(12, "cc"), q(20, "")} {
		tr.Insert(k, uint64(10+i))
		keys[string(k)] = uint64(10 + i)
	}
	ref := &refMap{m: keys}
	for _, query := range [][]byte{
		q(8, ""), q(9, ""), q(9, "a"), q(9, "m"), q(9, "n"), q(9, "z"),
		q(10, ""), q(10, "a"), q(12, "b"), q(12, "c"), q(12, "ca"), q(12, "cd"),
		q(19, "r"), q(20, ""), q(20, "a"), q(30, ""), q(40, ""), q(40, "a"),
		q(40, "aa"), q(40, "c"), q(41, ""), q(50, ""), []byte("r"), []byte("p"),
	} {
		wantK, wantV, wantOK := ref.floor(query)
		k, v, ok := tr.Floor(query)
		if ok != wantOK || (ok && (string(k) != wantK || v != wantV)) {
			t.Fatalf("Floor(%q) = %q,%d,%v, want %q,%d,%v", query, k, v, ok, wantK, wantV, wantOK)
		}
	}
	checkNodes(t, tr)
}

func TestIndexModeCapsPrefixes(t *testing.T) {
	tr := New(IndexMode)
	tr.Insert(append(bytes.Repeat([]byte{'q'}, 40), 'a'), 1)
	tr.Insert(append(bytes.Repeat([]byte{'q'}, 40), 'b'), 2)
	s := tr.ComputeStats()
	if s.PrefixBytes > maxStoredPrefix {
		t.Fatalf("IndexMode stored %d prefix bytes, cap is %d", s.PrefixBytes, maxStoredPrefix)
	}
}

func TestInsertionOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var keys [][]byte
	for i := 0; i < 1000; i++ {
		keys = append(keys, randKey(rng, 10, 4))
	}
	tr1, _ := buildBoth(t, DictMode, keys)
	shuffled := append([][]byte{}, keys...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	tr2 := New(DictMode)
	for i, k := range shuffled {
		tr2.Insert(k, uint64(i))
	}
	var k1, k2 []string
	tr1.Scan(nil, func(k []byte, _ uint64) bool { k1 = append(k1, string(k)); return true })
	tr2.Scan(nil, func(k []byte, _ uint64) bool { k2 = append(k2, string(k)); return true })
	if len(k1) != len(k2) {
		t.Fatalf("scan lengths differ: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("key order differs at %d: %q vs %q", i, k1[i], k2[i])
		}
	}
	// Full scan yields sorted output.
	if !sort.StringsAreSorted(k1) {
		t.Fatal("scan output not sorted")
	}
}
