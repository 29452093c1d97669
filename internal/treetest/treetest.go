// Package treetest checks the ordered search trees (btree, prefixbtree,
// hot) against a map model after a bulk load: the trees' own tests call
// ChurnAfterBulk with their BulkLoad and a structural invariant check.
package treetest

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// Tree is the mutable ordered-tree surface the model drives.
type Tree interface {
	Insert(key []byte, val uint64)
	Get(key []byte) (uint64, bool)
	Delete(key []byte) bool
	Scan(start []byte, fn func(key []byte, val uint64) bool)
	Len() int
}

// Universe returns n distinct keys in ascending order, 1-10 bytes over
// an alphabet with 0x00 and 0xff, so that many keys are prefixes of
// others and many share their first 8 bytes.
func Universe(rng *rand.Rand, n int) [][]byte {
	alpha := []byte{0x00, 'a', 'b', 'c', 0xff}
	seen := map[string]bool{}
	out := make([][]byte, 0, n)
	for len(out) < n {
		k := make([]byte, 1+rng.Intn(10))
		for j := range k {
			k[j] = alpha[rng.Intn(len(alpha))]
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, k)
		}
	}
	slices.SortFunc(out, bytes.Compare)
	return out
}

// ChurnAfterBulk bulk-loads every other key of a sorted universe, then
// inserts the keys between them: ascending over the first third (each
// leaf's gaps fill, then it splits inside them), descending over the
// second (splits at the left edges), in random order over the rest. A
// random mix of Insert, Delete, Get and Scan follows. At every checkpoint
// the tree must match the model on Len, every Get, a full scan and scans
// from random starts, and check (the tree's own invariants) must pass.
func ChurnAfterBulk(t *testing.T, seed int64, build func(keys [][]byte, vals []uint64) Tree, check func(Tree)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	u := Universe(rng, 6000)
	var loaded, between [][]byte
	var vals []uint64
	model := &model{vals: map[string]uint64{}}
	for i, k := range u {
		if i%2 == 1 {
			between = append(between, k)
			continue
		}
		loaded = append(loaded, k)
		vals = append(vals, uint64(i)<<8)
		model.put(k, uint64(i)<<8)
	}
	tr := build(loaded, vals)
	verify(t, "bulk load", tr, u, model, rng, check)

	third := len(between) / 3
	insert := func(k []byte, v uint64) {
		tr.Insert(k, v)
		model.put(k, v)
	}
	for i, k := range between[:third] {
		insert(k, uint64(i)<<8|1)
	}
	verify(t, "ascending inserts", tr, u, model, rng, check)
	for i := 2 * third; i >= third; i-- {
		insert(between[i], uint64(i)<<8|2)
	}
	verify(t, "descending inserts", tr, u, model, rng, check)
	rest := slices.Clone(between[2*third+1:])
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i, k := range rest {
		insert(k, uint64(i)<<8|3)
	}
	verify(t, "random inserts", tr, u, model, rng, check)

	for round := 1; round <= 20_000; round++ {
		k := u[rng.Intn(len(u))]
		switch r := rng.Intn(10); {
		case r < 4:
			insert(k, uint64(round)<<8|4)
		case r < 8:
			present := model.remove(k)
			if tr.Delete(k) != present {
				t.Fatalf("round %d: Delete(%q) reported %v, model %v", round, k, !present, present)
			}
		case r < 9:
			v, ok := tr.Get(k)
			w, present := model.vals[string(k)]
			if ok != present || v != w {
				t.Fatalf("round %d: Get(%q) = %d,%v, model %d,%v", round, k, v, ok, w, present)
			}
		default:
			scanFrom(t, tr, k, model, 20)
		}
		if round%5000 == 0 {
			verify(t, "churn", tr, u, model, rng, check)
		}
	}
}

// model is the reference: the live map plus its keys in order.
type model struct {
	vals   map[string]uint64
	sorted []string
}

func (m *model) put(k []byte, v uint64) {
	if _, ok := m.vals[string(k)]; !ok {
		i, _ := slices.BinarySearch(m.sorted, string(k))
		m.sorted = slices.Insert(m.sorted, i, string(k))
	}
	m.vals[string(k)] = v
}

func (m *model) remove(k []byte) bool {
	i, ok := slices.BinarySearch(m.sorted, string(k))
	if ok {
		m.sorted = slices.Delete(m.sorted, i, i+1)
		delete(m.vals, string(k))
	}
	return ok
}

func verify(t *testing.T, phase string, tr Tree, u [][]byte, model *model, rng *rand.Rand, check func(Tree)) {
	t.Helper()
	if tr.Len() != len(model.sorted) {
		t.Fatalf("%s: Len = %d, model %d", phase, tr.Len(), len(model.sorted))
	}
	for _, k := range u {
		v, ok := tr.Get(k)
		w, present := model.vals[string(k)]
		if ok != present || v != w {
			t.Fatalf("%s: Get(%q) = %d,%v, model %d,%v", phase, k, v, ok, w, present)
		}
	}
	scanFrom(t, tr, nil, model, len(model.sorted)+1)
	for range 50 {
		scanFrom(t, tr, u[rng.Intn(len(u))], model, 1+rng.Intn(40))
	}
	if check != nil {
		check(tr)
	}
}

// scanFrom compares up to limit keys of a scan from start with the model.
func scanFrom(t *testing.T, tr Tree, start []byte, model *model, limit int) {
	t.Helper()
	i, _ := slices.BinarySearch(model.sorted, string(start))
	want := model.sorted[i:min(len(model.sorted), i+limit)]
	i = 0
	tr.Scan(start, func(k []byte, v uint64) bool {
		if i >= len(want) {
			return false
		}
		if w := model.vals[want[i]]; string(k) != want[i] || v != w {
			t.Fatalf("scan from %q: key %d = %q=%d, model %q=%d", start, i, k, v, want[i], w)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("scan from %q saw %d keys, model %d", start, i, len(want))
	}
}
