package art

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// FuzzARTOps: after a BulkLoad, any run of inserts, overwrites, deletes,
// gets and ranges agrees with a sorted map model in both modes, and the
// node invariants hold after every step. Keys come from a five-byte
// alphabet, so many are prefixes of others, and some share 8 to 31 bytes
// of 'q' so that compressed paths outgrow the inline bytes.
func FuzzARTOps(f *testing.F) {
	f.Add([]byte{0x30, 0xff, 0x00, 0xff, 0x01, 0x02, 0xfe, 0x03, 0x04})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step re-checks the whole tree, so inputs stay short (cheap
		// to run and to minimize); a few hundred steps grow, shrink, split
		// and merge nodes.
		if len(data) > 512 {
			t.Skip("input longer than 512 bytes")
		}
		for _, mode := range modes {
			runOps(t, mode, data)
		}
	})
}

// runOps decodes data into a bulk-loaded key set and then one operation per
// step, checking each against the model.
func runOps(t *testing.T, mode Mode, data []byte) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	alpha := []byte{0x00, 'a', 'b', 'c', 0xff}
	key := func() []byte {
		n := next()
		if n >= 224 { // shares a long run of 'q' with its neighbours
			k := bytes.Repeat([]byte{'q'}, 8+n%24)
			return append(k, alpha[next()%len(alpha)])
		}
		k := make([]byte, n%12)
		for i := range k {
			k[i] = alpha[next()%len(alpha)]
		}
		return k
	}
	model := map[string]uint64{}
	var bulk [][]byte
	for range next() % 64 {
		k := key()
		if _, ok := model[string(k)]; !ok {
			model[string(k)] = uint64(len(model))
			bulk = append(bulk, k)
		}
	}
	slices.SortFunc(bulk, bytes.Compare)
	vals := make([]uint64, len(bulk))
	for i, k := range bulk {
		vals[i] = model[string(k)]
	}
	tr := BulkLoad(mode, bulk, vals)
	checkNodes(t, tr)
	existing := func() []byte { // a stored key the input picks, else a new one
		if len(model) == 0 {
			return key()
		}
		ks := slices.Sorted(maps.Keys(model))
		return []byte(ks[next()%len(ks)])
	}
	for step := uint64(1); pos < len(data); step++ {
		switch next() % 8 {
		case 0, 1, 2:
			k := key()
			tr.Insert(k, step)
			model[string(k)] = step
		case 3:
			k := existing()
			tr.Insert(k, step)
			model[string(k)] = step
		case 4, 5:
			k := key()
			if next()%2 == 0 {
				k = existing()
			}
			_, had := model[string(k)]
			delete(model, string(k))
			if tr.Delete(k) != had {
				t.Fatalf("mode %v step %d: Delete(%q) disagrees with the model", mode, step, k)
			}
		case 6:
			k := key()
			v, ok := tr.Get(k)
			if mv, mok := model[string(k)]; ok != mok || v != mv {
				t.Fatalf("mode %v step %d: Get(%q) = (%d, %v), model (%d, %v)", mode, step, k, v, ok, mv, mok)
			}
			if mode == DictMode {
				checkFloor(t, tr, model, k)
			}
		case 7:
			lo, hi := key(), key()
			var want []string
			for _, k := range slices.Sorted(maps.Keys(model)) {
				if k >= string(lo) && k < string(hi) {
					want = append(want, k)
				}
			}
			var got []string
			cursorRange(tr, lo, hi, func(k []byte, v uint64) bool {
				if model[string(k)] != v {
					t.Fatalf("mode %v step %d: range value of %q is %d, model %d", mode, step, k, v, model[string(k)])
				}
				got = append(got, string(k))
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("mode %v step %d: Range(%q, %q) = %q, model %q", mode, step, lo, hi, got, want)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("mode %v step %d: Len %d, model %d", mode, step, tr.Len(), len(model))
		}
		checkNodes(t, tr)
	}
}

// checkFloor compares Floor(q) with the model's greatest key <= q.
func checkFloor(t *testing.T, tr *Tree, model map[string]uint64, q []byte) {
	t.Helper()
	ks := slices.Sorted(maps.Keys(model))
	i, found := slices.BinarySearch(ks, string(q))
	if found {
		i++
	}
	k, v, ok := tr.Floor(q)
	if i == 0 {
		if ok {
			t.Fatalf("Floor(%q) = %q, model has no key <= it", q, k)
		}
		return
	}
	if !ok || string(k) != ks[i-1] || v != model[ks[i-1]] {
		t.Fatalf("Floor(%q) = %q,%d,%v, model %q,%d", q, k, v, ok, ks[i-1], model[ks[i-1]])
	}
}
