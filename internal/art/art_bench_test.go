package art

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
)

func benchKeys() [][]byte { return datagen.Generate(datagen.Email, 100000, 1) }

func BenchmarkInsert(b *testing.B) {
	keys := benchKeys()
	tr := New(IndexMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i%len(keys)], uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	keys := benchKeys()
	tr := New(IndexMode)
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%len(keys)])
	}
}

func BenchmarkFloor(b *testing.B) {
	keys := benchKeys()
	tr := New(DictMode)
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Floor(keys[i%len(keys)])
	}
}

var treeSink *Tree

// BenchmarkBulkLoad times building a whole IndexMode tree over benchKeys:
// BulkLoad from the ascending run, against the Insert loop over the same
// keys ascending and in random order (the order a bulk run arrives in
// before it is sorted).
func BenchmarkBulkLoad(b *testing.B) {
	sorted := benchKeys()
	slices.SortFunc(sorted, bytes.Compare)
	sorted = slices.CompactFunc(sorted, bytes.Equal)
	vals := make([]uint64, len(sorted))
	for i := range vals {
		vals[i] = uint64(i)
	}
	random := slices.Clone(sorted)
	rand.New(rand.NewSource(2)).Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	insertAll := func(keys [][]byte) *Tree {
		tr := New(IndexMode)
		for i, k := range keys {
			tr.Insert(k, vals[i])
		}
		return tr
	}
	for _, c := range []struct {
		name  string
		build func() *Tree
	}{
		{"BulkLoad", func() *Tree { return BulkLoad(IndexMode, sorted, vals) }},
		{"InsertSorted", func() *Tree { return insertAll(sorted) }},
		{"InsertRandom", func() *Tree { return insertAll(random) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				treeSink = c.build()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sorted)), "ns/key")
		})
	}
}
