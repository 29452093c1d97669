package btree

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/datagen"
)

func BenchmarkInsert(b *testing.B) {
	keys := datagen.Generate(datagen.Email, 100000, 1)
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i%len(keys)], uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	keys := datagen.Generate(datagen.Email, 100000, 1)
	tr := New()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%len(keys)])
	}
}

func BenchmarkScan100(b *testing.B) {
	keys := datagen.Generate(datagen.Email, 100000, 1)
	tr := New()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Scan(keys[i%len(keys)], func([]byte, uint64) bool {
			n++
			return n < 100
		})
	}
}

// BenchmarkGetBulkURL probes a bulk-loaded tree of 250k sorted URL keys
// in a random order, so most probes miss the caches as they do at scale.
func BenchmarkGetBulkURL(b *testing.B) {
	keys := datagen.Generate(datagen.URL, 250_000, 1)
	sorted := slices.Clone(keys)
	slices.SortFunc(sorted, bytes.Compare)
	sorted = slices.CompactFunc(sorted, bytes.Equal)
	tr := BulkLoad(sorted, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}
