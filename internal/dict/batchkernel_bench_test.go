package dict

import (
	"math/rand"
	"testing"

	"repro/internal/bitops"
)

// benchKeys builds an email-like corpus: lowercase + punctuation, lengths
// around 15-30 bytes, so code lengths and trie paths resemble the recorded
// figures rather than uniform random bytes.
func benchKeys(rng *rand.Rand, n int) ([][]byte, int) {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789._@"
	keys := make([][]byte, n)
	total := 0
	for i := range keys {
		k := make([]byte, 15+rng.Intn(16))
		for j := range k {
			k[j] = alpha[rng.Intn(len(alpha))]
		}
		keys[i] = k
		total += len(k)
	}
	return keys, total
}

func benchBatch(b *testing.B, d Kernel, bk BatchKernel) {
	rng := rand.New(rand.NewSource(9))
	keys, total := benchKeys(rng, 1024)
	offs := make([]int, len(keys)+1)
	// Preallocate the output so both legs measure the kernels, not the
	// allocator growing the buffer from nil every iteration.
	out := make([]byte, 0, 8*total)
	var a bitops.Appender
	b.Run("perkey", func(b *testing.B) {
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			a.Reset(out)
			for _, k := range keys {
				d.AppendEncode(&a, k)
				a.Pad()
			}
			a.Finish()
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			a.Reset(out)
			offs[0] = 0
			bk.AppendEncodeBatch(&a, keys, offs)
			a.Finish()
		}
	})
}

func BenchmarkBatchSingleChar(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := singleFixture(b, orderedCodes(rng, 256, 2, 14))
	benchBatch(b, d, d)
}

func BenchmarkBatchDoubleChar(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d := doubleFixture(b, 256, orderedCodes(rng, DoubleCharEntries(256), 3, 22))
	benchBatch(b, d, d)
}

func BenchmarkBatchTrie(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	d := trieFixture(b, rng, 3)
	benchBatch(b, d, d)
}
