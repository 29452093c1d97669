// Quickstart: build a HOPE encoder from sampled keys and demonstrate its
// three core guarantees — completeness (any key encodes), order
// preservation (compressed keys sort like the originals) and losslessness
// (the optional decoder restores the key).
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"

	hope "repro"
	"repro/internal/datagen"
)

func main() {
	// A synthetic corpus shaped like the paper's email dataset:
	// host-reversed addresses such as "com.gmail@alice.walker73".
	keys := datagen.Generate(datagen.Email, 50000, 1)

	// HOPE's build phase needs only a small sample: 1% saturates the
	// compression rate (paper Appendix A).
	samples := hope.SampleKeys(keys, 0.01, 42)
	enc, err := hope.Build(hope.DoubleChar, samples, hope.Options{})
	if err != nil {
		log.Fatal(err)
	}
	st := enc.Stats()
	fmt.Printf("built %v dictionary: %d entries, %d bytes, in %v\n",
		enc.Scheme(), enc.NumEntries(), enc.MemoryUsage(), st.Total().Round(1000))

	// Compression: the corpus shrinks by the paper's headline ~1.5-2x.
	fmt.Printf("compression rate on %d keys: %.2fx\n", len(keys), enc.CompressionRate(keys))

	// Order preservation: sort the originals, sort the encodings — the
	// permutations agree.
	sorted := append([][]byte{}, keys[:1000]...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	encoded := make([][]byte, len(sorted))
	for i, k := range sorted {
		encoded[i] = enc.Encode(k)
	}
	if !sort.SliceIsSorted(encoded, func(i, j int) bool {
		return bytes.Compare(encoded[i], encoded[j]) < 0
	}) {
		log.Fatal("order was not preserved!")
	}
	fmt.Println("order preserved across 1000 sorted keys")

	// Completeness: keys never seen during the build still encode — even
	// arbitrary binary ones.
	novel := []byte("zz.unseen-domain@\x00\xffbinary")
	out, bits := enc.EncodeBits(nil, novel)
	fmt.Printf("novel key %q -> %d bits (%d bytes)\n", novel, bits, len(out))

	// Losslessness: the decoder (never needed by tree queries) restores
	// the original bytes.
	dec, err := hope.NewDecoder(enc)
	if err != nil {
		log.Fatal(err)
	}
	back, err := dec.AppendDecode(nil, out)
	if err != nil || !bytes.Equal(back, novel) {
		log.Fatalf("roundtrip failed: %q %v", back, err)
	}
	fmt.Println("roundtrip decode matches")
}
