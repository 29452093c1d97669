// Benchmarks regenerating every table and figure of the HOPE paper's
// evaluation, one Benchmark function per artifact (see DESIGN.md for the
// experiment index). Figure runners execute once per configuration and
// report their series through b.ReportMetric; raw encode throughput is
// additionally measured with conventional b.N loops.
//
// These run at CI scale; `go run ./cmd/hopebench -fig <n>` reproduces the
// same experiments at paper-style scale with full dictionary sizes.
package hope_test

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
	"testing"

	hope "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
)

// memo caches experiment results so timer calibration does not re-run
// multi-second experiment bodies.
var memo sync.Map

func once[T any](b *testing.B, key string, f func() (T, error)) T {
	b.Helper()
	if v, ok := memo.Load(key); ok {
		if err, bad := v.(error); bad {
			b.Fatal(err)
		}
		return v.(T)
	}
	v, err := f()
	if err != nil {
		memo.Store(key, err)
		b.Fatal(err)
	}
	memo.Store(key, v)
	return v
}

func spin(b *testing.B) {
	for i := 0; i < b.N; i++ {
	}
}

// tag sanitizes a label for use in a benchmark metric unit (no spaces).
func tag(s string) string { return strings.ReplaceAll(s, " ", "") }

func benchCfg(ds datagen.Kind) bench.Config {
	cfg := bench.QuickConfig(ds)
	cfg.NumKeys = 5000
	cfg.NumOps = 5000
	return cfg
}

// BenchmarkEncode measures raw per-key encode latency for every scheme on
// email keys — the substrate of Figure 8's second row.
func BenchmarkEncode(b *testing.B) {
	keys := datagen.Generate(datagen.Email, 20000, 1)
	samples := hope.SampleKeys(keys, 0.01, 42)
	for _, scheme := range hope.Schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			enc := once(b, "enc/"+scheme.String(), func() (*hope.Encoder, error) {
				return hope.Build(scheme, samples, hope.Options{DictLimit: 1 << 12})
			})
			chars := 0
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				out, _ := enc.EncodeBits(buf, k)
				buf = out[:0]
				chars += len(k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(chars), "ns/char")
		})
	}
}

// BenchmarkEncodeAll measures the public parallel bulk-encode path over a
// sorted email load — the tree-loading fast path. Throughput (MB/s of
// source keys) is the headline metric; compare against BenchmarkEncode
// for the per-key serial latency.
func BenchmarkEncodeAll(b *testing.B) {
	keys := datagen.Generate(datagen.Email, 20000, 1)
	samples := hope.SampleKeys(keys, 0.01, 42)
	total := 0
	for _, k := range keys {
		total += len(k)
	}
	for _, scheme := range hope.Schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			enc := once(b, "enc/"+scheme.String(), func() (*hope.Encoder, error) {
				return hope.Build(scheme, samples, hope.Options{DictLimit: 1 << 12})
			})
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hope.EncodeAll(enc, keys)
			}
		})
	}
}

// BenchmarkFig8 reports the Figure 8 series: compression rate, encode
// latency and dictionary memory per scheme and dictionary size.
func BenchmarkFig8(b *testing.B) {
	for _, ds := range datagen.Kinds {
		b.Run(ds.String(), func(b *testing.B) {
			cfg := benchCfg(ds)
			rows := once(b, "fig8/"+ds.String(), func() ([]bench.Fig8Row, error) {
				return bench.RunFig8(cfg, bench.Fig8Sizes(true))
			})
			for _, r := range rows {
				mtag := fmt.Sprintf("%v@%d", r.Scheme, r.Entries)
				b.ReportMetric(r.CPR, "CPR:"+tag(mtag))
			}
			spin(b)
		})
	}
}

// BenchmarkFig9 reports the dictionary build-time breakdown.
func BenchmarkFig9(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "fig9", func() ([]bench.Fig9Row, error) { return bench.RunFig9(cfg) })
	for _, r := range rows {
		b.ReportMetric(r.Stats.Total().Seconds(), "s:"+tag(r.Label))
	}
	spin(b)
}

// BenchmarkFig10 reports the SuRF YCSB series (point/range latency,
// height, memory) for the paper's seven configurations.
func BenchmarkFig10(b *testing.B) {
	for _, ds := range datagen.Kinds {
		b.Run(ds.String(), func(b *testing.B) {
			cfg := benchCfg(ds)
			rows := once(b, "fig10/"+ds.String(), func() ([]bench.Fig10Row, error) {
				return bench.RunFig10(cfg)
			})
			for _, r := range rows {
				b.ReportMetric(r.PointNs, "ns/point:"+tag(r.Config))
				b.ReportMetric(r.TrieHeight, "height:"+tag(r.Config))
			}
			spin(b)
		})
	}
}

// BenchmarkFig11 reports SuRF false-positive rates, Base vs Real8.
func BenchmarkFig11(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "fig11", func() ([]bench.Fig11Row, error) { return bench.RunFig11(cfg) })
	for _, r := range rows {
		b.ReportMetric(r.FPRBase*100, "fpr%:"+tag(r.Config))
		b.ReportMetric(r.FPRReal8*100, "fpr8%:"+tag(r.Config))
	}
	spin(b)
}

// BenchmarkFig12 reports point latency and memory for the four key-value
// trees under the seven configurations.
func BenchmarkFig12(b *testing.B) {
	for _, ds := range datagen.Kinds {
		b.Run(ds.String(), func(b *testing.B) {
			cfg := benchCfg(ds)
			rows := once(b, "fig12/"+ds.String(), func() ([]bench.Fig12Row, error) {
				return bench.RunFig12(cfg, bench.IndexNames)
			})
			for _, r := range rows {
				b.ReportMetric(r.PointNs, tag(fmt.Sprintf("ns:%s/%s", r.Index, r.Config)))
			}
			spin(b)
		})
	}
}

// BenchmarkFig13 reports compression rate vs sample fraction.
func BenchmarkFig13(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "fig13", func() ([]bench.Fig13Row, error) {
		return bench.RunFig13(cfg, []float64{0.001, 0.01, 0.1, 1.0})
	})
	for _, r := range rows {
		b.ReportMetric(r.CPR, fmt.Sprintf("CPR:%v@%g", r.Scheme, r.Frac))
	}
	spin(b)
}

// BenchmarkFig14 reports batch-encoding latency at batch sizes 1, 2, 32.
func BenchmarkFig14(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "fig14", func() ([]bench.Fig14Row, error) {
		return bench.RunFig14(cfg, []int{1, 2, 32})
	})
	for _, r := range rows {
		b.ReportMetric(r.LatNsChar, fmt.Sprintf("ns/char:%v@%d", r.Scheme, r.BatchSize))
	}
	spin(b)
}

// BenchmarkFig15 reports compression under key-distribution changes.
func BenchmarkFig15(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "fig15", func() ([]bench.Fig15Row, error) { return bench.RunFig15(cfg) })
	for _, r := range rows {
		b.ReportMetric(r.CPR, fmt.Sprintf("CPR:%v/D%s-E%s", r.Scheme, r.Dict, r.Eval))
	}
	spin(b)
}

// BenchmarkFig16 reports range and insert latency for the four trees.
func BenchmarkFig16(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "fig16", func() ([]bench.Fig16Row, error) {
		return bench.RunFig16(cfg, bench.IndexNames)
	})
	for _, r := range rows {
		b.ReportMetric(r.RangeNs, tag(fmt.Sprintf("ns/range:%s/%s", r.Index, r.Config)))
		b.ReportMetric(r.InsertNs, tag(fmt.Sprintf("ns/insert:%s/%s", r.Index, r.Config)))
	}
	spin(b)
}

// BenchmarkFigTree reports the end-to-end series of the default-opened
// store (one shard): load, point and range-scan latency plus bytes/key
// for every backend × configuration.
func BenchmarkFigTree(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "figtree", func() ([]bench.TreeBenchRow, error) {
		return bench.RunFigTree(cfg, hope.Backends)
	})
	for _, r := range rows {
		b.ReportMetric(r.PointNs, tag(fmt.Sprintf("ns/point:%s/%s", r.Backend, r.Config)))
		b.ReportMetric(r.ScanNs, tag(fmt.Sprintf("ns/scan:%s/%s", r.Backend, r.Config)))
		b.ReportMetric(r.BytesPerKey, tag(fmt.Sprintf("B/key:%s/%s", r.Backend, r.Config)))
	}
	spin(b)
}

// BenchmarkShardedIndexGet measures the zero-alloc concurrent read path
// at DefaultShards, from one goroutine and from GOMAXPROCS (allocs/op
// must be 0); the 1-shard Get is BenchmarkFigTree's point cell.
func BenchmarkShardedIndexGet(b *testing.B) {
	keys := datagen.Generate(datagen.Email, 20000, 1)
	samples := hope.SampleKeys(keys, 0.01, 42)
	enc := once(b, "enc/"+hope.SingleChar.String(), func() (*hope.Encoder, error) {
		return hope.Build(hope.SingleChar, samples, hope.Options{DictLimit: 1 << 12})
	})
	b.Run("ShardedIndex", func(b *testing.B) {
		s, err := hope.Open(hope.ART, hope.WithEncoder(enc.Clone()), hope.WithShards(0))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Bulk(keys, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Get(keys[i%len(keys)])
		}
	})
	b.Run("ShardedIndexParallel", func(b *testing.B) {
		s, err := hope.Open(hope.ART, hope.WithEncoder(enc.Clone()), hope.WithShards(0))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Bulk(keys, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				s.Get(keys[i%len(keys)])
				i++
			}
		})
	})
}

// BenchmarkAblationWeighting reports the effect of symbol-length-weighted
// probabilities on VIVC compression.
func BenchmarkAblationWeighting(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "ablW", func() ([]bench.AblationWeightingRow, error) {
		return bench.RunAblationWeighting(cfg)
	})
	for _, r := range rows {
		b.ReportMetric(r.CPRWeighted, "CPRw:"+r.Scheme.String())
		b.ReportMetric(r.CPRUnweighted, "CPRu:"+r.Scheme.String())
	}
	spin(b)
}

// BenchmarkAblationDictStructure reports the Table 1 dictionary structures
// against plain binary search.
func BenchmarkAblationDictStructure(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "ablD", func() ([]bench.AblationDictRow, error) {
		return bench.RunAblationDictStructure(cfg)
	})
	for _, r := range rows {
		b.ReportMetric(r.SpecializedNs, "ns/spec:"+r.Scheme.String())
		b.ReportMetric(r.BinarySearchNs, "ns/bs:"+r.Scheme.String())
	}
	spin(b)
}

// BenchmarkAblationCoder reports Garsia-Wachs vs O(n²) Hu-Tucker code
// assignment cost at equal (optimal) compression.
func BenchmarkAblationCoder(b *testing.B) {
	cfg := benchCfg(datagen.Email)
	rows := once(b, "ablC", func() ([]bench.AblationCoderRow, error) {
		return bench.RunAblationCoder(cfg)
	})
	for _, r := range rows {
		b.ReportMetric(r.GWAssignSec*1e3, "ms/GW:"+r.Scheme.String())
		b.ReportMetric(r.HTAssignSec*1e3, "ms/HT:"+r.Scheme.String())
	}
	spin(b)
}

var _ = core.Schemes // the façade aliases core's scheme type; keep the link explicit

// BenchmarkShardedScan measures one short scan (50 results from a stored
// key) per op. The uncompressed B+tree legs compare hash and range
// partitions at 8 shards; the drift-email legs (Email keys, 3-Grams 4K,
// ART, 2 hash shards, as a ShardedIndex and as an AdaptiveIndex) and the
// point-url leg (Double-Char URLs on a B+tree, 2 hash shards) take the
// shapes of the perfbench workloads that scan, all through the hash
// k-way merge. Every leg is allocation-free in steady state, which
// TestHashScanZeroAlloc and TestSingleShardScanZeroAlloc pin. The art-10
// leg takes 10 results from the drift-email shape on one shard, the store
// Open returns by default: the sharded core's own cost on a short scan.
func BenchmarkShardedScan(b *testing.B) {
	emails := datagen.Generate(datagen.Email, 20000, 1)
	urls := datagen.Generate(datagen.URL, 20000, 1)
	encoder := func(b *testing.B, scheme hope.Scheme, keys [][]byte, opt hope.Options) *hope.Encoder {
		enc, err := hope.Build(scheme, hope.SampleKeys(keys, 0.01, 1), opt)
		if err != nil {
			b.Fatal(err)
		}
		return enc
	}
	email4K := hope.Options{DictLimit: 1 << 12}
	for _, leg := range []struct {
		name  string
		keys  [][]byte
		open  func(b *testing.B) (hope.Store, error)
		limit int // results per scan; 0 means 50
	}{
		{"hash/8", emails, func(*testing.B) (hope.Store, error) {
			return hope.Open(hope.BTree, hope.WithShards(8))
		}, 0},
		{"range/8", emails, func(*testing.B) (hope.Store, error) {
			return hope.Open(hope.BTree, hope.WithShards(8), hope.WithRangePartitioner(emails))
		}, 0},
		{"drift-email/ShardedIndex", emails, func(b *testing.B) (hope.Store, error) {
			enc := encoder(b, hope.ThreeGrams, emails, email4K)
			return hope.Open(hope.ART, hope.WithEncoder(enc), hope.WithShards(2))
		}, 0},
		{"drift-email/AdaptiveIndex", emails, func(b *testing.B) (hope.Store, error) {
			enc := encoder(b, hope.ThreeGrams, emails, email4K)
			return hope.Open(hope.ART, hope.WithAdaptive(hope.AdaptiveOptions{
				Scheme: hope.ThreeGrams, Build: email4K, Encoder: enc, Shards: 2, Manual: true,
			}))
		}, 0},
		{"point-url", urls, func(b *testing.B) (hope.Store, error) {
			enc := encoder(b, hope.DoubleChar, urls, hope.Options{})
			return hope.Open(hope.BTree, hope.WithEncoder(enc), hope.WithShards(2))
		}, 0},
		{"art-10/ShardedIndex-1", emails, func(b *testing.B) (hope.Store, error) {
			enc := encoder(b, hope.ThreeGrams, emails, email4K)
			return hope.Open(hope.ART, hope.WithEncoder(enc), hope.WithShards(1))
		}, 10},
	} {
		b.Run(leg.name, func(b *testing.B) {
			st, err := leg.open(b)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.Bulk(leg.keys, nil); err != nil {
				b.Fatal(err)
			}
			limit := cmp.Or(leg.limit, 50)
			n := 0
			fn := func([]byte, uint64) bool { n++; return n < limit }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n = 0
				st.Scan(leg.keys[i%len(leg.keys)], nil, fn)
			}
		})
	}
}

// BenchmarkBulk times one Bulk into an empty store — the parallel
// route-and-encode pass, the per-shard gather, sort and bottom-up build —
// in the shapes perfbench sets up: 50k URLs, Double-Char, B+tree, at 1
// and 2 hash shards (point-url), and 50k emails, 3-Grams 4K, an adaptive
// ART of 2 shards (drift-email). Opening and closing the store are not
// timed.
func BenchmarkBulk(b *testing.B) {
	const n = 50_000
	urls := datagen.Generate(datagen.URL, n, 1)
	emails := datagen.Generate(datagen.Email, n, 1)
	encoder := func(b *testing.B, scheme hope.Scheme, keys [][]byte, opt hope.Options) *hope.Encoder {
		enc, err := hope.Build(scheme, hope.SampleKeys(keys, 0.01, 1), opt)
		if err != nil {
			b.Fatal(err)
		}
		return enc
	}
	email4K := hope.Options{DictLimit: 1 << 12}
	for _, leg := range []struct {
		name string
		keys [][]byte
		open func(enc *hope.Encoder) (hope.Store, error)
		enc  func(b *testing.B) *hope.Encoder
	}{
		{"point-url/1", urls, func(enc *hope.Encoder) (hope.Store, error) {
			return hope.Open(hope.BTree, hope.WithEncoder(enc), hope.WithShards(1))
		}, func(b *testing.B) *hope.Encoder { return encoder(b, hope.DoubleChar, urls, hope.Options{}) }},
		{"point-url/2", urls, func(enc *hope.Encoder) (hope.Store, error) {
			return hope.Open(hope.BTree, hope.WithEncoder(enc), hope.WithShards(2))
		}, func(b *testing.B) *hope.Encoder { return encoder(b, hope.DoubleChar, urls, hope.Options{}) }},
		{"drift-email/AdaptiveIndex", emails, func(enc *hope.Encoder) (hope.Store, error) {
			return hope.Open(hope.ART, hope.WithAdaptive(hope.AdaptiveOptions{
				Scheme: hope.ThreeGrams, Build: email4K, Encoder: enc, Shards: 2, Manual: true,
			}))
		}, func(b *testing.B) *hope.Encoder { return encoder(b, hope.ThreeGrams, emails, email4K) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			enc := leg.enc(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := leg.open(enc.Clone())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := st.Bulk(leg.keys, nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
		})
	}
}

// BenchmarkAdaptivePut measures the adaptive write path under
// multi-goroutine pressure — the satellite target of the striped
// lifecycle tracker (no global accounting mutex) and the folded
// single-resolution upsert. The overwrite case is the steady-state hot
// path and must stay allocation-free.
func BenchmarkAdaptivePut(b *testing.B) {
	load := func(b *testing.B) (*hope.AdaptiveIndex, [][]byte) {
		b.Helper()
		keys := datagen.Generate(datagen.Email, 20000, 1)
		samples := hope.SampleKeys(keys, 0.01, 42)
		enc, err := hope.Build(hope.DoubleChar, samples, hope.Options{})
		if err != nil {
			b.Fatal(err)
		}
		st, err := hope.Open(hope.ART, hope.WithAdaptive(hope.AdaptiveOptions{
			Scheme: hope.DoubleChar, Encoder: enc, Shards: 16, Manual: true,
		}))
		if err != nil {
			b.Fatal(err)
		}
		a := st.(*hope.AdaptiveIndex)
		for i, k := range keys {
			if err := a.Put(k, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		return a, keys
	}
	b.Run("OverwriteSerial", func(b *testing.B) {
		a, keys := load(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Put(keys[i%len(keys)], uint64(i))
		}
	})
	b.Run("OverwriteParallel", func(b *testing.B) {
		a, keys := load(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				a.Put(keys[i%len(keys)], uint64(i))
				i++
			}
		})
	})
}

// BenchmarkAdaptiveBulk times the stop-the-world load of an empty
// AdaptiveIndex the way the drift-email workload sets one up: 200k
// Email-A keys, ART, 3-Grams with a 4K dictionary, 2 shards. Trees repeats
// the load on a ShardedIndex of the same shape and dictionary — the tree
// load alone — so the gap between the two is the adaptive record layer.
func BenchmarkAdaptiveBulk(b *testing.B) {
	emailA, _ := datagen.SplitEmailByProvider(datagen.Generate(datagen.Email, 600_000, 1))
	keys := emailA[:200_000]
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	opts := hope.Options{DictLimit: 1 << 12}
	enc, err := hope.Build(hope.ThreeGrams, hope.SampleKeys(keys, 0.01, 1), opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		open func() (hope.Store, error)
	}{
		{"Adaptive", func() (hope.Store, error) {
			return hope.Open(hope.ART, hope.WithAdaptive(hope.AdaptiveOptions{
				Scheme: hope.ThreeGrams, Build: opts, Encoder: enc.Clone(), Shards: 2, Manual: true,
			}))
		}},
		{"Trees", func() (hope.Store, error) {
			return hope.Open(hope.ART, hope.WithEncoder(enc.Clone()), hope.WithShards(2))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := c.open()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := st.Bulk(keys, vals); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.Close()
				b.StartTimer()
			}
		})
	}
}
