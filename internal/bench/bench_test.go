package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func quick(t *testing.T) Config {
	t.Helper()
	c := QuickConfig(datagen.Email)
	c.NumKeys = 3000
	c.NumOps = 2000
	return c
}

func TestRunFig8(t *testing.T) {
	cfg := quick(t)
	rows, err := RunFig8(cfg, []int{1024})
	if err != nil {
		t.Fatal(err)
	}
	// 2 fixed schemes + 4 tunable x 1 size.
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.CPR <= 1 {
			t.Fatalf("%v: CPR %.2f <= 1 on email keys", r.Scheme, r.CPR)
		}
		if r.LatNsChar <= 0 || r.DictMemKB <= 0 {
			t.Fatalf("%v: missing metrics %+v", r.Scheme, r)
		}
	}
	// Paper shape: Double-Char compresses better than Single-Char.
	var single, double float64
	for _, r := range rows {
		switch r.Scheme {
		case core.SingleChar:
			single = r.CPR
		case core.DoubleChar:
			double = r.CPR
		}
	}
	if double <= single {
		t.Fatalf("Double-Char CPR %.3f <= Single-Char %.3f", double, single)
	}
}

func TestRunFig9(t *testing.T) {
	rows, err := RunFig9(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Stats.Total() <= 0 {
			t.Fatalf("%s: no time recorded", r.Label)
		}
	}
}

func TestRunFig10(t *testing.T) {
	rows, err := RunFig10(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PointNs <= 0 || r.RangeNs <= 0 || r.MemoryMB <= 0 || r.TrieHeight <= 0 {
			t.Fatalf("%s: missing metrics %+v", r.Config, r)
		}
	}
	// Compression must shorten the trie (paper Figure 10 third row).
	if rows[0].Config != "Uncompressed" {
		t.Fatal("first config should be the baseline")
	}
	base := rows[0].TrieHeight
	for _, r := range rows[1:] {
		if !strings.Contains(r.Config, "ALM") && r.TrieHeight >= base {
			t.Fatalf("%s: height %.2f not below uncompressed %.2f", r.Config, r.TrieHeight, base)
		}
	}
}

func TestRunFig11(t *testing.T) {
	rows, err := RunFig11(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FPRReal8 > r.FPRBase {
			t.Fatalf("%s: Real8 FPR %.4f above Base %.4f", r.Config, r.FPRReal8, r.FPRBase)
		}
	}
}

func TestRunFig12(t *testing.T) {
	rows, err := RunFig12(quick(t), []string{"ART", "B+tree"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Memory: the compressed B+tree structure must be smaller than the
	// uncompressed one (paper Figure 12). At this test's key count the
	// Double-Char dictionary (65,792 entries) is not amortized, so the
	// assertion is on the tree split, which is what shrinks with key
	// length; at paper scale the dictionary is noise.
	var btBase, btDouble float64
	for _, r := range rows {
		if r.Index == "B+tree" {
			switch r.Config {
			case "Uncompressed":
				btBase = r.TreeMB
			case "Double-Char":
				btDouble = r.TreeMB
			}
		}
		if r.PointNs <= 0 || r.MemoryMB <= 0 {
			t.Fatalf("missing metrics: %+v", r)
		}
	}
	if btDouble >= btBase {
		t.Fatalf("Double-Char B+tree %.3f MB not below uncompressed %.3f MB", btDouble, btBase)
	}
}

func TestRunFig13(t *testing.T) {
	rows, err := RunFig13(quick(t), []float64{0.01, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.CPR <= 0 {
			t.Fatalf("%v at %v: CPR %.3f", r.Scheme, r.Frac, r.CPR)
		}
	}
}

func TestRunFig14(t *testing.T) {
	// Wall-clock latencies under `go test` are contaminated by parallel
	// package tests, so only a loose pathology bound is asserted here, on
	// the best of three passes per (scheme, batch size) with the batch-size
	// order reversed every other pass; the strict batch-beats-individual
	// comparison is a benchmark (BenchmarkFig14) run in isolation.
	lat := map[core.Scheme]map[int]float64{}
	for pass := 0; pass < 3; pass++ {
		sizes := []int{1, 2, 32}
		if pass%2 == 1 {
			sizes = []int{32, 2, 1}
		}
		rows, err := RunFig14(quick(t), sizes)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 12 {
			t.Fatalf("got %d rows", len(rows))
		}
		for _, r := range rows {
			if r.LatNsChar <= 0 {
				t.Fatalf("missing latency: %+v", r)
			}
			if lat[r.Scheme] == nil {
				lat[r.Scheme] = map[int]float64{}
			}
			if best, ok := lat[r.Scheme][r.BatchSize]; !ok || r.LatNsChar < best {
				lat[r.Scheme][r.BatchSize] = r.LatNsChar
			}
		}
	}
	for s, m := range lat {
		if m[32] > m[1]*3 {
			t.Fatalf("%v: batch-32 latency %.1f pathologically above batch-1 %.1f", s, m[32], m[1])
		}
	}
}

func TestRunFig15(t *testing.T) {
	rows, err := RunFig15(quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(core.Schemes)*4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Matched dictionary/distribution pairs should compress at least as
	// well as mismatched ones on average (paper Appendix C).
	var matched, mismatched, nm, nx float64
	for _, r := range rows {
		if r.Dict == r.Eval {
			matched += r.CPR
			nm++
		} else {
			mismatched += r.CPR
			nx++
		}
	}
	if matched/nm < mismatched/nx {
		t.Fatalf("matched CPR %.3f below mismatched %.3f", matched/nm, mismatched/nx)
	}
}

func TestRunFig16(t *testing.T) {
	rows, err := RunFig16(quick(t), []string{"HOT", "Prefix B+tree"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.RangeNs <= 0 || r.InsertNs <= 0 {
			t.Fatalf("missing metrics: %+v", r)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := quick(t)
	w, err := RunAblationWeighting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 3 {
		t.Fatal("weighting rows")
	}
	d, err := RunAblationDictStructure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d {
		if r.SpecializedNs <= 0 || r.BinarySearchNs <= 0 {
			t.Fatalf("missing latency: %+v", r)
		}
	}
	c, err := RunAblationCoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c {
		// Both coders are optimal: compression must agree tightly.
		if r.CPRGW < r.CPRHT*0.995 || r.CPRGW > r.CPRHT*1.005 {
			t.Fatalf("%v: GW CPR %.4f vs HT %.4f", r.Scheme, r.CPRGW, r.CPRHT)
		}
	}
	// Range encoding must never beat optimal Hu-Tucker (paper §4.2).
	re, err := RunAblationRangeEncoding(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range re {
		if r.CPRRange > r.CPRHT+1e-9 {
			t.Fatalf("%v: range encoding CPR %.4f above Hu-Tucker %.4f",
				r.Scheme, r.CPRRange, r.CPRHT)
		}
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatal("table 1 rows")
	}
	if rows[3].Dictionary != "bitmap-trie" {
		t.Fatal("3-Grams dictionary")
	}
}

func TestIndexAdapters(t *testing.T) {
	for _, name := range IndexNames {
		idx := NewIndex(name)
		idx.Insert([]byte("alpha"), 1)
		idx.Insert([]byte("beta"), 2)
		idx.Insert([]byte("gamma"), 3)
		if v, ok := idx.Get([]byte("beta")); !ok || v != 2 {
			t.Fatalf("%s: get", name)
		}
		if n := idx.Scan([]byte("b"), 10); n != 2 {
			t.Fatalf("%s: scan saw %d keys, want 2", name, n)
		}
		if idx.MemoryUsage() <= 0 {
			t.Fatalf("%s: memory", name)
		}
		if idx.Name() != name {
			t.Fatalf("%s: name", name)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	var sb strings.Builder
	Table(&sb, "demo", []string{"a", "b"}, [][]string{{"1", "2"}})
	out := sb.String()
	for _, want := range []string{"== demo ==", "a", "1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output", want)
		}
	}
	if F(1.234) != "1.23" || F3(1.2345) != "1.234" || Pct(0.5) != "50.0%" {
		t.Fatal("formatters")
	}
}
