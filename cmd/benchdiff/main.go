// Command benchdiff is the perf-regression gate. It compares two
// measurements of the same code paths and fails on a regression beyond a
// bound.
//
// Usage:
//
//	benchdiff [-threshold 0.15] [-mode encode|tree] baseline.json current.json
//	benchdiff -mode perfbench BENCHMARK.json base.out head.out
//
// Mode encode compares BENCH_encode.json records (the encode-path latency
// record `make bench` writes); mode tree compares BENCH_tree.json records
// (the end-to-end search-tree record `make bench-tree` writes, gating load
// throughput plus point, scan and insert latencies). Rows are matched by
// identity key — (dataset, scheme) for encode, (dataset, backend, config)
// for tree. For every gated metric the tool collects the per-row
// current/baseline ratios and compares the metric's median ratio against
// the threshold: latencies fail above 1+threshold, throughputs fail below
// 1-threshold. The median — not the max — gates the job so a single noisy
// row on shared CI hardware cannot fail the build, while a real regression
// (which moves every row) reliably does.
//
// Mode perfbench compares the output of perfbench runs on two revisions
// (see scripts/perf_gate.sh and perfbench.go) against the end-to-end
// bounds BENCHMARK.json declares.
//
// Exit status: 0 pass, 1 regression, 2 usage or input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
)

// metric is one gated figure of a record. HigherBetter selects the
// regression direction: latencies regress upward, throughputs downward.
type metric struct {
	name         string
	higherBetter bool
}

// row is a flattened benchmark row: an identity key plus the gated metric
// values, the common form both record kinds diff through.
type row struct {
	key  string
	vals map[string]float64
}

var encodeMetrics = []metric{
	{name: "serial_ns_per_key"},
	{name: "serial_ns_per_char"},
	{name: "bulk_ns_per_key"},
}

// Tree gates the end-to-end search-tree figure: load throughput plus
// point, scan and insert latencies through hope.Index. insert_ns is
// absent from records written before the insert-heavy cell existed;
// diffRows skips metrics with a non-positive baseline, so old baselines
// still gate the other three.
var treeMetrics = []metric{
	{name: "load_keys_per_sec", higherBetter: true},
	{name: "point_ns"},
	{name: "scan_ns"},
	{name: "insert_ns"},
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "maximum tolerated median regression (0.15 = ±15%)")
	mode := flag.String("mode", "encode", "what to compare: encode (BENCH_encode.json), tree (BENCH_tree.json) or perfbench (perfbench output against BENCHMARK.json bounds)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold 0.15] [-mode encode|tree] baseline.json current.json\n"+
			"       benchdiff -mode perfbench BENCHMARK.json base.out head.out\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *mode == "perfbench" {
		if flag.NArg() != 3 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(gatePerfbench(flag.Arg(0), flag.Arg(1), flag.Arg(2)))
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var base, cur []row
	var metrics []metric
	var err error
	switch *mode {
	case "encode":
		metrics = encodeMetrics
		base, err = readEncodeRows(flag.Arg(0))
		if err == nil {
			cur, err = readEncodeRows(flag.Arg(1))
		}
	case "tree":
		metrics = treeMetrics
		base, err = readTreeRows(flag.Arg(0))
		if err == nil {
			cur, err = readTreeRows(flag.Arg(1))
		}
	default:
		err = fmt.Errorf("unknown -mode %q (want encode, tree or perfbench)", *mode)
	}
	if err != nil {
		fatal(err)
	}
	report, failed, err := diffRows(base, cur, metrics, *threshold)
	if err != nil {
		fatal(err)
	}
	fmt.Print(report)
	if failed {
		fmt.Printf("FAIL: median regression above %.0f%% (or baseline rows missing)\n", *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("OK: all medians within %.0f%%\n", *threshold*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func readEncodeRows(path string) ([]row, error) {
	var rows []bench.EncodeBenchRow
	if err := readJSON(path, &rows); err != nil {
		return nil, err
	}
	return flattenEncode(rows), nil
}

func flattenEncode(rows []bench.EncodeBenchRow) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = row{
			key: r.Dataset + "/" + r.Scheme,
			vals: map[string]float64{
				"serial_ns_per_key":  r.SerialNsKey,
				"serial_ns_per_char": r.SerialNsChar,
				"bulk_ns_per_key":    r.BulkNsKey,
			},
		}
	}
	return out
}

func readTreeRows(path string) ([]row, error) {
	var rows []bench.TreeBenchRow
	if err := readJSON(path, &rows); err != nil {
		return nil, err
	}
	return flattenTree(rows), nil
}

func flattenTree(rows []bench.TreeBenchRow) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = row{
			key: fmt.Sprintf("%s/%s/%s", r.Dataset, r.Backend, r.Config),
			vals: map[string]float64{
				"load_keys_per_sec": r.LoadKeysSec,
				"point_ns":          r.PointNs,
				"scan_ns":           r.ScanNs,
				"insert_ns":         r.InsertNs,
			},
		}
	}
	return out
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// diff preserves the original encode-record entry point (tests and older
// callers); it flattens and delegates to diffRows.
func diff(base, cur []bench.EncodeBenchRow, threshold float64) (string, bool, error) {
	return diffRows(flattenEncode(base), flattenEncode(cur), encodeMetrics, threshold)
}

// diffRows builds the human-readable comparison and reports whether any
// metric's median ratio breaches the threshold in its regression
// direction. A baseline row with no matching current row fails the gate
// outright: a configuration that stopped being measured is a silent total
// regression, not a pass. (Current rows without a baseline — newly added
// configurations — are noted and tolerated.)
func diffRows(base, cur []row, metrics []metric, threshold float64) (string, bool, error) {
	baseBy := map[string]row{}
	for _, r := range base {
		baseBy[r.key] = r
	}
	curKeys := map[string]bool{}
	out := fmt.Sprintf("%-40s %-20s %12s %12s %8s\n", "row", "metric", "baseline", "current", "ratio")
	failed := false
	for _, c := range cur {
		curKeys[c.key] = true
		if _, ok := baseBy[c.key]; !ok {
			out += fmt.Sprintf("%-40s new row (no baseline), not gated\n", c.key)
		}
	}
	for _, b := range base {
		if !curKeys[b.key] {
			out += fmt.Sprintf("%-40s MISSING from current record\n", b.key)
			failed = true
		}
	}
	matched := 0
	for _, m := range metrics {
		var ratios []float64
		for _, c := range cur {
			b, ok := baseBy[c.key]
			if !ok {
				continue
			}
			matched++
			bv, cv := b.vals[m.name], c.vals[m.name]
			if bv <= 0 {
				continue // unmeasurable baseline (sub-tick), nothing to gate
			}
			ratio := cv / bv
			ratios = append(ratios, ratio)
			flag := ""
			if regressed(ratio, m, threshold) {
				flag = "  <- above threshold"
			}
			out += fmt.Sprintf("%-40s %-20s %12.2f %12.2f %7.2fx%s\n", c.key, m.name, bv, cv, ratio, flag)
		}
		if len(ratios) == 0 {
			continue
		}
		med := median(ratios)
		verdict := "ok"
		if regressed(med, m, threshold) {
			verdict = "REGRESSION"
			failed = true
		}
		out += fmt.Sprintf("%-40s %-20s %12s %12s %7.2fx  median: %s\n",
			"(median)", m.name, "", "", med, verdict)
	}
	if matched == 0 {
		return "", false, fmt.Errorf("no rows match between baseline and current (different datasets or configurations?)")
	}
	return out, failed, nil
}

// regressed applies the metric's direction: latency ratios fail above
// 1+threshold, throughput ratios below 1-threshold.
func regressed(ratio float64, m metric, threshold float64) bool {
	if m.higherBetter {
		return ratio < 1-threshold
	}
	return ratio > 1+threshold
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
