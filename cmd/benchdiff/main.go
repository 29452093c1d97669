// Command benchdiff is the CI perf-regression gate: it compares two
// benchmark records of the same kind and fails when the median regression
// of any gated metric exceeds the threshold.
//
// Usage:
//
//	benchdiff [-threshold 0.15] [-mode encode|ycsb|drift|scan|serve|tree|restore] baseline.json current.json
//
// Mode encode compares BENCH_encode.json records (the encode-path latency
// record `make bench` writes); mode ycsb compares BENCH_ycsb.json records
// (the concurrent serving throughput record `make bench-ycsb` writes);
// mode drift compares BENCH_drift.json records (the dictionary-drift
// adaptation record `make bench-drift` writes, gating post-adaptation CPR
// and throughput); mode scan compares BENCH_scan.json records (the
// scan-partitioning throughput record `make bench-scan` writes); mode
// serve compares BENCH_serve.json records (the network serving latency
// record `make bench-serve` writes, gating p99 per op); mode tree
// compares BENCH_tree.json records (the end-to-end search-tree record
// `make bench-tree` writes, gating load throughput plus point, scan and
// insert latencies); mode restore compares BENCH_restore.json records
// (the restart record `make bench-restore` writes, gating the cold and
// restore boot times). Rows are
// matched by identity key — (dataset, scheme) for encode, (dataset,
// workload, backend, config, threads) for ycsb, (dataset, config, window)
// for drift, (dataset, backend, config, partition, shards) for scan,
// (dataset, store, config, workload, conns, op) for serve,
// (dataset, backend, config) for tree,
// (dataset, backend, config, keys) for restore. For
// every gated
// metric the tool collects the per-row current/baseline ratios and
// compares the metric's median ratio against the threshold: latencies fail
// above 1+threshold, throughputs fail below 1-threshold. The median — not
// the max — gates the job so a single noisy row on shared CI hardware
// cannot fail the build, while a real regression (which moves every row)
// reliably does. Exit status: 0 pass, 1 regression, 2 usage or input
// error.
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

var ycsbMetrics = []metric{
	{name: "ops_per_sec", higherBetter: true},
}

// Drift gates both axes of adaptation: the rolling/post-adaptation
// compression rate and the serving throughput under lifecycle overhead.
// recovery_ratio appears only on the adaptive summary row, so its median
// IS that row — a direct gate on how close the rebuilt dictionary gets to
// a from-scratch one.
var driftMetrics = []metric{
	{name: "ops_per_sec", higherBetter: true},
	{name: "cpr_recent", higherBetter: true},
	{name: "recovery_ratio", higherBetter: true},
}

// Scan gates the range-vs-hash partitioning figure's throughput: a
// regression in the pruned scan planner or the single-shard fast path
// moves the range rows, one in the merge path moves the hash rows.
var scanMetrics = []metric{
	{name: "ops_per_sec", higherBetter: true},
}

// Serve gates the network serving figure on tail latency: the median
// p99 across the workload × connections × store × config cells. p99 —
// not p50, which hides queueing, and not p999, which a single-core CI
// runner's scheduler makes too noisy to gate (it is still recorded).
var serveMetrics = []metric{
	{name: "p99_us"},
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

// Restore gates both boot paths of the restart figure: restore_sec
// catches a slow restore (decode or parallel bulk path), cold_sec a slow
// from-scratch build. The record's speedup (cold_sec/restore_sec) is not
// gated: it falls only if cold_sec falls or restore_sec rises, so it adds
// no regression coverage and would fail a faster cold build.
var restoreMetrics = []metric{
	{name: "cold_sec"},
	{name: "restore_sec"},
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "maximum tolerated median regression (0.15 = ±15%)")
	mode := flag.String("mode", "encode", "record kind: encode (BENCH_encode.json), ycsb (BENCH_ycsb.json), drift (BENCH_drift.json), scan (BENCH_scan.json), serve (BENCH_serve.json), tree (BENCH_tree.json) or restore (BENCH_restore.json)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold 0.15] [-mode encode|ycsb|drift|scan|serve|tree|restore] baseline.json current.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
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
	case "ycsb":
		metrics = ycsbMetrics
		base, err = readYCSBRows(flag.Arg(0))
		if err == nil {
			cur, err = readYCSBRows(flag.Arg(1))
		}
	case "drift":
		metrics = driftMetrics
		base, err = readDriftRows(flag.Arg(0))
		if err == nil {
			cur, err = readDriftRows(flag.Arg(1))
		}
	case "scan":
		metrics = scanMetrics
		base, err = readScanRows(flag.Arg(0))
		if err == nil {
			cur, err = readScanRows(flag.Arg(1))
		}
	case "serve":
		metrics = serveMetrics
		base, err = readServeRows(flag.Arg(0))
		if err == nil {
			cur, err = readServeRows(flag.Arg(1))
		}
	case "tree":
		metrics = treeMetrics
		base, err = readTreeRows(flag.Arg(0))
		if err == nil {
			cur, err = readTreeRows(flag.Arg(1))
		}
	case "restore":
		metrics = restoreMetrics
		base, err = readRestoreRows(flag.Arg(0))
		if err == nil {
			cur, err = readRestoreRows(flag.Arg(1))
		}
	default:
		err = fmt.Errorf("unknown -mode %q (want encode, ycsb, drift, scan, serve, tree or restore)", *mode)
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

func readYCSBRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := bench.ReadYCSBBenchJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return flattenYCSB(rows), nil
}

func flattenYCSB(rows []bench.YCSBBenchRow) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = row{
			key: fmt.Sprintf("%s/%s/%s/%s/t%d", r.Dataset, r.Workload, r.Backend, r.Config, r.Threads),
			vals: map[string]float64{
				"ops_per_sec": r.OpsPerSec,
			},
		}
	}
	return out
}

func readDriftRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := bench.ReadDriftBenchJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return flattenDrift(rows), nil
}

func flattenDrift(rows []bench.DriftBenchRow) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		key := fmt.Sprintf("%s/%s/w%d", r.Dataset, r.Config, r.Window)
		if r.Window < 0 {
			key = fmt.Sprintf("%s/%s/summary", r.Dataset, r.Config)
		}
		out[i] = row{
			key: key,
			vals: map[string]float64{
				"ops_per_sec":    r.OpsPerSec,
				"cpr_recent":     r.CPRRecent,
				"recovery_ratio": r.RecoveryRatio,
			},
		}
	}
	return out
}

func readScanRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := bench.ReadScanBenchJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return flattenScan(rows), nil
}

func flattenScan(rows []bench.ScanBenchRow) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = row{
			key: fmt.Sprintf("%s/%s/%s/%s/s%d", r.Dataset, r.Backend, r.Config, r.Partition, r.Shards),
			vals: map[string]float64{
				"ops_per_sec": r.OpsPerSec,
			},
		}
	}
	return out
}

func readServeRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := bench.ReadServeBenchJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return flattenServe(rows), nil
}

func flattenServe(rows []bench.ServeBenchRow) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = row{
			key: fmt.Sprintf("%s/%s/%s/%s/c%d/%s", r.Dataset, r.Store, r.Config, r.Workload, r.Conns, r.Op),
			vals: map[string]float64{
				"p99_us": r.P99us,
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

func readRestoreRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := bench.ReadRestoreBenchJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return flattenRestore(rows), nil
}

func flattenRestore(rows []bench.RestoreBenchRow) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = row{
			key: fmt.Sprintf("%s/%s/%s/k%d", r.Dataset, r.Backend, r.Config, r.Keys),
			vals: map[string]float64{
				"cold_sec":    r.ColdSec,
				"restore_sec": r.RestoreSec,
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
