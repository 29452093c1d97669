package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func rows(scale float64) []bench.EncodeBenchRow {
	schemes := []string{"Single-Char", "Double-Char", "3-Grams", "4-Grams", "ALM", "ALM-Improved"}
	out := make([]bench.EncodeBenchRow, len(schemes))
	for i, s := range schemes {
		out[i] = bench.EncodeBenchRow{
			Dataset:      "email",
			Scheme:       s,
			SerialNsKey:  100 * scale,
			SerialNsChar: 10 * scale,
			BulkNsKey:    20 * scale,
		}
	}
	return out
}

// TestSyntheticRegressionFails is the gate's acceptance demo: a uniform
// +20% latency move across schemes must fail a 15% threshold.
func TestSyntheticRegressionFails(t *testing.T) {
	report, failed, err := diff(rows(1.0), rows(1.20), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("synthetic +20%% regression passed the 15%% gate:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Fatalf("report does not flag the regression:\n%s", report)
	}
}

// TestWithinThresholdPasses: +10% noise stays under a 15% gate.
func TestWithinThresholdPasses(t *testing.T) {
	_, failed, err := diff(rows(1.0), rows(1.10), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("+10% move failed a 15% gate")
	}
}

// TestSingleNoisyRowTolerated: the median gate must not trip on one
// outlier scheme while the rest hold steady — that is CI noise, not an
// encode-path regression.
func TestSingleNoisyRowTolerated(t *testing.T) {
	cur := rows(1.0)
	cur[0].SerialNsKey *= 2
	cur[0].SerialNsChar *= 2
	cur[0].BulkNsKey *= 2
	_, failed, err := diff(rows(1.0), cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("one noisy row out of six tripped the median gate")
	}
}

// TestImprovementsPass: speedups must never fail the gate.
func TestImprovementsPass(t *testing.T) {
	_, failed, err := diff(rows(1.0), rows(0.5), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("a 2x speedup failed the gate")
	}
}

// TestMissingRowFails: a scheme that vanished from the current record is
// a silent total regression and must fail the gate.
func TestMissingRowFails(t *testing.T) {
	cur := rows(1.0)[:4] // two schemes no longer measured
	report, failed, err := diff(rows(1.0), cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("dropped rows passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "MISSING") {
		t.Fatalf("report does not name the missing rows:\n%s", report)
	}
}

// TestNewRowTolerated: a newly added scheme has no baseline and must not
// fail the gate.
func TestNewRowTolerated(t *testing.T) {
	cur := append(rows(1.0), bench.EncodeBenchRow{
		Dataset: "email", Scheme: "Brand-New",
		SerialNsKey: 1, SerialNsChar: 1, BulkNsKey: 1,
	})
	_, failed, err := diff(rows(1.0), cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("a new unmatched row failed the gate")
	}
}

// TestDisjointRowsError: comparing unrelated records is an input error,
// not a pass.
func TestDisjointRowsError(t *testing.T) {
	base := rows(1.0)
	for i := range base {
		base[i].Dataset = "url"
	}
	if _, _, err := diff(base, rows(1.0), 0.15); err == nil {
		t.Fatal("disjoint row sets did not error")
	}
}

// TestZeroBaselineSkipped: sub-tick baseline measurements record 0 and
// must be skipped rather than dividing by zero.
func TestZeroBaselineSkipped(t *testing.T) {
	base := rows(1.0)
	for i := range base {
		base[i].BulkNsKey = 0
	}
	_, failed, err := diff(base, rows(1.0), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("zero baseline produced a failure")
	}
}

// treeRun is one tree record: every backend × config cell on email, with
// latencies scaled by slow and load throughput divided by it.
func treeRun(slow float64) []bench.TreeBenchRow {
	var out []bench.TreeBenchRow
	for _, backend := range []string{"ART", "B+tree", "HOT", "SuRF"} {
		for i, config := range []string{"Uncompressed", "Single-Char", "Double-Char", "3-Grams"} {
			out = append(out, bench.TreeBenchRow{
				Dataset: "email", Backend: backend, Config: config,
				LoadKeysSec: 1e6 / slow,
				PointNs:     float64(300+10*i) * slow,
				ScanNs:      float64(900+10*i) * slow,
				InsertNs:    float64(500+10*i) * slow,
			})
		}
	}
	return out
}

// gateTreeRuns writes each run to its own record file and gates the two
// sides as `benchdiff -mode tree` does, comma-separated lists included.
func gateTreeRuns(t *testing.T, base, head [][]bench.TreeBenchRow) (string, bool) {
	t.Helper()
	write := func(side string, runs [][]bench.TreeBenchRow) string {
		var paths []string
		for i, r := range runs {
			p := filepath.Join(t.TempDir(), fmt.Sprintf("tree.%s.%d.json", side, i))
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		return strings.Join(paths, ",")
	}
	b, err := readRuns(write("base", base), readTreeRows)
	if err != nil {
		t.Fatal(err)
	}
	h, err := readRuns(write("head", head), readTreeRows)
	if err != nil {
		t.Fatal(err)
	}
	report, failed, err := diffRows(b, h, treeMetrics, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return report, failed
}

// TestTreeOutlierRunTolerated: of three runs per side, the first head run
// twice as slow and the last base run twice as fast in every cell are
// outliers the per-cell median discards.
func TestTreeOutlierRunTolerated(t *testing.T) {
	base := [][]bench.TreeBenchRow{treeRun(1), treeRun(1.05), treeRun(0.5)}
	head := [][]bench.TreeBenchRow{treeRun(2), treeRun(1.02), treeRun(0.99)}
	if report, failed := gateTreeRuns(t, base, head); failed {
		t.Fatalf("one outlier run out of three failed the gate:\n%s", report)
	}
}

// TestTreeRegressionInEveryRunFails: a 30% slowdown in every head run
// fails the 15% gate on every metric, load throughput included.
func TestTreeRegressionInEveryRunFails(t *testing.T) {
	base := [][]bench.TreeBenchRow{treeRun(1), treeRun(1.05), treeRun(0.97)}
	head := [][]bench.TreeBenchRow{treeRun(1.3), treeRun(1.3 * 1.05), treeRun(1.3 * 0.97)}
	report, failed := gateTreeRuns(t, base, head)
	if !failed {
		t.Fatalf("a 30%% regression in every run passed the 15%% gate:\n%s", report)
	}
	if n := strings.Count(report, "REGRESSION"); n != len(treeMetrics) {
		t.Fatalf("%d of %d metrics flagged:\n%s", n, len(treeMetrics), report)
	}
}
