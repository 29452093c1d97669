package main

import (
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

// ---------------------------------------------------------------------------
// YCSB throughput gating (-mode ycsb): higher is better, so the regression
// direction flips.
// ---------------------------------------------------------------------------

func ycsbRows(scale float64) []bench.YCSBBenchRow {
	var out []bench.YCSBBenchRow
	for _, wk := range []string{"A", "B", "C", "E"} {
		for _, th := range []int{1, 4} {
			out = append(out, bench.YCSBBenchRow{
				Dataset: "email", Workload: wk, Backend: "ART",
				Config: "Single-Char", Threads: th,
				OpsPerSec: 1e6 * scale * float64(th),
			})
		}
	}
	return out
}

func diffY(base, cur []bench.YCSBBenchRow, threshold float64) (string, bool, error) {
	return diffRows(flattenYCSB(base), flattenYCSB(cur), ycsbMetrics, threshold)
}

// TestYCSBThroughputDropFails: a uniform -20% throughput move must fail a
// 15% gate (throughput regresses downward, unlike the latency metrics).
func TestYCSBThroughputDropFails(t *testing.T) {
	report, failed, err := diffY(ycsbRows(1.0), ycsbRows(0.80), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("synthetic -20%% throughput drop passed the 15%% gate:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Fatalf("report does not flag the regression:\n%s", report)
	}
}

// TestYCSBThroughputGainPasses: faster must never fail — including the
// direction that would trip a latency-style gate.
func TestYCSBThroughputGainPasses(t *testing.T) {
	_, failed, err := diffY(ycsbRows(1.0), ycsbRows(2.0), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("a 2x throughput gain failed the ycsb gate")
	}
}

// TestYCSBWithinThresholdPasses: -10% noise stays under a 15% gate.
func TestYCSBWithinThresholdPasses(t *testing.T) {
	_, failed, err := diffY(ycsbRows(1.0), ycsbRows(0.90), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("-10% throughput move failed a 15% gate")
	}
}

// TestYCSBSingleNoisyCellTolerated: one collapsed cell out of eight must
// not trip the median gate.
func TestYCSBSingleNoisyCellTolerated(t *testing.T) {
	cur := ycsbRows(1.0)
	cur[0].OpsPerSec /= 4
	_, failed, err := diffY(ycsbRows(1.0), cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("one noisy cell tripped the ycsb median gate")
	}
}

// TestYCSBMissingCellFails: a (workload, threads) cell that vanished is a
// silent total regression.
func TestYCSBMissingCellFails(t *testing.T) {
	cur := ycsbRows(1.0)[:5]
	report, failed, err := diffY(ycsbRows(1.0), cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("dropped ycsb cells passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "MISSING") {
		t.Fatalf("report does not name the missing cells:\n%s", report)
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

// driftRows synthesizes a drift record: timeline windows for both configs
// plus summary rows carrying the recovery ratio.
func driftRows(opsScale, cprScale, recovery float64) []bench.DriftBenchRow {
	var out []bench.DriftBenchRow
	for _, config := range []string{"adaptive", "frozen"} {
		for w := 0; w < 4; w++ {
			out = append(out, bench.DriftBenchRow{
				Dataset: "email", Config: config, Window: w,
				OpsPerSec: 1e6 * opsScale, CPRRecent: 2.0 * cprScale,
			})
		}
		r := bench.DriftBenchRow{
			Dataset: "email", Config: config, Window: -1,
			CPRRecent: 1.8 * cprScale, ScratchCPR: 1.9,
		}
		if config == "adaptive" {
			r.RecoveryRatio = recovery
		}
		out = append(out, r)
	}
	return out
}

// A post-adaptation CPR collapse must fail the drift gate even when
// throughput holds.
func TestDriftCPRDropFails(t *testing.T) {
	base := flattenDrift(driftRows(1.0, 1.0, 0.97))
	cur := flattenDrift(driftRows(1.0, 0.7, 0.97))
	report, failed, err := diffRows(base, cur, driftMetrics, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("-30%% CPR passed the drift gate:\n%s", report)
	}
}

// A throughput collapse fails independently of CPR.
func TestDriftThroughputDropFails(t *testing.T) {
	base := flattenDrift(driftRows(1.0, 1.0, 0.97))
	cur := flattenDrift(driftRows(0.7, 1.0, 0.97))
	_, failed, err := diffRows(base, cur, driftMetrics, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("-30% throughput passed the drift gate")
	}
}

// The recovery ratio lives on a single row; a regression there alone —
// the rebuild no longer reaching a from-scratch dictionary — must fail.
func TestDriftRecoveryRatioDropFails(t *testing.T) {
	base := flattenDrift(driftRows(1.0, 1.0, 0.97))
	cur := flattenDrift(driftRows(1.0, 1.0, 0.60))
	_, failed, err := diffRows(base, cur, driftMetrics, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("recovery-ratio collapse passed the drift gate")
	}
}

// Mild wobble passes; the frozen config's zero recovery ratio is an
// unmeasurable baseline, not a regression.
func TestDriftWithinThresholdPasses(t *testing.T) {
	base := flattenDrift(driftRows(1.0, 1.0, 0.97))
	cur := flattenDrift(driftRows(0.92, 0.95, 0.95))
	report, failed, err := diffRows(base, cur, driftMetrics, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("in-threshold drift record failed:\n%s", report)
	}
}

func restoreRows(coldScale, restoreScale float64) []bench.RestoreBenchRow {
	var out []bench.RestoreBenchRow
	for _, cfg := range []string{"Uncompressed", "Double-Char", "3-Grams/64K"} {
		cold, restore := 0.5*coldScale, 0.02*restoreScale
		out = append(out, bench.RestoreBenchRow{
			Dataset: "email", Backend: "btree", Config: cfg, Keys: 30000,
			ColdSec: cold, RestoreSec: restore, Speedup: cold / restore,
		})
	}
	return out
}

// TestRestoreFasterColdBootPasses: a many-fold faster cold boot shrinks the
// recorded cold/restore speedup, but it is an improvement and must pass.
func TestRestoreFasterColdBootPasses(t *testing.T) {
	report, failed, err := diffRows(flattenRestore(restoreRows(1, 1)),
		flattenRestore(restoreRows(0.05, 1)), restoreMetrics, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("a faster cold boot failed the restore gate:\n%s", report)
	}
}

// TestRestoreSlowerRestoreFails: restore_sec keeps its own gate.
func TestRestoreSlowerRestoreFails(t *testing.T) {
	report, failed, err := diffRows(flattenRestore(restoreRows(1, 1)),
		flattenRestore(restoreRows(1, 1.4)), restoreMetrics, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("a +40%% restore_sec regression passed the 25%% gate:\n%s", report)
	}
}
