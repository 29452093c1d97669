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
