package main

import (
	"fmt"
	"strings"
	"testing"
)

// testSpec mirrors BENCHMARK.json's shape: three workloads, one metric
// per direction.
var testSpec = perfSpec{
	Workloads: []struct {
		Name string `json:"name"`
	}{{"point-url"}, {"drift-email"}, {"serve-email"}},
	EndToEnd: []perfBound{
		{Name: "throughput_ops_s", Better: "higher", Bound: 0.24},
		{Name: "get_p50_us", Better: "lower", Bound: 0.24},
		{Name: "mem_bytes_per_key", Better: "lower", Bound: 0.05},
	},
}

// perfOutput synthesizes perfbench output for three seeds of every
// workload: scale multiplies throughput and divides the latency and
// memory figures, so scale > 1 is an improvement. edit, when set, may
// rewrite any run's result line.
func perfOutput(scale float64, edit func(workload string, seed int, line string) string) string {
	var b strings.Builder
	for _, w := range []string{"point-url", "drift-email", "serve-email"} {
		for seed := 1; seed <= 3; seed++ {
			fmt.Fprintf(&b, "# workload=%s seed=%d seconds=10 trace=0 nproc=2 gomaxprocs=2 go=go1.24.0 commit=abc\n", w, seed)
			fmt.Fprintf(&b, "# %-34s %14.4f\n", "get_p50_us", 2.0/scale)
			line := fmt.Sprintf(`{"correct":true,"attempted":1000,"failed":0,"metrics":{`+
				`"throughput_ops_s":{"value":%g,"unit":"1/s"},`+
				`"get_p50_us":{"value":%g,"unit":"us"},`+
				`"mem_bytes_per_key":{"value":%g,"unit":"B"}}}`,
				1e6*scale, 2.0/scale, 138/scale)
			if edit != nil {
				line = edit(w, seed, line)
			}
			if line != "" {
				b.WriteString(line + "\n")
			}
		}
	}
	return b.String()
}

func gate(t *testing.T, base, head string) (string, bool) {
	t.Helper()
	br, err := parsePerfRuns(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := parsePerfRuns(strings.NewReader(head))
	if err != nil {
		t.Fatal(err)
	}
	return comparePerfbench(testSpec, br, hr)
}

// TestPerfbenchRegressionFails: a uniform 1.5x move for the worse, beyond
// the 24% throughput and latency bounds, fails and is flagged per row.
func TestPerfbenchRegressionFails(t *testing.T) {
	report, failed := gate(t, perfOutput(1, nil), perfOutput(1/1.5, nil))
	if !failed {
		t.Fatalf("a 1.5x regression passed:\n%s", report)
	}
	if got := strings.Count(report, "FAIL"); got != 9 {
		t.Fatalf("%d rows flagged, want 3 workloads x 3 metrics:\n%s", got, report)
	}
}

// TestPerfbenchWithinBoundPasses: a 3% move for the worse is inside every
// bound, the 5% memory bound included.
func TestPerfbenchWithinBoundPasses(t *testing.T) {
	if report, failed := gate(t, perfOutput(1, nil), perfOutput(1/1.03, nil)); failed {
		t.Fatalf("a 3%% move failed:\n%s", report)
	}
}

// TestPerfbenchImprovementPasses: twice as fast and half the memory in
// every direction must pass.
func TestPerfbenchImprovementPasses(t *testing.T) {
	if report, failed := gate(t, perfOutput(1, nil), perfOutput(2, nil)); failed {
		t.Fatalf("an improvement failed:\n%s", report)
	}
}

// TestPerfbenchTightBoundApplies: each metric keeps its own bound, so a
// 10% memory growth fails the 5% bound while the same move in latency
// alone would pass its 24% one.
func TestPerfbenchTightBoundApplies(t *testing.T) {
	head := perfOutput(1, func(_ string, _ int, line string) string {
		return strings.Replace(line, `"mem_bytes_per_key":{"value":138`, `"mem_bytes_per_key":{"value":151.8`, 1)
	})
	report, failed := gate(t, perfOutput(1, nil), head)
	if !failed || !strings.Contains(report, "mem_bytes_per_key") {
		t.Fatalf("a 10%% memory growth passed the 5%% bound:\n%s", report)
	}
}

// TestPerfbenchSingleNoisyRunTolerated: the gate compares medians over
// seeds, so one collapsed run out of three does not fail it.
func TestPerfbenchSingleNoisyRunTolerated(t *testing.T) {
	head := perfOutput(1, func(w string, seed int, line string) string {
		if seed == 2 {
			return strings.Replace(line, `"throughput_ops_s":{"value":1e+06`, `"throughput_ops_s":{"value":250000`, 1)
		}
		return line
	})
	if report, failed := gate(t, perfOutput(1, nil), head); failed {
		t.Fatalf("one noisy seed failed the median gate:\n%s", report)
	}
}

// TestPerfbenchIncorrectRunFails: a run that reports correct:false fails
// the gate even when its figures are fine.
func TestPerfbenchIncorrectRunFails(t *testing.T) {
	head := perfOutput(1, func(w string, seed int, line string) string {
		if w == "drift-email" && seed == 3 {
			return strings.Replace(line, `"correct":true`, `"correct":false`, 1)
		}
		return line
	})
	report, failed := gate(t, perfOutput(1, nil), head)
	if !failed || !strings.Contains(report, "2/3") {
		t.Fatalf("an incorrect run passed:\n%s", report)
	}
}

// TestPerfbenchDeadRunFails: a run that printed its header but died
// before its result line counts as an incorrect run.
func TestPerfbenchDeadRunFails(t *testing.T) {
	head := perfOutput(1, func(w string, seed int, line string) string {
		if w == "serve-email" && seed == 1 {
			return ""
		}
		return line
	})
	if report, failed := gate(t, perfOutput(1, nil), head); !failed {
		t.Fatalf("a run with no result line passed:\n%s", report)
	}
}

// TestPerfbenchHigherFailedShareFails: more failed operations per
// attempted one than the base fails, whatever the figures.
func TestPerfbenchHigherFailedShareFails(t *testing.T) {
	head := perfOutput(1, func(w string, seed int, line string) string {
		if w == "point-url" && seed == 1 {
			return strings.Replace(line, `"failed":0`, `"failed":1`, 1)
		}
		return line
	})
	report, failed := gate(t, perfOutput(1, nil), head)
	if !failed || !strings.Contains(report, "failed share") {
		t.Fatalf("a higher failed share passed:\n%s", report)
	}
}

// TestPerfbenchMissingWorkloadFails: a workload that one side never ran
// fails the gate instead of going unjudged.
func TestPerfbenchMissingWorkloadFails(t *testing.T) {
	full := perfOutput(1, nil)
	head := full[:strings.Index(full, "# workload=serve-email")]
	report, failed := gate(t, full, head)
	if !failed || !strings.Contains(report, "serve-email") {
		t.Fatalf("a missing workload passed:\n%s", report)
	}
	if _, failed := gate(t, head, full); !failed {
		t.Fatal("a workload missing from the base passed")
	}
}

// TestPerfbenchMissingMetricFails: a gated metric absent from every run
// of one side fails.
func TestPerfbenchMissingMetricFails(t *testing.T) {
	head := perfOutput(1, func(_ string, _ int, line string) string {
		return strings.Replace(line, `"get_p50_us"`, `"get_p50_renamed"`, 1)
	})
	report, failed := gate(t, perfOutput(1, nil), head)
	if !failed || !strings.Contains(report, "missing") {
		t.Fatalf("a missing metric passed:\n%s", report)
	}
}
