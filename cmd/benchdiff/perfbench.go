package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// perfSpec is the part of BENCHMARK.json the perfbench gate reads: the
// workloads every side must have run and the end-to-end metrics with their
// regression bounds.
type perfSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []perfBound `json:"end_to_end"`
}

// perfBound is one gated end-to-end metric: Bound is the largest tolerated
// relative worsening of the head median against the base median, in the
// direction Better ("lower" or "higher") names.
type perfBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// perfRun is one perfbench result line.
type perfRun struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// gatePerfbench runs the perfbench gate on files and returns the exit
// status.
func gatePerfbench(specPath, basePath, headPath string) int {
	var sp perfSpec
	if err := readJSON(specPath, &sp); err != nil {
		fatal(err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		fatal(fmt.Errorf("%s: no workloads or end_to_end metrics", specPath))
	}
	base, err := readPerfRuns(basePath)
	if err != nil {
		fatal(err)
	}
	head, err := readPerfRuns(headPath)
	if err != nil {
		fatal(err)
	}
	report, failed := comparePerfbench(sp, base, head)
	fmt.Print(report)
	if failed {
		fmt.Println("FAIL: perfbench head is worse than base beyond a BENCHMARK.json bound, incorrect, or incomplete")
		return 1
	}
	fmt.Println("OK: every end-to-end median within its BENCHMARK.json bound")
	return 0
}

func readPerfRuns(path string) (map[string][]perfRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := parsePerfRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// parsePerfRuns reads concatenated perfbench output and groups the result
// lines by workload. Each run prints a "# workload=W ..." header, comment
// lines, then one JSON result line; the result belongs to the header
// before it. A header with no result line is a run that died before
// reporting, and counts as an incorrect run.
func parsePerfRuns(r io.Reader) (map[string][]perfRun, error) {
	runs := map[string][]perfRun{}
	workload, pending := "", false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "# workload="):
			if pending {
				runs[workload] = append(runs[workload], perfRun{})
			}
			workload = strings.Fields(strings.TrimPrefix(line, "# workload="))[0]
			pending = true
		case strings.HasPrefix(line, "{"):
			if !pending {
				return nil, fmt.Errorf("result line without a workload header: %.60s", line)
			}
			var run perfRun
			if err := json.Unmarshal([]byte(line), &run); err != nil {
				return nil, fmt.Errorf("workload %s: %w", workload, err)
			}
			runs[workload] = append(runs[workload], run)
			pending = false
		}
	}
	if pending {
		runs[workload] = append(runs[workload], perfRun{})
	}
	return runs, sc.Err()
}

// comparePerfbench prints one row per workload × metric and reports
// whether the gate fails: a head median worse than the base median by more
// than the metric's bound, a run on either side that is not correct, a
// head failed/attempted share above the base's, or a workload or metric
// missing on either side.
func comparePerfbench(sp perfSpec, base, head map[string][]perfRun) (string, bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "head", "change", "bound", "verdict")
	failed := false
	emit := func(workload, metric, bv, hv, change, bound string, ok bool) {
		verdict := "ok"
		if !ok {
			verdict, failed = "FAIL", true
		}
		fmt.Fprintf(&b, "%-12s %-18s %12s %12s %8s %6s  %s\n", workload, metric, bv, hv, change, bound, verdict)
	}
	for _, w := range sp.Workloads {
		br, hr := base[w.Name], head[w.Name]
		if len(br) == 0 || len(hr) == 0 {
			emit(w.Name, "runs", fmt.Sprint(len(br)), fmt.Sprint(len(hr)), "", "", false)
			continue
		}
		bc, hc := countCorrect(br), countCorrect(hr)
		emit(w.Name, "correct runs", fmt.Sprintf("%d/%d", bc, len(br)), fmt.Sprintf("%d/%d", hc, len(hr)), "", "",
			bc == len(br) && hc == len(hr))
		bs, hs := failedShare(br), failedShare(hr)
		emit(w.Name, "failed share", fmt.Sprintf("%.6f", bs), fmt.Sprintf("%.6f", hs), "", "", hs <= bs)
		for _, m := range sp.EndToEnd {
			bvals, hvals := metricValues(br, m.Name), metricValues(hr, m.Name)
			if len(bvals) == 0 || len(hvals) == 0 {
				emit(w.Name, m.Name, "missing", "missing", "", "", false)
				continue
			}
			bm, hm := median(bvals), median(hvals)
			change := "-"
			if bm != 0 {
				change = fmt.Sprintf("%+.1f%%", (hm/bm-1)*100)
			}
			emit(w.Name, m.Name, fmtValue(bm), fmtValue(hm), change, fmt.Sprintf("%.0f%%", m.Bound*100),
				!worseBeyond(m, bm, hm))
		}
	}
	return b.String(), failed
}

// worseBeyond reports whether head is worse than base by more than the
// metric's bound, in the metric's direction.
func worseBeyond(m perfBound, base, head float64) bool {
	if m.Better == "higher" {
		return head < base*(1-m.Bound)
	}
	return head > base*(1+m.Bound)
}

func countCorrect(runs []perfRun) int {
	n := 0
	for _, r := range runs {
		if r.Correct {
			n++
		}
	}
	return n
}

// failedShare is failed/attempted over all of a side's runs of a workload;
// a side that attempted nothing counts as wholly failed.
func failedShare(runs []perfRun) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func metricValues(runs []perfRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && !math.IsNaN(m.Value) {
			out = append(out, m.Value)
		}
	}
	return out
}

func fmtValue(v float64) string {
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
