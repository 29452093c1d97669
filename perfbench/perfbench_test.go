package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sync/atomic"
	"testing"

	hope "repro"
	"repro/internal/datagen"
)

// small runs a workload at 2% of its key counts for a fraction of a second.
func small(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.3, trace: trace, scale: 0.02, outDir: t.TempDir()}
}

// TestEveryMetricReported checks that each workload, untraced and traced,
// passes its own checks and reports every metric of its kind with its unit.
func TestEveryMetricReported(t *testing.T) {
	for w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(small(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := 0
			for _, d := range metricDefs {
				if d.layer != trace {
					continue
				}
				want++
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, d.name, m, d.unit)
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), want)
			}
		}
	}
}

// faultyStore returns a wrong value on every nth Get.
type faultyStore struct {
	hope.Store
	every int64
	gets  atomic.Int64
}

func (f *faultyStore) Get(k []byte) (uint64, bool) {
	v, ok := f.Store.Get(k)
	if f.gets.Add(1)%f.every == 0 {
		v++
	}
	return v, ok
}

// TestWrongValuesFailTheRun proves the checks are not vacuous: a store
// that answers every 100th Get wrongly must fail the run with failed ops.
func TestWrongValuesFailTheRun(t *testing.T) {
	for w := range workloads {
		cfg := small(t, w, false)
		cfg.wrap = func(st hope.Store) hope.Store { return &faultyStore{Store: st, every: 100} }
		res, err := run(cfg)
		if err == nil || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a faulty store: err=%v correct=%v failed=%d", w, err, res.Correct, res.Failed)
		}
	}
}

// TestDefinitionMatches keeps BENCHMARK.json and metricDefs in step.
func TestDefinitionMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range append(def.EndToEnd, def.PerLayer...) {
		listed[m.Name] = m.Unit
	}
	if len(listed) != len(metricDefs) {
		t.Errorf("BENCHMARK.json lists %d metrics, metricDefs %d", len(listed), len(metricDefs))
	}
	for _, d := range metricDefs {
		if listed[d.name] != d.unit {
			t.Errorf("metric %s: BENCHMARK.json unit %q, metricDefs %q", d.name, listed[d.name], d.unit)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// TestStallSpanningWindows: an op that spans two window edges must not
// give a window of zero length a rate, nor lose the stall.
func TestStallSpanningWindows(t *testing.T) {
	w := opStats{start: 0, end: 1000, win: 100, next: 100}
	op := func(at int64) {
		w.attempted++
		w.get.add(10)
		w.tick(at)
	}
	for at := int64(10); at < 100; at += 10 {
		op(at) // 9 ops in window 0
	}
	op(250) // a stall across the edges at 100 and 200
	for at := int64(260); at <= 1000; at += 10 {
		op(at)
	}
	p := &phase{workers: []opStats{w}}
	tput, get, _, _ := p.windows()
	if len(get) != phaseWindows {
		t.Fatalf("%d latency windows, want %d", len(get), phaseWindows)
	}
	if len(tput) != phaseWindows-1 {
		t.Errorf("%d rated windows, want %d: %v", len(tput), phaseWindows-1, tput)
	}
	for i, r := range tput {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Errorf("window %d rate %v", i, r)
		}
	}
	// The first window takes the stall: 10 ops over 250 ns.
	if got, want := tput[0], 10/250e-9; math.Abs(got-want) > 1 {
		t.Errorf("stalled window rate %v, want %v", got, want)
	}
}

// scanFaultStore hands every scanned key a wrong value.
type scanFaultStore struct{ hope.Store }

func (s scanFaultStore) Scan(start, end []byte, fn func([]byte, uint64) bool) int {
	return s.Store.Scan(start, end, func(k []byte, v uint64) bool { return fn(k, v+1) })
}

// TestScanValuesChecked: the oracle scans check values even when the store
// hands back encoded keys.
func TestScanValuesChecked(t *testing.T) {
	keys := datagen.Generate(datagen.Email, 2000, 1)
	enc, err := hope.Build(hope.DoubleChar, keys, hope.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hope.Open(hope.BTree, hope.WithEncoder(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Bulk(keys, valuesOf(keys)); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(keys)
	slices.SortFunc(sorted, bytes.Compare)
	for _, tc := range []struct {
		store hope.Store
		fail  bool
	}{{st, false}, {scanFaultStore{st}, true}} {
		b := &bench{cfg: config{seed: 1, scale: 1}, values: map[string]float64{}, samples: map[string]int{}}
		b.oracleScans(tc.store, sorted, b.scanOps(sorted, 200, 20), false)
		if (b.failed > 0) != tc.fail {
			t.Errorf("%T: %d of %d scans failed, want failures %v", tc.store, b.failed, b.attempted, tc.fail)
		}
	}
}
