// Command perfbench is the repository's benchmark. It drives the public
// HOPE stack from outside — hope.Build and the Encoder, the search trees
// behind hope.Open, ShardedIndex and AdaptiveIndex, Persistent restore and
// the TCP server — over three workloads, checks every answer, and prints
// one JSON result line.
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) repeats the measured phase with spans recorded around every
// call into a layer, then times each layer alone on the same keys, and
// reports the per-layer metrics; metricDefs says which end-to-end metric
// each of them is expected to move.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload point-url --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	hope "repro"
)

// metricDef names one reported metric. moves records, for a per-layer
// metric, the end-to-end metric and workload a change to that layer is
// expected to move (and where no change is predicted).
type metricDef struct {
	name  string
	unit  string
	layer bool
	moves string
}

var metricDefs = []metricDef{
	{"setup_s", "s", false, "median of several set-ups in the run"},
	{"throughput_ops_s", "1/s", false, "completed ops / wall time of the measured phase"},
	{"get_p50_us", "us", false, ""},
	{"put_p50_us", "us", false, "set on the wire for serve-email"},
	{"scan_p50_us", "us", false, "range on the wire for serve-email; a post-phase scan pass on point-url"},
	{"mem_bytes_per_key", "B", false, "GC'd Go heap growth across set-up / keys"},

	// The p99s are reported with the per-layer figures, from the untraced
	// phase of a traced run: on a shared 2-core machine their run-to-run
	// spread is too wide for a regression bound.
	{"get_p99_us", "us", true, "median of the phase's per-window p99s"},
	{"put_p99_us", "us", true, "median of the phase's per-window p99s"},
	{"scan_p99_us", "us", true, "median of the phase's per-window p99s"},

	{"core.build_s", "s", true, "setup_s@point-url; no change predicted on serve-email (restore skips the build)"},
	{"core.encode_ns", "ns", true, "get_p50_us@point-url; under 10% on serve-email"},
	{"core.encode_all_ns_per_key", "ns", true, "setup_s@point-url"},
	{"core.cpr", "x", true, "mem_bytes_per_key@all"},
	{"core.dict_bytes", "B", true, "mem_bytes_per_key@all"},
	// The tree layer is measured on the two backends hopeserve serves: the
	// B+tree on point-url, ART on the other two. HOT, Prefix B+tree, SuRF
	// and T-tree are on no workload.
	{"tree.get_ns", "ns", true, "get_p50_us,throughput_ops_s@point-url"},
	{"tree.bulk_s", "s", true, "setup_s@point-url"},
	{"tree.insert_ns", "ns", true, "put_p50_us@drift-email"},
	{"tree.scan_ns_per_key", "ns", true, "scan_p50_us@drift-email"},
	{"tree.heap_bytes_per_key", "B", true, "mem_bytes_per_key@all"},
	{"store.get_ns", "ns", true, "get_p50_us@point-url (one goroutine)"},
	{"store.get_overhead_ns", "ns", true, "get_p50_us@point-url (routing, lock, pool)"},
	{"store.get_wait_ns", "ns", true, "throughput_ops_s@point-url,drift-email"},
	{"store.put_ns", "ns", true, "put_p50_us,put_p99_us@drift-email"},
	{"store.scan_ns", "ns", true, "scan_p50_us,scan_p99_us@drift-email"},
	{"store.mem_reported_bytes_per_key", "B", true, "recorded beside mem_bytes_per_key"},
	{"lifecycle.rebuilds", "count", true, "from Stats(); a forced-rebuild probe off drift-email"},
	{"lifecycle.rebuild_s", "s", true, "throughput_ops_s@drift-email"},
	{"lifecycle.migrating_put_p99_us", "us", true, "put_p99_us,throughput_ops_s@drift-email"},
	{"lifecycle.steady_put_p99_us", "us", true, "put_p99_us@drift-email"},
	{"lifecycle.cpr_recovery", "x", true, "mem_bytes_per_key@drift-email"},
	{"persist.restore_s", "s", true, "setup_s@serve-email only"},
	{"persist.snapshot_s", "s", true, "no end-to-end metric (timed in preparation)"},
	{"persist.snapshot_bytes_per_key", "B", true, "no end-to-end metric (timed in preparation)"},
	{"server.null_get_us", "us", true, "get_p50_us,throughput_ops_s@serve-email; no change predicted elsewhere"},
	{"server.overhead_us", "us", true, "get_p50_us,throughput_ops_s@serve-email; no change predicted elsewhere"},
	{"gen.self_ns", "ns", true, "benchmark's own generator cost per op, outside the timed call"},
	{"trace.overhead_frac", "frac", true, "1 - traced/untraced throughput in this run"},
}

var workloads = map[string]func(*bench) error{
	"point-url":   runPointURL,
	"drift-email": runDriftEmail,
	"serve-email": runServeEmail,
}

// config is one invocation. scale, which only the self-test sets, shrinks
// every key count (0 means full size); wrap, when set, decorates the store
// under test (the self-test injects faults with it).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string
	wrap     func(hope.Store) hope.Store
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's configuration and collects its figures and
// failed checks.
type bench struct {
	cfg       config
	values    map[string]float64
	samples   map[string]int
	attempted int64
	failed    int64
	problems  []string

	// phaseGetNs is the median store.get span of the traced phase, for
	// store.get_wait_ns.
	phaseGetNs float64
}

// n scales a full-size key or op count, keeping at least floor.
func (b *bench) n(full, floor int) int {
	return max(floor, int(float64(full)*b.cfg.scale))
}

func (b *bench) set(name string, v float64, samples int) {
	b.values[name] = v
	b.samples[name] = samples
}

// fail counts one failed correctness check; any one fails the run.
func (b *bench) fail(format string, args ...any) {
	b.note(format, args...)
	b.failed++
}

// note records why the run fails, for failures already counted.
func (b *bench) note(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) phaseDuration() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

// run executes one workload and returns its result; the error reports a
// failed check or a benchmark fault.
func run(cfg config) (result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.scale == 0 {
		cfg.scale = 1
	}
	b := &bench{cfg: cfg, values: map[string]float64{}, samples: map[string]int{}}
	if err := fn(b); err != nil {
		return result{}, err
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, d := range metricDefs {
		if d.layer != cfg.trace {
			continue
		}
		v, ok := b.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		b.problems = append(b.problems, "no operation attempted")
	}
	if len(missing) > 0 {
		b.problems = append(b.problems, "metrics not measured: "+strings.Join(missing, ", "))
	}
	res.Correct = len(b.problems) == 0
	b.print(os.Stdout)
	if !res.Correct {
		return res, fmt.Errorf("%s: %d failed ops; %s", cfg.workload, b.failed, strings.Join(b.problems, "; "))
	}
	return res, nil
}

// print writes the human-readable report: every measured figure with its
// unit and sample count, and for a per-layer figure what it should move.
func (b *bench) print(w *os.File) {
	names := make([]string, 0, len(b.values))
	for n := range b.values {
		names = append(names, n)
	}
	sort.Strings(names)
	defs := map[string]metricDef{}
	for _, d := range metricDefs {
		defs[d.name] = d
	}
	for _, n := range names {
		d := defs[n]
		unit := d.unit
		if unit == "" {
			unit = "-"
		}
		fmt.Fprintf(w, "# %-34s %14.4f %-5s n=%-9d %s\n", n, b.values[n], unit, b.samples[n], d.moves)
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "# %-34s %14.6f %-5s n=%-9d failed/attempted\n", "failed_ops_frac", frac, "frac", b.attempted)
	for _, p := range b.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
}

func main() {
	var (
		cfg    config
		trace  int
		commit string
	)
	flag.StringVar(&cfg.workload, "workload", "", "point-url | drift-email | serve-email")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for keys and op streams")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&commit, "commit", "unknown", "code version stamped on the result")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for span dumps and scratch snapshots")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	res, err := run(cfg)
	if err != nil && res.Metrics == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
