package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// epoch is the zero of every span timestamp (monotonic nanoseconds).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// valueOf is the value every key is stored under (64-bit FNV-1a of the
// key), so a Get is checkable no matter which concurrent Put of that key
// landed last.
func valueOf(k []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range k {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

func valuesOf(keys [][]byte) []uint64 {
	v := make([]uint64, len(keys))
	for i, k := range keys {
		v[i] = valueOf(k)
	}
	return v
}

// lat holds exact per-op latencies in nanoseconds.
type lat []uint32

func (l *lat) add(ns int64) {
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	*l = append(*l, uint32(ns))
}

// merge concatenates recorders and sorts the result for pct.
func merge(ls ...lat) lat {
	n := 0
	for _, l := range ls {
		n += len(l)
	}
	out := make(lat, 0, n)
	for _, l := range ls {
		out = append(out, l...)
	}
	slices.Sort(out)
	return out
}

// pct returns the q-quantile (nearest rank) of sorted latencies in ns.
func (l lat) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(q * float64(len(l)))
	if i >= len(l) {
		i = len(l) - 1
	}
	return float64(l[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapBytes returns the live Go heap after a full collection.
func heapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// phaseWindows is how many equal windows a measured phase is cut into.
// Throughput and p99 are medians over the windows, so one stall (a GC
// cycle, a migration burst) moves them less than it moves a whole-phase
// figure.
const phaseWindows = 10

// mark is a load goroutine's cumulative counts when it closed a window,
// and the time it did.
type mark struct {
	ops, get, put, scan int
	at                  int64
}

// opStats is one load goroutine's record of the measured phase.
type opStats struct {
	get, put, scan    lat
	attempted, failed int64
	callNs            int64 // summed duration of the timed calls
	loopNs            int64 // wall time of the goroutine's loop
	firstFail         string

	start, end, win, next int64 // phase bounds, window length, next window edge
	marks                 []mark
}

// miss counts a failed op, keeping the first one's description.
func (w *opStats) miss(format string, args ...any) {
	if w.failed == 0 {
		w.firstFail = fmt.Sprintf(format, args...)
	}
	w.failed++
}

// tick closes the windows that time t has passed and reports whether the
// phase is over. Load goroutines call it after each op.
func (w *opStats) tick(t int64) bool {
	for t >= w.next {
		w.marks = append(w.marks, mark{int(w.attempted), len(w.get), len(w.put), len(w.scan), t})
		w.next += w.win
	}
	return t >= w.end
}

// phase aggregates the load goroutines of one measured phase.
type phase struct {
	workers []opStats
}

// runLoad starts n load goroutines, releases them together and waits for
// all of them; each runs body until tick reports the end of the phase
// (dur after the release) or body returns early.
func runLoad(n int, dur time.Duration, body func(g int, st *opStats)) *phase {
	p := &phase{workers: make([]opStats, n)}
	win := int64(dur) / phaseWindows
	var wg sync.WaitGroup
	release := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-release
			w := &p.workers[g]
			body(g, w)
			w.loopNs = now() - w.start
		}(g)
	}
	t0 := now()
	for g := range p.workers {
		w := &p.workers[g]
		w.start, w.end, w.win, w.next = t0, t0+int64(dur), win, t0+win
	}
	close(release)
	wg.Wait()
	return p
}

func (p *phase) ops() (attempted, failed int64) {
	for _, w := range p.workers {
		attempted += w.attempted
		failed += w.failed
	}
	return attempted, failed
}

func (p *phase) firstFail() string {
	var out []string
	for _, w := range p.workers {
		if w.firstFail != "" {
			out = append(out, w.firstFail)
		}
	}
	return strings.Join(out, " / ")
}

// windows returns, per window every goroutine completed, the ops per
// second and each op kind's latencies. An op that spans several window
// edges closes them all at once: its ops and time go to the first, and the
// others, of zero length for that goroutine, give no rate.
func (p *phase) windows() (tput []float64, get, put, scan []lat) {
	n := phaseWindows
	for _, w := range p.workers {
		n = min(n, len(w.marks))
	}
	for k := 0; k < n; k++ {
		rate, timed := 0.0, true
		var g, pu, s []lat
		for _, w := range p.workers {
			prev := mark{at: w.start}
			if k > 0 {
				prev = w.marks[k-1]
			}
			cur := w.marks[k]
			if cur.at > prev.at {
				rate += float64(cur.ops-prev.ops) / (float64(cur.at-prev.at) / 1e9)
			} else {
				timed = false
			}
			g = append(g, w.get[prev.get:cur.get])
			pu = append(pu, w.put[prev.put:cur.put])
			s = append(s, w.scan[prev.scan:cur.scan])
		}
		if timed {
			tput = append(tput, rate)
		}
		get, put, scan = append(get, merge(g...)), append(put, merge(pu...)), append(scan, merge(s...))
	}
	return tput, get, put, scan
}

// throughput is the median over the windows of ops per second.
func (p *phase) throughput() float64 {
	tput, _, _, _ := p.windows()
	return median(tput)
}

// genSelfNs is the generator's own time per op: loop time not spent in
// the timed calls.
func (p *phase) genSelfNs() float64 {
	var loop, call int64
	for _, w := range p.workers {
		loop += w.loopNs
		call += w.callNs
	}
	a, _ := p.ops()
	return float64(loop-call) / float64(a)
}

// report sets the end-to-end figures of a measured phase.
func (b *bench) report(p *phase) {
	a, f := p.ops()
	b.attempted += a
	b.failed += f
	if f > 0 {
		b.note("measured phase: %d of %d ops failed their check; first: %s", f, a, p.firstFail())
	}
	tput, gets, puts, scans := p.windows()
	b.set("throughput_ops_s", median(tput), int(a))
	b.setLat("get", gets)
	b.setLat("put", puts)
	b.setLat("scan", scans)
}

// setLat sets op's p50 over every sample and its p99 as the median of the
// windows' p99s. Windows without samples are skipped; with none at all
// nothing is set.
func (b *bench) setLat(op string, windows []lat) {
	all := merge(windows...)
	if len(all) == 0 {
		return
	}
	var p99s []float64
	for _, w := range windows {
		if len(w) > 0 {
			p99s = append(p99s, w.pct(0.99))
		}
	}
	b.set(op+"_p50_us", all.pct(0.50)/1e3, len(all))
	b.set(op+"_p99_us", median(p99s)/1e3, len(all))
}

// chunks cuts time-ordered latencies into phaseWindows sorted windows.
func chunks(l lat) []lat {
	var out []lat
	for k := 0; k < phaseWindows; k++ {
		out = append(out, merge(l[k*len(l)/phaseWindows:(k+1)*len(l)/phaseWindows]))
	}
	return out
}

// setSetup reports the median set-up time and the heap growth per key of
// the set-up that is kept.
func (b *bench) setSetup(times []float64, heapDelta int64, keys int) {
	b.set("setup_s", median(times), len(times))
	b.set("mem_bytes_per_key", float64(heapDelta)/float64(keys), keys)
}
