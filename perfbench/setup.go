package main

import (
	"math/rand"
	"runtime"
	"time"

	hope "repro"
	"repro/internal/ycsb"
)

// shards is every store's shard count: one per core of the 2-core machine
// the benchmark is sized for.
const shards = 2

// loadGoroutines is the closed-loop client count: one per shard, but no
// more than there are cores.
var loadGoroutines = min(shards, runtime.NumCPU())

// opRing is how many pre-generated ops each load goroutine cycles through.
const opRing = 1 << 20

// storeSetup is one set-up of a workload's store.
type storeSetup struct {
	store    hope.Store
	enc      *hope.Encoder // clone of the store's encoder, for the layer pass
	buildS   float64       // hope.Build time inside the set-up, 0 if none
	srv      *served       // the server in front of the store, if any
	memUsage func() int    // the store's own MemoryUsage()
	close    func()
}

// setUps runs set-up k times, closing all but the last, and sets setup_s
// (median) and mem_bytes_per_key (heap growth across the last set-up).
func (b *bench) setUps(k, keys int, setup func() (storeSetup, error)) (storeSetup, error) {
	var times []float64
	for i := 0; ; i++ {
		heap0 := heapBytes()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return s, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == k-1 {
			b.setSetup(times, heapBytes()-heap0, keys)
			b.setReported(s, keys)
			return s, nil
		}
		s.close()
	}
}

// setReported sets store.mem_reported_bytes_per_key. MemoryUsage walks the
// whole tree, so it is called after set-up, outside any timed window.
func (b *bench) setReported(s storeSetup, keys int) {
	b.set("store.mem_reported_bytes_per_key", float64(s.memUsage())/float64(keys), keys)
}

const (
	opGet = iota
	opPut
	opScan
)

// mixedOp is one pre-generated op: draw picks the key (Zipfian rank over
// the keys acknowledged so far), limit bounds a scan, coin decides a put's
// population during the drift ramp.
type mixedOp struct {
	kind  uint8
	limit uint8
	coin  uint16
	draw  uint32
}

// mixedRing pre-generates one goroutine's ops: getPct% gets, putPct% puts,
// the rest scans of 1..maxScan keys, keys Zipfian (θ 0.99) over n ranks.
func mixedRing(seed int64, n, getPct, putPct, maxScan int) []mixedOp {
	rng := rand.New(rand.NewSource(seed))
	z := ycsb.NewZipfian(uint64(n), ycsb.DefaultTheta, rng)
	ring := make([]mixedOp, opRing)
	for i := range ring {
		op := mixedOp{draw: uint32(z.Next()), coin: uint16(rng.Intn(1 << 16)), limit: uint8(1 + rng.Intn(maxScan))}
		switch r := rng.Intn(100); {
		case r < getPct:
			op.kind = opGet
		case r < getPct+putPct:
			op.kind = opPut
		default:
			op.kind = opScan
		}
		ring[i] = op
	}
	return ring
}

// decorate returns the store each load goroutine drives: the store itself,
// or with logs, a recording decorator per goroutine; b.cfg.wrap, when set,
// goes underneath.
func (b *bench) decorate(st hope.Store, logs []*spanLog) []hope.Store {
	if b.cfg.wrap != nil {
		st = b.cfg.wrap(st)
	}
	out := make([]hope.Store, loadGoroutines)
	for g := range out {
		out[g] = st
		if logs != nil {
			out[g] = newRecStore(st, logs[g], uint64(g), false)
		}
	}
	return out
}

func newLogs(n int) []*spanLog {
	logs := make([]*spanLog, n)
	for i := range logs {
		logs[i] = &spanLog{}
	}
	return logs
}

func flatten(logs []*spanLog) []span {
	var out []span
	for _, l := range logs {
		out = append(out, l.spans...)
	}
	return out
}

// tracedPhase sets the figures of the traced phase: trace overhead, the
// generator's own cost, and the store's get wait under 2 goroutines (set
// relative to store.get_ns once the layer pass has run).
func (b *bench) tracedPhase(untraced, traced *phase, logs []*spanLog) {
	a, f := traced.ops()
	b.attempted += a
	b.failed += f
	if f > 0 {
		b.note("traced phase: %d of %d ops failed their check; first: %s", f, a, traced.firstFail())
	}
	b.set("trace.overhead_frac", 1-traced.throughput()/untraced.throughput(), int(a))
	b.set("gen.self_ns", traced.genSelfNs(), int(a))
	var gets []lat
	for _, l := range logs {
		gets = append(gets, l.durs("store.get"))
	}
	b.phaseGetNs = merge(gets...).pct(0.5)
}

// pick draws count keys (with repetition) by index.
func (b *bench) pick(keys [][]byte, count int, draw func(*rand.Rand) int) [][]byte {
	rng := rand.New(rand.NewSource(b.cfg.seed*31 + 17))
	out := make([][]byte, b.n(count, 200))
	for i := range out {
		out[i] = keys[draw(rng)]
	}
	return out
}

// scanOps draws scans starting at uniformly chosen keys of sorted, each
// visiting 1..maxLen keys.
func (b *bench) scanOps(sorted [][]byte, count, maxLen int) []scanOp {
	rng := rand.New(rand.NewSource(b.cfg.seed*131 + 5))
	out := make([]scanOp, b.n(count, 200))
	for i := range out {
		out[i] = scanOp{start: sorted[rng.Intn(len(sorted))], limit: 1 + rng.Intn(maxLen)}
	}
	return out
}
