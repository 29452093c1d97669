package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"time"

	hope "repro"
	"repro/internal/datagen"
	"repro/internal/lifecycle"
	"repro/internal/ycsb"
)

// acked is the keys one load goroutine may read: the preload plus its own
// acknowledged puts. at maps a Zipfian rank over the preload onto all of
// them, so reads follow the set as it grows.
type acked struct {
	pre [][]byte
	own [][]byte
}

func (a *acked) at(draw uint32) []byte {
	i := int(uint64(draw) * uint64(len(a.pre)+len(a.own)) / uint64(len(a.pre)))
	if i < len(a.pre) {
		return a.pre[i]
	}
	return a.own[i-len(a.pre)]
}

// runDriftEmail: an AdaptiveIndex (ART, 3-Grams, 4K dictionary) preloaded
// with ~200k Email-A keys; 50% puts of fresh keys whose population ramps
// from Email-A to Email-B between 35% and 65% of the phase, 40% Zipfian
// gets and 10% Zipfian-start scans of 1..100 keys over acknowledged keys.
func runDriftEmail(b *bench) error {
	nPre := b.n(200_000, 4000)
	emails := datagen.Generate(datagen.Email, b.n(3_000_000, 60_000), b.cfg.seed)
	popA, popB := datagen.SplitEmailByProvider(emails)
	fmt.Printf("# drift pools: preload %d, fresh Email-A %d, Email-B %d\n", nPre, len(popA)-nPre, len(popB))
	pre := popA[:nPre]
	freshA, freshB := popA[nPre:], popB
	vals := valuesOf(pre)
	sortedPre := slices.Clone(pre)
	slices.SortFunc(sortedPre, bytes.Compare)
	rings := make([][]mixedOp, loadGoroutines)
	for g := range rings {
		rings[g] = mixedRing(b.cfg.seed*7919+int64(g), nPre, 40, 50, 100)
	}
	bopt := hope.Options{DictLimit: 1 << 12}
	lc := lifecycle.Config{Seed: b.cfg.seed, WindowSize: b.n(8192, 512), CheckEvery: 128}
	setup := func() (storeSetup, error) {
		sample := hope.SampleKeys(pre, 0.01, b.cfg.seed)
		t0 := time.Now()
		enc, err := hope.Build(hope.ThreeGrams, sample, bopt)
		if err != nil {
			return storeSetup{}, err
		}
		buildS := time.Since(t0).Seconds()
		st, err := hope.Open(hope.ART, hope.WithAdaptive(hope.AdaptiveOptions{
			Scheme: hope.ThreeGrams, Build: bopt, Encoder: enc, Shards: shards, Lifecycle: lc,
		}))
		if err != nil {
			return storeSetup{}, err
		}
		if err := st.Bulk(pre, vals); err != nil {
			return storeSetup{}, err
		}
		return storeSetup{store: st, buildS: buildS, memUsage: st.(*hope.AdaptiveIndex).MemoryUsage, close: func() { st.Close() }}, nil
	}
	owns := make([][][]byte, loadGoroutines)
	measure := func(st hope.Store, logs []*spanLog) *phase {
		stores := b.decorate(st, logs)
		dur := float64(b.phaseDuration())
		return runLoad(loadGoroutines, b.phaseDuration(), func(g int, w *opStats) {
			s, ring := stores[g], rings[g]
			poolA, poolB := half(freshA, g), half(freshB, g)
			ak := &acked{pre: pre}
			var sb scanBuf
			for i := 0; ; i++ {
				op := ring[i&(opRing-1)]
				var t0, t1 int64
				var k []byte
				ok := true
				switch op.kind {
				case opPut:
					ramp := (float64(now()-w.start)/dur - 0.35) / 0.30
					if (float64(op.coin)/(1<<16) < ramp && len(poolB) > 0) || len(poolA) == 0 {
						k, poolB = poolB[0], poolB[1:]
					} else {
						k, poolA = poolA[0], poolA[1:]
					}
					v := valueOf(k)
					t0 = now()
					ok = s.Put(k, v) == nil
					t1 = now()
					w.put.add(t1 - t0)
					if ok {
						ak.own = append(ak.own, k)
					}
				case opGet:
					k = ak.at(op.draw)
					t0 = now()
					v, found := s.Get(k)
					t1 = now()
					w.get.add(t1 - t0)
					ok = found && v == valueOf(k)
				case opScan:
					k = ak.at(op.draw)
					limit := int(op.limit)
					sb.reset()
					t0 = now()
					s.Scan(k, nil, func(k []byte, v uint64) bool {
						sb.add(k, v)
						return len(sb.keys) < limit
					})
					t1 = now()
					w.scan.add(t1 - t0)
					ok = sb.ok(limit, true) && bytes.Equal(sb.keys[0], k)
				}
				w.callNs += t1 - t0
				w.attempted++
				if !ok {
					detail := ""
					if op.kind == opScan {
						detail = sb.fault(int(op.limit), true)
					}
					w.miss("%s %q at %.2fs %s", [...]string{"get", "put", "scan"}[op.kind], k, float64(t0-w.start)/1e9, detail)
				}
				if w.tick(t1) || (len(poolA) == 0 && len(poolB) == 0) {
					owns[g] = ak.own
					return
				}
			}
		})
	}
	// finish settles the store after a phase and checks it against an
	// oracle of every acknowledged key.
	finish := func(st *hope.AdaptiveIndex) (all, sorted [][]byte) {
		st.Quiesce()
		stats := st.Stats()
		b.check(st.Err() == nil, "adaptive index: %v", st.Err())
		b.check(stats.Rebuilds >= 1, "no rebuild during the drift phase (generation %d)", stats.Generation)
		all = slices.Clone(pre)
		for _, own := range owns {
			all = append(all, own...)
		}
		b.checkLen(st, len(all))
		sorted = slices.Clone(all)
		slices.SortFunc(sorted, bytes.Compare)
		b.checkOrder(st.Encoder(), sorted)
		b.oracleScans(st, sorted, b.scanOps(sorted, 200, 100), true)
		for _, k := range b.pick(all, 20_000, func(r *rand.Rand) int { return r.Intn(len(all)) }) {
			v, ok := st.Get(k)
			b.check(ok && v == valueOf(k), "get %q after the phase = %d,%v", k, v, ok)
		}
		return all, sorted
	}

	if !b.cfg.trace {
		s, err := b.setUps(11, nPre, setup)
		if err != nil {
			return err
		}
		b.checkOrder(s.store.(*hope.AdaptiveIndex).Encoder(), sortedPre)
		b.report(measure(s.store, nil))
		finish(s.store.(*hope.AdaptiveIndex))
		return nil
	}

	s0, err := setup()
	if err != nil {
		return err
	}
	b.checkOrder(s0.store.(*hope.AdaptiveIndex).Encoder(), sortedPre)
	p0 := measure(s0.store, nil)
	b.report(p0)
	finish(s0.store.(*hope.AdaptiveIndex))
	s0.close()
	build0 := s0.buildS
	s0 = storeSetup{}
	s, err := setup()
	if err != nil {
		return err
	}
	b.set("core.build_s", median([]float64{build0, s.buildS}), 2)
	b.setReported(s, nPre)
	logs := newLogs(loadGoroutines)
	p := measure(s.store, logs)
	b.tracedPhase(p0, p, logs)
	store := s.store.(*hope.AdaptiveIndex)
	all, sorted := finish(store)

	var windows [][2]int64
	var trigger int64 = -1
	for _, ev := range store.Trace().Snapshot() {
		t := ev.TimeNs - epoch.UnixNano()
		switch ev.Type {
		case "trigger":
			trigger = t
		case "cutover":
			if trigger >= 0 {
				windows = append(windows, [2]int64{trigger, t})
			}
			trigger = -1
		}
	}
	var puts []span
	for _, l := range logs {
		for _, sp := range l.spans {
			if sp.name == "store.put" {
				puts = append(puts, sp)
			}
		}
	}
	if err := b.setRebuildFigures(store, puts, windows, hope.ThreeGrams, bopt, freshB[len(freshB)-min(len(freshB), 20_000):]); err != nil {
		return err
	}

	zipf := ycsb.NewZipfian(uint64(nPre), ycsb.DefaultTheta, rand.New(rand.NewSource(b.cfg.seed)))
	gets := b.pick(pre, 50_000, func(*rand.Rand) int { return int(zipf.Next()) })
	layerLog := &spanLog{}
	enc := store.Encoder().Clone()
	if err := b.layerPass(layerInput{backend: hope.ART, enc: enc, store: store, keys: all, gets: gets, scans: b.scanOps(sorted, 5000, 100)}, layerLog); err != nil {
		return err
	}
	probe := b.n(50_000, 1000)
	shape := hope.WithAdaptive(hope.AdaptiveOptions{Scheme: hope.ThreeGrams, Build: bopt, Encoder: enc.Clone(), Shards: shards, Manual: true})
	if err := b.persistProbe(hope.ART, shape, pre[:probe]); err != nil {
		return err
	}
	if err := b.serverProbe(store, gets[:min(len(gets), 20_000)]); err != nil {
		return err
	}
	return b.dumpSpans(append(flatten(logs), layerLog.spans...))
}

// half returns goroutine g's share of a key pool.
func half(pool [][]byte, g int) [][]byte {
	n := len(pool) / loadGoroutines
	return pool[g*n : (g+1)*n]
}
