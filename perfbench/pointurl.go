package main

import (
	"bytes"
	"math/rand"
	"slices"
	"time"

	hope "repro"
	"repro/internal/datagen"
)

const putBit = 1 << 31

// runPointURL: ~500k URL keys in a hash-sharded B+tree behind a
// Double-Char encoder; 95% Get / 5% Put-overwrite, uniform keys.
func runPointURL(b *bench) error {
	n := b.n(500_000, 2000)
	keys := datagen.Generate(datagen.URL, n, b.cfg.seed)
	vals := valuesOf(keys)
	rings := make([][]uint32, loadGoroutines)
	for g := range rings {
		rng := rand.New(rand.NewSource(b.cfg.seed*7919 + int64(g)))
		rings[g] = make([]uint32, opRing)
		for i := range rings[g] {
			op := uint32(rng.Intn(n))
			if rng.Intn(100) < 5 {
				op |= putBit
			}
			rings[g][i] = op
		}
	}
	// Each set-up draws its own sample: Double-Char build time depends on
	// the sample, so setup_s is a median over samples as well as runs.
	setups := int64(0)
	setup := func() (storeSetup, error) {
		setups++
		sample := hope.SampleKeys(keys, 0.01, b.cfg.seed*1000+setups)
		t0 := time.Now()
		enc, err := hope.Build(hope.DoubleChar, sample, hope.Options{})
		if err != nil {
			return storeSetup{}, err
		}
		buildS := time.Since(t0).Seconds()
		mine := enc.Clone()
		st, err := hope.Open(hope.BTree, hope.WithEncoder(enc), hope.WithShards(shards))
		if err != nil {
			return storeSetup{}, err
		}
		if err := st.Bulk(keys, vals); err != nil {
			return storeSetup{}, err
		}
		return storeSetup{store: st, enc: mine, buildS: buildS, memUsage: st.(*hope.ShardedIndex).MemoryUsage, close: func() { st.Close() }}, nil
	}
	measure := func(st hope.Store, logs []*spanLog) *phase {
		stores := b.decorate(st, logs)
		return runLoad(loadGoroutines, b.phaseDuration(), func(g int, w *opStats) {
			s, ring := stores[g], rings[g]
			for i := 0; ; i++ {
				op := ring[i&(opRing-1)]
				idx := op &^ putBit
				k := keys[idx]
				t0 := now()
				var ok bool
				var t1 int64
				if op&putBit != 0 {
					ok = s.Put(k, vals[idx]) == nil
					t1 = now()
					w.put.add(t1 - t0)
				} else {
					var v uint64
					v, ok = s.Get(k)
					t1 = now()
					ok = ok && v == vals[idx]
					w.get.add(t1 - t0)
				}
				w.callNs += t1 - t0
				w.attempted++
				if !ok {
					w.miss("op %x on %q", op, k)
				}
				if w.tick(t1) {
					return
				}
			}
		})
	}

	sorted := slices.Clone(keys)
	slices.SortFunc(sorted, bytes.Compare)
	scans := b.scanOps(sorted, 50_000, 100)

	// untraced is the measured phase and its checks; the scans run after
	// it, on one goroutine, and give the scan latencies.
	untraced := func(s storeSetup) *phase {
		b.checkOrder(s.enc, sorted)
		p := measure(s.store, nil)
		b.report(p)
		b.checkLen(s.store, n)
		b.setLat("scan", chunks(b.oracleScans(s.store, sorted, scans, false)))
		return p
	}
	if !b.cfg.trace {
		s, err := b.setUps(5, n, setup)
		if err != nil {
			return err
		}
		untraced(s)
		return nil
	}

	// Traced run: an untraced phase for trace.overhead_frac, then a traced
	// phase on a fresh set-up, then the layer pass and the probes.
	s0, err := setup()
	if err != nil {
		return err
	}
	p0 := untraced(s0)
	s0.close()
	build0 := s0.buildS
	s0 = storeSetup{}
	s, err := setup()
	if err != nil {
		return err
	}
	b.set("core.build_s", median([]float64{build0, s.buildS}), 2)
	b.setReported(s, n)
	logs := newLogs(loadGoroutines)
	p := measure(s.store, logs)
	b.tracedPhase(p0, p, logs)
	gets := b.pick(keys, 50_000, func(rng *rand.Rand) int { return rng.Intn(n) })
	layerLog := &spanLog{}
	if err := b.layerPass(layerInput{backend: hope.BTree, enc: s.enc, store: s.store, keys: keys, gets: gets, scans: scans[:min(len(scans), 5000)]}, layerLog); err != nil {
		return err
	}
	probe := b.n(50_000, 1000)
	if err := b.lifecycleProbe(hope.BTree, hope.DoubleChar, hope.Options{}, s.enc, keys[:probe], keys[probe:2*probe]); err != nil {
		return err
	}
	if err := b.persistProbe(hope.BTree, hope.WithEncoder(s.enc.Clone()), keys[:probe]); err != nil {
		return err
	}
	if err := b.serverProbe(s.store, gets[:min(len(gets), 20_000)]); err != nil {
		return err
	}
	return b.dumpSpans(append(flatten(logs), layerLog.spans...))
}
