package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	hope "repro"
	"repro/internal/datagen"
	"repro/internal/ycsb"
	"repro/server"
)

// rangeLimit is the result cap of every served range.
const rangeLimit = 20

// runServeEmail: ~500k email keys in a hash-sharded ART behind a
// Double-Char encoder, snapshotted in an untimed preparation step. Set-up
// is the hopeserve boot path (restore, server.New, Listen); two client
// connections keep one request each in flight: Zipfian 90% get, 8% set,
// 2% range of 20.
func runServeEmail(b *bench) error {
	n := b.n(500_000, 4000)
	keys := datagen.Generate(datagen.Email, n, b.cfg.seed)
	for _, k := range keys {
		if !server.ValidKey(k) {
			return fmt.Errorf("key %q cannot travel on the wire", k)
		}
	}
	vals := valuesOf(keys)
	rings := make([][]mixedOp, loadGoroutines)
	for g := range rings {
		rings[g] = mixedRing(b.cfg.seed*7919+int64(g), n, 90, 8, rangeLimit)
	}

	// Preparation: build the store once and snapshot it.
	dir := filepath.Join(b.cfg.outDir, fmt.Sprintf("serve-snap-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	t0 := time.Now()
	enc, err := hope.Build(hope.DoubleChar, hope.SampleKeys(keys, 0.01, b.cfg.seed), hope.Options{})
	if err != nil {
		return err
	}
	b.set("core.build_s", time.Since(t0).Seconds(), 1)
	mine := enc.Clone()
	sorted := slices.Clone(keys)
	slices.SortFunc(sorted, bytes.Compare)
	b.checkOrder(mine, sorted)
	prep, err := hope.Open(hope.ART, hope.WithSnapshotDir(dir), hope.WithEncoder(enc), hope.WithShards(shards))
	if err != nil {
		return err
	}
	if err := prep.Bulk(keys, vals); err != nil {
		return err
	}
	if err := b.snapshot(prep.(*hope.Persistent), dir, n); err != nil {
		return err
	}
	prep.Close()
	prep = nil

	var restores []float64
	var storeLog *spanLog
	setup := func() (storeSetup, error) {
		t0 := time.Now()
		st, err := hope.Open(hope.ART, hope.WithSnapshotDir(dir))
		if err != nil {
			return storeSetup{}, err
		}
		restores = append(restores, time.Since(t0).Seconds())
		p := st.(*hope.Persistent)
		if !p.Restored() {
			return storeSetup{}, fmt.Errorf("store in %s was not restored", dir)
		}
		var served hope.Store = p
		if b.cfg.wrap != nil {
			served = b.cfg.wrap(served)
		}
		if storeLog != nil {
			served = newRecStore(served, storeLog, 1, true)
		}
		s, err := serve(served, loadGoroutines)
		if err != nil {
			return storeSetup{}, err
		}
		return storeSetup{store: p, srv: s, memUsage: p.Unwrap().(*hope.ShardedIndex).MemoryUsage, close: func() { b.shutdown(s) }}, nil
	}
	measure := func(s *served, logs []*spanLog) *phase {
		return runLoad(loadGoroutines, b.phaseDuration(), func(g int, w *opStats) {
			cl, ring := s.clients[g], rings[g]
			var sb scanBuf
			for i := 0; ; i++ {
				op := ring[i&(opRing-1)]
				k, v := keys[op.draw], vals[op.draw]
				var ok bool
				var err error
				t0 := now()
				switch op.kind {
				case opGet:
					var got uint64
					got, ok, err = cl.Get(k)
					ok = ok && got == v
				case opPut:
					err = cl.Set(k, v)
					ok = true
				case opScan:
					sb.reset()
					_, err = cl.Range(k, nil, rangeLimit, func(k []byte, v uint64) bool {
						sb.add(k, v)
						return true
					})
					// The range starts at a stored key, so it comes first.
					ok = sb.ok(rangeLimit, false) && sb.vals[0] == v
				}
				t1 := now()
				switch op.kind {
				case opGet:
					w.get.add(t1 - t0)
					if logs != nil {
						logs[g].add(span{name: "client.get", start: t0, end: t1, parent: -1, req: uint64(g)<<40 | uint64(i), tag: v})
					}
				case opPut:
					w.put.add(t1 - t0)
				case opScan:
					w.scan.add(t1 - t0)
				}
				w.callNs += t1 - t0
				w.attempted++
				if !ok || err != nil {
					w.miss("op %d on %q: %v", op.kind, k, err)
				}
				if w.tick(t1) {
					return
				}
			}
		})
	}
	// check verifies a served store after its phase and shuts it down.
	check := func(s storeSetup) {
		b.checkLen(s.store, n)
		b.oracleScans(s.store, sorted, b.scanOps(sorted, 200, rangeLimit), false)
		s.close()
	}

	if !b.cfg.trace {
		s, err := b.setUps(11, n, setup)
		if err != nil {
			return err
		}
		b.report(measure(s.srv, nil))
		check(s)
		return nil
	}

	s0, err := setup()
	if err != nil {
		return err
	}
	p0 := measure(s0.srv, nil)
	b.report(p0)
	check(s0)
	s0 = storeSetup{}
	storeLog = &spanLog{}
	s, err := setup()
	if err != nil {
		return err
	}
	b.set("persist.restore_s", median(restores), len(restores))
	b.setReported(s, n)
	clientLogs := newLogs(loadGoroutines)
	p := measure(s.srv, clientLogs)
	b.tracedPhase(p0, p, []*spanLog{storeLog})
	client := flatten(clientLogs)
	self, matched := linkServed(client, storeLog.spans)
	b.set("server.overhead_us", self.pct(0.5)/1e3, matched)

	zipf := ycsb.NewZipfian(uint64(n), ycsb.DefaultTheta, rand.New(rand.NewSource(b.cfg.seed)))
	gets := b.pick(keys, 50_000, func(*rand.Rand) int { return int(zipf.Next()) })
	layerLog := &spanLog{}
	if err := b.layerPass(layerInput{backend: hope.ART, enc: mine, store: s.store, keys: keys, gets: gets, scans: b.scanOps(sorted, 5000, rangeLimit)}, layerLog); err != nil {
		return err
	}
	if err := b.nullServerProbe(gets[:min(len(gets), 20_000)]); err != nil {
		return err
	}
	probe := b.n(50_000, 1000)
	if err := b.lifecycleProbe(hope.ART, hope.DoubleChar, hope.Options{}, mine, keys[:probe], keys[probe:2*probe]); err != nil {
		return err
	}
	check(s)
	return b.dumpSpans(client, storeLog.spans, layerLog.spans)
}

// shutdown drains a served store and checks that it stopped cleanly with
// no protocol errors.
func (b *bench) shutdown(s *served) {
	proto, err := s.shutdown()
	b.check(err == nil && proto == 0, "server shutdown: %v, %d protocol errors", err, proto)
}
