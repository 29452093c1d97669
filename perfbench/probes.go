package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	hope "repro"
	"repro/server"
)

// A workload reports every per-layer metric. Where its own path does not
// reach a layer, a fixed-size probe over the workload's keys measures it:
// the lifecycle off drift-email, persistence off serve-email, the server
// off serve-email.

// served is one loopback server over a store, with its clients.
type served struct {
	srv     *server.Server
	clients []*server.Client
	done    chan error
}

// serve starts server.New(st) on an ephemeral loopback port and dials
// conns clients.
func serve(st hope.Store, conns int) (*served, error) {
	s := &served{srv: server.New(st, server.Config{}), done: make(chan error, 1)}
	if err := s.srv.Listen(); err != nil {
		return nil, err
	}
	go func() { s.done <- s.srv.Serve() }()
	for i := 0; i < conns; i++ {
		c, err := server.Dial(s.srv.Addr().String())
		if err != nil {
			s.shutdown()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// shutdown fetches the protocol-error count, closes the clients and drains
// the server, which quiesces and closes its store.
func (s *served) shutdown() (protoErrors uint64, err error) {
	if len(s.clients) > 0 {
		st, serr := s.clients[0].StatsTyped()
		if serr != nil {
			err = fmt.Errorf("stats: %w", serr)
		} else {
			protoErrors = st.Uint("protocol_errors")
		}
	}
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := s.srv.Shutdown(ctx); serr != nil && err == nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if serr := <-s.done; serr != nil && !errors.Is(serr, server.ErrServerClosed) && err == nil {
		err = fmt.Errorf("serve: %w", serr)
	}
	return protoErrors, err
}

// servedGets serves st (through a recording decorator) and issues gets
// over loadGoroutines connections, one request in flight each. It returns
// the client get latencies and the server's own time per request.
func (b *bench) servedGets(st hope.Store, gets [][]byte) (client, self lat, err error) {
	storeLog := &spanLog{}
	s, err := serve(newRecStore(st, storeLog, 1, true), loadGoroutines)
	if err != nil {
		return nil, nil, err
	}
	logs := make([][]span, len(s.clients))
	var bad atomic.Int64
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := s.clients[c]
			for i := c; i < len(gets); i += len(s.clients) {
				k := gets[i]
				t0 := now()
				v, ok, err := cl.Get(k)
				logs[c] = append(logs[c], span{name: "client.get", start: t0, end: now(), parent: -1, req: uint64(c)<<40 | uint64(i), tag: valueOf(k)})
				if err != nil || !ok || v != valueOf(k) {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	proto, err := s.shutdown()
	b.check(err == nil && proto == 0, "server probe: shutdown %v, %d protocol errors", err, proto)
	b.attempted += int64(len(gets))
	if n := bad.Load(); n > 0 {
		b.fail("server probe: %d bad gets", n)
		b.failed += n - 1
	}
	var all []span
	for _, l := range logs {
		all = append(all, l...)
		for _, sp := range l {
			client.add(sp.dur())
		}
	}
	self, _ = linkServed(all, storeLog.spans)
	return merge(client), self, nil
}

// mapStore is a hope.Store over a Go map: served, it leaves the wire,
// parse and syscall cost alone.
type mapStore struct {
	mu sync.RWMutex
	m  map[string]uint64
}

func newMapStore(keys [][]byte) *mapStore {
	m := &mapStore{m: make(map[string]uint64, len(keys))}
	for _, k := range keys {
		m.m[string(k)] = valueOf(k)
	}
	return m
}

func (m *mapStore) Get(k []byte) (uint64, bool) {
	m.mu.RLock()
	v, ok := m.m[string(k)]
	m.mu.RUnlock()
	return v, ok
}

func (m *mapStore) Put(k []byte, v uint64) error {
	m.mu.Lock()
	m.m[string(k)] = v
	m.mu.Unlock()
	return nil
}

func (m *mapStore) Delete(k []byte) (bool, error) {
	m.mu.Lock()
	_, ok := m.m[string(k)]
	delete(m.m, string(k))
	m.mu.Unlock()
	return ok, nil
}

func (m *mapStore) Bulk(keys [][]byte, vals []uint64) error {
	for i, k := range keys {
		m.Put(k, vals[i])
	}
	return nil
}

func (m *mapStore) Scan([]byte, []byte, func([]byte, uint64) bool) int { return 0 }
func (m *mapStore) ScanPrefix([]byte, func([]byte, uint64) bool) int   { return 0 }
func (m *mapStore) Len() int                                           { m.mu.RLock(); defer m.mu.RUnlock(); return len(m.m) }
func (m *mapStore) Close() error                                       { return nil }

// nullServerProbe sets server.null_get_us from served gets against a
// map-backed store.
func (b *bench) nullServerProbe(gets [][]byte) error {
	client, _, err := b.servedGets(newMapStore(gets), gets)
	if err != nil {
		return err
	}
	b.set("server.null_get_us", client.pct(0.5)/1e3, len(client))
	return nil
}

// serverProbe sets server.null_get_us and, from served gets against st,
// server.overhead_us, for a workload whose own phase has no server.
// Serving st ends with Shutdown, which closes it, so this runs last.
func (b *bench) serverProbe(st hope.Store, gets [][]byte) error {
	if err := b.nullServerProbe(gets); err != nil {
		return err
	}
	_, self, err := b.servedGets(st, gets)
	if err != nil {
		return err
	}
	b.set("server.overhead_us", self.pct(0.5)/1e3, len(self))
	return nil
}

// lifecycleProbe forces one rebuild of an AdaptiveIndex holding load while
// another goroutine keeps putting fresh keys, and sets the lifecycle.*
// figures from it.
func (b *bench) lifecycleProbe(backend hope.Backend, scheme hope.Scheme, bopt hope.Options, enc *hope.Encoder, load, fresh [][]byte) error {
	st, err := hope.Open(backend, hope.WithAdaptive(hope.AdaptiveOptions{
		Scheme: scheme, Build: bopt, Encoder: enc.Clone(), Shards: shards, Manual: true,
	}))
	if err != nil {
		return err
	}
	a := st.(*hope.AdaptiveIndex)
	defer a.Close()
	if err := a.Bulk(load, valuesOf(load)); err != nil {
		return err
	}
	var stop atomic.Bool
	started := make(chan struct{})
	var puts []span
	var putErr error
	done := make(chan struct{})
	// Half the fresh keys go in before the rebuild starts and as many puts
	// follow its cutover; in between the putter keeps cycling through them.
	go func() {
		defer close(done)
		after := -1
		for i := 0; ; i++ {
			if i == len(fresh)/2 {
				close(started)
			}
			if after < 0 && stop.Load() {
				after = i
			}
			if after >= 0 && i-after >= len(fresh)/2 {
				return
			}
			k := fresh[i%len(fresh)]
			t0 := now()
			if err := a.Put(k, valueOf(k)); err != nil && putErr == nil {
				putErr = err
			}
			puts = append(puts, span{start: t0, end: now()})
		}
	}()
	<-started
	r0 := now()
	rerr := a.Rebuild()
	r1 := now()
	stop.Store(true)
	<-done
	b.check(rerr == nil && putErr == nil, "lifecycle probe: rebuild %v, put %v", rerr, putErr)
	return b.setRebuildFigures(a, puts, [][2]int64{{r0, r1}}, scheme, bopt, fresh)
}

// setRebuildFigures sets the lifecycle.* figures from the puts a store
// served and the [trigger, cutover] windows of its rebuilds. cpr_recovery
// compares the final dictionary with one built from scratch on eval.
func (b *bench) setRebuildFigures(a *hope.AdaptiveIndex, puts []span, windows [][2]int64, scheme hope.Scheme, bopt hope.Options, eval [][]byte) error {
	var mig, steady lat
	for _, p := range puts {
		in := false
		for _, w := range windows {
			if p.start >= w[0] && p.start <= w[1] {
				in = true
				break
			}
		}
		if in {
			mig.add(p.dur())
		} else {
			steady.add(p.dur())
		}
	}
	mig, steady = merge(mig), merge(steady)
	var durs []float64
	for _, w := range windows {
		durs = append(durs, float64(w[1]-w[0])/1e9)
	}
	st := a.Stats()
	b.set("lifecycle.rebuilds", float64(st.Rebuilds), 1)
	b.set("lifecycle.rebuild_s", median(durs), len(durs))
	b.set("lifecycle.migrating_put_p99_us", mig.pct(0.99)/1e3, len(mig))
	b.set("lifecycle.steady_put_p99_us", steady.pct(0.99)/1e3, len(steady))
	scratch, err := hope.Build(scheme, hope.SampleKeys(eval, 0.01, b.cfg.seed), bopt)
	if err != nil {
		return err
	}
	b.set("lifecycle.cpr_recovery", a.Encoder().Clone().CompressionRate(eval)/scratch.CompressionRate(eval), len(eval))
	return nil
}

// persistProbe snapshots a store of the workload's kind holding keys and
// restores it, setting the persist.* figures.
func (b *bench) persistProbe(backend hope.Backend, shape hope.Option, keys [][]byte) error {
	dir := filepath.Join(b.cfg.outDir, fmt.Sprintf("probe-snap-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := hope.Open(backend, hope.WithSnapshotDir(dir), shape)
	if err != nil {
		return err
	}
	if err := st.Bulk(keys, valuesOf(keys)); err != nil {
		return err
	}
	if err := b.snapshot(st.(*hope.Persistent), dir, len(keys)); err != nil {
		return err
	}
	st.Close()
	t0 := time.Now()
	rst, err := hope.Open(backend, hope.WithSnapshotDir(dir))
	if err != nil {
		return err
	}
	b.set("persist.restore_s", time.Since(t0).Seconds(), 1)
	b.check(rst.Len() == len(keys), "restored %d keys, want %d", rst.Len(), len(keys))
	for _, k := range keys[:min(len(keys), 1000)] {
		v, ok := rst.Get(k)
		b.check(ok && v == valueOf(k), "restored get %q = %d,%v", k, v, ok)
	}
	return rst.Close()
}

// snapshot times one Snapshot of p and sets persist.snapshot_s and
// persist.snapshot_bytes_per_key from the files it left in dir.
func (b *bench) snapshot(p *hope.Persistent, dir string, keys int) error {
	t0 := time.Now()
	if err := p.Snapshot(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	b.set("persist.snapshot_s", time.Since(t0).Seconds(), 1)
	var size int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			size += fi.Size()
		}
		return err
	})
	b.set("persist.snapshot_bytes_per_key", float64(size)/float64(keys), keys)
	return err
}
