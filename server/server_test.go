package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	hope "repro"
	"repro/internal/datagen"
)

// startServer spins up a Server over store and returns it with its
// address. The cleanup shuts it down (idempotently — tests that exercise
// Shutdown themselves are unaffected) and surfaces Serve's exit error.
func startServer(t *testing.T, store hope.Store, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(store, cfg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-errc; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, srv.Addr().String()
}

func newStore(t *testing.T, opts ...hope.Option) hope.Store {
	t.Helper()
	s, err := hope.Open(hope.BTree, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerPointOpsAndRange(t *testing.T) {
	_, addr := startServer(t, newStore(t, hope.WithShards(4)), Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := []string{"apple", "applet", "banana", "cherry"}
	for i, k := range keys {
		if err := c.Set([]byte(k), uint64(i)); err != nil {
			t.Fatalf("set %s: %v", k, err)
		}
	}
	for i, k := range keys {
		v, ok, err := c.Get([]byte(k))
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("get %s = (%d,%v,%v), want (%d,true,nil)", k, v, ok, err, i)
		}
	}
	if _, ok, err := c.Get([]byte("durian")); err != nil || ok {
		t.Fatalf("get missing = (ok=%v, err=%v), want miss", ok, err)
	}

	// Range over an uncompressed store: stored form == original keys.
	var got []string
	n, err := c.Range([]byte("app"), []byte("c"), 100, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil || n != 3 {
		t.Fatalf("range = (%d,%v), want 3 results", n, err)
	}
	want := []string{"apple", "applet", "banana"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range keys = %v, want %v", got, want)
		}
	}
	// The per-request limit truncates the stream.
	if n, err := c.Range(nil, nil, 2, nil); err != nil || n != 2 {
		t.Fatalf("limited range = (%d,%v), want 2", n, err)
	}

	if ok, err := c.Delete([]byte("banana")); err != nil || !ok {
		t.Fatalf("delete = (%v,%v), want hit", ok, err)
	}
	if ok, err := c.Delete([]byte("banana")); err != nil || ok {
		t.Fatalf("re-delete = (%v,%v), want miss", ok, err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["store_len"] != "3" {
		t.Fatalf("store_len = %q, want 3", stats["store_len"])
	}
	if stats["cmd_set"] != "4" || stats["get_hits"] != "4" {
		t.Fatalf("counters: cmd_set=%q get_hits=%q", stats["cmd_set"], stats["get_hits"])
	}
	if stats["draining"] != "false" {
		t.Fatalf("draining = %q mid-serve", stats["draining"])
	}
}

// TestServerCompressedRange pins the documented stored-form contract: over
// a compressed store, range replies carry encoded keys, and the values —
// not the wire keys — identify the entries.
func TestServerCompressedRange(t *testing.T) {
	keys := datagen.Generate(datagen.Email, 2000, 42)
	enc, err := hope.Build(hope.DoubleChar, hope.SampleKeys(keys, 0.1, 1), hope.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := newStore(t, hope.WithEncoder(enc))
	if err := store.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, store, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	vals := map[uint64]bool{}
	n, err := c.Range(nil, nil, 500, func(k []byte, v uint64) bool {
		vals[v] = true
		return true
	})
	if err != nil || n != 500 {
		t.Fatalf("range = (%d,%v), want 500", n, err)
	}
	if len(vals) != 500 {
		t.Fatalf("range returned %d distinct values, want 500", len(vals))
	}
	for v := range vals {
		if v >= uint64(len(keys)) {
			t.Fatalf("range value %d out of key range", v)
		}
	}
}

func TestServerPipelining(t *testing.T) {
	_, addr := startServer(t, newStore(t), Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// One syscall's worth of 200 requests, then 200 replies.
	const n = 100
	var burst []byte
	for i := 0; i < n; i++ {
		burst = AppendSet(burst, fmt.Appendf(nil, "key-%03d", i), uint64(i))
	}
	for i := 0; i < n; i++ {
		burst = AppendGet(burst, fmt.Appendf(nil, "key-%03d", i))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		rep, err := ReadReply(r)
		if err != nil || rep.Kind != ReplyStored {
			t.Fatalf("reply %d = (%+v,%v), want STORED", i, rep, err)
		}
	}
	for i := 0; i < n; i++ {
		rep, err := ReadReply(r)
		if err != nil || rep.Kind != ReplyVal || rep.Val != uint64(i) {
			t.Fatalf("reply %d = (%+v,%v), want VAL %d", n+i, rep, err, i)
		}
	}
}

func TestServerProtocolErrors(t *testing.T) {
	_, addr := startServer(t, newStore(t), Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	bad := []string{
		"bogus\n",
		"set onlykey\n",
		"set k notanumber\n",
		"get\n",
		"get too many args\n",
		"range a b 0\n",
		"range a b 99999999\n",
		"range a b\n",
	}
	for _, req := range bad {
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadReply(r)
		if err != nil || rep.Kind != ReplyErr {
			t.Fatalf("%q: reply (%+v,%v), want ERR", req, rep, err)
		}
	}
	// Protocol errors are per-request: the connection still serves.
	conn.Write([]byte("set alive 7\nget alive\n"))
	if rep, err := ReadReply(r); err != nil || rep.Kind != ReplyStored {
		t.Fatalf("post-ERR set: (%+v,%v)", rep, err)
	}
	if rep, err := ReadReply(r); err != nil || rep.Kind != ReplyVal || rep.Val != 7 {
		t.Fatalf("post-ERR get: (%+v,%v)", rep, err)
	}
}

// TestServerConnLimitBackpressure: with MaxConns=1 a second client's dial
// lands in the listen backlog and its request waits — unanswered but not
// rejected — until the first connection closes.
func TestServerConnLimitBackpressure(t *testing.T) {
	_, addr := startServer(t, newStore(t), Config{MaxConns: 1})

	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Set([]byte("k"), 1); err != nil { // handler live, slot taken
		t.Fatal(err)
	}

	b, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Write([]byte("get k\n")); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	var one [1]byte
	if _, err := b.Read(one[:]); err == nil {
		t.Fatal("second connection was served while the first held the only slot")
	} else if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
		t.Fatalf("expected timeout while queued, got %v", err)
	}

	a.Close() // slot freed: the queued connection is accepted and served
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	rep, err := ReadReply(bufio.NewReader(b))
	if err != nil || rep.Kind != ReplyVal || rep.Val != 1 {
		t.Fatalf("queued get = (%+v,%v), want VAL 1", rep, err)
	}
}

// gateStore wraps a Store so a test can hold a Put mid-flight while the
// rest of the pipelined burst sits in the handler's read buffer.
type gateStore struct {
	hope.Store
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateStore) Put(key []byte, val uint64) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Store.Put(key, val)
}

// TestServerDrainFlushesBufferedRequests pins the drain contract: requests
// the handler already read into userspace are answered and flushed even
// when Shutdown lands while they queue behind a slow op.
func TestServerDrainFlushesBufferedRequests(t *testing.T) {
	gate := &gateStore{Store: newStore(t), entered: make(chan struct{}), release: make(chan struct{})}
	srv := New(gate, Config{})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst []byte
	burst = AppendSet(burst, []byte("slow"), 1)
	burst = AppendGet(burst, []byte("slow"))
	burst = AppendGet(burst, []byte("slow"))
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}

	<-gate.entered // handler is inside Put; the two gets sit in its buffer
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown poke the connection
	close(gate.release)

	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	wantKinds := []ReplyKind{ReplyStored, ReplyVal, ReplyVal}
	for i, want := range wantKinds {
		rep, err := ReadReply(r)
		if err != nil || rep.Kind != want {
			t.Fatalf("drained reply %d = (%+v,%v), want kind %d", i, rep, err, want)
		}
	}
	if _, err := ReadReply(r); err == nil {
		t.Fatal("connection still open after drain")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestServerDrainDuringRebuild is the lifecycle-hardening satellite: a
// SIGTERM-style drain landing while the adaptive index is mid-rebuild must
// neither hang nor drop a write the server acknowledged. Run under -race
// in CI (race-stress leg).
func TestServerDrainDuringRebuild(t *testing.T) {
	keys := datagen.Generate(datagen.Email, 8000, 7)
	st, err := hope.Open(hope.BTree, hope.WithAdaptive(hope.AdaptiveOptions{
		Scheme: hope.DoubleChar,
		Shards: 4,
		Manual: true, // rebuild fires when the test says so
	}))
	if err != nil {
		t.Fatal(err)
	}
	idx := st.(*hope.AdaptiveIndex)
	if err := idx.Bulk(keys, nil); err != nil {
		t.Fatal(err)
	}

	srv := New(idx, Config{})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	// Writers: each connection streams fresh keys and records which ones
	// the server acknowledged with STORED before the drain cut it off.
	const writers = 4
	acked := make([]int, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Appendf(nil, "drain-%d-%06d@live.test", wid, i)
				if err := c.Set(key, uint64(wid)<<32|uint64(i)); err != nil {
					return // drain severed the conn; everything acked so far counts
				}
				acked[wid] = i + 1
			}
		}(wid)
	}

	time.Sleep(30 * time.Millisecond) // writers flowing
	rebuildDone := make(chan error, 1)
	go func() { rebuildDone <- idx.Rebuild() }()
	time.Sleep(10 * time.Millisecond) // rebuild migrating

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during rebuild: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-errc; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	// The interrupted rebuild either completed or aborted cleanly — both
	// are fine; hanging or panicking is not.
	if err := <-rebuildDone; err != nil {
		t.Logf("rebuild aborted by drain (allowed): %v", err)
	}

	// Every acknowledged write must still be readable after Quiesce+Close.
	total := 0
	for wid := 0; wid < writers; wid++ {
		for i := 0; i < acked[wid]; i++ {
			key := fmt.Appendf(nil, "drain-%d-%06d@live.test", wid, i)
			v, ok := idx.Get(key)
			if !ok || v != uint64(wid)<<32|uint64(i) {
				t.Fatalf("acked write %s lost across drain (got %d,%v)", key, v, ok)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged before the drain; test proved nothing")
	}
	// And the preloaded corpus survived whichever migration state the
	// drain interrupted.
	for i, k := range keys {
		if v, ok := idx.Get(k); !ok || v != uint64(i) {
			t.Fatalf("preloaded key %q lost across drain (got %d,%v)", k, v, ok)
		}
	}
	t.Logf("%d writes acked across %d connections; all survived the drain", total, writers)
}

// TestRunUntilSignal exercises the cmd/hopeserve main loop end to end:
// serve, catch a signal, drain, exit nil.
func TestRunUntilSignal(t *testing.T) {
	store := newStore(t)
	srv := New(store, Config{})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.RunUntilSignal(10*time.Second, syscall.SIGUSR1) }()

	c, err := DialRetry(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("sig"), 9); err != nil {
		t.Fatal(err)
	}
	c.Close()

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunUntilSignal = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunUntilSignal did not drain after the signal")
	}
	if _, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after signal drain")
	}
	if v, ok := store.Get([]byte("sig")); !ok || v != 9 {
		t.Fatal("write lost across signal drain")
	}
}

// TestServerSnapshotOnDrain wires the persistence layer through the drain
// hook exactly as cmd/hopeserve does: writes arrive over the wire, the
// drain quiesces the store and then snapshots it, and a fresh Open over
// the snapshot directory serves the same keys.
func TestServerSnapshotOnDrain(t *testing.T) {
	dir := t.TempDir()
	store := newStore(t, hope.WithShards(4), hope.WithSnapshotDir(dir))
	p := store.(*hope.Persistent)

	srv := New(store, Config{
		OnDrain: func() error { return p.Snapshot() },
	})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.Set([]byte(fmt.Sprintf("drain-key-%02d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if p.Generation() != 1 {
		t.Fatalf("drain snapshot generation = %d, want 1", p.Generation())
	}

	r, err := hope.Open(hope.BTree, hope.WithSnapshotDir(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	rp := r.(*hope.Persistent)
	if !rp.Restored() || rp.Len() != 50 {
		t.Fatalf("restored=%v len=%d, want true/50", rp.Restored(), rp.Len())
	}
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("drain-key-%02d", i))
		if v, ok := r.Get(k); !ok || v != uint64(i) {
			t.Fatalf("restored get %q = (%d,%v), want (%d,true)", k, v, ok, i)
		}
	}
}

// TestServerDrainHookErrorSurfaces: a failing drain hook is reported by
// Shutdown but never prevents the store close.
func TestServerDrainHookErrorSurfaces(t *testing.T) {
	store := newStore(t)
	hookErr := fmt.Errorf("hook failed")
	closed := false
	srv := New(store, Config{
		OnDrain: func() error { closed = store.Len() >= 0; return hookErr },
	})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != hookErr {
		t.Fatalf("Shutdown = %v, want the drain hook's error", err)
	}
	<-errc
	if !closed {
		t.Fatal("drain hook never ran")
	}
	// The store was still closed despite the hook error.
	if err := store.Put([]byte("x"), 1); err != hope.ErrClosed {
		t.Fatalf("put after shutdown = %v, want ErrClosed", err)
	}
}
