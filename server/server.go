package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hope "repro"
	"repro/internal/telemetry"
)

// Config tunes a Server. The zero value is usable: listen on an ephemeral
// localhost port with the default connection limit.
type Config struct {
	// Addr is the TCP listen address ("host:port"). Empty means
	// "127.0.0.1:0" (ephemeral port; read it back with Addr()).
	Addr string
	// MaxConns caps concurrent connections. Beyond the cap the server
	// simply stops calling Accept, so excess dials queue in the kernel
	// listen backlog — backpressure, not rejection. 0 means
	// DefaultMaxConns.
	MaxConns int
	// Logf receives connection-level diagnostics. Nil discards them.
	Logf func(format string, args ...any)
	// Registry receives the server's instruments (per-command op stats,
	// connection and error counters, store gauges) and — when the store
	// implements hope.Instrumented — the store's own metrics. Nil creates
	// a private registry, retrievable with Server.Registry().
	Registry *telemetry.Registry
	// OnDrain, when non-nil, runs during Shutdown after the store is
	// quiesced and before it is closed — the point where every
	// acknowledged write has landed and no background migration is in
	// flight. cmd/hopeserve installs the final snapshot here
	// (snapshot-on-drain); its error is reported by Shutdown but never
	// prevents the close. Must not block indefinitely.
	OnDrain func() error
}

// DefaultMaxConns is the connection cap when Config.MaxConns is zero.
const DefaultMaxConns = 256

// ErrServerClosed is returned by Serve after Shutdown begins, mirroring
// net/http's contract: it signals an orderly stop, not a failure.
var ErrServerClosed = errors.New("server: closed")

// Server serves a hope.Store over the wire protocol in this package. It
// is written against the Store interface alone — any present or future
// implementation plugs in unchanged — plus an optional Quiescer upgrade
// at shutdown.
type Server struct {
	store hope.Store
	cfg   Config

	ln       net.Listener
	sem      chan struct{} // acquired before Accept: connection backpressure
	draining atomic.Bool
	wg       sync.WaitGroup // live connection handlers

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	shutdown bool

	// connsTotal both counts accepted connections and hands each one its
	// id — the stripe hint its commands use, so connections spread their
	// counter increments across cache lines.
	connsTotal atomic.Uint64

	// Serving instruments, exposed through the stats verb and the
	// registry. Command latencies are recorded on every invocation (no
	// sampling): the wire round trip dominates, so a clock read per
	// command is noise.
	reg         *telemetry.Registry
	trace       *telemetry.EventTrace // store's lifecycle trace, nil without one
	cmdGet      *telemetry.OpStats
	cmdSet      *telemetry.OpStats
	cmdDel      *telemetry.OpStats
	cmdRange    *telemetry.OpStats
	cmdStats    *telemetry.OpStats
	getHits     telemetry.Counter
	rangeKeys   telemetry.Counter
	protoErrors telemetry.Counter
}

// New builds a Server over store. The store is borrowed until Shutdown,
// which quiesces and closes it as part of the drain.
func New(store hope.Store, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		store:    store,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConns),
		conns:    make(map[net.Conn]struct{}),
		reg:      cfg.Registry,
		cmdGet:   telemetry.NewOpStats(1),
		cmdSet:   telemetry.NewOpStats(1),
		cmdDel:   telemetry.NewOpStats(1),
		cmdRange: telemetry.NewOpStats(1),
		cmdStats: telemetry.NewOpStats(1),
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.registerMetrics()
	return s
}

// registerMetrics wires the server's instruments — and the store's, when
// it exposes any — into the registry. A shared registry may already hold
// some of these names (two servers over one store); collisions are
// diagnostics, not fatal.
func (s *Server) registerMetrics() {
	for _, e := range []struct {
		name string
		item any
	}{
		{"hope_server_get", s.cmdGet},
		{"hope_server_set", s.cmdSet},
		{"hope_server_del", s.cmdDel},
		{"hope_server_range", s.cmdRange},
		{"hope_server_stats", s.cmdStats},
		{"hope_server_get_hits_total", &s.getHits},
		{"hope_server_range_keys_total", &s.rangeKeys},
		{"hope_server_protocol_errors_total", &s.protoErrors},
		{"hope_server_connections_total", func() float64 { return float64(s.connsTotal.Load()) }},
		{"hope_server_connections_current", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		}},
		{"hope_server_draining", func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		}},
		{"hope_server_store_len", func() float64 { return float64(s.store.Len()) }},
	} {
		if err := s.reg.Register(e.name, e.item); err != nil {
			s.cfg.Logf("metrics: %v", err)
		}
	}
	if ins, ok := s.store.(hope.Instrumented); ok {
		if err := ins.RegisterMetrics(s.reg); err != nil {
			s.cfg.Logf("metrics: store: %v", err)
		}
	}
	if tr, ok := s.store.(hope.Traced); ok {
		s.trace = tr.Trace()
	}
}

// Registry returns the server's metrics registry (the configured one, or
// the private registry New created).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Trace returns the store's lifecycle event trace, or nil when the store
// keeps none.
func (s *Server) Trace() *telemetry.EventTrace { return s.trace }

// Listen binds the configured address. Separate from Serve so callers can
// learn the ephemeral port (Addr) before the accept loop starts.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve runs the accept loop until Shutdown closes the listener, then
// returns ErrServerClosed. The connection-limit semaphore is acquired
// *before* Accept: at the cap the server stops accepting entirely and
// excess clients wait in the listen backlog instead of being churned
// through accept-then-close.
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	for {
		s.sem <- struct{}{}
		conn, err := s.ln.Accept()
		if err != nil {
			<-s.sem
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		id := s.connsTotal.Add(1)
		s.track(conn, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			defer s.track(conn, false)
			s.handle(conn, id)
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	return s.Serve()
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	if add {
		s.conns[conn] = struct{}{}
		// A connection accepted in the window between Shutdown closing the
		// listener and its poke loop running would otherwise miss the wake
		// poke and stall the drain until the context expires.
		if s.draining.Load() {
			conn.SetReadDeadline(time.Now())
		}
	} else {
		delete(s.conns, conn)
	}
	s.mu.Unlock()
}

// Shutdown drains the server: stop accepting, let in-flight requests
// finish, then quiesce and close the store. Handlers blocked in a read
// are poked with an immediate read deadline; because bufio serves
// complete lines from its buffer without touching the socket, every
// request the client managed to pipeline before the drain still gets a
// reply before its connection closes. If ctx expires first, remaining
// connections are severed and ctx.Err is returned — but the store is
// still quiesced and closed, so acknowledged writes are never abandoned
// mid-migration.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	s.mu.Unlock()

	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		// Wake blocked readers now; handlers notice draining and finish.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
	}

	// The store drain proper: wait out background work (adaptive rebuild
	// migrations and their acknowledged writes), then close. Quiesce
	// before Close is not redundant — Close also cancels, but an explicit
	// quiesce first lets an in-flight rebuild that is nearly done land
	// instead of being torn down.
	if q, ok := s.store.(hope.Quiescer); ok {
		q.Quiesce()
	}
	// Post-quiesce, pre-close: the drain hook sees a settled store that
	// can still serve the reads a snapshot dump needs.
	if s.cfg.OnDrain != nil {
		if derr := s.cfg.OnDrain(); derr != nil {
			s.cfg.Logf("drain hook: %v", derr)
			if err == nil {
				err = derr
			}
		}
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// RunUntilSignal serves until one of the given signals arrives (SIGTERM,
// typically), then drains with the given grace period. It is the main
// loop of cmd/hopeserve, kept here so it is testable.
func (s *Server) RunUntilSignal(grace time.Duration, sigs ...os.Signal) error {
	// Subscribe before serving, so a signal sent once clients are being
	// answered is never missed.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, sigs...)
	defer signal.Stop(sigc)

	errc := make(chan error, 1)
	go func() { errc <- s.Serve() }()
	select {
	case err := <-errc:
		// Accept loop died on its own — still release the store.
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		s.Shutdown(ctx)
		return err
	case <-sigc:
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return err
		}
		<-errc // Serve's ErrServerClosed
		return nil
	}
}

// Connection handler buffer sizes: large enough that a deep pipeline of
// small requests is parsed (and answered) per syscall pair.
const connBufSize = 64 << 10

func (s *Server) handle(conn net.Conn, id uint64) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, connBufSize)
	w := bufio.NewWriterSize(conn, connBufSize)
	c := s.newSession(w, id)
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			if err == bufio.ErrBufferFull {
				s.protoErrors.Inc(id)
				fmt.Fprintf(w, "ERR line exceeds %d bytes\n", MaxLineLen)
				w.Flush()
				return
			}
			// Read failure: a real disconnect, or the Shutdown deadline
			// poke. Either way every complete buffered line was already
			// served (bufio only hits the socket when the buffer lacks
			// one), so flushing pending replies completes the drain
			// contract for this connection.
			if !s.draining.Load() && !errors.Is(err, net.ErrClosed) && !isEOF(err) {
				s.cfg.Logf("conn %s: read: %v", conn.RemoteAddr(), err)
			}
			w.Flush()
			return
		}
		if len(line) > MaxLineLen {
			s.protoErrors.Inc(id)
			fmt.Fprintf(w, "ERR line exceeds %d bytes\n", MaxLineLen)
			w.Flush()
			return
		}
		if !c.dispatch(trimLine(line)) {
			w.Flush()
			return
		}
		// Pipelining: flush only once the read buffer holds no further
		// complete request, batching replies for the whole burst.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

func trimLine(line []byte) []byte {
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// session is one connection's reply state: its writer, its accept
// ordinal (the counters' stripe hint), a buffer replies are
// formatted in, and the range callback, bound once per connection, so a
// get or range reply allocates nothing of its own.
type session struct {
	s    *Server
	w    *bufio.Writer
	id   uint64
	buf  []byte
	left int // keys the range in flight may still emit
	emit func(key []byte, val uint64) bool
}

func (s *Server) newSession(w *bufio.Writer, id uint64) *session {
	c := &session{s: s, w: w, id: id, buf: make([]byte, 0, 128)}
	c.emit = c.emitKey
	return c
}

// emitKey writes one range reply line, "K <hex key> <val>".
func (c *session) emitKey(key []byte, val uint64) bool {
	c.buf = append(hex.AppendEncode(append(c.buf[:0], "K "...), key), ' ')
	c.buf = append(strconv.AppendUint(c.buf, val, 10), '\n')
	c.w.Write(c.buf)
	c.left--
	return c.left > 0
}

// dispatch executes one request line, writing the reply into the
// session's writer. It returns false when the connection should close
// (quit).
func (c *session) dispatch(line []byte) bool {
	s, w, id := c.s, c.w, c.id
	cmd, rest := nextToken(line)
	switch string(cmd) {
	case "get":
		key, rest := nextToken(rest)
		if len(key) == 0 || len(rest) != 0 {
			return s.errf(w, id, "usage: get <key>")
		}
		t := s.cmdGet.Begin(id)
		if v, ok := s.store.Get(key); ok {
			s.getHits.Inc(id)
			c.buf = append(strconv.AppendUint(append(c.buf[:0], "VAL "...), v, 10), '\n')
			w.Write(c.buf)
		} else {
			w.WriteString("NF\n")
		}
		s.cmdGet.End(t)
	case "set":
		key, rest := nextToken(rest)
		valTok, rest := nextToken(rest)
		if len(key) == 0 || len(valTok) == 0 || len(rest) != 0 {
			return s.errf(w, id, "usage: set <key> <val>")
		}
		v, err := strconv.ParseUint(string(valTok), 10, 64)
		if err != nil {
			return s.errf(w, id, "bad value %q", valTok)
		}
		t := s.cmdSet.Begin(id)
		if err := s.store.Put(key, v); err != nil {
			s.cmdSet.End(t)
			return s.errf(w, id, "put: %v", err)
		}
		s.cmdSet.End(t)
		w.WriteString("STORED\n")
	case "del":
		key, rest := nextToken(rest)
		if len(key) == 0 || len(rest) != 0 {
			return s.errf(w, id, "usage: del <key>")
		}
		t := s.cmdDel.Begin(id)
		ok, err := s.store.Delete(key)
		s.cmdDel.End(t)
		if err != nil {
			return s.errf(w, id, "delete: %v", err)
		}
		if ok {
			w.WriteString("DEL\n")
		} else {
			w.WriteString("NF\n")
		}
	case "range":
		loTok, rest := nextToken(rest)
		hiTok, rest := nextToken(rest)
		limTok, rest := nextToken(rest)
		if len(loTok) == 0 || len(hiTok) == 0 || len(limTok) == 0 || len(rest) != 0 {
			return s.errf(w, id, "usage: range <lo|-> <hi|-> <limit>")
		}
		limit, err := strconv.Atoi(string(limTok))
		if err != nil || limit <= 0 || limit > MaxRangeLimit {
			return s.errf(w, id, "bad limit %q (1..%d)", limTok, MaxRangeLimit)
		}
		var lo, hi []byte
		if !bytes.Equal(loTok, []byte("-")) {
			lo = loTok
		}
		if !bytes.Equal(hiTok, []byte("-")) {
			hi = hiTok
		}
		t := s.cmdRange.Begin(id)
		c.left = limit
		n := s.store.Scan(lo, hi, c.emit)
		s.cmdRange.End(t)
		s.rangeKeys.Add(id, uint64(n))
		w.WriteString("END\n")
	case "stats":
		if len(rest) != 0 {
			return s.errf(w, id, "usage: stats")
		}
		t := s.cmdStats.Begin(id)
		s.writeStats(w)
		s.cmdStats.End(t)
	case "quit":
		return false
	default:
		return s.errf(w, id, "unknown command %q", cmd)
	}
	return true
}

// errf writes an ERR reply and keeps the connection open: protocol errors
// are per-request, not per-connection.
func (s *Server) errf(w *bufio.Writer, id uint64, format string, args ...any) bool {
	s.protoErrors.Inc(id)
	w.WriteString("ERR ")
	fmt.Fprintf(w, format, args...)
	w.WriteByte('\n')
	return true
}

// writeStats renders the stats verb: the legacy integer counters first
// (wire-compatible with earlier servers), then every registry series —
// per-command latency percentiles, lifecycle health, store gauges — as
// STAT lines, so a plain telnet client sees the same surface /metrics
// exposes.
func (s *Server) writeStats(w *bufio.Writer) {
	s.mu.Lock()
	curr := len(s.conns)
	s.mu.Unlock()
	stats := map[string]uint64{
		"curr_connections":  uint64(curr),
		"total_connections": s.connsTotal.Load(),
		"cmd_get":           s.cmdGet.Count(),
		"cmd_set":           s.cmdSet.Count(),
		"cmd_del":           s.cmdDel.Count(),
		"cmd_range":         s.cmdRange.Count(),
		"get_hits":          s.getHits.Value(),
		"range_keys":        s.rangeKeys.Value(),
		"protocol_errors":   s.protoErrors.Value(),
		"store_len":         uint64(s.store.Len()),
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "STAT %s %d\n", name, stats[name])
	}
	snap := s.reg.Snapshot()
	names = names[:0]
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w.WriteString("STAT ")
		w.WriteString(name)
		w.WriteByte(' ')
		w.Write(strconv.AppendFloat(nil, snap[name], 'g', -1, 64))
		w.WriteByte('\n')
	}
	fmt.Fprintf(w, "STAT draining %v\n", s.draining.Load())
	w.WriteString("END\n")
}

// nextToken splits off the next space-separated token.
func nextToken(b []byte) (tok, rest []byte) {
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}
