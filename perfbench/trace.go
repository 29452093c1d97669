package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	hope "repro"
)

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span in the same dump (-1 at top level).
// tag is valueOf(key): it joins a store span recorded inside the server
// to the client request that caused it.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        uint64
	tag        uint64
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// durs returns the sorted durations of the spans called name.
func (l *spanLog) durs(name string) lat {
	var out lat
	for _, s := range l.spans {
		if s.name == name {
			out.add(s.dur())
		}
	}
	return merge(out)
}

// recStore is the recording hope.Store decorator: it times every call into
// the store it wraps. On serve-email it is the store handed to server.New,
// so its spans sit inside the client's request spans.
type recStore struct {
	hope.Store
	log  *spanLog
	base uint64 // request-id namespace of this decorator
	seq  atomic.Uint64
	tag  bool // tag spans with their key, to link them to client spans
}

func newRecStore(st hope.Store, log *spanLog, base uint64, tag bool) *recStore {
	return &recStore{Store: st, log: log, base: base << 40, tag: tag}
}

func (r *recStore) record(name string, t0 int64, key []byte) {
	end := now()
	var tag uint64
	if r.tag {
		tag = valueOf(key)
	}
	r.log.add(span{name: name, start: t0, end: end, parent: -1, req: r.base | r.seq.Add(1), tag: tag})
}

func (r *recStore) Get(key []byte) (uint64, bool) {
	t0 := now()
	v, ok := r.Store.Get(key)
	r.record("store.get", t0, key)
	return v, ok
}

func (r *recStore) Put(key []byte, val uint64) error {
	t0 := now()
	err := r.Store.Put(key, val)
	r.record("store.put", t0, key)
	return err
}

func (r *recStore) Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) int {
	t0 := now()
	n := r.Store.Scan(lo, hi, fn)
	r.record("store.scan", t0, lo)
	return n
}

// linkServed matches each store.get span recorded inside the server to the
// client.get span of the same key that encloses it, sets its parent and
// request id, and returns the server's own time per matched request
// (client span minus the store span under it).
func linkServed(client, store []span) (self lat, matched int) {
	ci := spanOrder(client, "client.get")
	si := spanOrder(store, "store.get")
	j := 0
	for _, i := range si {
		s := &store[i]
		for j < len(ci) && (client[ci[j]].tag < s.tag || (client[ci[j]].tag == s.tag && client[ci[j]].end < s.end)) {
			j++
		}
		if j == len(ci) {
			break
		}
		c := client[ci[j]]
		if c.tag != s.tag || c.start > s.start {
			continue
		}
		s.parent, s.req = int32(ci[j]), c.req
		self.add(c.dur() - s.dur())
		matched++
	}
	return merge(self), matched
}

// spanOrder returns the indexes of the spans called name, ordered by
// (tag, start).
func spanOrder(spans []span, name string) []int {
	var idx []int
	for i, s := range spans {
		if s.name == name {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		if spans[a].tag != spans[b].tag {
			if spans[a].tag < spans[b].tag {
				return -1
			}
			return 1
		}
		return int(spans[a].start - spans[b].start)
	})
	return idx
}

// maxDumpSpans caps the span dump; the figures use every span.
const maxDumpSpans = 200_000

// dumpSpans writes the run's spans, client spans first so store spans'
// parent indexes point into the same file, as tab-separated lines:
// name, start_ns, end_ns, parent, request id.
func (b *bench) dumpSpans(groups ...[]span) error {
	if err := os.MkdirAll(b.cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", b.cfg.workload, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\treq")
	n := 0
	for _, g := range groups {
		for _, s := range g {
			if n == maxDumpSpans {
				break
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.req)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
