package core

import (
	"runtime"
	"sync"

	"repro/internal/bitops"
)

// encodeAllMinShard is the smallest per-worker shard worth a goroutine;
// below it the spawn/join overhead exceeds the encode work.
const encodeAllMinShard = 256

// encodeWorker carries the transient per-worker state of the parallel
// EncodeAll path: the appender's backing buffer and the offset table. Both
// are merged into the caller-visible result and then become garbage, so
// they are recycled through encodeWorkerPool — steady-state EncodeAll
// performs a bounded number of allocations (the returned result plus
// per-call bookkeeping), independent of key count and chunk count
// (TestEncodeAllSteadyStateAllocs asserts this).
type encodeWorker struct {
	buf  []byte
	offs []int
}

var encodeWorkerPool = sync.Pool{New: func() any { return new(encodeWorker) }}

// EncodeAll bulk-encodes keys and returns their padded encodings. The work
// is sharded into contiguous runs across up to GOMAXPROCS workers — bulk
// inputs are typically sorted loads, and contiguous shards keep each
// worker's dictionary probes on neighbouring intervals — with one appender
// per worker. Every result is a slice of one shared backing buffer, in
// key order; on the parallel path that layout costs a final merge copy of
// the worker buffers (transiently ~2x the encoded size), the price of
// handing callers a single contiguous allocation instead of one buffer
// per worker. Worker-side buffers are pooled and reused across calls.
//
// Unlike the other Encoder methods, EncodeAll is safe for concurrent use:
// it touches only the read-only dictionary, never the Encoder's embedded
// appender.
func (e *Encoder) EncodeAll(keys [][]byte) [][]byte {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if max := len(keys) / encodeAllMinShard; workers > max {
		workers = max // every shard gets at least encodeAllMinShard keys
	}
	if workers <= 1 {
		// Serial: encode straight into the final backing (no merge copy,
		// nothing worth pooling — backing and offsets are the result).
		backing, offs := e.EncodeRun(make([]byte, 0, SizeHint(keys)), keys, make([]int, 1, len(keys)+1))
		return carve(out, backing, offs)
	}
	// Shard boundaries: contiguous, near-equal key counts; worker w owns
	// keys[w*len/workers : (w+1)*len/workers].
	ws := make([]*encodeWorker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := keys[w*len(keys)/workers : (w+1)*len(keys)/workers]
			ew := encodeWorkerPool.Get().(*encodeWorker)
			if hint := SizeHint(shard); cap(ew.buf) < hint {
				ew.buf = make([]byte, 0, hint)
			}
			ew.buf, ew.offs = e.EncodeRun(ew.buf[:0], shard, append(ew.offs[:0], 0))
			ws[w] = ew
		}(w)
	}
	wg.Wait()
	// Merge the worker buffers into one backing array, carve results, and
	// recycle the workers (their buffers were copied, not retained).
	total := 0
	for _, ew := range ws {
		total += len(ew.buf)
	}
	backing := make([]byte, 0, total)
	for w, ew := range ws {
		base := len(backing)
		backing = append(backing, ew.buf...)
		lo := w * len(keys) / workers
		hi := (w + 1) * len(keys) / workers
		for i := lo; i < hi; i++ {
			j := i - lo
			o1, o2 := base+ew.offs[j], base+ew.offs[j+1]
			out[i] = backing[o1:o2:o2]
		}
		encodeWorkerPool.Put(ew)
	}
	return out
}

// EncodeRun appends the padded encodings of keys back to back to buf, and
// the offset in buf where each one ends to ends. Started with ends =
// [len(buf)], key j's encoding is buf[ends[j]:ends[j+1]]. It is the one
// per-worker encode loop, behind EncodeAll and the stores' bulk loads,
// which call it a chunk at a time so that a key is encoded while it is
// still in cache. Like EncodeAll it reads only the dictionary, so it is
// safe for concurrent use. A buf of SizeHint capacity rarely regrows.
func (e *Encoder) EncodeRun(buf []byte, keys [][]byte, ends []int) ([]byte, []int) {
	a := bitops.NewAppender(buf)
	for _, k := range keys {
		e.dict.AppendEncode(a, k)
		ends = append(ends, a.Pad())
	}
	buf, _ = a.Finish()
	return buf, ends
}

// SizeHint is a capacity for the encodings of keys: their source byte
// count plus the appender's 8-byte spill. Compression rates are >= 1 on
// workload-like keys, so a buffer of this size usually never grows (it is
// a hint, not a bound: adversarial bytes can encode to more bits than they
// occupy, and append still grows then).
func SizeHint(keys [][]byte) int {
	n := 8
	for _, k := range keys {
		n += len(k)
	}
	return n
}
