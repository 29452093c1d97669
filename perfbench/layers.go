package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	hope "repro"
	"repro/internal/art"
	"repro/internal/btree"
)

// scanOp is one scan: visit up to limit keys from start upward.
type scanOp struct {
	start []byte
	limit int
}

// layerInput is what the per-layer pass needs from a workload.
type layerInput struct {
	backend hope.Backend
	enc     *hope.Encoder // a clone of the store's serving encoder
	store   hope.Store    // the workload's store, now driven by this goroutine alone
	keys    [][]byte      // the store's contents
	gets    [][]byte      // probe keys, drawn as the workload draws its gets
	scans   []scanOp
}

// shadowTree is the part of internal/btree and internal/art the pass
// drives: a tree built directly from the encoder's output, beside the
// store's own trees.
type shadowTree interface {
	Get(key []byte) (uint64, bool)
	Insert(key []byte, val uint64)
	Scan(start []byte, fn func(key []byte, val uint64) bool)
}

// layerPass times each layer alone, on one goroutine, over the same keys:
// the encoder (core), a shadow tree loaded from EncodeAll's output
// (tree), and the store's point, put and scan calls (store). It sets the
// core.*, tree.* and store.* figures except store.get_wait_ns.
func (b *bench) layerPass(in layerInput, log *spanLog) error {
	n := len(in.keys)
	heap0 := heapBytes()

	t0 := time.Now()
	encoded := in.enc.EncodeAll(in.keys)
	b.set("core.encode_all_ns_per_key", float64(time.Since(t0).Nanoseconds())/float64(n), n)
	raw, packed := 0, 0
	for i, k := range in.keys {
		raw += len(k)
		packed += len(encoded[i])
	}
	b.set("core.cpr", float64(raw)/float64(packed), n)
	b.set("core.dict_bytes", float64(in.enc.MemoryUsage()), 1)

	// Every 50th key is held out of the load and inserted afterwards.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return bytes.Compare(encoded[x], encoded[y]) })
	var loadKeys, holdKeys [][]byte
	var loadVals, holdVals []uint64
	for r, i := range order {
		if r%50 == 49 {
			holdKeys, holdVals = append(holdKeys, encoded[i]), append(holdVals, valueOf(in.keys[i]))
		} else {
			loadKeys, loadVals = append(loadKeys, encoded[i]), append(loadVals, valueOf(in.keys[i]))
		}
	}
	encoded, order = nil, nil

	var tree shadowTree
	t0 = time.Now()
	switch in.backend {
	case hope.BTree:
		tree = btree.BulkLoad(loadKeys, loadVals)
	case hope.ART:
		t := art.New(art.IndexMode)
		for i, k := range loadKeys {
			t.Insert(k, loadVals[i])
		}
		tree = t
	default:
		return fmt.Errorf("no shadow tree for backend %s", in.backend)
	}
	b.set("tree.bulk_s", time.Since(t0).Seconds(), len(loadKeys))
	loadKeys, loadVals = nil, nil
	for i, k := range holdKeys {
		s := now()
		tree.Insert(k, holdVals[i])
		log.add(span{name: "tree.insert", start: s, end: now(), parent: -1, req: uint64(i)})
	}
	b.set("tree.insert_ns", log.durs("tree.insert").pct(0.5), len(holdKeys))
	holdKeys, holdVals = nil, nil
	b.set("tree.heap_bytes_per_key", float64(heapBytes()-heap0)/float64(n), n)

	// Point reads, one layer per loop so each sees its own steady state.
	var buf []byte
	for i, k := range in.gets {
		s := now()
		buf, _ = in.enc.EncodeBits(buf[:0], k)
		log.add(span{name: "core.encode", start: s, end: now(), parent: -1, req: uint64(i)})
	}
	for i, k := range in.gets {
		e := in.enc.Encode(k)
		s := now()
		v, ok := tree.Get(e)
		log.add(span{name: "tree.get", start: s, end: now(), parent: -1, req: uint64(i)})
		b.check(ok && v == valueOf(k), "shadow tree get %q = %d,%v", k, v, ok)
	}
	for i, k := range in.gets {
		s := now()
		v, ok := in.store.Get(k)
		log.add(span{name: "store.get.solo", start: s, end: now(), parent: -1, req: uint64(i)})
		b.check(ok && v == valueOf(k), "store get %q = %d,%v", k, v, ok)
	}
	for i, k := range in.gets {
		s := now()
		err := in.store.Put(k, valueOf(k))
		log.add(span{name: "store.put.solo", start: s, end: now(), parent: -1, req: uint64(i)})
		b.check(err == nil, "store put %q: %v", k, err)
	}
	enc, tg, sg := log.durs("core.encode").pct(0.5), log.durs("tree.get").pct(0.5), log.durs("store.get.solo").pct(0.5)
	b.set("core.encode_ns", enc, len(in.gets))
	b.set("tree.get_ns", tg, len(in.gets))
	b.set("store.get_ns", sg, len(in.gets))
	b.set("store.get_overhead_ns", sg-enc-tg, len(in.gets))
	b.set("store.get_wait_ns", b.phaseGetNs-sg, len(in.gets))
	b.set("store.put_ns", log.durs("store.put.solo").pct(0.5), len(in.gets))

	var treeNs, treeKeys int64
	for i, sc := range in.scans {
		e := in.enc.Encode(sc.start)
		got := 0
		s := now()
		tree.Scan(e, func([]byte, uint64) bool { got++; return got < sc.limit })
		end := now()
		log.add(span{name: "tree.scan", start: s, end: end, parent: -1, req: uint64(i)})
		treeNs += end - s
		treeKeys += int64(got)
	}
	b.set("tree.scan_ns_per_key", float64(treeNs)/float64(max(treeKeys, 1)), int(treeKeys))
	for i, sc := range in.scans {
		got := 0
		var prev []byte
		ordered := true
		s := now()
		in.store.Scan(sc.start, nil, func(k []byte, _ uint64) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				ordered = false
			}
			prev = append(prev[:0], k...)
			got++
			return got < sc.limit
		})
		log.add(span{name: "store.scan.solo", start: s, end: now(), parent: -1, req: uint64(i)})
		b.check(ordered && got >= 1 && got <= sc.limit, "store scan from %q: %d keys, ordered=%v", sc.start, got, ordered)
	}
	b.set("store.scan_ns", log.durs("store.scan.solo").pct(0.5), len(in.scans))
	return nil
}
