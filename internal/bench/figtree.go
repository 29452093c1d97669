package bench

import (
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"time"

	hope "repro"
	"repro/internal/core"
	"repro/internal/ycsb"
)

// TreeBenchRow is one (backend, configuration) cell of the end-to-end
// search-tree evaluation — the paper's headline integration result (load,
// point lookup and range-scan throughput plus memory per key, tree and
// dictionary included). `make bench-tree` writes the rows to
// BENCH_tree.json so successive PRs can track the end-to-end trajectory
// next to the encode-path record in BENCH_encode.json.
type TreeBenchRow struct {
	Stamp
	Dataset     string  `json:"dataset"`
	Backend     string  `json:"backend"`
	Config      string  `json:"config"`
	Keys        int     `json:"keys"`
	LoadSec     float64 `json:"load_sec"`          // Bulk: encode + tree build
	LoadKeysSec float64 `json:"load_keys_per_sec"` // load throughput
	PointNs     float64 `json:"point_ns_per_op"`   // YCSB-C Get latency
	ScanNs      float64 `json:"scan_ns_per_op"`    // 10-key range scan latency
	InsertNs    float64 `json:"insert_ns_per_op"`  // Put latency into a 90%-loaded tree
	BytesPerKey float64 `json:"bytes_per_key"`     // (tree + dict) / keys
	TreeMB      float64 `json:"tree_mb"`
	DictMB      float64 `json:"dict_mb"`
	CPR         float64 `json:"cpr"` // encoder compression rate (0 = plain)
}

// treeScanLen is the fixed range-scan length of the tree benchmark (the
// mid-point of YCSB-E's 1..100 uniform scan lengths, fixed so scan
// latencies are comparable across rows).
const treeScanLen = 10

// RunFigTree reproduces the end-to-end figure: every facade backend under
// every standard encoder configuration, loaded and queried through
// hope.Index so the measured path is the one applications use (transparent
// key encoding, bound translation, filter short-circuits).
func RunFigTree(cfg Config, backends []hope.Backend) ([]TreeBenchRow, error) {
	keys := cfg.Keys()
	samples := cfg.Sample(keys)
	wl := ycsb.GenerateC(cfg.NumOps, len(keys), cfg.Seed+1)
	// Scans visit treeScanLen keys each; a tenth of the point ops keeps
	// the scan phase comparable in wall time to the point phase.
	scanOps := wl.Ops[:max(1, len(wl.Ops)/10)]

	stamp := NewStamp()
	var rows []TreeBenchRow
	for _, tc := range StandardConfigs(cfg.Quick) {
		enc, _, err := tc.BuildEncoder(samples)
		if err != nil {
			return nil, err
		}
		for _, backend := range backends {
			st, err := hope.Open(backend, hope.WithEncoder(enc))
			if err != nil {
				return nil, err
			}
			x := st.(*hope.Index)
			// Each timed phase starts from a collected heap so a GC cycle
			// triggered by the previous phase's garbage does not land in
			// this phase's window (the cells are single wall-clock runs).
			runtime.GC()
			t0 := time.Now()
			if err := x.Bulk(keys, nil); err != nil {
				return nil, err
			}
			loadSec := time.Since(t0).Seconds()

			// Insert-heavy cell: bulk-load 90% of the keys into a fresh
			// index, then time individual Puts of the held-out 10%.
			// Every tenth key is held out so the inserts land throughout
			// the key space rather than only at the right edge. Bulk-only
			// backends (SuRF) record 0 — no insert path to measure.
			insertNs, err := insertCell(backend, enc, keys)
			if err != nil {
				return nil, err
			}

			runtime.GC()
			t0 = time.Now()
			for _, op := range wl.Ops {
				x.Get(keys[op.Key])
			}
			pointNs := float64(time.Since(t0).Nanoseconds()) / float64(len(wl.Ops))

			t0 = time.Now()
			for _, op := range scanOps {
				n := 0
				x.Scan(keys[op.Key], nil, func([]byte, uint64) bool {
					n++
					return n < treeScanLen
				})
			}
			scanNs := float64(time.Since(t0).Nanoseconds()) / float64(len(scanOps))

			treeMem := x.TreeMemoryUsage()
			dictMem := x.MemoryUsage() - treeMem
			row := TreeBenchRow{
				Stamp:       stamp,
				Dataset:     cfg.Dataset.String(),
				Backend:     string(backend),
				Config:      tc.Name,
				Keys:        len(keys),
				LoadSec:     loadSec,
				PointNs:     pointNs,
				ScanNs:      scanNs,
				InsertNs:    insertNs,
				BytesPerKey: float64(treeMem+dictMem) / float64(len(keys)),
				TreeMB:      float64(treeMem) / (1 << 20),
				DictMB:      float64(dictMem) / (1 << 20),
			}
			if loadSec > 0 {
				row.LoadKeysSec = float64(len(keys)) / loadSec
			}
			if enc != nil {
				row.CPR = enc.CompressionRate(keys)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// insertCell times individual Puts of every tenth key into an index
// bulk-loaded with the other 90%, returning ns/op (0 for immutable
// backends, which have no insert path).
func insertCell(backend hope.Backend, enc *core.Encoder, keys [][]byte) (float64, error) {
	ins, err := hope.Open(backend, hope.WithEncoder(enc))
	if err != nil {
		return 0, err
	}
	xi := ins.(*hope.Index)
	loaded := make([][]byte, 0, len(keys))
	held := make([][]byte, 0, len(keys)/10+1)
	for i, k := range keys {
		if i%10 == 9 {
			held = append(held, k)
		} else {
			loaded = append(loaded, k)
		}
	}
	if err := xi.Bulk(loaded, nil); err != nil {
		return 0, err
	}
	if len(held) < 2 {
		return 0, nil
	}
	// Warmup Put doubles as the immutability probe.
	if err := xi.Put(held[0], 0); err != nil {
		if errors.Is(err, hope.ErrImmutableBackend) {
			return 0, nil
		}
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	for i, k := range held[1:] {
		if err := xi.Put(k, uint64(i)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(held)-1), nil
}

// WriteTreeBenchJSON writes the rows as indented JSON (BENCH_tree.json).
func WriteTreeBenchJSON(w io.Writer, rows []TreeBenchRow) error {
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(rows)
}
