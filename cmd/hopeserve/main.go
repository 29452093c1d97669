// Command hopeserve serves a hope.Store over TCP behind the compact
// memcached-style text protocol in package server (get/set/del/range/
// stats, pipelined). It is written against the hope.Store interface
// alone — which implementation serves is purely a matter of flags:
//
//	hopeserve -store sharded -shards 16 -scheme Double-Char \
//	    -preload 200000 -dataset email
//	hopeserve -store adaptive -scheme 3-Grams       # lifecycle-managed
//	hopeserve -shards 1 -scheme none                # one tree, uncompressed
//
// With -scheme and -preload the dictionary is built from a sample of the
// preloaded keys before serving begins; an adaptive store can instead
// start empty and uncompressed and let its lifecycle build the first
// dictionary online. SIGINT/SIGTERM trigger a graceful drain: stop
// accepting, answer everything in flight, then quiesce and close the
// store within -grace.
//
// With -snapshot-dir the store is crash-safe: a valid snapshot in the
// directory is restored on boot (preload is skipped — the disk image
// wins), -snapshot-every takes periodic snapshots while serving, and the
// drain takes a final one after quiesce, before close. A crash between
// snapshots loses only the writes since the last committed generation;
// it never leaves a partial index.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	hope "repro"
	"repro/internal/datagen"
	"repro/internal/telemetry"
	"repro/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hopeserve: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "TCP listen address (port 0 picks an ephemeral port)")
		backend  = flag.String("backend", "art", "search tree: art | btree")
		store    = flag.String("store", "sharded", "store implementation: sharded | adaptive")
		shards   = flag.Int("shards", 0, "shard count for sharded/adaptive stores (0 = #cores)")
		rangePrt = flag.Bool("range", false, "range-partition the shards (sharded/adaptive stores)")
		scheme   = flag.String("scheme", "none", "compression scheme (Single-Char, Double-Char, 3-Grams, 4-Grams, ALM, ALM-Improved) or none")
		sample   = flag.Float64("sample", 0.02, "fraction of preloaded keys sampled for the dictionary build")
		preload  = flag.Int("preload", 0, "bulk-load this many generated keys before serving")
		dataset  = flag.String("dataset", "email", "generated keyspace: email | wiki | url")
		seed     = flag.Int64("seed", 42, "keyspace and sampling seed")
		maxConns = flag.Int("maxconns", server.DefaultMaxConns, "concurrent connection cap (excess dials queue in the listen backlog)")
		grace    = flag.Duration("grace", 10*time.Second, "drain budget after SIGINT/SIGTERM")
		debug    = flag.String("debug-addr", "", "HTTP debug listen address serving /metrics, /debug/vars, /debug/events and /debug/pprof (empty = disabled)")
		snapDir  = flag.String("snapshot-dir", "", "snapshot directory: restore from it on boot, snapshot into it on drain (empty = no persistence)")
		snapEvry = flag.Duration("snapshot-every", 0, "periodic snapshot interval while serving (0 = drain-time snapshot only; needs -snapshot-dir)")
	)
	flag.Parse()
	if *snapEvry > 0 && *snapDir == "" {
		log.Fatal("-snapshot-every needs -snapshot-dir")
	}

	st, preloaded, err := buildStore(*backend, *store, *shards, *rangePrt, *scheme, *sample, *preload, *dataset, *seed, *snapDir)
	if err != nil {
		log.Fatal(err)
	}

	cfg := server.Config{
		Addr:     *addr,
		MaxConns: *maxConns,
		Logf:     log.Printf,
	}
	if *snapDir != "" {
		p := st.(*hope.Persistent)
		if p.Restored() {
			log.Printf("restored generation %d (%d keys) from %s", p.Generation(), st.Len(), *snapDir)
		}
		// The final image: after quiesce every acknowledged write has
		// landed, so the drain snapshot captures exactly what clients saw.
		cfg.OnDrain = func() error {
			if err := p.Snapshot(); err != nil {
				return fmt.Errorf("drain snapshot: %w", err)
			}
			log.Printf("drain snapshot committed generation %d", p.Generation())
			return nil
		}
		if *snapEvry > 0 {
			go func() {
				tick := time.NewTicker(*snapEvry)
				defer tick.Stop()
				for range tick.C {
					switch err := p.Snapshot(); {
					case err == nil:
						log.Printf("periodic snapshot committed generation %d", p.Generation())
					case errors.Is(err, hope.ErrClosed):
						return // drained; the final snapshot already ran
					default:
						log.Printf("periodic snapshot: %v", err)
					}
				}
			}()
		}
	}
	srv := server.New(st, cfg)
	if err := srv.Listen(); err != nil {
		log.Fatal(err)
	}
	if *debug != "" {
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug endpoints on http://%s (/metrics /debug/vars /debug/events /debug/pprof)", dln.Addr())
		go func() {
			if err := http.Serve(dln, telemetry.Handler(srv.Registry(), srv.Trace())); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	log.Printf("serving %s/%s (%d keys preloaded) on %s", *store, *scheme, preloaded, srv.Addr())
	if err := srv.RunUntilSignal(*grace, syscall.SIGINT, syscall.SIGTERM); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}

// buildStore assembles the hope.Open option list the flags describe and
// bulk-loads the generated keyspace. With snapDir the store opens through
// the persistence layer, and a restored snapshot replaces the preload —
// the disk image is the state clients last saw acknowledged. Apart from
// the Persistent assertions behind the -snapshot-dir flag, this command is
// written against the hope.Store interface alone.
func buildStore(backend, store string, shards int, rangePrt bool, scheme string,
	sample float64, preload int, dataset string, seed int64, snapDir string) (hope.Store, int, error) {

	be, err := parseBackend(backend)
	if err != nil {
		return nil, 0, err
	}

	var keys [][]byte
	if preload > 0 {
		kind, err := datagen.ParseKind(dataset)
		if err != nil {
			return nil, 0, err
		}
		all := datagen.Generate(kind, preload, seed)
		keys = keys[:0]
		for _, k := range all {
			if server.ValidKey(k) {
				keys = append(keys, k)
			}
		}
		if len(keys) < len(all) {
			fmt.Fprintf(os.Stderr, "hopeserve: dropped %d non-wire-safe keys from preload\n", len(all)-len(keys))
		}
	}

	// The dictionary: pre-built from a preload sample when one exists, or
	// (adaptive stores only) handed to the lifecycle as the scheme to
	// build online once enough keys have streamed in.
	var opts []hope.Option
	adaptiveOpts := hope.AdaptiveOptions{}
	if !strings.EqualFold(scheme, "none") {
		sc, err := hope.ParseScheme(scheme)
		if err != nil {
			return nil, 0, err
		}
		adaptiveOpts.Scheme = sc
		if len(keys) > 0 {
			enc, err := hope.Build(sc, hope.SampleKeys(keys, sample, seed), hope.Options{})
			if err != nil {
				return nil, 0, err
			}
			opts = append(opts, hope.WithEncoder(enc))
		} else if store != "adaptive" {
			return nil, 0, fmt.Errorf("-scheme %s needs -preload keys to build its dictionary from (or -store adaptive)", scheme)
		}
	}
	switch store {
	case "sharded":
		opts = append(opts, hope.WithShards(shards))
		if rangePrt {
			opts = append(opts, hope.WithRangePartitioner(keys))
		}
	case "adaptive":
		opts = append(opts, hope.WithAdaptive(adaptiveOpts))
		if shards != 0 {
			opts = append(opts, hope.WithShards(shards))
		}
		if rangePrt {
			opts = append(opts, hope.WithRangePartitioner(nil))
		}
	default:
		return nil, 0, fmt.Errorf("unknown -store %q (want sharded or adaptive)", store)
	}

	if snapDir != "" {
		opts = append(opts, hope.WithSnapshotDir(snapDir))
	}
	st, err := hope.Open(be, opts...)
	if err != nil {
		return nil, 0, err
	}
	if p, ok := st.(*hope.Persistent); ok && p.Restored() {
		return st, 0, nil // the snapshot supersedes the preload
	}
	if len(keys) > 0 {
		if err := st.Bulk(keys, nil); err != nil {
			st.Close()
			return nil, 0, err
		}
	}
	return st, len(keys), nil
}

func parseBackend(name string) (hope.Backend, error) {
	switch strings.ToLower(name) {
	case "art":
		return hope.ART, nil
	case "btree", "b+tree":
		return hope.BTree, nil
	}
	return "", fmt.Errorf("unknown -backend %q (want art or btree)", name)
}
