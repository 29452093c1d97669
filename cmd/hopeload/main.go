// Command hopeload is the open-loop load client for hopeserve: N
// concurrent connections pacing requests toward an aggregate target QPS
// (open-loop — the schedule does not slow down because the server did,
// so the latency record is free of coordinated omission), a warmup phase
// excluded from the histograms, and HDR-style per-op latency percentiles.
//
//	hopeload -addr 127.0.0.1:7070 -conns 8 -qps 20000 -duration 10s \
//	    -keys 200000 -dataset email -set 0.05
//
// exits non-zero if any reply was a protocol error or a connection died
// mid-run — which is what lets a smoke test assert "N ops, zero errors"
// with an exit code.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/telemetry"
	"repro/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hopeload: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "hopeserve address to load")
		conns      = flag.Int("conns", 4, "concurrent connections")
		qps        = flag.Float64("qps", 10000, "aggregate target ops/sec across all connections")
		duration   = flag.Duration("duration", 10*time.Second, "measured phase length")
		warmup     = flag.Duration("warmup", 2*time.Second, "warmup excluded from the record")
		numKeys    = flag.Int("keys", 100000, "keyspace size (must match the server's -preload for a hit-heavy run)")
		dataset    = flag.String("dataset", "email", "generated keyspace: email | wiki | url")
		seed       = flag.Int64("seed", 42, "keyspace and op-mix seed")
		setFrac    = flag.Float64("set", 0.05, "fraction of set ops")
		delFrac    = flag.Float64("del", 0, "fraction of del ops")
		rangeFrac  = flag.Float64("range", 0, "fraction of range ops")
		rangeLimit = flag.Int("rangelimit", 50, "results per range op")
		pipeline   = flag.Int("pipeline", 256, "max outstanding requests per connection")
		metricsURL = flag.String("metrics", "", "hopeserve /metrics URL; scraped before and after the run for a server-side report")
		dumpOnly   = flag.Bool("dump-metrics", false, "with -metrics: fetch the exposition once, print it, and exit (no load)")
	)
	flag.Parse()

	if *dumpOnly {
		if *metricsURL == "" {
			log.Fatal("-dump-metrics needs -metrics <url>")
		}
		body, err := telemetry.ScrapeRaw(*metricsURL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(body)
		return
	}

	kind, err := datagen.ParseKind(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	keys := wireSafe(datagen.Generate(kind, *numKeys, *seed))
	var before map[string]float64
	if *metricsURL != "" {
		if before, err = telemetry.Scrape(*metricsURL); err != nil {
			log.Fatalf("scrape before run: %v", err)
		}
	}
	res, err := bench.RunLoad(bench.LoadConfig{
		Addr:       *addr,
		Conns:      *conns,
		TargetQPS:  *qps,
		Duration:   *duration,
		Warmup:     *warmup,
		Keys:       keys,
		SetFrac:    *setFrac,
		DelFrac:    *delFrac,
		RangeFrac:  *rangeFrac,
		RangeLimit: *rangeLimit,
		Seed:       *seed,
		Pipeline:   *pipeline,
	})
	if res != nil {
		printResult(res, *qps)
	}
	if *metricsURL != "" {
		after, serr := telemetry.Scrape(*metricsURL)
		if serr != nil {
			log.Fatalf("scrape after run: %v", serr)
		}
		printServerReport(before, after)
	}
	if err != nil {
		log.Fatal(err)
	}
	if res.ProtoErrors > 0 {
		log.Fatalf("%d protocol errors", res.ProtoErrors)
	}
}

// printServerReport prints the server's own view of the run: per-command
// count deltas between the two scrapes, with the server-side latency
// quantiles (cumulative over the server's lifetime — the client-side
// table above is the per-run record).
func printServerReport(before, after map[string]float64) {
	q := func(name, quantile string) string {
		v := after[name+`_latency_seconds{quantile="`+quantile+`"}`] * 1e6
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	var rows [][]string
	for _, op := range []string{"get", "set", "del", "range", "stats"} {
		name := "hope_server_" + op
		delta := after[name+"_total"] - before[name+"_total"]
		if delta == 0 {
			continue
		}
		rows = append(rows, []string{
			op, strconv.FormatFloat(delta, 'f', 0, 64),
			q(name, "0.5"), q(name, "0.99"), q(name, "0.999"),
		})
	}
	bench.Table(os.Stdout, "Server-side view (scrape delta; quantiles cumulative)",
		[]string{"Op", "Count", "p50 (us)", "p99 (us)", "p999 (us)"}, rows)
	fmt.Printf("server: store_len %.0f, index gets %+.0f, protocol errors %+.0f, connections %+.0f\n",
		after["hope_server_store_len"],
		after["hope_index_get_total"]-before["hope_index_get_total"],
		after["hope_server_protocol_errors_total"]-before["hope_server_protocol_errors_total"],
		after["hope_server_connections_total"]-before["hope_server_connections_total"])
}

func printResult(res *bench.LoadResult, targetQPS float64) {
	fmt.Printf("target %.0f ops/s, achieved %.0f ops/s (%d sent, %d measured, %d protocol errors) over %v\n",
		targetQPS, res.AchievedQPS, res.Sent, res.Recv, res.ProtoErrors, res.Elapsed.Round(time.Millisecond))
	var rows [][]string
	for _, op := range bench.LoadOps {
		h := res.Hist(op)
		if h.Count() == 0 {
			continue
		}
		rows = append(rows, []string{
			op,
			strconv.FormatUint(h.Count(), 10),
			us(h.Percentile(50)), us(h.Percentile(99)), us(h.Percentile(99.9)),
			us(h.Mean()), us(h.Max()),
		})
	}
	bench.Table(os.Stdout, "Latency by op (open-loop, from intended send time)",
		[]string{"Op", "Count", "p50 (us)", "p99 (us)", "p999 (us)", "mean (us)", "max (us)"}, rows)
}

func us(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', 1, 64)
}

func wireSafe(keys [][]byte) [][]byte {
	out := keys[:0]
	for _, k := range keys {
		if server.ValidKey(k) {
			out = append(out, k)
		}
	}
	return out
}
