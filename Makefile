GO ?= go

.PHONY: all build test lint chaos crash-restore serve-smoke restore-smoke bench bench-tree bench-ycsb bench-drift bench-scan bench-serve bench-restore bench-check figures clean

all: lint test build

build:
	$(GO) build ./...

test:
	$(GO) test -race -count=1 ./...

lint:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...

# chaos is the fault-injection soak: seeded fault plans firing errors,
# stalls, and panics at every rebuild checkpoint under concurrent YCSB-style
# traffic, differentially verified against a plain rebuilt Index — plus the
# watchdog, breaker, panic-isolation, and Quiesce/Close robustness suite.
# Runs under the race detector with a hard time budget; a failing seed is
# printed by the fault plan's event log and replays deterministically.
chaos:
	$(GO) test -race -count=1 -timeout 15m -v \
		-run 'TestAdaptiveChaos|TestAdaptiveQuiesce|TestAdaptiveClose|TestAdaptiveWatchdog|TestAdaptivePanic|TestAdaptiveBreaker|TestAdaptiveAutoBackoff|TestAdaptiveSkew|TestAdaptiveAbortRestores' \
		.

# crash-restore is the persistence fault-injection soak: the snapshot
# round-trip matrix across every store shape, the kill-at-every-VFS-
# checkpoint crash matrix (a fired fault must either fail the snapshot or
# leave a fully committed generation — never a readable partial), the
# read-path fault refusals, the torn-generation fallback ladder, and the
# snapshot-under-concurrent-writers soak, all under the race detector.
crash-restore:
	$(GO) test -race -count=1 -timeout 15m -v \
		-run 'TestPersist|TestServerSnapshotOnDrain|TestServerDrainHookErrorSurfaces' \
		./...

# serve-smoke is the end-to-end network smoke: build the real hopeserve +
# hopeload binaries, serve a preloaded compressed store, drive an
# open-loop load at >=10k target QPS with zero tolerated protocol errors,
# then SIGTERM the server and require a clean graceful drain (exit 0).
serve-smoke:
	./scripts/serve_smoke.sh

# restore-smoke is the end-to-end crash-recovery smoke: build the real
# hopeserve binary, serve a compressed store with periodic snapshots,
# write through the wire protocol, SIGKILL the process mid-serve, restart
# it from the snapshot directory, and require every acknowledged-and-
# snapshotted key back plus a live hope_restore series on /metrics.
restore-smoke:
	./scripts/restore_smoke.sh

# bench records the encode-path performance trajectory: serial kernel vs
# parallel bulk EncodeAll per scheme, written to BENCH_encode.json so
# successive PRs can diff perf.
bench:
	$(GO) run ./cmd/hopebench -fig encode -dataset email -keys 200000 \
		-json BENCH_encode.json

# bench-tree records the end-to-end search-tree trajectory: hope.Index
# load / point / range-scan latency and bytes-per-key for every backend ×
# scheme, written to BENCH_tree.json (uploaded as a CI artifact alongside
# BENCH_encode.json).
bench-tree:
	$(GO) run ./cmd/hopebench -fig tree -dataset email -keys 50000 -ops 50000 \
		-json BENCH_tree.json

# bench-ycsb records the concurrent serving trajectory: ShardedIndex
# throughput per YCSB workload (A-F) × backend × scheme × goroutine count,
# written to BENCH_ycsb.json. Throughput medians are gated by bench-check.
bench-ycsb:
	$(GO) run ./cmd/hopebench -fig ycsb -dataset email -keys 30000 -ops 30000 \
		-threads 1,2,4,8 -json BENCH_ycsb.json

# bench-drift records the dictionary-drift adaptation trajectory:
# AdaptiveIndex throughput + rolling CPR across a distribution shift,
# with and without adaptation, written to BENCH_drift.json. The summary
# rows carry the post-adaptation CPR and its recovery ratio against a
# from-scratch dictionary; benchdiff -mode drift gates both.
bench-drift:
	$(GO) run ./cmd/hopebench -fig drift -keys 50000 -json BENCH_drift.json

# bench-scan records the scan-partitioning trajectory: YCSB-E throughput
# against hash- vs range-partitioned ShardedIndexes across shard counts,
# written to BENCH_scan.json. The range rows exercise the pruned planner
# and the single-shard merge-free fast path; benchdiff -mode scan gates
# the medians.
bench-scan:
	$(GO) run ./cmd/hopebench -fig scan -dataset email -keys 30000 -ops 20000 \
		-shards 1,4,8,16 -json BENCH_scan.json

# bench-serve records the network serving trajectory: open-loop latency
# percentiles (p50/p99/p999 per op) against an in-process hopeserve, over
# workload mix × connection count × {ShardedIndex, AdaptiveIndex} ×
# {Uncompressed, Double-Char}, written to BENCH_serve.json. benchdiff
# -mode serve gates the p99 medians.
bench-serve:
	$(GO) run ./cmd/hopeload -fig serve -dataset email -keys 50000 \
		-qps 12000 -connlist 2,8 -warmup 1s -duration 4s -json BENCH_serve.json

# bench-restore records the restart trajectory: cold boot (dictionary
# build + encode + bulk load) vs snapshot restore across schemes ×
# backends × corpus sizes, written to BENCH_restore.json. benchdiff
# -mode restore gates both boot times; the cold/restore speedup is
# recorded but not gated (see restoreMetrics in cmd/benchdiff).
bench-restore:
	$(GO) run ./cmd/hopebench -fig restore -dataset email -keys 30000 \
		-json BENCH_restore.json

# bench-check is the perf-regression gate: regenerate the encode and YCSB
# records at their `make bench`/`make bench-ycsb` parameters and fail on a
# >15% median regression in any encode latency or YCSB throughput figure
# against the committed baselines. Same-machine only: the baselines must
# have been recorded on this box, or the comparison measures hardware, not
# code (CI instead reruns both benches for the PR head and its merge base
# on one runner).
bench-check:
	$(GO) run ./cmd/hopebench -fig encode -dataset email -keys 200000 \
		-json BENCH_encode.fresh.json
	$(GO) run ./cmd/benchdiff BENCH_encode.json BENCH_encode.fresh.json
	@rm -f BENCH_encode.fresh.json
	$(GO) run ./cmd/hopebench -fig ycsb -dataset email -keys 30000 -ops 30000 \
		-threads 1,2,4,8 -json BENCH_ycsb.fresh.json
	$(GO) run ./cmd/benchdiff -mode ycsb BENCH_ycsb.json BENCH_ycsb.fresh.json
	@rm -f BENCH_ycsb.fresh.json
	$(GO) run ./cmd/hopebench -fig drift -keys 50000 -json BENCH_drift.fresh.json
	$(GO) run ./cmd/benchdiff -mode drift BENCH_drift.json BENCH_drift.fresh.json
	@rm -f BENCH_drift.fresh.json
	$(GO) run ./cmd/hopebench -fig scan -dataset email -keys 30000 -ops 20000 \
		-shards 1,4,8,16 -json BENCH_scan.fresh.json
	$(GO) run ./cmd/benchdiff -mode scan BENCH_scan.json BENCH_scan.fresh.json
	@rm -f BENCH_scan.fresh.json
	$(GO) run ./cmd/hopeload -fig serve -dataset email -keys 50000 \
		-qps 12000 -connlist 2,8 -warmup 1s -duration 4s -json BENCH_serve.fresh.json
	$(GO) run ./cmd/benchdiff -mode serve BENCH_serve.json BENCH_serve.fresh.json
	@rm -f BENCH_serve.fresh.json
	$(GO) run ./cmd/hopebench -fig tree -dataset email -keys 50000 -ops 50000 \
		-json BENCH_tree.fresh.json
	$(GO) run ./cmd/benchdiff -mode tree BENCH_tree.json BENCH_tree.fresh.json
	@rm -f BENCH_tree.fresh.json
	$(GO) run ./cmd/hopebench -fig restore -dataset email -keys 30000 \
		-json BENCH_restore.fresh.json
	$(GO) run ./cmd/benchdiff -mode restore BENCH_restore.json BENCH_restore.fresh.json
	@rm -f BENCH_restore.fresh.json

# figures regenerates the paper's evaluation artifacts at laptop scale.
figures:
	$(GO) run ./cmd/hopebench -fig all -dataset email -keys 100000

clean:
	rm -f BENCH_encode.fresh.json BENCH_ycsb.fresh.json BENCH_drift.fresh.json \
		BENCH_scan.fresh.json BENCH_serve.fresh.json BENCH_tree.fresh.json \
		BENCH_restore.fresh.json
