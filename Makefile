GO ?= go

.PHONY: all build test lint chaos crash-restore serve-smoke restore-smoke bench bench-tree bench-check figures clean

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

# bench-check is the performance gate CI's perf-gate job runs, against
# BASE_REV (default HEAD: the last commit, so a working tree is checked
# against it). The base is exported to .bench_build/base; the encode and
# tree figures run on both sides and must hold their median within 15%,
# then scripts/perf_gate.sh runs perfbench on both and applies the
# BENCHMARK.json bounds (about 7 min on 2 cores). No committed record is
# compared against.
BASE_REV ?= HEAD
bench-check:
	rm -rf .bench_build/base && mkdir -p .bench_build/base
	git archive $(BASE_REV) | tar -x -C .bench_build/base
	cd .bench_build/base && $(GO) run ./cmd/hopebench -fig encode -dataset email -keys 200000 \
		-json ../encode.base.json
	$(GO) run ./cmd/hopebench -fig encode -dataset email -keys 200000 -json .bench_build/encode.head.json
	$(GO) run ./cmd/benchdiff .bench_build/encode.base.json .bench_build/encode.head.json
	cd .bench_build/base && $(GO) run ./cmd/hopebench -fig tree -dataset email -keys 50000 -ops 50000 \
		-json ../tree.base.json
	$(GO) run ./cmd/hopebench -fig tree -dataset email -keys 50000 -ops 50000 -json .bench_build/tree.head.json
	$(GO) run ./cmd/benchdiff -mode tree .bench_build/tree.base.json .bench_build/tree.head.json
	./scripts/perf_gate.sh .bench_build/base

# figures regenerates the paper's evaluation artifacts at laptop scale.
figures:
	$(GO) run ./cmd/hopebench -fig all -dataset email -keys 100000

clean:
	rm -rf .bench_build
