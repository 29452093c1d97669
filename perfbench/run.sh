#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload point-url --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary, span dumps
# and scratch snapshots all stay under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (library sources not found)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Stamp the result with the code it measured: the git commit when there is
# one, otherwise a digest of the Go sources.
if [[ -d "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD)
else
	commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
exec "$out/perfbench" --commit "$commit" --out "$out" "$@"
