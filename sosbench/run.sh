#!/usr/bin/env bash
# Builds the benchmark harness and the sossim reference binary from this
# checkout, then runs the harness with the given arguments, e.g.
#
#	bash sosbench/run.sh --workload sim-ftl-years --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporaries, the two
# binaries) stays under .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$root" && go build -o "$out/sossim" ./cmd/sossim)
(cd "$root/sosbench" && go build -o "$out/sosbench" .)
# Go's flag package accepts the --name form the arguments use.
exec "$out/sosbench" -sossim "$out/sossim" "$@"
