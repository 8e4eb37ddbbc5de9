#!/usr/bin/env bash
# Benchmark of the nobld analysis daemon.  Run from the root of a
# checkout:
#
#   bash nobbench/bench.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
#   bash nobbench/bench.sh golden                      # regenerate golden.json
#   bash nobbench/bench.sh compare parent.txt change.txt
#   (cd nobbench && go test ./...)                     # the benchmark's own tests
#
# It builds cmd/nobld from the checkout, the end-to-end runner
# (nobbench, which imports nothing of the module under test) and the
# traced pass (nobbench/traced) into .bench_build, keeping the Go build
# cache there too, then hands its arguments to the runner.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/nobld ] || [ ! -f nobbench/go.mod ]; then
	echo "nobbench: run from the root of a checkout holding go.mod, cmd/nobld and nobbench" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off CGO_ENABLED=0

go build -o "$out/bin/nobld" ./cmd/nobld
(cd nobbench && go build -o "$out/bin/nobbench" .)
(cd nobbench/traced && go build -o "$out/bin/nobtraced" .)

exec "$out/bin/nobbench" --root "$root" --bin "$out/bin" \
	--config nobbench/workloads.json --golden nobbench/golden.json --benchmark BENCHMARK.json "$@"
