#!/usr/bin/env bash
# Builds gsacs-server and the bench harness from this checkout, then runs the
# harness with the given flags. Everything it writes stays inside the
# checkout: binaries, the Go build cache and run scratch under .bench_build/,
# traces under bench/out/.
#
#   bash bench/run.sh -seed 1                       # all four workloads, end-to-end then traced
#   bash bench/run.sh -aa                           # A/A: every workload twice, compared within bounds
#   bash bench/run.sh --workload read_churn --seed 3 --seconds 10 --trace 0   # what the driver runs
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/work" "$build/gotmp"

# Keep the toolchain inside the checkout and off the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0

(cd "$root" && go build -o "$build/bin/gsacs-server" ./cmd/gsacs-server)
(cd "$bench_dir" && go build -o "$build/bin/gsacs-bench" .)

cd "$root"
exec "$build/bin/gsacs-bench" -server "$build/bin/gsacs-server" -workdir "$build/work" -out "$bench_dir/out" "$@"
