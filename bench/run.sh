#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload edit_stream --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays inside the checkout: the build and the Go
# caches under .bench_build/, stores and trace files under .bench_out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
