#!/usr/bin/env bash
# Builds brokerd (unchanged, from cmd/brokerd) and the load generator
# from the checkout in the current directory, then runs one benchmark
# workload:
#
#   bash perfbench/run.sh --workload recommend-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/runs" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/brokerd" ./cmd/brokerd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -brokerd "$build/bin/brokerd" -workdir "$build/runs" "$@"
