#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout this script
# sits in, then runs it with the given arguments from the current directory.
#
#   bash perfbench/run.sh --workload bigsim|serve|suite --seed N --seconds S --trace 0|1
#
# Every file the build and the run write (Go build cache, temp files, chunk
# spill files, span dumps, the binary) stays under .bench_build/ in the
# checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
