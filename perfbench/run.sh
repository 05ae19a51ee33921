#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-pop --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare old-records/ new-records/
#
# Every file the build and the runs write stays under .bench_build/: the
# build cache, and the go command's configuration directory, where it
# would otherwise keep telemetry counters.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
