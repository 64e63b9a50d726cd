#!/bin/sh
# run.sh — build the graphmem benchmark from this checkout's sources and
# run it, passing every argument through:
#
#   bash bench/run.sh --workload paper-full --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# The Go build cache, temporary files (including the checkpoint images
# the paper-node workload writes) and the binary all live under
# .bench_build/ at the checkout root, so a run reads and writes nothing
# outside the checkout. The build is offline: the benchmark module needs
# only the standard library and the enclosing graphmem module.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$build/graphmem-bench" .)
cd "$root"
exec "$build/graphmem-bench" "$@"
