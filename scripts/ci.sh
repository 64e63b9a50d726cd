#!/bin/sh
# ci.sh — the full verification gate, in dependency order:
#
#   1. gofmt            formatting drift
#   2. go vet           stdlib static checks
#   3. simlint          project determinism rules (SL001..SL014;
#                       SL008 and SL009 are retired and unused),
#                       timed: the interprocedural facts engine must
#                       keep the full-module sweep under 60s
#   4. go build         both build-tag variants compile
#   5. go test -race    full suite under the race detector
#   6. go test -tags simcheck ./internal/...
#                       suite again with runtime invariant audits live
#                       (buddy allocator, TLB arrays, VM accounting,
#                       scheduler task conservation, promise quiescence)
#   7. zero-alloc + bench smoke + engine gate + LRU and cache-stage oracles
#                       the staged access engine's fast path, the bulk
#                       AccessRun path, and the gather AccessGather
#                       path must stay allocation-free, every machine,
#                       memsys and workload benchmark (among them
#                       BenchmarkNewMemhog, paper-node's memhog staging)
#                       must still run (-benchtime=1x), the bulk and
#                       gather engines must each cost at most half their
#                       scalar path per simulated access
#                       (TestAccessEngineSpeedup: same-host ratios, min
#                       of 3 interleaved testing.Benchmark runs per
#                       side), and 30s runs of FuzzLevelMatchesReference
#                       (internal/cache: the data-cache hierarchy) and
#                       FuzzSetsMatchReference (internal/lru: the array
#                       behind every cache level and TLB array, on every
#                       geometry the cache and TLB tests use) require
#                       sets kept as recency lists to match the
#                       stamp-based reference copies on every result and
#                       counter and on each set's LRU order; a 30s run
#                       of FuzzCacheStageMatchesScalar (internal/machine)
#                       requires a machine whose data caches run on a
#                       cache goroutine, with event deadlines a few
#                       hundred cycles apart, to match a scalar twin
#                       that probes inline on every counter. Every fuzz
#                       run (here and in step 13) bounds minimization at
#                       10 execs per input
#                       (-fuzzminimizetime 10x): under the 60s default
#                       three of the four stalled minimizing their first
#                       new inputs and stopped exploring within seconds
#   8. fast-path inlining
#                       go build -gcflags=-m ./internal/machine
#                       ./internal/analytics must report the cache
#                       stage's probe and the data-cycle charge inlined
#                       into the scalar, bulk and gather engines
#                       (access.go, access_run.go, access_gather.go) and
#                       the stream's append inlined into every kernel
#                       file (bfs, sssp, pagerank, cc, bc, probe,
#                       shard_kernels): a loop-head edit that pushes one
#                       past the inliner's budget costs a call per
#                       simulated access and fails here
#   9. campaign determinism
#                       a bench-scale campaign over fig5, pagecache,
#                       ext-rollout (forked candidates) and ext-shard
#                       (16-shard cells) at GOMAXPROCS=4 -j 1 is the
#                       reference; runs at GOMAXPROCS=4 -j 4,
#                       GOMAXPROCS=2 -j 4 and GOMAXPROCS=1 -j 1 must be
#                       byte-identical to it on every surface. GOMAXPROCS
#                       sizes each sharded cell's worker pool, and at 1
#                       each monolithic kernel, the goroutine that
#                       replays its access stream and its cache goroutine
#                       take turns on one processor
#  10. fork gates
#                       forking must cut the wall-clock at least 2x
#                       against replaying the load phase: for the
#                       rollout's candidate tournament
#                       (TestRolloutForkSpeedup, bench scale, every
#                       dataset) and for shard bring-up
#                       (TestShardBringupSpeedup, the ext-shard kr25
#                       cell); both time in-process, min of 3 per side
#  11. frame-metadata budget
#                       unsafe.Sizeof(frameInfo{}) <= 8 (compile-time
#                       array assert plus TestFrameInfoSize), and the
#                       packed/unpacked differential property test
#  12. paper-geometry gate
#                       the ext-fullscale campaign ({Kron25,Twit} x
#                       {BFS,PR} x {THP,4KB}) stages >= 100 GB nodes,
#                       finishes inside its wall/host-memory budgets,
#                       and renders the flagship node's footprint table
#                       (TestFullscaleGeometryGate); each cell stages its
#                       node and drops it after its run. The footprint's
#                       bytes-per-simulated-GiB ceiling is
#                       TestFullscaleFootprintCeiling, which needs no
#                       opt-in and runs in step 6 (it skips under -race)
#  13. checkpoint reload + fork fuzzing
#                       the in-process perf gate (TestCkptReloadSpeedup)
#                       requires loading a saved container to beat
#                       re-staging the node by >= 3x, and a 30s
#                       FuzzLoadCheckpoint run requires every
#                       payload the loader accepts to re-save to its
#                       own bytes and run without panicking; a 30s
#                       FuzzAllocFree run forks the node mid-sequence
#                       and requires the original and a replaying fork
#                       to end byte-identical and an idle fork to keep
#                       its fork-time image
#  14. docsplice -check
#                       EXPERIMENTS.md's measured blocks match results/
#  15. benchmark self-test
#                       the benchmark module's own tests (cd bench &&
#                       go test .) run every workload at test size and
#                       check its outputs against bench/testdata's
#                       golden digests, so a change that moves a
#                       simulated counter fails here
#  16. inputs and kernels independent of GOMAXPROCS
#                       the generator, CSR and reordering packages'
#                       tests (the sequential reference oracles and the
#                       graph digests recorded from them) pass at
#                       GOMAXPROCS 1, 2 and 4: generation and relabeling
#                       split their work across GOMAXPROCS workers, and
#                       the split must not reach a byte. So do the
#                       analytics tests, whose stream oracle holds each
#                       kernel's streamed run to a scalar twin, the
#                       machine tests, whose cache-stage oracle holds a
#                       machine with a cache goroutine to one, however
#                       the kernel, its replay goroutine and its cache
#                       goroutine are scheduled, and the sched tests,
#                       whose ring tests hold the block handoff both
#                       goroutines run on to in-order, synced delivery
#  17. code-line count (informational, not a gate)
#                       scripts/loc.sh prints the non-blank, non-comment
#                       line count of non-test Go under internal/ and
#                       cmd/ that ROADMAP.md records
#
# Step 9 compares campaigns through one helper, campaign, that runs
# expdriver into stdout, markdown and CSV and diffs all three against a
# reference run. The wall-clock gates (steps 7, 10 and 13) are
# same-host ratios timed in-process; they run only when
# GRAPHMEM_SPEEDUP_GATE is set, which this script does.
#
# Run from the repository root: ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== simlint"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Build untimed, so a cold build cache cannot eat into the lint budget:
# the 60s limit guards the facts engine's fixpoint, not the compiler.
go build -o "$tmp/simlint" ./cmd/simlint
lint_start=$(date +%s)
"$tmp/simlint" ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "simlint took ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 60 ]; then
    echo "simlint exceeded its 60s budget (${lint_elapsed}s): the facts engine is too slow" >&2
    exit 1
fi

echo "== build (default and simcheck)"
go build ./...
go build -tags simcheck ./...

echo "== test -race"
go test -race ./...

echo "== test -tags simcheck (runtime audits live)"
go test -tags simcheck ./internal/...

echo "== zero-alloc fast path + bench smoke + engine gate + LRU and cache-stage oracles"
go test -run 'TestAccessFastPathZeroAllocs|TestAccessRunZeroAllocs|TestAccessGatherZeroAllocs' -count=1 ./internal/machine
go test -run '^$' -bench '^Benchmark' -benchtime 1x ./internal/machine ./internal/memsys ./internal/workload
GRAPHMEM_SPEEDUP_GATE=1 go test -run '^TestAccessEngineSpeedup$' -count=1 -v ./internal/machine
go test -run '^$' -fuzz '^FuzzLevelMatchesReference$' -fuzztime 30s -fuzzminimizetime 10x ./internal/cache
go test -run '^$' -fuzz '^FuzzSetsMatchReference$' -fuzztime 30s -fuzzminimizetime 10x ./internal/lru
go test -run '^$' -fuzz '^FuzzCacheStageMatchesScalar$' -fuzztime 30s -fuzzminimizetime 10x ./internal/machine

echo "== fast-path inlining (cache-stage probe, data-cycle charge, stream append)"
go build -gcflags=-m ./internal/machine ./internal/analytics > "$tmp/inline.txt" 2>&1
inline_ok=true
# inlined FILE CALL: the compiler must report CALL inlined in FILE.
inlined() {
    if ! grep -F "inlining call to $2" "$tmp/inline.txt" | grep -q "^$1:"; then
        echo "$1: $2 is no longer inlined" >&2
        inline_ok=false
    fi
}
for f in access access_run access_gather; do
    inlined "internal/machine/$f.go" '(*cacheStage).probe'
    inlined "internal/machine/$f.go" '(*Machine).dataCycles'
done
for f in bfs sssp pagerank cc bc probe shard_kernels; do
    inlined "internal/analytics/$f.go" '(*stream).access'
done
$inline_ok

go build -o "$tmp/expdriver" ./cmd/expdriver
expdriver="$tmp/expdriver"

# campaign NAME REF [VAR=value...] EXPDRIVER ARGS...
# runs a bench-scale expdriver campaign (leading VAR=value words set its
# environment, as with env(1)) into $tmp/NAME.txt (stdout),
# $tmp/NAME.md and $tmp/NAME.csv/, then, unless REF is "-", diffs all
# three surfaces against run REF's.
campaign() {
    name=$1 ref=$2
    shift 2
    mkdir -p "$tmp/$name.csv"
    env "$@" -scale bench -out "$tmp/$name.md" -csv "$tmp/$name.csv" > "$tmp/$name.txt"
    if [ "$ref" != - ]; then
        diff "$tmp/$ref.txt" "$tmp/$name.txt"
        diff "$tmp/$ref.md" "$tmp/$name.md"
        diff -r "$tmp/$ref.csv" "$tmp/$name.csv"
    fi
}

echo "== campaign determinism: bench-scale, across -j and GOMAXPROCS"
subset="fig5,pagecache,ext-rollout,ext-shard"
campaign ref - GOMAXPROCS=4 "$expdriver" -exp "$subset" -j 1
campaign j4 ref GOMAXPROCS=4 "$expdriver" -exp "$subset" -j 4
campaign gmp2 ref GOMAXPROCS=2 "$expdriver" -exp "$subset" -j 4
campaign gmp1 ref GOMAXPROCS=1 "$expdriver" -exp "$subset" -j 1

echo "== fork gates: rollout tournament and shard bring-up vs replay"
# Both gates time single runs in-process (min-of-3 per side): a
# whole-campaign subprocess wall-clock would fold dataset generation and
# sibling cells into both sides and drown the margin in host noise.
GRAPHMEM_SPEEDUP_GATE=1 go test -run '^(TestRolloutForkSpeedup|TestShardBringupSpeedup)$' -count=1 -v ./internal/exp

echo "== frame-metadata budget: 8 bytes per frame, packed == unpacked"
go test -run 'TestFrameInfoSize|TestFrameInfoPackRoundTrip' -count=1 ./internal/memsys
go test -run '^TestPackedFrameInfoDifferential$' -count=1 ./internal/machine

echo "== paper-geometry gate: ext-fullscale wall/host-memory budgets"
GRAPHMEM_FULLSCALE=1 go test -run '^TestFullscaleGeometryGate$' -count=1 -v -timeout 900s ./internal/exp

echo "== checkpoint reload gate + loader and fork fuzzing"
# The >= 3x reload-vs-restage gate times both sides in-process
# (min-of-3): subprocess wall-clocks would fold compilation, dataset
# generation, and kernel phases into both sides and drown the margin.
GRAPHMEM_SPEEDUP_GATE=1 go test -run '^TestCkptReloadSpeedup$' -count=1 -v ./internal/exp
# Bounded fuzzing of the loader: every payload it accepts must re-save
# to exactly its own bytes and run without panicking.
go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 30s -fuzzminimizetime 10x ./internal/core
# Bounded fuzzing of copy-on-write forks of the physical node: a fork and
# its original never see each other's writes.
go test -run '^$' -fuzz '^FuzzAllocFree$' -fuzztime 30s -fuzzminimizetime 10x ./internal/memsys

echo "== docsplice -check (EXPERIMENTS.md in sync with results/)"
go run ./cmd/docsplice -doc EXPERIMENTS.md -results results/expdriver_full.txt -check

echo "== benchmark self-test (bench/ outputs vs golden digests)"
(cd bench && go test -count=1 .)

echo "== inputs and kernels independent of GOMAXPROCS (generators, CSR, reordering, kernel streams, cache stage, block ring)"
go test -count=1 -cpu 1,2,4 ./internal/gen ./internal/graph ./internal/reorder ./internal/analytics ./internal/machine ./internal/sched

echo "== code-line count (informational)"
./scripts/loc.sh || true

echo "CI PASS"
