#!/bin/sh
# ci.sh — the full verification gate, in dependency order:
#
#   1. gofmt            formatting drift
#   2. go vet           stdlib static checks
#   3. simlint          project determinism rules (SL001..SL014),
#                       timed: the interprocedural facts engine must
#                       keep the full-module sweep under 60s
#   4. go build         both build-tag variants compile
#   5. go test -race    full suite under the race detector
#   6. go test -tags simcheck ./internal/...
#                       suite again with runtime invariant audits live
#                       (buddy allocator, TLB arrays, VM accounting,
#                       scheduler task conservation, promise quiescence)
#   7. zero-alloc + bench smoke + engine gate + set-block oracles
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
#                       and FuzzSetAssocMatchesReference require the
#                       data-cache levels and TLB arrays, stored as set
#                       blocks, to match the parallel-array reference
#                       layouts on every result, victim, tag, stamp,
#                       clock and counter
#   8. expdriver -j diff
#                       a bench-scale campaign subset run at -j 1 and
#                       -j 4 must be byte-identical on every surface
#   9. bulk-engine equivalence
#                       the same campaign subset with the bulk path
#                       force-disabled (GRAPHMEM_NO_BULK=1) must be
#                       byte-identical to the bulk-enabled run
#  10. gather-engine equivalence
#                       the same campaign subset with the gather path
#                       force-disabled (GRAPHMEM_NO_GATHER=1) must be
#                       byte-identical to the gather-enabled run
#  11. snapshot-layer equivalence
#                       the rollout-bearing campaign subset with the
#                       checkpoint/fork layer disabled
#                       (GRAPHMEM_NO_SNAPSHOT=1) must be byte-identical
#                       to the forking run at -j 1 and -j 4, and forking
#                       must cut the subset's wall-clock by >= 2x
#  12. sharded-engine equivalence
#                       the ext-shard campaign with fork bring-up
#                       disabled (GRAPHMEM_NO_SNAPSHOT=1, every extra
#                       shard replays its load phase) must be byte-identical
#                       to the forking run across GOMAXPROCS (which sizes
#                       each sharded cell's worker pool) and -j worker
#                       counts, and fork bring-up must cut single-run
#                       wall-clock by >= 2x (TestShardBringupSpeedup,
#                       in-process paired timing)
#  13. frame-metadata budget
#                       unsafe.Sizeof(frameInfo{}) <= 8 (compile-time
#                       array assert plus TestFrameInfoSize), and the
#                       packed/unpacked differential property test
#  14. paper-geometry gate
#                       the ext-fullscale campaign ({Kron25,Twit} x
#                       {BFS,PR} x {THP,4KB}) stages >= 100 GB nodes,
#                       finishes inside its wall/host-memory budgets,
#                       and renders the flagship node's footprint table
#                       (TestFullscaleGeometryGate); the gate points
#                       GRAPHMEM_CKPT_DIR at a persistent store, and
#                       reruns sharing it reload staged nodes instead of
#                       re-faulting them, which saves no time at this
#                       scale: on a 2-vCPU host a warm run took 163.0 s
#                       against 149.6 s and 190.8 s cold. The
#                       footprint's bytes-per-simulated-GiB ceiling is
#                       TestFullscaleFootprintCeiling, which needs no
#                       opt-in and runs in step 6 (it skips under -race)
#  15. persistent checkpoint store
#                       one expdriver process populates a -ckpt-dir
#                       store, a second process reloads every load
#                       phase from it — both at -j 1 and -j 4 — and
#                       every byte surface must match the store-less
#                       run of step 8; then the in-process perf gate
#                       (TestCkptReloadSpeedup) requires loading a
#                       container to beat re-staging the node by >= 3x,
#                       and a 30s FuzzLoadCheckpoint run requires every
#                       payload the loader accepts to re-save to its
#                       own bytes and run without panicking; a 30s
#                       FuzzAllocFree run forks the node mid-sequence
#                       and requires the original and a replaying fork
#                       to end byte-identical and an idle fork to keep
#                       its fork-time image
#  16. docsplice -check
#                       EXPERIMENTS.md's measured blocks match results/
#  17. benchmark self-test
#                       the benchmark module's own tests (cd bench &&
#                       go test .) run every workload at test size and
#                       check its outputs against bench/testdata's
#                       golden digests, so a change that moves a
#                       simulated counter fails here
#  18. inputs independent of GOMAXPROCS
#                       the generator, CSR and reordering packages'
#                       tests (the sequential reference oracles and the
#                       graph digests recorded from them) pass at
#                       GOMAXPROCS 1, 2 and 4: generation and relabeling
#                       split their work across GOMAXPROCS workers, and
#                       the split must not reach a byte
#  19. code-line count (informational, not a gate)
#                       scripts/loc.sh prints the non-blank, non-comment
#                       line count of non-test Go under internal/ and
#                       cmd/ that ROADMAP.md records
#
# Steps 8-12 and 15 compare campaigns through one helper, campaign, that
# runs expdriver into stdout, markdown and CSV and diffs all three
# against a reference run. The wall-clock gates (steps 7, 11, 12 and 15)
# are same-host ratios; the Go tests among them run only when
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

echo "== zero-alloc fast path + bench smoke + engine gate + set-block oracles"
go test -run 'TestAccessFastPathZeroAllocs|TestAccessRunZeroAllocs|TestAccessGatherZeroAllocs' -count=1 ./internal/machine
go test -run '^$' -bench '^Benchmark' -benchtime 1x ./internal/machine ./internal/memsys ./internal/workload
GRAPHMEM_SPEEDUP_GATE=1 go test -run '^TestAccessEngineSpeedup$' -count=1 -v ./internal/machine
go test -run '^$' -fuzz '^FuzzLevelMatchesReference$' -fuzztime 30s ./internal/cache
go test -run '^$' -fuzz '^FuzzSetAssocMatchesReference$' -fuzztime 30s ./internal/tlb

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

echo "== expdriver determinism: bench-scale -j 1 vs -j 4"
subset="fig5,pagecache"
campaign j1 - "$expdriver" -exp "$subset" -j 1
campaign j4 j1 "$expdriver" -exp "$subset" -j 4

echo "== bulk-engine equivalence: GRAPHMEM_NO_BULK=1 vs bulk-enabled"
campaign nobulk j1 GRAPHMEM_NO_BULK=1 "$expdriver" -exp "$subset" -j 1

echo "== gather-engine equivalence: GRAPHMEM_NO_GATHER=1 vs gather-enabled"
campaign nogather j1 GRAPHMEM_NO_GATHER=1 "$expdriver" -exp "$subset" -j 1

echo "== snapshot-layer equivalence: GRAPHMEM_NO_SNAPSHOT=1 vs forking"
# ext-rollout is the fork-heavy experiment (one load phase, five forked
# candidates per dataset); fig5+pagecache ride along so the diff also
# covers checkpointed full runs and page-cache owner cloning.
snap_subset="fig5,pagecache,ext-rollout"
snap_start=$(date +%s)
campaign snap1 - "$expdriver" -exp "$snap_subset" -j 1
snap_elapsed=$(( $(date +%s) - snap_start ))
campaign snap4 snap1 "$expdriver" -exp "$snap_subset" -j 4
nosnap_start=$(date +%s)
campaign nosnap snap1 GRAPHMEM_NO_SNAPSHOT=1 "$expdriver" -exp "$snap_subset" -j 1
nosnap_elapsed=$(( $(date +%s) - nosnap_start ))
echo "snapshot on: ${snap_elapsed}s, off: ${nosnap_elapsed}s"
if [ "$nosnap_elapsed" -lt $(( 2 * snap_elapsed )) ]; then
    echo "snapshot layer speedup below 2x (on=${snap_elapsed}s off=${nosnap_elapsed}s): forks are not amortizing the load phase" >&2
    exit 1
fi

echo "== sharded-engine equivalence: GRAPHMEM_NO_SNAPSHOT=1 vs fork bring-up"
# ext-shard is the sharded-engine experiment: every cell runs its kernel
# phase as 16 owner-computes shards on a big-memory staged node, so the
# fork-vs-replay margin the hatch controls is first-order. GOMAXPROCS
# (which sizes each sharded cell's worker pool) and -j (the campaign
# knob) are both varied to prove neither changes a byte of output.
campaign shard1 - GOMAXPROCS=4 "$expdriver" -exp ext-shard -j 1
campaign shard4 shard1 GOMAXPROCS=2 "$expdriver" -exp ext-shard -j 4
campaign noshard shard1 GRAPHMEM_NO_SNAPSHOT=1 GOMAXPROCS=4 "$expdriver" -exp ext-shard -j 1
# The speedup gate times a single run in-process (min-of-3 per side):
# a whole-campaign subprocess wall-clock would fold dataset generation
# and sibling cells into both sides and drown the margin in host noise.
GRAPHMEM_SPEEDUP_GATE=1 go test -run '^TestShardBringupSpeedup$' -count=1 -v ./internal/exp

echo "== frame-metadata budget: 8 bytes per frame, packed == unpacked"
go test -run 'TestFrameInfoSize|TestFrameInfoPackRoundTrip' -count=1 ./internal/memsys
go test -run '^TestPackedFrameInfoDifferential$' -count=1 ./internal/machine

echo "== paper-geometry gate: ext-fullscale wall/host-memory budgets"
# GRAPHMEM_CKPT_DIR may be inherited from the environment to persist the
# staged 100 GB+ node images across CI repetitions; by default the store
# lives and dies with this run's scratch dir.
GRAPHMEM_FULLSCALE=1 GRAPHMEM_CKPT_DIR="${GRAPHMEM_CKPT_DIR:-$tmp/fsckpt}" \
    go test -run '^TestFullscaleGeometryGate$' -count=1 -v -timeout 900s ./internal/exp

echo "== persistent checkpoint store: cross-process reload equivalence + speedup gate"
# One process stages and saves, a second process reloads from the store;
# both must render the exact bytes of step 8's store-less run, at -j 1
# and -j 4. The store directory is shared, content-addressed by cell key.
campaign store0 j1 "$expdriver" -exp "$subset" -j 1 -ckpt-dir "$tmp/store"
campaign store1 j1 "$expdriver" -exp "$subset" -j 1 -ckpt-dir "$tmp/store"
campaign store4 j1 "$expdriver" -exp "$subset" -j 4 -ckpt-dir "$tmp/store"
if [ -z "$(ls "$tmp/store"/*.ckpt 2>/dev/null)" ]; then
    echo "checkpoint store is empty after a populating campaign" >&2
    exit 1
fi
# The >= 3x reload-vs-restage gate times both sides in-process
# (min-of-3): subprocess wall-clocks would fold compilation, dataset
# generation, and kernel phases into both sides and drown the margin.
GRAPHMEM_SPEEDUP_GATE=1 go test -run '^TestCkptReloadSpeedup$' -count=1 -v ./internal/exp
# Bounded fuzzing of the loader: every payload it accepts must re-save
# to exactly its own bytes and run without panicking.
go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 30s ./internal/core
# Bounded fuzzing of copy-on-write forks of the physical node: a fork and
# its original never see each other's writes.
go test -run '^$' -fuzz '^FuzzAllocFree$' -fuzztime 30s ./internal/memsys

echo "== docsplice -check (EXPERIMENTS.md in sync with results/)"
go run ./cmd/docsplice -doc EXPERIMENTS.md -results results/expdriver_full.txt -check

echo "== benchmark self-test (bench/ outputs vs golden digests)"
(cd bench && go test -count=1 .)

echo "== inputs independent of GOMAXPROCS (generators, CSR, reordering)"
go test -count=1 -cpu 1,2,4 ./internal/gen ./internal/graph ./internal/reorder

echo "== code-line count (informational)"
./scripts/loc.sh || true

echo "CI PASS"
