#!/bin/sh
# bench.sh — record the simulator's performance trajectory.
#
# Runs the per-access microbenchmark (BenchmarkAccess: the steady-state
# fast path — TLB hit, mapped page, L1D hit), the bulk-engine benchmark
# (BenchmarkAccessRun: edge-scan-shaped sequential runs through
# AccessRun, ns per simulated access), the gather-engine pair
# (BenchmarkAccessGather vs BenchmarkAccessGatherScalar: the same
# irregular neighbor-gather-shaped stream through AccessGather and
# through per-element Access), the end-to-end headline experiment
# benchmark, a timed bench-scale campaign subset, the snapshot-layer
# wall-clock pair (the same rollout-bearing subset with checkpoint
# forking on vs GRAPHMEM_NO_SNAPSHOT=1), and the sharded-engine
# single-run pair (TestShardBringupSpeedup: the kr25 ext-shard cell
# with fork bring-up vs GRAPHMEM_NO_SNAPSHOT=1 replay), and the
# paper-geometry footprint gate (TestFullscaleGeometryGate: the
# ext-fullscale 128 GB staged campaign, recording bytes_per_frame and
# the stats.Footprint totals and reduction), and the checkpoint-store
# reload gate (TestCkptReloadSpeedup: save/load GB/s and the
# reload-vs-restage speedup on the bench-scale fullscale cell), then
# merges the figures into BENCH_access.json via cmd/benchjson — updated
# keys change in place, keys this script does not know about survive —
# so subsequent PRs have a recorded baseline to compare against.
#
# Engine perf gates are ratio-based, never absolute: the bulk and
# gather engines must each beat their same-host scalar counterpart by
# >= 2x per simulated access. Absolute ns/op budgets would encode one
# reference machine; a same-binary same-host ratio survives any host
# while still catching an engine that quietly degrades to its scalar
# path. The recorded host context (CPU model, GOMAXPROCS, go version)
# keys each snapshot so cross-PR comparisons know when the host moved.
#
# Usage: ./scripts/bench.sh [output.json]
#   BENCHTIME=5s ./scripts/bench.sh    # longer micro runs
set -eu

cd "$(dirname "$0")/.."
out=${1:-BENCH_access.json}

echo "== BenchmarkAccess (internal/machine)" >&2
micro=$(go test -run '^$' -bench '^BenchmarkAccess$' -benchmem \
    -benchtime "${BENCHTIME:-2s}" ./internal/machine)
echo "$micro" >&2
ns=$(echo "$micro" | awk '$1 ~ /^BenchmarkAccess(-[0-9]+)?$/ {print $3}')
bop=$(echo "$micro" | awk '$1 ~ /^BenchmarkAccess(-[0-9]+)?$/ {print $5}')
aop=$(echo "$micro" | awk '$1 ~ /^BenchmarkAccess(-[0-9]+)?$/ {print $7}')
if [ -z "$ns" ]; then
    echo "bench.sh: could not parse BenchmarkAccess output" >&2
    exit 1
fi

echo "== BenchmarkAccessRun (internal/machine, bulk engine)" >&2
bulk=$(go test -run '^$' -bench '^BenchmarkAccessRun$' -benchmem \
    -benchtime "${BENCHTIME:-2s}" ./internal/machine)
echo "$bulk" >&2
bns=$(echo "$bulk" | awk '$1 ~ /^BenchmarkAccessRun(-[0-9]+)?$/ {print $3}')
baop=$(echo "$bulk" | awk '$1 ~ /^BenchmarkAccessRun(-[0-9]+)?$/ {print $7}')
if [ -z "$bns" ]; then
    echo "bench.sh: could not parse BenchmarkAccessRun output" >&2
    exit 1
fi

echo "== BenchmarkAccessGather vs scalar (internal/machine, gather engine)" >&2
gather=$(go test -run '^$' -bench '^BenchmarkAccessGather(Scalar)?$' -benchmem \
    -benchtime "${BENCHTIME:-2s}" ./internal/machine)
echo "$gather" >&2
gns=$(echo "$gather" | awk '$1 ~ /^BenchmarkAccessGather(-[0-9]+)?$/ {print $3}')
gsns=$(echo "$gather" | awk '$1 ~ /^BenchmarkAccessGatherScalar(-[0-9]+)?$/ {print $3}')
gaop=$(echo "$gather" | awk '$1 ~ /^BenchmarkAccessGather(-[0-9]+)?$/ {print $7}')
if [ -z "$gns" ] || [ -z "$gsns" ]; then
    echo "bench.sh: could not parse BenchmarkAccessGather output" >&2
    exit 1
fi

echo "== engine perf gates (same-host ratios, >= 2x)" >&2
# BenchmarkAccess is the scalar per-access cost; the bulk and gather
# engines amortize it over coalesced batches, so their ns-per-access
# must stay well under it on the same binary and host.
bulk_ratio=$(awk "BEGIN { printf \"%.2f\", $ns / $bns }")
gather_ratio=$(awk "BEGIN { printf \"%.2f\", $gsns / $gns }")
echo "bulk engine: ${bns}ns vs scalar ${ns}ns per access (${bulk_ratio}x)" >&2
echo "gather engine: ${gns}ns vs scalar ${gsns}ns per access (${gather_ratio}x)" >&2
if ! awk "BEGIN { exit !($ns >= 2 * $bns) }"; then
    echo "bench.sh: bulk engine is under 2x the scalar path (${bulk_ratio}x): AccessRun is no longer amortizing" >&2
    exit 1
fi
if ! awk "BEGIN { exit !($gsns >= 2 * $gns) }"; then
    echo "bench.sh: gather engine is under 2x its scalar path (${gather_ratio}x): AccessGather is no longer amortizing" >&2
    exit 1
fi

echo "== BenchmarkHeadline (end-to-end, 1 iteration)" >&2
headline=$(go test -run '^$' -bench '^BenchmarkHeadline$' -benchtime 1x .)
echo "$headline" >&2
hns=$(echo "$headline" | awk '$1 ~ /^BenchmarkHeadline(-[0-9]+)?$/ {print $3}')

echo "== campaign phase wall-clock (bench scale, fig5+pagecache, -j 1)" >&2
bin=$(mktemp)
go build -o "$bin" ./cmd/expdriver
campaign_start=$(date +%s)
"$bin" -scale bench -exp fig5,pagecache -j 1 >/dev/null
campaign_end=$(date +%s)
wall=$((campaign_end - campaign_start))

echo "== snapshot-layer wall-clock (bench scale, fig5+pagecache+ext-rollout, -j 1)" >&2
snap_start=$(date +%s)
"$bin" -scale bench -exp fig5,pagecache,ext-rollout -j 1 >/dev/null
snap_wall=$(( $(date +%s) - snap_start ))
nosnap_start=$(date +%s)
GRAPHMEM_NO_SNAPSHOT=1 "$bin" -scale bench -exp fig5,pagecache,ext-rollout -j 1 >/dev/null
nosnap_wall=$(( $(date +%s) - nosnap_start ))
speedup=$(awk "BEGIN { printf \"%.2f\", $nosnap_wall / ($snap_wall > 0 ? $snap_wall : 1) }")
echo "snapshot on: ${snap_wall}s, off: ${nosnap_wall}s (speedup ${speedup}x)" >&2

rm -f "$bin"

echo "== sharded-engine single-run wall-clock (bench scale, kr25 ext-shard cell)" >&2
gate=$(GRAPHMEM_SPEEDUP_GATE=1 go test -run '^TestShardBringupSpeedup$' \
    -count=1 -v ./internal/exp)
echo "$gate" >&2
shard_line=$(echo "$gate" | grep shard_bringup)
fork_ms=$(echo "$shard_line" | sed 's/.*fork_ms=\([0-9]*\).*/\1/')
replay_ms=$(echo "$shard_line" | sed 's/.*replay_ms=\([0-9]*\).*/\1/')
shard_speedup=$(echo "$shard_line" | sed 's/.*speedup=\([0-9.]*\).*/\1/')
if [ -z "$fork_ms" ] || [ -z "$replay_ms" ] || [ -z "$shard_speedup" ]; then
    echo "bench.sh: could not parse TestShardBringupSpeedup output" >&2
    exit 1
fi
shard_wall=$(awk "BEGIN { printf \"%.2f\", $fork_ms / 1000 }")
noshard_wall=$(awk "BEGIN { printf \"%.2f\", $replay_ms / 1000 }")

echo "== frame-metadata byte budget (TestFrameInfoSize)" >&2
go test -run '^TestFrameInfoSize$' -count=1 ./internal/memsys >&2
bytes_per_frame=8

echo "== checkpoint-store reload gate (bench scale, fullscale cell)" >&2
ckpt=$(GRAPHMEM_CKPT_GATE=1 go test -run '^TestCkptReloadSpeedup$' \
    -count=1 -v ./internal/exp)
echo "$ckpt" >&2
ckpt_line=$(echo "$ckpt" | grep ckpt_reload)
ckpt_save=$(echo "$ckpt_line" | sed 's/.*save_gbps=\([0-9.]*\).*/\1/')
ckpt_load=$(echo "$ckpt_line" | sed 's/.*load_gbps=\([0-9.]*\).*/\1/')
ckpt_speedup=$(echo "$ckpt_line" | sed 's/.*speedup=\([0-9.]*\).*/\1/')
ckpt_bytes=$(echo "$ckpt_line" | sed 's/.*bytes=\([0-9]*\).*/\1/')
if [ -z "$ckpt_save" ] || [ -z "$ckpt_load" ] || [ -z "$ckpt_speedup" ]; then
    echo "bench.sh: could not parse TestCkptReloadSpeedup output" >&2
    exit 1
fi

echo "== paper-geometry footprint (full scale, ext-fullscale campaign)" >&2
# Reuse the node images ci.sh staged when both point GRAPHMEM_CKPT_DIR
# at the same store; without one the gate restages from scratch.
fsgate=$(GRAPHMEM_FULLSCALE=1 GRAPHMEM_CKPT_DIR="${GRAPHMEM_CKPT_DIR:-}" \
    go test -run '^TestFullscaleGeometryGate$' \
    -count=1 -v -timeout 900s ./internal/exp)
echo "$fsgate" >&2
fs_line=$(echo "$fsgate" | grep footprint_fullscale)
fs_bytes=$(echo "$fs_line" | sed 's/.*total_bytes=\([0-9]*\).*/\1/')
fs_legacy=$(echo "$fs_line" | sed 's/.*legacy_bytes=\([0-9]*\).*/\1/')
fs_reduction=$(echo "$fs_line" | sed 's/.*reduction=\([0-9.]*\).*/\1/')
fs_wall=$(echo "$fs_line" | sed 's/.*wall_s=\([0-9.]*\).*/\1/')
if [ -z "$fs_bytes" ] || [ -z "$fs_reduction" ]; then
    echo "bench.sh: could not parse TestFullscaleGeometryGate output" >&2
    exit 1
fi

echo "== host context" >&2
host_cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
if [ -z "$host_cpu" ]; then
    host_cpu=$(uname -m)
fi
host_go=$(go env GOVERSION)
host_procs=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
echo "cpu: $host_cpu, go: $host_go, procs: $host_procs" >&2

go run ./cmd/benchjson -file "$out" \
    "host_cpu=$host_cpu" \
    "host_go_version=$host_go" \
    "host_gomaxprocs=$host_procs" \
    "microbenchmark=BenchmarkAccess (internal/machine, steady-state fast path)" \
    "ns_per_access=$ns" \
    "bytes_per_op=${bop:-0}" \
    "allocs_per_op=${aop:-0}" \
    "bulk_microbenchmark=BenchmarkAccessRun (internal/machine, edge-scan-shaped sequential runs)" \
    "ns_per_access_bulk=$bns" \
    "bulk_allocs_per_op=${baop:-0}" \
    "bulk_vs_scalar_ratio=$bulk_ratio" \
    "gather_microbenchmark=BenchmarkAccessGather vs BenchmarkAccessGatherScalar (internal/machine, irregular neighbor-gather-shaped stream)" \
    "ns_per_access_gather=$gns" \
    "ns_per_access_gather_scalar=$gsns" \
    "gather_allocs_per_op=${gaop:-0}" \
    "gather_vs_scalar_ratio=$gather_ratio" \
    "headline_benchmark=BenchmarkHeadline (-benchtime 1x, bench scale)" \
    "headline_ns_per_op=${hns:-0}" \
    "campaign=expdriver -scale bench -exp fig5,pagecache -j 1" \
    "campaign_wall_seconds=$wall" \
    "snapshot_campaign=expdriver -scale bench -exp fig5,pagecache,ext-rollout -j 1, forking vs GRAPHMEM_NO_SNAPSHOT=1" \
    "campaign_snapshot_wall_seconds=$snap_wall" \
    "campaign_nosnapshot_wall_seconds=$nosnap_wall" \
    "campaign_snapshot_speedup=$speedup" \
    "shard_single_run=TestShardBringupSpeedup (core.Run of the bench-scale kr25 ext-shard cell at 4 shard workers, fork bring-up vs GRAPHMEM_NO_SNAPSHOT=1 replay, min of 3)" \
    "run_shard_wall_seconds=$shard_wall" \
    "run_noshard_wall_seconds=$noshard_wall" \
    "run_shard_speedup=$shard_speedup" \
    "ckpt_store=TestCkptReloadSpeedup (bench-scale fullscale cell: ckpt.Save/LoadCheckpoint throughput and reload-vs-restage speedup, min of 3)" \
    "ckpt_save_gbps=$ckpt_save" \
    "ckpt_load_gbps=$ckpt_load" \
    "ckpt_reload_speedup=$ckpt_speedup" \
    "ckpt_image_bytes=$ckpt_bytes" \
    "footprint=stats.Footprint of the staged ext-fullscale cell (128 GB node, full scale) vs the legacy dense representation" \
    "bytes_per_frame=$bytes_per_frame" \
    "footprint_fullscale_bytes=$fs_bytes" \
    "footprint_fullscale_legacy_bytes=$fs_legacy" \
    "footprint_fullscale_reduction=$fs_reduction" \
    "footprint_fullscale_wall_seconds=$fs_wall"
echo "wrote $out" >&2
cat "$out"
