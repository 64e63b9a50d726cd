#!/bin/sh
# ab.sh — paired parent/change runs of the benchmark, judged by compare.
#
#   bash bench/ab.sh <parent-rev> [workload...]
#   PAIRS=10 SEED=1 bash bench/ab.sh HEAD~1 paper-full
#
# The change side is this working tree. The parent side is <parent-rev>
# exported with git archive into a temporary directory outside the
# repository, with its bench/ replaced by this tree's, so both sides run
# identical benchmark code with identical flags and seed. For each
# workload (default: all three) PAIRS pairs run (default 10), alternating
# which side goes first; then compare judges every end-to-end metric and
# its exit status is this script's. The records stay in the printed
# directory as parent.jsonl and change.jsonl.
set -eu

if [ $# -lt 1 ]; then
	echo "usage: bench/ab.sh <parent-rev> [workload...]" >&2
	exit 2
fi
rev=$1
shift
[ $# -gt 0 ] || set -- paper-bench paper-node paper-full
pairs=${PAIRS:-10}
seed=${SEED:-1}

repo=$(cd "$(dirname "$0")/.." && pwd)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$repo/BENCHMARK.json")
out=$(mktemp -d)
parent="$out/parent"
trap 'rm -rf "$parent"' EXIT
mkdir "$parent"
git -C "$repo" archive "$rev" | tar -x -C "$parent"
rm -rf "$parent/bench"
cp -R "$repo/bench" "$parent/bench"
echo "ab: $pairs pairs per workload at seed $seed; records in $out" >&2

side() { # side <tree> <records> <workload>
	(cd "$1" && bash bench/run.sh --workload "$3" --seed "$seed" --seconds "$seconds" \
		--trace 0 --out "$2" >/dev/null)
}

for w in "$@"; do
	i=0
	while [ "$i" -lt "$pairs" ]; do
		if [ $((i % 2)) -eq 0 ]; then
			side "$parent" "$out/parent.jsonl" "$w"
			side "$repo" "$out/change.jsonl" "$w"
		else
			side "$repo" "$out/change.jsonl" "$w"
			side "$parent" "$out/parent.jsonl" "$w"
		fi
		i=$((i + 1))
	done
done

cd "$repo"
bash bench/run.sh compare "$out/parent.jsonl" "$out/change.jsonl"
