#!/usr/bin/env bash
# Runs the repository benchmark in alternating pairs: a parent revision
# against the working tree, for judging a performance change on a shared,
# noisy host.
#
#   scripts/benchpairs.sh PARENT_REV [PAIRS] [WORKLOAD] [SEED]
#
# PAIRS defaults to 10, WORKLOAD to link-reactive, SEED to 1; each run
# lasts BENCHMARK.json's run_seconds. SEED may be a range FIRST-LAST: pair
# i then runs at seed FIRST+i-1, cycling through the range.
#
# PARENT_REV is checked out into a temporary git worktree (removed on
# exit); the change is the working tree as it is. Both sides run
# bench/run.sh from their own checkout, so each builds its own binary.
# Pair i runs the parent first when i is odd and the change first when i
# is even, so a slow phase of the host hits both sides alike.
#
# For every run it prints the calibrated throughput, the wall-clock
# throughput, the calibration-loop time (cal_ms), alloc_B_per_unit and
# setup_s from results.jsonl, and per side the address of the benchmark's main.calLoop:
# code layout can move that loop's speed, and with it every calibrated
# number, while wall-clock throughput stays put. Results files stay under
# the temporary directory and are removed with it; nothing under bench/ is
# written.
set -euo pipefail

usage="usage: scripts/benchpairs.sh PARENT_REV [PAIRS] [WORKLOAD] [SEED]"
parent_rev=${1:?$usage}
pairs=${2:-10}
workload=${3:-link-reactive}
seeds=${4:-1}
first_seed=${seeds%-*}
last_seed=${seeds#*-}

root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(sed -nE 's/.*"run_seconds": *([0-9.]+).*/\1/p' BENCHMARK.json)
seconds=${seconds:-25}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpairs.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$tmp/parent" "$parent_rev"

# field FILE — pulls "calibrated wall cal_ms alloc setup sha" from the last
# results record.
field() {
	tail -n 1 "$1" | sed -nE 's/.*"outputs_sha":"([0-9a-f]{12}).*"cal_ms":([0-9.e+-]+).*"wall_throughput":([0-9.e+-]+).*"alloc_B_per_unit":\{"value":([0-9.e+-]+).*"setup_s":\{"value":([0-9.e+-]+).*"throughput":\{"value":([0-9.e+-]+).*/\6 \3 \2 \4 \5 \1/p'
}

# run SIDE DIR — one benchmark run of the checkout in DIR.
run() {
	local side=$1 dir=$2
	if ! (cd "$dir" && bash bench/run.sh -workload "$workload" -seed "$seed" \
		-seconds "$seconds" -out "$tmp/out-$side") >"$tmp/$side.log" 2>&1; then
		echo "benchpairs: $side run failed:" >&2
		tail -n 20 "$tmp/$side.log" >&2
		exit 1
	fi
	local vals
	vals=$(field "$tmp/out-$side/results.jsonl")
	printf '%-5s %-5s %-7s %s\n' "$pair" "$seed" "$side" "$vals"
	echo "$side $vals" >>"$tmp/runs"
}

echo "benchpairs: $workload seeds $seeds, $pairs pairs of ${seconds}s runs; parent $(git -C "$tmp/parent" rev-parse --short HEAD), change = working tree"
printf '%-5s %-5s %-7s %s\n' pair seed side "throughput(units/cal-s) wall_throughput cal_ms alloc_B_per_unit setup_s outputs_sha"
for pair in $(seq 1 "$pairs"); do
	seed=$((first_seed + (pair - 1) % (last_seed - first_seed + 1)))
	if ((pair % 2)); then
		run parent "$tmp/parent"
		run change "$root"
	else
		run change "$root"
		run parent "$tmp/parent"
	fi
done

for side in parent change; do
	dir=$root
	[[ $side == parent ]] && dir=$tmp/parent
	addr=$(go tool nm "$dir/.bench_build/reactivejam-bench" | awk '$3 == "main.calLoop" { print "0x" $1 }')
	median() { awk -v c="$1" '$1 == s { print $c }' s="$side" "$tmp/runs" | sort -g |
		awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
	echo "$side: main.calLoop at $addr; median throughput $(median 2) units/cal-s, wall $(median 3), cal_ms $(median 4), alloc_B_per_unit $(median 5), setup_s $(median 6)"
done
# A pair is won when the change's calibrated throughput beats the parent's.
awk '$1 == "parent" { p[++np] = $2 } $1 == "change" { c[++nc] = $2 }
	END { w = 0; for (i = 1; i <= np && i <= nc; i++) if (c[i] > p[i]) w++; print "change wins " w " of " np " pairs" }' "$tmp/runs"
