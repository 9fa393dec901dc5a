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
# PARENT_REV is exported with git archive into a temporary directory
# (removed on exit; TMPDIR chooses where); the change is the working tree
# as it is. Both sides run bench/run.sh from their own copy, so each builds
# its own binary.
# Pair i runs the parent first when i is odd and the change first when i
# is even, so a slow phase of the host hits both sides alike.
#
# For every run it prints the calibrated throughput, the wall-clock
# throughput, the calibration-loop time (cal_ms), alloc_B_per_unit and
# setup_s from results.jsonl, and per side the address of the benchmark's main.calLoop:
# code layout can move that loop's speed, and with it every calibrated
# number, while wall-clock throughput stays put. Next to it, per side, the
# address and 64-byte offset of the datapath's hot functions (the core's
# block loop, the correlator and its assembly template-bank loop, the
# quantizer and the sign-only quantizer, and the DDC resampler): a shift
# of these alone has moved a workload by 6% or more. Results files stay under
# the temporary directory and are removed with it; nothing under bench/ is
# written.
#
# The verdict applies the rule a claimed gain must meet: the change wins at
# least nine tenths of the pairs on calibrated throughput, and the medians
# differ by more than the parent's inter-quartile range. It prints both
# sides' quartiles, and the wins on wall-clock throughput as well: calibrated
# wins without wall-clock ones point at the calibration loop, not the
# program.
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
trap 'rm -rf "$tmp"' EXIT
parent_sha=$(git rev-parse --short "$parent_rev^{commit}")
mkdir "$tmp/parent"
git archive "$parent_rev" | tar -x -C "$tmp/parent"

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

echo "benchpairs: $workload seeds $seeds, $pairs pairs of ${seconds}s runs; parent $parent_sha, change = working tree"
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
	syms=$(go tool nm "$dir/.bench_build/reactivejam-bench")
	addr=$(awk '$3 == "main.calLoop" { print "0x" $1 }' <<<"$syms")
	hot=
	for f in 'core.(*Core).ProcessBlock' 'xcorr.(*Correlator).ProcessPacked' 'xcorr.popcntWords.abi0' 'fixed.QuantizeFused' 'fixed.SignBits' 'dsp.(*Resampler).Process'; do
		a=$(awk -v s="repro/internal/$f" '$2 == "T" && $3 == s { print $1 }' <<<"$syms")
		hot+="${hot:+; }$f "
		if [[ -n $a ]]; then hot+="at 0x$a (+$((16#$a % 64)) in its 64-byte line)"; else hot+="missing"; fi
	done
	median() { awk -v c="$1" '$1 == s { print $c }' s="$side" "$tmp/runs" | sort -g |
		awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
	echo "$side: main.calLoop at $addr; median throughput $(median 2) units/cal-s, wall $(median 3), cal_ms $(median 4), alloc_B_per_unit $(median 5), setup_s $(median 6)"
	echo "$side layout: $hot"
done
# A pair is won when the change beats the parent on that throughput; ties
# count for neither side. Quartiles interpolate linearly between ranks.
awk '
	$1 == "parent" { pc[++np] = $2; pw[np] = $3 }
	$1 == "change" { cc[++nc] = $2; cw[nc] = $3 }
	function q(v, n, p,   s, i, j, t, h) {
		for (i = 1; i <= n; i++) s[i] = v[i]
		for (i = 2; i <= n; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
		h = 1 + (n - 1) * p; i = int(h)
		return (i >= n) ? s[n] : s[i] + (h - i) * (s[i + 1] - s[i])
	}
	END {
		n = (np < nc) ? np : nc
		for (i = 1; i <= n; i++) { wc += cc[i] > pc[i]; ww += cw[i] > pw[i] }
		printf "change wins %d of %d pairs on calibrated throughput, %d of %d on wall-clock\n", wc, n, ww, n
		printf "parent quartiles (calibrated): %.6g %.6g %.6g\n", q(pc, np, .25), q(pc, np, .5), q(pc, np, .75)
		printf "change quartiles (calibrated): %.6g %.6g %.6g\n", q(cc, nc, .25), q(cc, nc, .5), q(cc, nc, .75)
		gap = q(cc, nc, .5) - q(pc, np, .5); iqr = q(pc, np, .75) - q(pc, np, .25)
		printf "median gap %+.6g vs parent IQR %.6g: %s\n", gap, iqr, (gap > iqr || -gap > iqr) ? "exceeds" : "does not exceed"
		printf "gain rule (>= 9/10 calibrated wins and gap > parent IQR): %s\n", (n > 0 && wc * 10 >= 9 * n && gap > iqr) ? "met" : "not met"
	}' "$tmp/runs"
