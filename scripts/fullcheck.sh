#!/usr/bin/env bash
# The paper-scale figure check (make full-check): runs each section of
# experiments.Figures() alone, at paper-scale budgets and sequentially
# (cmd/experiments -run SECTION -full -parallel 1), hashes its record
# lines (those matching ^[^ =]+=) with sha256 and compares the digest with
# the one committed for it in cmd/experiments/testdata/full.sha256. It
# prints each section's verdict and wall-clock time and exits 1 on any
# mismatch.
#
#   scripts/fullcheck.sh [-update]
#
# With -update it rewrites the digests from this tree instead, for an
# intended change of the paper-scale figures. The sections are the ones the
# digest file names; TestFullDigestsNameEveryFigure keeps them equal to
# experiments.Figures().
set -euo pipefail
cd "$(dirname "$0")/.."
digests=cmd/experiments/testdata/full.sha256
update=false
if [[ ${1:-} == -update ]]; then
	update=true
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go build -o "$dir/experiments" ./cmd/experiments

fail=0
while read -r want section; do
	start=$(date +%s.%N)
	got=$("$dir/experiments" -run "$section" -full -parallel 1 | grep -E '^[^ =]+=' | sha256sum | cut -d' ' -f1)
	wall=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
	echo "$got  $section" >>"$dir/digests"
	if [[ $got == "$want" ]]; then
		echo "full-check: $section ok (${wall} s)"
	elif $update; then
		echo "full-check: $section updated (${wall} s)"
	else
		echo "full-check: $section MISMATCH (${wall} s): got $got, want $want"
		fail=1
	fi
done <"$digests"

if $update; then
	cp "$dir/digests" "$digests"
fi
exit $fail
