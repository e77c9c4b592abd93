#!/usr/bin/env bash
# The measurement protocol a performance claim is judged by, as one
# command: N pairs of runs of the benchmark of record, one on a parent
# revision and one on this working tree, alternating which side goes
# first so drift of the machine falls on both, every report appended
# to one file per side, and at the end the --compare verdict (medians,
# quartiles, pairs won) of the change against the parent.
#
# The parent's committed files are exported with `git archive` into
# .bench_build/ and removed again on exit. The copy is plain files, not
# a checkout, so its binary carries no stamp of the parent commit. Each
# side builds and runs inside its own directory. Run via
# `make bench-pairs`.
set -euo pipefail

usage="usage: bench_pairs.sh <workload|all> <pairs> <parent-rev> [seed]"
workload=${1:?$usage}
pairs=${2:?$usage}
parent=${3:?$usage}
seed=${4:-42}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
sha="$(git rev-parse --verify "$parent^{commit}")"
tree="$root/.bench_build/parent-${sha:0:12}"
out="$root/.bench_build/pairs-$workload-seed$seed-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"
rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git archive "$sha" | tar -x -C "$tree"

# run <side> <dir>: one run, its report appended to <side>.jsonl,
# its end-to-end lines echoed with the side in front.
run() {
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --out "$out/$1.jsonl") |
		grep -E '^(== |  (setup_s|ingest_points_per_s|bytes_per_point|refresh_p50_ms|append_p50_ms|ops_attempted) )' |
		sed "s/^/[$1] /" || echo "[$1] run failed; its report, if any, still counts" >&2
}

for ((i = 1; i <= pairs; i++)); do
	echo "-- pair $i of $pairs"
	if ((i % 2)); then
		run parent "$tree"
		run change "$root"
	else
		run change "$root"
		run parent "$tree"
	fi
done
echo "-- reports in $out"
bash benchmark/run.sh --compare "$out/parent.jsonl" "$out/change.jsonl"
