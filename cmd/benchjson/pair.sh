#!/usr/bin/env bash
# Runs the regression-gated benchmark tier for this checkout (head) and for
# a base revision on the same host, alternating base and head runs, then
# diffs them with benchjson: ns/op against the base's same-host runs,
# allocs/op, B/op and events/run against BENCH_baseline.json.
#
#   make bench-diff [BENCH_BASE=REV] [BENCH_ROUNDS=N]
#
# make passes the tier's packages in BENCH_PKGS and REV as the argument.
# REV defaults to HEAD when the working tree differs from it (modified,
# staged or untracked files) and to HEAD^1 otherwise: the previous commit on
# a branch, the target branch's tip on a pull request's merge commit. A push
# of several commits is therefore gated on its last commit alone. The base
# tree is exported with git archive into a temporary directory, so nothing
# is left behind in the repository. BENCH_ROUNDS (default 4) base/head pairs
# of processes run, in ABBA order; each process runs every benchmark
# $count times, and each side is judged by its median over all its runs.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"
base=${1:-}
if [ -z "$base" ]; then
	if [ -z "$(git status --porcelain)" ]; then base=HEAD^1; else base=HEAD; fi
fi
rounds=${BENCH_ROUNDS:-4}
count=5
go=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/tree" "$tmp/bin-base" "$tmp/bin-head"
git archive "$base" | tar -x -C "$tmp/tree"
echo "bench-diff: base $(git rev-parse --short "$base"), $rounds alternating rounds of $count runs" >&2

pkgs=""
for p in ${BENCH_PKGS:?set by make bench-diff}; do
	p=${p#./}
	pkgs="$pkgs ${p%/}"
done
for p in $pkgs; do
	(cd "$tmp/tree" && $go test -c -o "$tmp/bin-base/${p##*/}.test" "./$p/")
	$go test -c -o "$tmp/bin-head/${p##*/}.test" "./$p/"
done

# run SIDE TREE appends one run of the tier to SIDE.out. Each binary runs in
# its own package directory, as go test would run it.
run() {
	for p in $pkgs; do
		(cd "$2/$p" && "$tmp/bin-$1/${p##*/}.test" -test.run '^$' -test.bench . -test.benchmem \
			-test.count $count -test.benchtime 200ms)
	done >>"$tmp/$1.out"
	(cd "$2/internal/scenario" && DFTMSN_SCALE_BENCH=1 "$tmp/bin-$1/scenario.test" \
		-test.run '^$' -test.bench 'BenchmarkRunLarge2000Idle$' -test.benchmem -test.benchtime 3x \
		-test.count $count) >>"$tmp/$1.out"
}
for ((i = 0; i < rounds; i++)); do
	# ABBA order, so neither side always runs on the warmer host.
	if ((i % 2 == 0)); then
		run base "$tmp/tree"
		run head "$root"
	else
		run head "$root"
		run base "$tmp/tree"
	fi
done
$go run ./cmd/benchjson -diff BENCH_baseline.json -ns-base "$tmp/base.out" <"$tmp/head.out"
