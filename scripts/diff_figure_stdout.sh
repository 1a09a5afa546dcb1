#!/usr/bin/env bash
# Diffs the stdout of the figure harnesses built in two trees.
#
# Simulated results are a pure function of the program and its seeds, so a
# change that only makes the simulator faster on the host must leave every
# line of every harness's stdout unchanged. Wall-clock lines go to stderr
# and are not compared.
#
# Usage: scripts/diff_figure_stdout.sh <base-bench-dir> <head-bench-dir>
#
# Each directory holds built harness binaries (e.g. build/bench). Harnesses
# run at HPRES_BENCH_SCALE=0.1 inside a temporary directory, so the
# BENCH_*.json files they write do not land in the tree. Exits 1 if any
# harness output differs.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <base-bench-dir> <head-bench-dir>" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

runs=(
  "fig08_microbench"
  "fig11_ycsb_latency"
  "fig12_ycsb_throughput"
  "ext_online_failure"
  "ext_gray_failure --shards=4"
  "ext_scaleout"
  "ext_scaleout --shards=3"
  "abl_ssd"
  "ext_recovery"
  "fig09_breakdown"
)

status=0
for run in "${runs[@]}"; do
  read -r bin args <<<"$run"
  for side in base head; do
    dir="$work/$side"
    mkdir -p "$dir"
    bindir=$base
    [ "$side" = head ] && bindir=$head
    # shellcheck disable=SC2086  # args is a word list on purpose
    (cd "$dir" && HPRES_BENCH_SCALE=0.1 "$bindir/$bin" $args \
      > "$work/$bin.$side.txt")
  done
  if diff -u "$work/$bin.base.txt" "$work/$bin.head.txt"; then
    echo "identical: $run"
  else
    echo "DIFFERS: $run"
    status=1
  fi
done
exit "$status"
