#!/usr/bin/env bash
# Experiment drift gate: rerun every deterministic experiment (the figure
# binaries fig06–fig13 and `ablations`) in a temporary working directory
# and compare each CSV and telemetry snapshot byte for byte with the
# committed EXPERIMENTS_OUTPUT/. Fails on any difference, and on a file
# produced but not committed or committed but no longer produced.
#
#   scripts/check_experiments.sh
#
# shard_scaling is left out: its CSV records host wall-clock time. All
# other experiments run on the virtual cost clock, so their outputs are
# identical on every machine. About 2.5 minutes on a 2-core host.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

bins=(fig06_hit_prob fig07_selectivity fig08_update_probe fig09_num_joins
  fig10_join_cost fig11_plan_spectrum fig12_adaptivity fig13_memory ablations)

cargo build --release --offline --quiet -p acq-bench --bins
bin_dir=${CARGO_TARGET_DIR:-$root/target}/release

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for b in "${bins[@]}"; do
  echo "==> $b"
  (cd "$tmp" && "$bin_dir/$b" >"$tmp/$b.log" 2>&1) || {
    cat "$tmp/$b.log"
    echo "$b failed"
    exit 1
  }
done

fail=0
committed=$root/EXPERIMENTS_OUTPUT
fresh=$tmp/EXPERIMENTS_OUTPUT
for f in "$committed"/*.csv "$committed"/*.telemetry.json; do
  name=$(basename "$f")
  case $name in shard_scaling*) continue ;; esac
  if [ ! -e "$fresh/$name" ]; then
    echo "DRIFT: $name is committed but no experiment wrote it"
    fail=1
  elif ! cmp -s "$f" "$fresh/$name"; then
    echo "DRIFT: $name differs from a fresh run:"
    diff "$f" "$fresh/$name" | head -20 || true
    fail=1
  fi
done
for f in "$fresh"/*; do
  name=$(basename "$f")
  if [ ! -e "$committed/$name" ]; then
    echo "DRIFT: $name was written but is not committed"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "experiment outputs drifted; regenerate them from the repo root and review the diff"
  exit 1
fi
echo "experiment outputs match EXPERIMENTS_OUTPUT/"
