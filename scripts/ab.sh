#!/usr/bin/env bash
# A/B benchmark: the working tree against a base revision, in pairs.
#
#   [TRACE=1] scripts/ab.sh <workload> <pairs> [seed] [base-rev]
#
# Builds perfbench for <base-rev> (default HEAD~1) in a temporary git
# worktree and for the working tree, each into its own target directory,
# then runs BENCHMARK.json's command for its run_seconds on the two builds
# alternately, swapping which side runs first on every pair. Prints every
# run, each pair's change/base ratios, each side's median and quartiles,
# the wins out of pairs for every end-to-end metric (ties count for
# neither side) and one verdict per metric, by the paired-run rule (the
# first that applies):
#
#   gain              the change wins at least 9/10 of the pairs and its
#                     median beats the base median by more than the base
#                     runs' interquartile range (0 for a deterministic
#                     metric such as heap_peak_mb, so any steady win counts)
#   worse than bound  the change's median is worse than the base median by
#                     more than the metric's BENCHMARK.json bound
#   unresolved        the runs of either side spread (IQR over median) wider
#                     than the bound, unless every change run beats every
#                     base run
#   within bound      otherwise
#
# Per-layer metrics have no bound: their verdict is gain or no gain.
# Exits 1 if any run fails its correctness gate.
#
# With TRACE=1 the runs are traced (`--trace 1`, a fixed-length run that
# ignores run_seconds) and the table covers BENCHMARK.json's per-layer
# metrics instead, e.g. `shard.speedup`, the only view of the sharded
# runtime.
#
# target/ab holds the worktree while the script runs, the two target
# directories and the run log, one JSON line per run.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: [TRACE=1] $0 <workload> <pairs> [seed] [base-rev]" >&2
  exit 2
fi
workload=$1
pairs=$2
seed=${3:-1}
base_rev=${4:-HEAD~1}
trace=${TRACE:-0}
if [ "$trace" != 0 ] && [ "$trace" != 1 ]; then
  echo "TRACE must be 0 or 1, not $trace" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
ab_dir=$root/target/ab
mkdir -p "$ab_dir"
worktree="$ab_dir/base-tree"
log="$ab_dir/$workload-seed$seed-trace$trace.jsonl"

cleanup() {
  git worktree remove --force "$worktree" >/dev/null 2>&1 || rm -rf "$worktree"
  git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$worktree" "$base_rev"

# BENCHMARK.json's command, with a target directory inserted before the
# program's own arguments.
bench_cmd() {
  python3 - "$1" <<'EOF'
import json, sys
cmd = json.load(open("BENCHMARK.json"))["command"]
cut = cmd.index("--")
print("\n".join(cmd[:cut] + ["--target-dir", sys.argv[1]] + cmd[cut:]))
EOF
}
run_seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t base_cmd < <(bench_cmd "$ab_dir/target-base")
mapfile -t head_cmd < <(bench_cmd "$ab_dir/target-head")

echo "==> building perfbench for $base_rev ($(git rev-parse --short "$base_rev")) and the working tree"
for side in base head; do
  tree=$root
  [ "$side" = base ] && tree=$worktree
  cargo build --release --offline --quiet --manifest-path "$tree/perfbench/Cargo.toml" \
    --target-dir "$ab_dir/target-$side"
done

: >"$log"
gate_failed=0
run_side() {
  local side=$1 pair=$2 tree=$root line
  local -a cmd=("${head_cmd[@]}")
  if [ "$side" = base ]; then
    tree=$worktree
    cmd=("${base_cmd[@]}")
  fi
  if ! line=$(cd "$tree" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
    --seconds "$run_seconds" --trace "$trace" | tail -n 1); then
    gate_failed=1
  fi
  printf '{"pair": %d, "side": "%s", "result": %s}\n' "$pair" "$side" "${line:-null}" >>"$log"
  echo "pair $pair $side: $line"
}

echo "==> $workload, seed $seed, trace $trace, $pairs pairs of runs"
for ((p = 1; p <= pairs; p++)); do
  if ((p % 2)); then
    run_side base "$p"
    run_side head "$p"
  else
    run_side head "$p"
    run_side base "$p"
  fi
done

python3 - "$log" "$trace" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
metrics = bench["per_layer" if sys.argv[2] == "1" else "end_to_end"]
runs = [json.loads(l) for l in open(sys.argv[1])]
by = {}
for r in runs:
    by.setdefault(r["pair"], {})[r["side"]] = r["result"]
pairs = sorted(p for p, s in by.items() if s.get("base") and s.get("head"))
bad = [(p, side) for p, s in by.items() for side, res in s.items()
       if not res or not res.get("correct") or res.get("failed", 0) != 0]
print(f"\n{len(pairs)} complete pairs; runs failing the gate: {bad or 'none'}")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3

def verdict(m, higher, wins, n, vals, base_q, head_q):
    """The paired-run verdict of one metric (see the header of this script)."""
    (bq1, bmed, bq3), (hq1, hmed, hq3) = base_q, head_q
    better = hmed > bmed if higher else hmed < bmed
    if better and 10 * wins >= 9 * n and abs(hmed - bmed) > bq3 - bq1:
        return "gain"
    if "bound" not in m:
        return "no gain"
    bound = m["bound"]
    # Relative worsening of the change's median (positive = worse).
    worse = ((bmed - hmed) if higher else (hmed - bmed)) / abs(bmed) if bmed else 0.0
    if worse > bound:
        return f"worse than bound ({worse:+.1%} > {bound:.0%})"

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))

    wide = max(spread(bq1, bmed, bq3), spread(hq1, hmed, hq3))
    base, head = vals["base"], vals["head"]
    dominates = (min(head) > max(base)) if higher else (max(head) < min(base))
    if wide > bound and not dominates:
        return f"unresolved (spread {wide:.1%} > bound {bound:.0%})"
    return f"within bound (median {abs(worse):.1%} {'better' if worse < 0 else 'worse'})"

for m in metrics if pairs else []:
    name, higher = m["name"], m["better"] == "higher"
    # A traced run reports only the layers its workload exercises.
    if any(name not in by[p][s]["metrics"] for p in pairs for s in ("base", "head")):
        continue
    vals = {s: [by[p][s]["metrics"][name]["value"] for p in pairs] for s in ("base", "head")}
    ratios = [h / b if b else float("nan") for b, h in zip(vals["base"], vals["head"])]
    wins = sum((h > b) if higher else (h < b) for b, h in zip(vals["base"], vals["head"]))
    bound = f", bound {m['bound']}" if "bound" in m else ""
    print(f"\n{name} ({m['unit']}, {m['better']} is better{bound})")
    print("  pair ratios head/base: " + " ".join(f"{r:.3f}" for r in ratios))
    for s in ("base", "head"):
        q1, med, q3 = quartiles(vals[s])
        print(f"  {s}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  runs "
              + " ".join(f"{v:.6g}" for v in vals[s]))
    bq1, bmed, bq3 = quartiles(vals["base"])
    hq1, hmed, hq3 = quartiles(vals["head"])
    change = f"{hmed / bmed - 1:+.1%} of base" if bmed else "n/a (base median 0)"
    print(f"  head wins {wins}/{len(pairs)}; median change {change};"
          f" |median diff| {abs(hmed - bmed):.6g} vs base IQR {bq3 - bq1:.6g}")
    print(f"  verdict: {verdict(m, higher, wins, len(pairs), vals, (bq1, bmed, bq3), (hq1, hmed, hq3))}")
EOF
exit "$gate_failed"
