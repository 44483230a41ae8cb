#!/usr/bin/env bash
# Repo CI: build, test, lint. All dependencies are vendored in-tree
# (vendor/), so this runs fully offline; --offline keeps cargo from
# touching the network at all. Clippy is optional tooling — skip
# gracefully where the component is not installed.
set -uo pipefail

cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

fail=0

run cargo build --release --offline --workspace || fail=1
run cargo test -q --offline --workspace || fail=1

# Conformance sweep (tier 2, see TESTING.md): a short fixed-seed sweep
# plus a replay of every committed corpus reproducer. Fails if any sweep
# point diverges from the oracle or a corpus case is no longer green.
run cargo run --release --offline -q -p acq-harness -- --seed 1 --cases 6 --check-corpus --no-write || fail=1

# Experiment drift gate (tier 2): every deterministic figure and the
# ablations rerun and must reproduce EXPERIMENTS_OUTPUT/ byte for byte, so
# an executor change that moves any published number fails here
# (~2.5 min on 2 cores).
run bash scripts/check_experiments.sh || fail=1

# Benchmark correctness gate (tier 2): a short run of every perfbench
# workload checks each batch's deltas against the caching-off engine and
# the oracle, so a walk that corrupts deltas fails here and not only in a
# benchmark run. Each workload runs on the default seed and on the held-out
# seed 20050405, a second stream through the duplicate-heavy delete paths.
# The gate itself must catch a planted tap-delete bug (exit 1) on every
# workload; that build goes to its own target directory so it never mixes
# with the measured one.
for w in chain3 burst-shift star4; do
  for seed in 1 20050405; do
    run cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$w" --seconds 1 --seed "$seed" --trace 0 || fail=1
  done
done
# The traced run drives the sharded runtime (1 and 2 shards, chain3's
# broadcast relation) through `ShardedEngine::try_process_batch` against the
# ordered reference.
run cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload chain3 --seconds 1 --trace 1 || fail=1
for w in chain3 burst-shift star4; do
  echo "==> perfbench $w with a planted tap-delete bug must exit 1"
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --target-dir perfbench/target/fault-injection --features fault-injection -- \
    --workload "$w" --seconds 1 --trace 0 --inject-fault skip-tap-deletes >/dev/null 2>&1
  status=$?
  if [ "$status" -ne 1 ]; then
    echo "planted fault on $w: exit $status, expected 1"
    fail=1
  fi
done

# Documentation gate: every public item is documented (missing_docs is
# enabled crate-side) and rustdoc warnings are errors.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace || fail=1

if cargo clippy --version >/dev/null 2>&1; then
  run cargo clippy --offline --workspace --all-targets -- -D warnings || fail=1
else
  echo "==> cargo clippy not installed; skipping lint"
fi

if [ "$fail" -ne 0 ]; then
  echo "CI FAILED"
  exit 1
fi
echo "CI OK"
