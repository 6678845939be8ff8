#!/usr/bin/env bash
# Repo verification: a formatting gate, tier-1 acceptance (release build +
# full test suite) plus a zero-warning lint gate. Run from anywhere inside
# the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check (workspace, then the benchmark package)"
# The benchmark is a workspace of its own, so `--all` does not reach it.
cargo fmt --all --check
cargo fmt --check --manifest-path benchmark/Cargo.toml

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
# The root manifest's default-members cover every crate, so this runs the
# whole workspace's tests, the allocator (prop_fluid_equiv) and learner
# (predict) oracles included.
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints the tests, benches and examples too.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark package: tests + clippy"
# The benchmark is a workspace of its own that builds the crates by path
# (BENCHMARK.json); the root workspace commands above never compile it.
cargo test --manifest-path benchmark/Cargo.toml
cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> repro smoke: one figure through the parallel campaign engine"
cargo run --release -p bench --bin repro -- --quick --only fig1 --jobs 2

echo "==> repro: every paper experiment at Full fidelity"
# Exits non-zero if any paper check fails. Full --ext is not run here: its
# bora cross-machine check still fails at Full (24/25).
cargo run --release -p bench --bin repro -- --all --jobs 2

echo "==> repro smoke: store + resume round-trip is byte-identical"
# First run persists every point; second run must restore them all and
# export the same bytes (crash-consistency, DESIGN.md §12).
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir"' EXIT
cargo run --release -p bench --bin repro -- --quick --only fig4 \
  --store "$store_dir/store" --json "$store_dir/a.json"
cargo run --release -p bench --bin repro -- --quick --only fig4 \
  --store "$store_dir/store" --resume --json "$store_dir/b.json"
cmp "$store_dir/a.json" "$store_dir/b.json"

echo "==> model validation: oracles, metamorphic invariants, differential fuzz"
# Exits non-zero if any oracle check fails (repro gates on failed checks).
cargo run --release -p bench --bin repro -- --quick --validate --fuzz-budget 60 --jobs 2

echo "==> predict: harvest -> train -> cross-validate -> accuracy ratchet"
# Counter-driven interference predictor (DESIGN.md §16): Quick-fidelity
# harvest of the full pair grid, cross-validation over three shuffle
# seeds, leave-one-family-out placement ranking, all gated against
# PREDICT_baseline.json. Never lower the baseline to make this pass.
cargo run --release -p bench --bin repro -- --quick --predict-check --jobs 2

echo "==> predict smoke: rank placements for a held-out workload"
# End-to-end advisor path: train without any bora/cg rows, rank the four
# placements, and print ground truth + regret next to the prediction.
cargo run --release -p bench --bin repro -- rank-placements --quick --jobs 2 \
  --preset bora --workload cg --cores 8 --metric bw --ground-truth

echo "==> benchmark workloads: correct, and wall_s within 4x of the ledger"
# One short run of each BENCHMARK.json workload, checked against the
# committed ledger: a run fails if any rep failed, or if its wall_s median
# exceeds WALL_SLACK times the larger of the workload's two wall_s medians
# in benchmark/ledger.json. 4x is the same 1/4-of-median slack as the
# events/s floors this gate replaced: the host running this script is not
# the host that recorded the ledger, so the gate catches large
# regressions, not noise.
WALL_SLACK=4
for w in paper_campaign ring_allreduce_512 alltoall_512 contention_grid_1024 predict_check; do
  line="$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
  echo "$line"
  python3 - "$w" "$line" "$WALL_SLACK" <<'EOF'
import json, sys
w, line, slack = sys.argv[1], sys.argv[2], float(sys.argv[3])
run = json.loads(line)
with open("benchmark/ledger.json") as f:
    median = max(s[w]["wall_s"]["median"] for s in json.load(f)["sets"])
wall = run["metrics"]["wall_s"]["value"]
if not run["correct"]:
    sys.exit(f"FAIL: {w}: {run['failed']} of {run['attempted']} rep(s) failed")
if wall > slack * median:
    sys.exit(f"FAIL: {w}: wall_s {wall:.3f} s is over {slack:g}x "
             f"the ledger median {median:.3f} s")
print(f"{w}: wall_s {wall:.3f} s = {wall / median:.2f}x the ledger median")
EOF
done

echo "==> 1024-rank ring allreduce: recorded completion time, under a minute"
# --nocapture shows the VmRSS after each step and the peak (VmHWM) the gate
# prints; no bound is set.
cargo test --release -q -p mpisim --test ring_allreduce_1024 -- --ignored --nocapture

echo "==> OK: build, tests, lints and repro smoke all green"
