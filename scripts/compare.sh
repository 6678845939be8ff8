#!/usr/bin/env bash
# Paired benchmark comparison of a revision (the base) against the working
# tree (the change), by the rules of benchmark/README.md, "Comparing two
# commits".
#
#   scripts/compare.sh <rev> <workloads> [pairs] [seconds]
#
# <workloads> is one BENCHMARK.json workload name, a comma-separated list of
# them, or `all`. Builds the benchmark package once per side, both with the
# command BENCHMARK.json gives: at <rev>, exported with `git archive`, and
# in the working tree, exported too (tracked and untracked files, not
# ignored ones). Both exports are built at one path, one after the other,
# each into its own target directory: a binary embeds its sources' path,
# and crates built from two paths hash, name and lay out their code
# differently, so two builds of one commit from two paths differ in size
# and can differ in speed. Then, workload
# by workload, runs `pairs` (default 10) pairs of `--trace 0` runs of
# `seconds` (default 20) each. Both runs of a pair share a fresh seed, and
# the side that runs first alternates from pair to pair. Only the last
# stdout line of each run, the benchmark's JSON result line, is read.
#
# It prints one table per workload. For each end-to-end metric of
# BENCHMARK.json the table gives both medians over the runs, the base's
# quartiles, the pairs the change won (ties count for neither), the bound,
# the one-sided sign-test p-value of the wins, and a verdict:
#   gain          the change won at least 9 of every 10 pairs, and the
#                 medians differ by more than the base's interquartile range
#                 (rule 3); `(below 1 % floor)` follows it when the medians
#                 differ by less than 1 % of the base's, which rule 3 alone
#                 calls a gain when the base's runs barely spread;
#   unresolved    otherwise, where the base's interquartile range is wider
#                 than the bound, unless every change run is better than
#                 every base run (rule 4);
#   regression    the change's median is worse than the base's by more than
#                 the bound, or than rule 4's tighter limit for alternating
#                 pairs: wall and CPU time +10 %, peak RSS +5 %, set-up
#                 +10 % and +20 ms;
#   within bound  otherwise.
# Exits 1 when a run of any workload fails a fingerprint or an operation,
# or a metric of any workload regresses. Temporary files go under $TMPDIR
# (default /tmp) and are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/compare.sh <rev> <workload>[,<workload>...]|all [pairs] [seconds]" >&2
  exit 2
}
[ $# -ge 2 ] && [ $# -le 4 ] || usage
rev="$1" pairs="${3:-10}" seconds="${4:-20}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[[ "$seconds" =~ ^[0-9]+([.][0-9]+)?$ ]] || usage
workloads="$(python3 - "$2" <<'EOF'
import json, sys
names = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
asked = names if sys.argv[1] == "all" else sys.argv[1].split(",")
for w in asked:
    if w not in names:
        sys.exit(f"compare.sh: unknown workload {w!r}; BENCHMARK.json has {', '.join(names)}")
if len(set(asked)) != len(asked):
    sys.exit(f"compare.sh: a workload is named twice in {sys.argv[1]!r}")
print(" ".join(asked))
EOF
)" || exit 2
commit="$(git rev-parse --verify --quiet "$rev^{commit}")" || {
  echo "compare.sh: $rev names no commit" >&2
  exit 2
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The build half of BENCHMARK.json's command, run on the export in
# $work/src, into the target directory $work/<side>-target.
build() {
  cargo build --release --quiet --offline --manifest-path "$work/src/benchmark/Cargo.toml" \
    --target-dir "$work/$1-target"
}
echo "==> building the benchmark at $rev (${commit:0:12})" >&2
mkdir "$work/src"
git archive "$commit" | tar -xf - -C "$work/src"
build base
rm -rf "$work/src"
mkdir "$work/src"
echo "==> building the benchmark in the working tree" >&2
# Every file git would add, less those deleted from the working tree.
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do
    if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
  done |
  tar --null -T - -cf - | tar -xf - -C "$work/src"
build tree
base_bin="$work/base-target/release/benchmark"
change_bin="$work/tree-target/release/benchmark"
echo "==> binary sizes: base $(wc -c <"$base_bin") B, change $(wc -c <"$change_bin") B" >&2

# One run; appends its result line, prefixed by the workload, the side's
# name and the seed, to $work/results. The benchmark's progress on stderr
# goes to $work/stderr. A run that exits non-zero is reported with the
# results, not here.
run() {
  local workload="$1" side="$2" bin="$3" seed="$4" line
  line="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    2>>"$work/stderr" | tail -n 1)" || true
  printf '%s\t%s\t%s\t%s\n' "$workload" "$side" "$seed" "$line" >>"$work/results"
}

touch "$work/results"
for workload in $workloads; do
  first_seed=$((1000 + (RANDOM << 15 | RANDOM) % 1000000))
  echo "==> $workload: $pairs pair(s) of ${seconds} s runs, seeds $first_seed..$((first_seed + pairs - 1))" >&2
  for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
      echo "pair $((i + 1))/$pairs: base, then change" >&2
      run "$workload" base "$base_bin" "$seed"
      run "$workload" change "$change_bin" "$seed"
    else
      echo "pair $((i + 1))/$pairs: change, then base" >&2
      run "$workload" change "$change_bin" "$seed"
      run "$workload" base "$base_bin" "$seed"
    fi
  done
done

python3 - "$work/results" "$rev" $workloads <<'EOF'
import json, math, sys

results_path, rev, *workloads = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
# Rule 4's tighter limits for alternating pairs: (share of the base median,
# absolute slack in the metric's unit).
TIGHT = {"wall_s": (0.10, 0.0), "cpu_s": (0.10, 0.0),
         "peak_rss_mb": (0.05, 0.0), "setup_s": (0.10, 0.020)}
# A gain smaller than this share of the base median is flagged.
FLOOR = 0.01

runs = {w: {"base": {}, "change": {}} for w in workloads}
# Workloads with a failed run or a regressed metric.
bad = set()
for row in open(results_path):
    workload, side, seed, line = row.rstrip("\n").split("\t", 3)
    try:
        r = json.loads(line)
    except ValueError:
        print(f"{workload}: {side} run at seed {seed} printed no result line")
        bad.add(workload)
        continue
    if not r["correct"] or r["failed"]:
        print(f"{workload}: {side} run at seed {seed}: correct={r['correct']}, "
              f"{r['failed']} of {r['attempted']} operation(s) failed")
        bad.add(workload)
    runs[workload][side][seed] = {k: v["value"] for k, v in r["metrics"].items()}

def quantile(xs, q):
    # Type 7, as simcore::quantile and the benchmark's quartiles.
    xs = sorted(xs)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    return xs[lo] + (h - lo) * (xs[min(lo + 1, len(xs) - 1)] - xs[lo])

def sign_p(wins, losses):
    # One-sided: P(at least `wins` of wins + losses fair coin flips).
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n if n else 1.0

def table(workload):
    base, change = runs[workload]["base"], runs[workload]["change"]
    seeds = [s for s in base if s in change]
    if not seeds:
        print(f"{workload}: no pair has a result line on both sides")
        bad.add(workload)
        return
    print(f"{workload}: {rev} (base) against the working tree (change), "
          f"{len(seeds)} pair(s); medians over the runs of each run's median")
    cols = ("metric", "base", "change", "diff", "base q1-q3", "won", "bound", "p", "verdict")
    print("%-12s %10s %10s %8s %21s %6s %6s %7s  %s" % cols)
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        b = [base[s][name] for s in seeds]
        c = [change[s][name] for s in seeds]
        bm, cm = quantile(b, 0.5), quantile(c, 0.5)
        q1, q3 = quantile(b, 0.25), quantile(b, 0.75)
        # Positive = the change is worse.
        worse = sign * (cm - bm)
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        losses = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        share, slack = TIGHT.get(name, (bound, 0.0))
        allowed = min(bound * abs(bm), share * abs(bm) + slack)
        if wins >= 0.9 * len(seeds) and -worse > q3 - q1:
            verdict = "gain"
            if abs(cm - bm) < FLOOR * abs(bm):
                verdict += f" (below {100 * FLOOR:g} % floor)"
        elif q3 - q1 > bound * abs(bm) and not all(
                sign * (y - x) < 0 for x in b for y in c):
            verdict = "unresolved"
        elif worse > allowed:
            verdict = "regression"
            bad.add(workload)
        else:
            verdict = "within bound"
        diff = f"{100 * (cm - bm) / bm:+.1f}%" if bm else "n/a"
        print("%-12s %10.4g %10.4g %8s %10.4g-%-10.4g %3d/%-2d %5.0f%% %7.3g  %s" % (
            name, bm, cm, diff, q1, q3, wins, len(seeds), 100 * bound,
            sign_p(wins, losses), verdict))

for i, workload in enumerate(workloads):
    if i:
        print()
    table(workload)
if bad:
    print(f"\nfailed or regressed: {', '.join(sorted(bad))}")
sys.exit(1 if bad else 0)
EOF
