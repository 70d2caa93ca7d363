#!/usr/bin/env bash
# A/B comparison of two trees on the standalone benchmark (BENCHMARK.json).
#
#   scripts/ab.sh [options] BASE [HEAD]
#
# BASE is a git revision. HEAD is a git revision too, or, when omitted, the
# working tree this script sits in, as it is now (do not edit src/ while a
# series runs: perfbench/run.py rebuilds from it before every run). Each
# revision is extracted with `git archive` into the work directory, and
# perfbench/run.py builds its harness there on the first run.
#
# For every workload the script runs 10 pairs of runs, each as long as
# BENCHMARK.json's run_seconds. Pair i uses seed SEED+i for both trees and
# alternates which tree runs first, so drift on the box lands on both
# sides. It prints, per workload and end-to-end metric, each tree's median
# and interquartile range, the change of the median and how many pairs HEAD
# won.
#
# Options:
#   --seed N          seed of the first pair (default 1); pick seeds not
#                     used while writing the change
#   --workload W      run only workload W; repeat for several (default: all)
#   --claim METRIC    HEAD claims a gain on the end-to-end METRIC (such as
#                     cpu_us_per_op): it must be better in at least 9 of the
#                     10 pairs and its median must beat BASE's by more than
#                     BASE's interquartile range, on every workload run
#   --workdir DIR     extract and build the trees under DIR and keep them
#                     (default: a temporary directory, removed at exit)
#
# Exit status: 0 when every end-to-end metric of HEAD is within its
# BENCHMARK.json bound of BASE's median, no run failed an operation and
# any claim holds; 1 otherwise; 2 on a usage, extraction or build error.
# Run output (builds included) goes to ab.log in the work directory.
set -euo pipefail

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//' >&2
  exit 2
}

seed=1
claim=""
workdir=""
workloads=()
revs=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="${2:?}"; shift 2 ;;
    --workload) workloads+=("${2:?}"); shift 2 ;;
    --claim) claim="${2:?}"; shift 2 ;;
    --workdir) workdir="${2:?}"; shift 2 ;;
    -h|--help) usage ;;
    -*) echo "ab.sh: unknown option $1" >&2; usage ;;
    *) revs+=("$1"); shift ;;
  esac
done
[[ ${#revs[@]} -ge 1 && ${#revs[@]} -le 2 ]] || usage

root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ -z "${workdir}" ]]; then
  workdir="$(mktemp -d -t snb-ab.XXXXXX)"
  trap 'rm -rf "${workdir}"' EXIT
fi
mkdir -p "${workdir}"
workdir="$(cd "${workdir}" && pwd)"

# Extracts revision $1 into directory $2 (replacing an older extraction of
# another revision; a kept one of the same revision keeps its build).
extract() {
  local sha
  sha="$(git -C "${root}" rev-parse --verify "$1^{commit}")" || {
    echo "ab.sh: unknown revision $1" >&2
    exit 2
  }
  if [[ -f "$2/.ab-revision" && "$(cat "$2/.ab-revision")" == "${sha}" ]]; then
    return
  fi
  rm -rf "$2"
  mkdir -p "$2"
  git -C "${root}" archive "${sha}" | tar -x -C "$2"
  echo "${sha}" > "$2/.ab-revision"
}

extract "${revs[0]}" "${workdir}/base"
if [[ ${#revs[@]} -eq 2 ]]; then
  extract "${revs[1]}" "${workdir}/head"
  head_tree="${workdir}/head"
  head_name="${revs[1]}"
else
  head_tree="${root}"
  head_name="working tree"
fi

python3 - "${root}/BENCHMARK.json" "${workdir}/base" "${head_tree}" \
  "${revs[0]}" "${head_name}" "${seed}" "${claim}" "${workdir}/ab.log" \
  "${workloads[@]}" <<'EOF'
import json
import statistics
import subprocess
import sys

(bench_path, base_tree, head_tree, base_name, head_name, seed, claim,
 log_path) = sys.argv[1:9]
only = sys.argv[9:]


def die(message):
    print(f"ab.sh: {message}", file=sys.stderr)
    sys.exit(2)


bench = json.load(open(bench_path))
# The protocol's fixed shape: a claim is judged on 10 pairs of full-length
# runs and needs 9 wins among them.
pairs = 10
need = 9
seconds = bench["run_seconds"]
seed = int(seed, 0)
workloads = [w["name"] for w in bench["workloads"]]
for w in only:
    if w not in workloads:
        die(f"unknown workload {w!r}; known: {', '.join(workloads)}")
workloads = only or workloads
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
if claim and claim not in better:
    die(f"--claim names no end-to-end metric: {claim}")
log = open(log_path, "a")


def run(tree, workload, run_seed):
    """One perfbench run; returns its result line as a dict."""
    cmd = [sys.executable, f"{tree}/perfbench/run.py", "--workload", workload,
           "--seed", str(run_seed), "--seconds", str(seconds), "--trace", "0"]
    log.write(f"\n$ (cd {tree} && {' '.join(cmd)})\n")
    log.flush()
    done = subprocess.run(cmd, cwd=tree, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=log, text=True,
                          check=False)
    log.write(done.stdout)
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if not lines:
        die(f"no result from {tree} ({workload}, seed {run_seed}); "
            f"see {log_path}")
    return json.loads(lines[-1])


def value(result, name):
    metric = result["metrics"].get(name)
    if metric is None:
        die(f"result has no metric {name}")
    return metric["value"]


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def improves(metric, head, base):
    return head < base if better[metric] == "lower" else head > base


ok = True
print(f"BASE {base_name}, HEAD {head_name}: {pairs} pairs per workload, "
      f"{seconds:g} s runs, seeds {seed}-{seed + pairs - 1}")
for workload in workloads:
    base_runs, head_runs = [], []
    for i in range(pairs):
        order = [("base", base_tree), ("head", head_tree)]
        if i % 2:
            order.reverse()
        for side, tree in order:
            result = run(tree, workload, seed + i)
            (base_runs if side == "base" else head_runs).append(result)
            shown = " ".join(f"{n} {value(result, n):.4g}" for n in bounds)
            print(f"  {workload} pair {i + 1}/{pairs} seed {seed + i} "
                  f"{side}: {shown}, failed {result['failed']}", flush=True)

    failed = [r for r in base_runs + head_runs
              if r["failed"] or not r["correct"]]
    print(f"{workload}:")
    print(f"  {'metric':<16} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'change':>8} {'head won':>9}")
    for name, bound in bounds.items():
        base = [value(r, name) for r in base_runs]
        head = [value(r, name) for r in head_runs]
        b_med, h_med = statistics.median(base), statistics.median(head)
        b_q1, b_q3 = quartiles(base)
        h_q1, h_q3 = quartiles(head)
        wins = sum(improves(name, h, b) for h, b in zip(head, base))
        change = (h_med - b_med) / b_med if b_med else 0.0
        verdicts = []
        worse = -change if better[name] == "higher" else change
        if worse > bound:
            verdicts.append(f"WORSE than its bound {bound:.0%}")
            ok = False
        if name == claim:
            gap = abs(h_med - b_med)
            iqr = b_q3 - b_q1
            holds = (wins >= need and improves(name, h_med, b_med)
                     and gap > iqr)
            verdicts.append(
                f"claim {'holds' if holds else 'FAILS'} (needs {need} wins "
                f"and a gap {gap:.4g} above base IQR {iqr:.4g})")
            ok = ok and holds
        print(f"  {name:<16} {f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':>30} "
              f"{f'{h_med:.4g} [{h_q1:.4g}, {h_q3:.4g}]':>30} "
              f"{change:>+8.1%} {f'{wins}/{pairs}':>9}"
              + (f"  {'; '.join(verdicts)}" if verdicts else ""))
    if failed:
        print(f"  FAILED operations or output check in {len(failed)} runs")
        ok = False

print("ab.sh: PASS" if ok else "ab.sh: FAIL")
sys.exit(0 if ok else 1)
EOF
