#!/usr/bin/env python3
"""Perf-regression gate over two snb-report JSON artifacts.

Compares a candidate report against a baseline and exits nonzero when the
candidate regressed past the configured thresholds:

  * driver throughput (ops_per_second) dropped more than
    --max-throughput-drop (fraction of baseline);
  * any shared op-type percentile (p50/p95/p99) inflated more than
    --max-latency-inflation (fraction of baseline) AND more than
    --latency-slack-ms absolute (the slack keeps micro-latencies from
    tripping the relative check on scheduler noise);
  * the schedule-compliance on-time fraction dropped more than
    --max-compliance-drop (absolute);
  * aggregate update-path throughput (the "update.*" ops' total count
    divided by their summed count x mean_ms wall time) dropped more than
    --max-update-throughput-drop (fraction of baseline). This guards
    the store's write path: a slower Add* transaction shows here even
    when reads dominate the mix. Engages only when both reports carry
    update rows totalling at least --min-count ops;
  * a shared op's hardware-counter ratios regressed: IPC dropped more
    than --max-ipc-drop (fraction of baseline), or LLC misses per kilo
    instruction inflated more than --max-llc-miss-inflation (fraction)
    AND more than --llc-miss-slack absolute. Counter ratios only exist
    in snb-report-v4 runs with live perf counters; when either report
    lacks them for an op, that op's counter checks are skipped — so
    wall-clock-only baselines keep working;
  * the candidate's sampling-profiler self-overhead exceeded
    --max-profiler-overhead (fraction of the profiled task-clock). This
    is an absolute gate on the candidate alone — no baseline profile is
    needed — and it only engages when the candidate ran the timer
    backend with at least --min-prof-samples samples (a 3-sample run
    cannot estimate overhead).

Only op types present in BOTH reports are compared, so baselines survive
query-mix additions. Accepts schema snb-report-v1 through v5 (v1 simply
has no compliance section to compare; the v3 validation section is not
a performance artifact and is ignored here).

Usage:
  scripts/compare_reports.py baseline.json candidate.json [thresholds...]

Exit codes: 0 = no regression, 1 = regression detected, 2 = bad input.
"""

import argparse
import json
import sys

PERCENTILES = ("p50_ms", "p95_ms", "p99_ms")
ACCEPTED_SCHEMAS = ("snb-report-v1", "snb-report-v2", "snb-report-v3",
                    "snb-report-v4", "snb-report-v5")


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    schema = doc.get("schema")
    if schema not in ACCEPTED_SCHEMAS:
        print(f"error: {path}: unexpected schema {schema!r}", file=sys.stderr)
        raise SystemExit(2)
    return doc


def op_table(doc):
    return {op["op"]: op for op in doc.get("ops", []) if op.get("count", 0) > 0}


def main():
    parser = argparse.ArgumentParser(
        description="diff two snb report.json files for perf regressions")
    parser.add_argument("baseline", help="baseline report.json")
    parser.add_argument("candidate", help="candidate report.json")
    parser.add_argument("--max-throughput-drop", type=float, default=0.3,
                        metavar="FRAC",
                        help="max allowed relative ops/s drop (default 0.3)")
    parser.add_argument("--max-latency-inflation", type=float, default=0.5,
                        metavar="FRAC",
                        help="max allowed relative p50/p95/p99 growth per op "
                             "(default 0.5)")
    parser.add_argument("--latency-slack-ms", type=float, default=1.0,
                        metavar="MS",
                        help="absolute growth below this never fails the "
                             "latency check (default 1.0)")
    parser.add_argument("--max-update-throughput-drop", type=float,
                        default=0.5, metavar="FRAC",
                        help="max allowed relative drop of aggregate "
                             "update.* ops/s (default 0.5)")
    parser.add_argument("--max-compliance-drop", type=float, default=0.05,
                        metavar="FRAC",
                        help="max allowed absolute on-time-fraction drop "
                             "(default 0.05)")
    parser.add_argument("--min-count", type=int, default=8, metavar="N",
                        help="skip ops with fewer samples in either report "
                             "(default 8)")
    parser.add_argument("--max-ipc-drop", type=float, default=0.2,
                        metavar="FRAC",
                        help="max allowed relative per-op IPC drop "
                             "(default 0.2; needs v4 counter fields)")
    parser.add_argument("--max-llc-miss-inflation", type=float, default=0.5,
                        metavar="FRAC",
                        help="max allowed relative growth of per-op LLC "
                             "misses per kilo instruction (default 0.5)")
    parser.add_argument("--llc-miss-slack", type=float, default=0.5,
                        metavar="MPKI",
                        help="absolute misses/kinstr growth below this never "
                             "fails the LLC check (default 0.5)")
    parser.add_argument("--min-hw-samples", type=int, default=8, metavar="N",
                        help="skip counter checks for ops with fewer "
                             "counter-attached samples (default 8)")
    parser.add_argument("--max-profiler-overhead", type=float, default=0.02,
                        metavar="FRAC",
                        help="max allowed candidate profiler self-overhead "
                             "as a fraction of task-clock (default 0.02)")
    parser.add_argument("--min-prof-samples", type=int, default=200,
                        metavar="N",
                        help="skip the overhead gate below this many "
                             "captured samples (default 200)")
    args = parser.parse_args()

    base = load_report(args.baseline)
    cand = load_report(args.candidate)
    regressions = []
    checks = 0

    # Throughput.
    base_tput = base.get("driver", {}).get("ops_per_second")
    cand_tput = cand.get("driver", {}).get("ops_per_second")
    if base_tput and cand_tput:
        checks += 1
        floor = base_tput * (1.0 - args.max_throughput_drop)
        if cand_tput < floor:
            regressions.append(
                f"throughput: {cand_tput:.0f} ops/s < floor {floor:.0f} "
                f"(baseline {base_tput:.0f}, max drop "
                f"{args.max_throughput_drop:.0%})")

    # Per-op percentiles over the intersection.
    base_ops = op_table(base)
    cand_ops = op_table(cand)
    for name in sorted(base_ops.keys() & cand_ops.keys()):
        b, c = base_ops[name], cand_ops[name]
        if min(b["count"], c["count"]) < args.min_count:
            continue
        for pct in PERCENTILES:
            if pct not in b or pct not in c:
                continue
            checks += 1
            ceiling = b[pct] * (1.0 + args.max_latency_inflation)
            if c[pct] > ceiling and c[pct] - b[pct] > args.latency_slack_ms:
                regressions.append(
                    f"{name} {pct}: {c[pct]:.3f} ms > ceiling {ceiling:.3f} "
                    f"(baseline {b[pct]:.3f}, max inflation "
                    f"{args.max_latency_inflation:.0%})")
        # Hardware-counter ratios (v4 runs with live counters only).
        if min(b.get("hw_samples", 0), c.get("hw_samples", 0)) \
                >= args.min_hw_samples:
            if "ipc" in b and "ipc" in c and b["ipc"] > 0:
                checks += 1
                floor = b["ipc"] * (1.0 - args.max_ipc_drop)
                if c["ipc"] < floor:
                    regressions.append(
                        f"{name} ipc: {c['ipc']:.3f} < floor {floor:.3f} "
                        f"(baseline {b['ipc']:.3f}, max drop "
                        f"{args.max_ipc_drop:.0%})")
            key = "llc_miss_per_kinstr"
            if key in b and key in c:
                checks += 1
                ceiling = b[key] * (1.0 + args.max_llc_miss_inflation)
                if c[key] > ceiling and c[key] - b[key] > args.llc_miss_slack:
                    regressions.append(
                        f"{name} {key}: {c[key]:.3f} > ceiling "
                        f"{ceiling:.3f} (baseline {b[key]:.3f}, max "
                        f"inflation {args.max_llc_miss_inflation:.0%})")

    # Aggregate update-path throughput: Σ count / Σ (count * mean_ms).
    # Guards the store's write path (the Add* transactions).
    def update_tput(ops):
        count = sum(o["count"] for n, o in ops.items()
                    if n.startswith("update.") and "mean_ms" in o)
        ms = sum(o["count"] * o["mean_ms"] for n, o in ops.items()
                 if n.startswith("update.") and "mean_ms" in o)
        return (count, count / (ms / 1000.0) if ms > 0 else None)

    base_ucount, base_utput = update_tput(base_ops)
    cand_ucount, cand_utput = update_tput(cand_ops)
    if (base_utput and cand_utput
            and min(base_ucount, cand_ucount) >= args.min_count):
        checks += 1
        floor = base_utput * (1.0 - args.max_update_throughput_drop)
        if cand_utput < floor:
            regressions.append(
                f"update throughput: {cand_utput:.0f} ops/s < floor "
                f"{floor:.0f} (baseline {base_utput:.0f}, max drop "
                f"{args.max_update_throughput_drop:.0%})")

    # Compliance (v2 only; absent section in either report = not compared).
    base_frac = base.get("compliance", {}).get("on_time_fraction")
    cand_frac = cand.get("compliance", {}).get("on_time_fraction")
    if base_frac is not None and cand_frac is not None:
        checks += 1
        floor = base_frac - args.max_compliance_drop
        if cand_frac < floor:
            regressions.append(
                f"compliance: on-time fraction {cand_frac:.4f} < floor "
                f"{floor:.4f} (baseline {base_frac:.4f})")

    # Profiler self-overhead: an absolute gate on the candidate (v5 runs
    # with a live timer backend only). The profiler must stay invisible;
    # a baseline is no defense for a 5%-overhead "always-on" profiler.
    prof = cand.get("profile", {})
    if (prof.get("backend") == "timer"
            and prof.get("captured", 0) >= args.min_prof_samples
            and prof.get("task_clock_ns", 0) > 0):
        checks += 1
        frac = prof.get("self_overhead_ns", 0) / prof["task_clock_ns"]
        if frac > args.max_profiler_overhead:
            regressions.append(
                f"profiler self-overhead: {frac:.2%} of task-clock > max "
                f"{args.max_profiler_overhead:.2%} "
                f"({prof.get('self_overhead_ns', 0)} ns over "
                f"{prof['task_clock_ns']} ns, "
                f"{prof.get('captured', 0)} samples)")

    print(f"compared {args.candidate} against {args.baseline}: "
          f"{checks} checks, {len(regressions)} regressions")
    for r in regressions:
        print(f"  REGRESSION: {r}")
    if not regressions:
        print("  OK: within thresholds")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
