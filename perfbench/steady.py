#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py [--workloads march-bc,study-small] [--runs 10]

For each workload, each of two sets makes ``--runs`` untraced runs and one
traced run of ``run_seconds`` each, every one in its own process with its
own seed (0, 1, 2, ...).  The report gives each end-to-end metric's median
and quartiles per set and checks, against the bounds in ``BENCHMARK.json``:

- the spread (q3 - q1) / median within each set is at most the bound (a
  spread above a third of the bound is flagged);
- the second set's median is not worse than the first's by more than the
  bound;
- the share of failed operations is the same in every run;
- ``newton_iters`` and the traced counts ``solver.linear_solves``,
  ``solver.fill_nnz`` and ``harness.march_calls`` repeat exactly.

It also states the tracing overhead, traced ``trace.wall_s`` minus
untraced ``wall_s``, and the traced ``trace.coverage``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import spans

SETS = 2
EXACT_TRACED = ("solver.linear_solves", "solver.fill_nnz", "harness.march_calls")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to take quartiles")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    problems: list[str] = []
    summary: dict = {}
    seed = 0
    for name in args.workloads.split(","):
        sets, traced = [], []
        for _ in range(SETS):
            results = []
            for _ in range(args.runs):
                res = run.run_child(name, seed, seconds, 0)
                seed += 1
                if res is None:
                    problems.append(f"{name}: a run gave no result")
                    continue
                results.append(res)
            sets.append(results)
            res = run.run_child(name, seed, seconds, 1)
            seed += 1
            if res is None:
                problems.append(f"{name}: a traced run gave no result")
            else:
                traced.append(res)
        summary[name] = _report(name, sets, traced, metrics, problems)
    for line in problems:
        print(f"FAIL {line}")
    print(json.dumps({"ok": not problems, "workloads": summary}))
    return 1 if problems else 0


def _report(name, sets, traced, metrics, problems) -> dict:
    everything = [r for s in sets for r in s] + traced
    sets = [[r for r in s if r["metrics"]] for s in sets]
    traced = [r for r in traced if r["metrics"]]
    shares = {r["failed"] / r["attempted"] for r in everything}
    if len(shares) > 1:
        problems.append(f"{name}: failed share differs between runs: {sorted(shares)}")
    if not all(r["correct"] for r in everything):
        problems.append(f"{name}: a run reported correct=false")
    out = {"runs": [len(s) for s in sets], "metrics": {}}
    print(f"== {name}: runs per set {out['runs']}, traced {len(traced)}")
    medians = {}
    for metric, m in metrics.items():
        rows = []
        for i, results in enumerate(sets):
            values = [r["metrics"][metric]["value"] for r in results]
            if len(values) < 2:
                problems.append(f"{name}: too few runs in set {i + 1} for quartiles")
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            rows.append({"q1": q1, "median": med, "q3": q3, "spread": spread,
                         "values": values})
            flag = ""
            if spread > m["bound"]:
                flag = "  FAIL spread > bound"
                problems.append(f"{name}: {metric} spread {spread:.4f} > {m['bound']}")
            elif spread > m["bound"] / 3:
                flag = "  (spread above a third of the bound)"
            print(f"  {metric:13s} set {i + 1}: median {med:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.4f} / bound {m['bound']}{flag}")
        out["metrics"][metric] = rows
        pooled = [v for row in rows for v in row["values"]]
        if len(rows) > 1:
            q1, med, q3 = quartiles(pooled)
            print(f"  {metric:13s} all {len(pooled)} runs: median {med:.6g} "
                  f"spread {(q3 - q1) / med if med else 0.0:.4f}")
        medians[metric] = [r["median"] for r in rows]
        if len(rows) >= 2:
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (rows[-1]["median"] - rows[0]["median"]) / rows[0]["median"]
            print(f"  {metric:13s} set {len(rows)} vs set 1: {change:+.4f} "
                  f"(worse if > {m['bound']})")
            if change > m["bound"]:
                problems.append(f"{name}: {metric} median worse by {change:.4f}")
    newton = {r["metrics"]["newton_iters"]["value"] for s in sets for r in s}
    if len(newton) > 1:
        problems.append(f"{name}: newton_iters differ: {sorted(newton)}")
    if traced and medians["wall_s"]:
        for metric in EXACT_TRACED:
            values = {r["metrics"][metric]["value"] for r in traced}
            if len(values) > 1:
                problems.append(f"{name}: {metric} differs: {sorted(values)}")
        tw = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in traced)
        cov = [r["metrics"]["trace.coverage"]["value"] for r in traced]
        wall = statistics.median(medians["wall_s"])
        out["trace_overhead_s"] = tw - wall
        out["trace_coverage_min"] = min(cov)
        print(f"  tracing overhead: {tw:.4f} s traced - {wall:.4f} s untraced = "
              f"{tw - wall:+.4f} s ({(tw - wall) / wall:+.1%}); "
              f"coverage min {min(cov):.4f}")
        if min(cov) < spans.COVERAGE_FLOOR:
            problems.append(f"{name}: trace.coverage {min(cov):.4f} "
                            f"below {spans.COVERAGE_FLOOR}")
        out["layers"] = {m: statistics.median(r["metrics"][m]["value"] for r in traced)
                         for m in traced[0]["metrics"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
