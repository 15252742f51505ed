#!/usr/bin/env python3
"""Solver benchmark: time to a checked solution, split by module.

    python3 perfbench/run.py --workload march-n64 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all [--trace 1]

Run from the root of a checkout: the package is imported from ``src/``.
One workload runs in one process.  Within ``--seconds`` seconds it times
fresh set-up processes and repeats whole rounds of its body, checks every
round against the closed-form manufactured solution, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from a run whose calls into the package are wrapped in spans.  The inputs
are deterministic: ``--seed`` is recorded but changes nothing.
``--workload all`` runs every workload, each in its own process, and goes
on to the next one when a workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("march-n64", "study-small", "march-bc")
SETUP_PROBES = 4     # set-up processes before the rounds, and again after them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "newton_iters": "count",
                    "peak_rss_mb": "MB", "err_rho_l2": "1", "err_m_ls": "1"}


def _import_package() -> None:
    """Pin BLAS to one thread, then import mixedflow from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "mixedflow" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixedflow
    if Path(mixedflow.__file__).resolve().parent != SRC / "mixedflow":
        raise SystemExit(f"run.py: imported mixedflow from {mixedflow.__file__}")


def _setup_probe(name: str) -> None:
    _import_package()
    import workloads
    workloads.WORKLOADS[name].prepare()


def measure_setup(name: str) -> list[float]:
    """Wall times of fresh processes that import the package and build the inputs.

    No timeout: with one, ``subprocess`` polls the child in sleeps of up
    to 50 ms, which would quantize the figure.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", name], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def env_info() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh
                       if line.startswith("Threads:"))
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "os_threads": threads}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_package()
    import checks
    import workloads
    from mixedflow.solver import LinearSolveFailure, NonConvergence

    wl = workloads.WORKLOADS[name]
    # --seconds covers the set-up probes as well as the rounds, so that the
    # length of a run does not grow with the number of probes.
    t_run = time.perf_counter()
    setup_samples = [] if trace else measure_setup(name)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    inputs = wl.prepare()
    setup_spans = dict(tracer.self_s) if tracer else None
    workloads.warm_up()
    captured: list = []
    workloads.capture_harness_marches(captured)

    attempted = failed = 0
    correct = True
    problems: list[str] = []
    walls, cycles, good = [], [], []
    trailing_probes = sum(setup_samples)
    while True:
        t_cycle = time.perf_counter()
        captured.clear()
        attempted += wl.levels
        if tracer:
            tracer.reset()
        outcome = None
        t0 = time.perf_counter()
        try:
            outcome = wl.body(inputs, captured)
        except (NonConvergence, LinearSolveFailure) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        walls.append(wall)
        if outcome is None:
            failed += wl.levels
        else:
            fails = checks.check_outcome(wl, outcome)
            if fails:
                failed += wl.levels
                correct = False
                problems += fails
            else:
                good.append({
                    "wall": wall,
                    "newton": sum(d.newton_iterations for rec in outcome.marches
                                  for d in rec.diagnostics),
                    "errors": (outcome.err_rho, outcome.err_m),
                    "layers": tracer.layer_metrics(wall, setup_spans) if tracer else None})
        now = time.perf_counter()
        cycles.append(now - t_cycle)
        if now - t_run + statistics.median(cycles) + trailing_probes > seconds:
            break
    if not trace:
        setup_samples += measure_setup(name)

    metrics: dict = {}
    if good:
        if any((r["newton"], r["errors"]) != (good[0]["newton"], good[0]["errors"])
               for r in good):
            correct = False
            problems.append("rounds disagree on Newton iterations or errors")
        if tracer:
            metrics, notes = spans.summarize([r["layers"] for r in good])
            problems += notes
        else:
            values = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": statistics.median(r["wall"] for r in good),
                "newton_iters": good[0]["newton"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "err_rho_l2": good[0]["errors"][0],
                "err_m_ls": good[0]["errors"][1],
            }
            metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]}
                       for m, v in values.items()}
    # A round that fails at once repeats until --seconds: report each problem once.
    problems = [f"{line} (x{n})" if n > 1 else line
                for line, n in Counter(problems).items()]
    for line in problems:
        print(f"run.py: {name}: {line}", file=sys.stderr)
    print(json.dumps({"env": env_info()}))
    print(json.dumps({"detail": {"workload": name, "seed": seed, "trace": trace,
                                 "rounds": len(walls), "round_walls_s": walls,
                                 "setup_samples_s": setup_samples,
                                 "problems": problems}}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if good else 1


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One workload in its own process; its result object, or None if it printed none.

    A workload whose every round failed exits 1 but still prints its
    ``attempted`` and ``failed`` counts, so they are kept.
    """
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"run.py: {name} exited with {proc.returncode}", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return result if isinstance(result, dict) and "attempted" in result else None


def run_all(seed: int, seconds: float, trace: int) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        res = run_child(name, seed, seconds, trace)
        results[name] = res
        if res is None:
            print(f"{name:12s} no result")
            continue
        print(f"{name:12s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"{'':12s} {metric:34s} {mv['value']:>14.6g} {mv['unit']}")
    print(json.dumps(results))
    clean = all(r and r["correct"] and not r["failed"] for r in results.values())
    return 0 if clean else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
