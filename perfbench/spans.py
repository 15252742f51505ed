"""Spans around the calls into each module of the package, from outside it.

``install`` replaces the module-level names that the package looks up at
call time (functions, class methods, and the ``spla`` module reference of
``mixedflow.solver``) with wrappers that open a span.  Spans nest on a
stack; a span's self time is its duration minus the durations of the spans
it opened.  The probes that measure LU fill and the linear residual run in
their own ``trace.probe`` span, outside the factor and solve spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

#: per-layer metric -> (kind, spans or counter it sums)
LAYER_METRICS = {
    "harness.march_calls": ("count", ["harness.march"]),
    "harness.self_s": ("self", ["harness.run_convergence", "harness.run_dependence",
                                "harness.builtin_problem"]),
    "solver.march_self_s": ("self", ["solver.march"]),
    "solver.newton_self_s": ("self", ["solver.newton"]),
    "solver.linear_solves": ("calls", ["solver.linear_solve"]),
    "solver.linear_self_s": ("self", ["solver.linear_solve"]),
    "solver.factor_s": ("self", ["solver.factor"]),
    "solver.trisolve_s": ("self", ["solver.trisolve"]),
    "solver.fill_nnz": ("count", ["solver.fill_nnz"]),
    "solver.linear_rel_residual_max": ("max", ["solver.linear_rel_residual"]),
    "assembly.init_s": ("self", ["assembly.init"]),
    "assembly.initial_state_s": ("self", ["assembly.initial_state"]),
    "assembly.residual_calls": ("calls", ["assembly.residual"]),
    "assembly.residual_s": ("self", ["assembly.residual"]),
    "assembly.jacobian_calls": ("calls", ["assembly.jacobian"]),
    "assembly.jacobian_s": ("self", ["assembly.jacobian"]),
    "constitutive.eval_calls": ("calls", ["constitutive.eval"]),
    "constitutive.eval_s": ("self", ["constitutive.eval"]),
    "mesh_fem.build_mesh_s": ("self", ["mesh_fem.build_mesh"]),
    "mesh_fem.norm_calls": ("calls", ["mesh_fem.norm"]),
    "mesh_fem.norm_s": ("self", ["mesh_fem.norm"]),
    "analysis.final_errors_s": ("self", ["analysis.final_errors"]),
    "trace.probe_s": ("self", ["trace.probe"]),
}
UNITS = {"self": "s", "calls": "count", "count": "count", "max": "1"}
DERIVED_UNITS = {"trace.coverage": "1", "trace.wall_s": "s"}
COVERAGE_FLOOR = 0.95


def summarize(per_round: list[dict]) -> tuple[dict, list[str]]:
    """Result metrics over rounds, and notes on anything that did not repeat.

    Times are medians over rounds, the linear residual is the maximum, and
    counts must be the same in every round.
    """
    kinds = {m: kind for m, (kind, _) in LAYER_METRICS.items()}
    units = {m: UNITS[k] for m, k in kinds.items()} | DERIVED_UNITS
    metrics, notes = {}, []
    for metric, unit in units.items():
        values = [r[metric] for r in per_round]
        kind = kinds.get(metric)
        if kind in ("calls", "count"):
            if len(set(values)) != 1:
                notes.append(f"{metric} differs between rounds: {values}")
            value = values[0]
        elif kind == "max":
            value = max(values)
        else:
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
    coverage = metrics["trace.coverage"]["value"]
    if coverage < COVERAGE_FLOOR:
        notes.append(f"trace.coverage {coverage:.3f} below {COVERAGE_FLOOR}")
    return metrics, notes


class Tracer:
    """Span stack with per-name call counts and self times."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)

    def push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def pop(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, fn, span: str, count: str | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            self.push(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()
        return wrapper

    def layer_metrics(self, wall: float, setup: dict) -> dict:
        """Per-layer values of one round whose traced wall time is ``wall``.

        ``setup`` holds the self times of the spans the run's one input build
        opened before its rounds (``harness.builtin_problem``,
        ``mesh_fem.build_mesh``).  They are added to their layers' times, so
        the layers that build inputs are measured on every workload;
        ``trace.coverage`` counts the round's spans only.
        """
        out = {}
        for metric, (kind, keys) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = sum(self.self_s[k] + setup.get(k, 0.0) for k in keys)
            elif kind == "calls":
                out[metric] = sum(self.calls[k] for k in keys)
            elif kind == "count":
                out[metric] = sum(self.counts[k] for k in keys)
            else:
                out[metric] = max(self.maxima[k] for k in keys)
        out["trace.coverage"] = sum(self.self_s.values()) / wall
        out["trace.wall_s"] = wall
        return out


class _TracedLU:
    """SuperLU factor whose ``solve`` is timed and whose residual is probed."""

    def __init__(self, lu, matrix, tracer: Tracer):
        self._lu, self._matrix, self._tracer = lu, matrix, tracer

    def solve(self, rhs, *args, **kwargs):
        tr = self._tracer
        tr.push("solver.trisolve")
        try:
            sol = self._lu.solve(rhs, *args, **kwargs)
        finally:
            tr.pop()
        tr.push("trace.probe")
        scale = float(np.linalg.norm(rhs))
        if scale > 0.0:
            rel = float(np.linalg.norm(self._matrix @ sol - rhs)) / scale
            tr.maxima["solver.linear_rel_residual"] = max(
                tr.maxima["solver.linear_rel_residual"], rel)
        tr.pop()
        return sol


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``mixedflow.solver`` only."""

    def __init__(self, real, tracer: Tracer):
        self._real, self._tracer = real, tracer

    def splu(self, matrix, *args, **kwargs):
        tr = self._tracer
        tr.push("solver.factor")
        try:
            lu = self._real.splu(matrix, *args, **kwargs)
        finally:
            tr.pop()
        tr.push("trace.probe")
        tr.counts["solver.fill_nnz"] += lu.L.nnz + lu.U.nnz
        tr.pop()
        return _TracedLU(lu, matrix, tr)

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer) -> None:
    """Wrap every call boundary the benchmark measures, for this process."""
    from mixedflow import analysis, assembly, constitutive, harness, mesh_fem, solver

    targets = [
        (harness, "run_convergence", "harness.run_convergence", None),
        (harness, "run_dependence", "harness.run_dependence", None),
        (harness, "builtin_problem", "harness.builtin_problem", None),
        (harness, "march", "solver.march", "harness.march"),
        (solver, "march", "solver.march", None),
        (solver, "newton_solve", "solver.newton", None),
        (solver.LinearSolver, "solve", "solver.linear_solve", None),
        (assembly.Assembler, "__init__", "assembly.init", None),
        (assembly.Assembler, "initial_state", "assembly.initial_state", None),
        (assembly.Assembler, "residual", "assembly.residual", None),
        (assembly.Assembler, "jacobian", "assembly.jacobian", None),
        (constitutive.GeneralizedPolynomial, "eval_F", "constitutive.eval", None),
        (constitutive.GeneralizedPolynomial, "eval_F_prime", "constitutive.eval", None),
        (harness, "build_mesh", "mesh_fem.build_mesh", None),
        (mesh_fem, "build_mesh", "mesh_fem.build_mesh", None),
        (solver, "norm", "mesh_fem.norm", None),
        (harness, "norm", "mesh_fem.norm", None),
        (analysis, "norm", "mesh_fem.norm", None),
        (harness, "final_time_errors", "analysis.final_errors", None),
        (analysis, "final_time_errors", "analysis.final_errors", None),
    ]
    for owner, attr, span, count in targets:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), span, count))
    solver.spla = _SplaProxy(solver.spla, tracer)
