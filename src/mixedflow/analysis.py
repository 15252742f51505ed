"""Error norms, convergence rates and randomized checks.

Two kinds of verification live here: deterministic post-processing of runs
(final-time errors, refinement rates) and randomized certification of the
structural results (the inequality suite over the constitutive witnesses
and the discrete Gronwall bound).  Generic constants
in the stability and error theorems are unknowable, so those checks are
expressed as boundedness and rate statements, never as literal inequalities
with invented constants.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .assembly import ProblemData, SystemState
from .constitutive import (GREATER_OR_EQUAL_KINDS, WITNESS_KINDS,
                           GeneralizedPolynomial, lemma_witness)
from .mesh_fem import ScalarP1Space, StructuredTriMesh, VectorP1Space, norm

__all__ = [
    "LevelResult",
    "final_time_errors",
    "rates",
    "gronwall_check",
    "sample_gronwall_sequences",
    "InequalityReport",
    "inequality_suite",
    "report_to_csv",
    "report_from_csv",
    "format_table",
]


@dataclass
class LevelResult:
    """Errors and rates of one refinement level."""

    n_cells: int
    h: float
    dt: float
    err_rho: float
    err_m: float
    rate_rho: float | None = None
    rate_m: float | None = None
    newton_total: int = 0


def final_time_errors(state: SystemState, data: ProblemData,
                      mesh: StructuredTriMesh) -> tuple[float, float]:
    """L2 density error and Ls momentum error at the final time.

    The density error is measured on the homogenized variable, i.e. against
    rho_exact - psi; the momentum error against the exact momentum, both by
    element quadrature.
    """
    if data.exact is None:
        raise ValueError("final_time_errors needs ProblemData.exact")
    t = state.t
    exact = data.exact

    def rho_bar_exact(pts):
        return np.asarray(exact.rho(pts, t), dtype=float) \
            - np.asarray(data.psi(pts, t), dtype=float)

    err_rho = norm(ScalarP1Space(mesh), state.rho_bar, 2.0, against=rho_bar_exact)
    s = data.law.spec.s
    err_m = norm(VectorP1Space(mesh), state.m, s,
                 against=lambda pts: np.asarray(exact.m(pts, t), dtype=float))
    return err_rho, err_m


def rates(levels: Sequence[LevelResult]) -> list[LevelResult]:
    """Fill the rate fields from consecutive levels: ln(e_i/e_{i-1}) / ln(h_i/h_{i-1}).

    The first level keeps rate None; a vanishing error makes the adjacent
    rate None as well (flagged, not raised).
    """
    out = list(levels)
    if len(out) >= 2 and any(b.h >= a.h for a, b in zip(out, out[1:])):
        raise ValueError("levels must have strictly decreasing h")
    for prev, cur in zip(out, out[1:]):
        lh = math.log(cur.h / prev.h)
        cur.rate_rho = None if cur.err_rho <= 0.0 or prev.err_rho <= 0.0 \
            else math.log(cur.err_rho / prev.err_rho) / lh
        cur.rate_m = None if cur.err_m <= 0.0 or prev.err_m <= 0.0 \
            else math.log(cur.err_m / prev.err_m) / lh
    return out


# ---------------------------------------------------------------------------
# Discrete Gronwall
# ---------------------------------------------------------------------------

def gronwall_check(a: Sequence[float], b: Sequence[float], g: Sequence[float],
                   dt: float, slack: float = 1e-12) -> bool:
    """Check the backward-difference Gronwall conclusion for given sequences.

    The sequences must be nonnegative with a common length (a has one more
    leading entry a_0) and satisfy the hypothesis
    (a_n - a_{n-1})/dt - a_n + b_n <= g_n for every n >= 1; inputs violating
    the hypothesis (or dt >= 1) are rejected with ValueError.  Returns True
    iff  a_n + dt * sum b_i <= exp(n dt / (1 - dt)) (a_0 + dt * sum g_i)
    holds for every n, up to relative ``slack``.
    """
    if not 0.0 < dt < 1.0:
        raise ValueError("dt must lie in (0, 1)")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    if a.ndim != 1 or len(a) != len(b) + 1 or len(b) != len(g):
        raise ValueError("need len(a) = len(b) + 1 = len(g) + 1")
    if np.any(a < 0.0) or np.any(b < 0.0) or np.any(g < 0.0):
        raise ValueError("sequences must be nonnegative")
    hyp = (a[1:] - a[:-1]) / dt - a[1:] + b - g
    tol = slack * np.maximum(1.0, np.abs(a[1:]) / dt)
    if np.any(hyp > tol):
        raise ValueError("hypothesis (a_n - a_{n-1})/dt - a_n + b_n <= g_n fails")
    n = np.arange(1, len(a))
    lhs = a[1:] + dt * np.cumsum(b)
    rhs = np.exp(n * dt / (1.0 - dt)) * (a[0] + dt * np.cumsum(g))
    return bool(np.all(lhs <= rhs * (1.0 + slack) + slack))


def sample_gronwall_sequences(rng: np.random.Generator, n_steps: int,
                              dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw nonnegative sequences satisfying the Gronwall hypothesis.

    g is free; each a_n is drawn below the largest value the hypothesis
    admits with b_n = 0, and b_n is then the slack the hypothesis leaves,
    so the sampled family includes the binding edge (b_n = 0 exactly when
    a_n sits at its cap).
    """
    g = rng.uniform(0.0, 10.0, size=n_steps)
    a = np.empty(n_steps + 1)
    a[0] = rng.uniform(0.0, 10.0)
    for n in range(1, n_steps + 1):
        cap = (a[n - 1] + dt * g[n - 1]) / (1.0 - dt)
        a[n] = rng.uniform(0.0, cap)
    b = np.maximum(0.0, g + a[1:] - (a[1:] - a[:-1]) / dt)
    return a, b, g


# ---------------------------------------------------------------------------
# Randomized inequality suite
# ---------------------------------------------------------------------------

@dataclass
class KindReport:
    kind: str
    trials: int
    violations: int
    max_violation: float
    worst_inputs: dict = field(default_factory=dict)


@dataclass
class InequalityReport:
    seed: int
    trials: int
    kinds: list[KindReport] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(k.violations for k in self.kinds)

    def summary(self) -> str:
        lines = [f"inequality suite: seed={self.seed} trials={self.trials}"]
        for k in self.kinds:
            status = "ok" if k.violations == 0 else "VIOLATED"
            lines.append(f"  {k.kind:<14s} {status:<9s} violations={k.violations}"
                         f" max_violation={k.max_violation:.3e}")
        return "\n".join(lines)


def _violation(kind: str, lhs, rhs, slack: float):
    """Positive where the inequality fails beyond relative slack."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    gap = (rhs - lhs) if kind in GREATER_OR_EQUAL_KINDS else (lhs - rhs)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return gap - slack * scale


def inequality_suite(law: GeneralizedPolynomial, seed: int = 0,
                     trials: int = 10_000, slack: float = 1e-12,
                     constant_scales: dict | None = None,
                     narrow_ordf_constant: bool = False) -> InequalityReport:
    """Run ``trials`` random draws per inequality kind and report violations.

    Sampling domains: magnitudes w in [eps_reg, 1e3] (log-uniform), vector
    magnitudes in [eps_reg, 1e2], coefficient rows from the recorded
    admissible box.  ``constant_scales`` maps kind -> factor on the constant
    side to demonstrate falsifiability; ``narrow_ordf_constant`` switches the
    OrdF upper bound to the narrower, falsifiable constant.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    scales = constant_scales or {}
    eps = law.eps_reg
    a_star, a_sup = law.coeffs.a_star, law.coeffs.a_sup
    if a_star <= 0.0:
        raise ValueError("inequality suite needs a law with a_star > 0")
    n_coef = len(law.coeffs)

    def log_uniform(lo, hi, size):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))

    def sample_vectors(size):
        mag = log_uniform(eps, 1e2, size)
        ang = rng.uniform(0.0, 2.0 * np.pi, size=size)
        return np.column_stack([mag * np.cos(ang), mag * np.sin(ang)])

    def sample_coeffs(size):
        a = rng.uniform(0.0, a_sup, size=(size, n_coef))
        for anchor in (0, 1, n_coef - 1):
            a[:, anchor] = rng.uniform(a_star, a_sup, size=size)
        return a

    report = InequalityReport(seed=seed, trials=trials)
    for kind in WITNESS_KINDS:
        scale = scales.get(kind, 1.0)
        if kind in ("dervF", "OrdF"):
            w = log_uniform(eps, 1e3, trials)
            a = sample_coeffs(trials)
            l_lo, r_lo = lemma_witness(kind, law, side="lower", w=w, a=a,
                                       constant_scale=scale)
            l_up, r_up = lemma_witness(kind, law, side="upper", w=w, a=a,
                                       constant_scale=scale,
                                       narrow_constant=narrow_ordf_constant
                                       if kind == "OrdF" else False)
            viol = np.maximum(_violation(kind, l_lo, r_lo, slack),
                              _violation(kind, l_up, r_up, slack))
            worst = int(np.argmax(viol))
            worst_inputs = {"w": float(w[worst]), "a": a[worst].tolist()}
        elif kind in ("cont1", "cont2"):
            x = sample_vectors(trials)
            y = sample_vectors(trials)
            p = rng.uniform(-0.999, -1e-3, size=trials) if kind == "cont1" \
                else np.exp(rng.uniform(np.log(1e-3), np.log(4.0), size=trials))
            lhs, rhs = lemma_witness(kind, x=x, y=y, p=p, constant_scale=scale)
            viol = _violation(kind, lhs, rhs, slack)
            worst = int(np.argmax(viol))
            worst_inputs = {"x": x[worst].tolist(), "y": y[worst].tolist(),
                            "p": float(p[worst])}
        else:
            y = sample_vectors(trials)
            y2 = sample_vectors(trials)
            if kind in ("Umono", "quasimonotone"):
                a = sample_coeffs(trials)
                a2 = sample_coeffs(trials)
            else:
                a = np.broadcast_to(law.coefficients(), (trials, n_coef))
                a2 = a
            lhs, rhs = lemma_witness(kind, law, y=y, y2=y2, a=a, a2=a2,
                                     constant_scale=scale)
            viol = _violation(kind, lhs, rhs, slack)
            worst = int(np.argmax(viol))
            worst_inputs = {"y": y[worst].tolist(), "y2": y2[worst].tolist()}
            if kind in ("Umono", "quasimonotone"):
                worst_inputs["a"] = a[worst].tolist()
                worst_inputs["a2"] = a2[worst].tolist()
        violations = int(np.sum(viol > 0.0))
        report.kinds.append(KindReport(
            kind=kind, trials=trials, violations=violations,
            max_violation=float(np.max(viol)), worst_inputs=worst_inputs))
    return report


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

CSV_HEADER = "N,h,dt,err_rho,rate_rho,err_m,rate_m,newton_total"


def report_to_csv(levels: Sequence[LevelResult]) -> str:
    lines = [CSV_HEADER]
    for lv in levels:
        rr = "" if lv.rate_rho is None else repr(lv.rate_rho)
        rm = "" if lv.rate_m is None else repr(lv.rate_m)
        lines.append(f"{lv.n_cells},{lv.h!r},{lv.dt!r},{lv.err_rho!r},{rr},"
                     f"{lv.err_m!r},{rm},{lv.newton_total}")
    return "\n".join(lines) + "\n"


def report_from_csv(text: str) -> list[LevelResult]:
    stream = io.StringIO(text)
    header = stream.readline().strip()
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    out = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        n, h, dt, er, rr, em, rm, nt = line.split(",")
        out.append(LevelResult(
            n_cells=int(n), h=float(h), dt=float(dt), err_rho=float(er),
            err_m=float(em), rate_rho=float(rr) if rr else None,
            rate_m=float(rm) if rm else None, newton_total=int(nt)))
    return out


def format_table(levels: Sequence[LevelResult],
                 err_labels: tuple[str, str] = ("err_rho(L2)", "err_m(Ls)")) -> str:
    """Aligned plain-text table in the usual refinement-study layout."""
    head = (f"{'N':>5s}  {err_labels[0]:>13s}  {'rate':>6s}  "
            f"{err_labels[1]:>13s}  {'rate':>6s}  {'newton':>6s}")
    rows = [head, "-" * len(head)]
    for lv in levels:
        rr = "  --  " if lv.rate_rho is None else f"{lv.rate_rho:6.3f}"
        rm = "  --  " if lv.rate_m is None else f"{lv.rate_m:6.3f}"
        rows.append(f"{lv.n_cells:>5d}  {lv.err_rho:>13.4e}  {rr}  "
                    f"{lv.err_m:>13.4e}  {rm}  {lv.newton_total:>6d}")
    return "\n".join(rows)
