"""Closed-form manufactured solution and the checks every round must pass.

Nothing here goes through ``mixedflow.harness.manufactured_problem`` or the
package's quadrature: the solution, the quadrature rule and the norms are
coded again so that a fault in the package's own error evaluation cannot
hide a fault in the solver.

The manufactured problems of every workload share one shape.  With
exponents (-alpha, 0, alpha_1) = (-1/2, 0, 1) and coefficients a_i,

    rho(x, t) = (sum_i a_i e^{-2(1 + alpha_i) t}) (x1 + x2) / sqrt(2),
    m(x, t)   = -e^{-2t} (1, 1) / sqrt(2).

The boundary extension Psi is rho itself, so the homogenized density
rho_bar = rho - Psi is zero for every law: the density error is the L2 norm
of the discrete rho_bar.  The momentum error is the L^s error of m with
s = alpha_1 + 2 = 3.  Backward Euler is first order in time and the exact
fields lie in the P1 spaces, so each error is bounded by a constant times
dt; the constants are the workload's ``c_rho`` and ``c_m``.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
EXPONENTS = (-0.5, 0.0, 1.0)
S = EXPONENTS[-1] + 2.0

#: coefficient vector of each manufactured problem the workloads march
LAWS = {
    "example1": (1.0, 1.0, 1.0),
    "dependence_a": (1.0, 1.0, 1.0),
    "example2_F2": (0.95, 1.0, 0.95),
    "dependence_b": (0.95, 1.0, 0.95),
}

# Radon's 7-point rule, exact to degree 5 (the package uses a 6-point
# degree-4 rule): barycentric points and weights summing to 1.
_R = math.sqrt(15.0)
_A1, _B1 = (6.0 - _R) / 21.0, (9.0 + 2.0 * _R) / 21.0
_A2, _B2 = (6.0 + _R) / 21.0, (9.0 - 2.0 * _R) / 21.0
_BARY = np.array([[1 / 3, 1 / 3, 1 / 3],
                  [_A1, _A1, _B1], [_A1, _B1, _A1], [_B1, _A1, _A1],
                  [_A2, _A2, _B2], [_A2, _B2, _A2], [_B2, _A2, _A2]])
_WEIGHTS = np.array([9 / 40] + [(155.0 - _R) / 1200.0] * 3
                    + [(155.0 + _R) / 1200.0] * 3)

# fixed sample points for comparing the package's problem data with ours
_PROBE_POINTS = np.stack(np.meshgrid(np.linspace(0.1, 0.9, 5),
                                     np.linspace(0.05, 0.95, 5)), -1).reshape(-1, 2)

REL_AGREE_RHO = 1e-9   # both rules integrate the quadratic |rho_bar|^2 exactly
REL_AGREE_M = 1e-3     # |m_h - m|^3 has kinks where m_h - m changes sign; the rules differ
RATE_BAND = (0.75, 1.25)


def rho_exact(x: np.ndarray, t: float, a) -> np.ndarray:
    coef = sum(ai * math.exp(-2.0 * (1.0 + ei) * t)
               for ai, ei in zip(a, EXPONENTS)) / SQRT2
    return coef * (x[..., 0] + x[..., 1])


def m_exact(t: float) -> np.ndarray:
    return np.full(2, -math.exp(-2.0 * t) / SQRT2)


def _lp(mesh, nodal: np.ndarray, p: float) -> float:
    """(integral |u_h|^p)^(1/p) of a P1 field given by its nodal values."""
    tri = mesh.triangles
    xy = mesh.nodes[tri]                                   # (nt, 3, 2)
    e1, e2 = xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    vals = np.einsum("qk,tk...->tq...", _BARY, nodal[tri])
    mag = np.abs(vals) if vals.ndim == 2 else np.sqrt(np.sum(vals * vals, -1))
    return float(np.einsum("q,tq,t->", _WEIGHTS, mag ** p, area)) ** (1.0 / p)


def errors(mesh, state) -> tuple[float, float]:
    """(||rho_bar_h - 0||_L2, ||m_h - m||_Ls) at the state's time."""
    nodal_m = np.asarray(state.m, dtype=float).reshape(-1, 2) - m_exact(state.t)
    return _lp(mesh, np.asarray(state.rho_bar, dtype=float), 2.0), _lp(mesh, nodal_m, S)


def differences(mesh, state_a, state_b) -> tuple[float, float]:
    """(||rho_bar_a - rho_bar_b||_L2, ||m_a - m_b||_Ls)."""
    return (_lp(mesh, state_a.rho_bar - state_b.rho_bar, 2.0),
            _lp(mesh, (state_a.m - state_b.m).reshape(-1, 2), S))


def _agree(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * abs(reference) + 1e-15


def check_march(rec, c_rho: float, c_m: float) -> tuple[list[str], tuple[float, float]]:
    """Failures of one march record, and its independently measured errors."""
    tag = f"{rec.problem} N={rec.n}"
    fails = []
    a = LAWS.get(rec.problem)
    t_end = rec.final_time
    if a is None:
        fails.append(f"{tag}: no closed-form solution for this problem")
    else:
        pts = _PROBE_POINTS
        psi = np.asarray(rec.data.psi(pts, t_end), dtype=float)
        ref = rho_exact(pts, t_end, a)
        m_pkg = np.asarray(rec.data.exact.m(pts, t_end), dtype=float)
        if np.max(np.abs(psi - ref)) > 1e-12 * (1.0 + np.max(np.abs(ref))) \
                or np.max(np.abs(m_pkg - m_exact(t_end))) > 1e-12:
            fails.append(f"{tag}: problem data differ from the closed form")
    steps = round(t_end / rec.dt)
    if len(rec.diagnostics) != steps or abs(rec.state.t - t_end) > 1e-12:
        fails.append(f"{tag}: march ended at t={rec.state.t} after "
                     f"{len(rec.diagnostics)} of {steps} levels")
    worst = max((d.residual_norm for d in rec.diagnostics), default=math.inf)
    if not worst <= rec.tol:
        fails.append(f"{tag}: Newton residual {worst:.3e} above tol {rec.tol:.1e}")
    e_rho, e_m = errors(rec.mesh, rec.state)
    if not e_rho <= c_rho * rec.dt:
        fails.append(f"{tag}: rho_bar error {e_rho:.3e} > {c_rho} dt")
    if not e_m <= c_m * rec.dt:
        fails.append(f"{tag}: momentum error {e_m:.3e} > {c_m} dt")
    return fails, (e_rho, e_m)


def check_outcome(workload, outcome) -> list[str]:
    """Every check of one round; an empty list means the round is correct."""
    fails = []
    indep = {}
    for rec in outcome.marches:
        f, errs = check_march(rec, workload.c_rho, workload.c_m)
        fails += f
        indep[(rec.problem, rec.n)] = errs
    if len(outcome.marches) != workload.marches:
        fails.append(f"{len(outcome.marches)} marches, expected {workload.marches}")
        return fails
    key = (workload.reported, workload.finest)
    if key not in indep:
        return fails + [f"no march of {key} to check the reported errors"]
    e_rho, e_m = indep[key]
    if not (_agree(outcome.err_rho, e_rho, REL_AGREE_RHO)
            and _agree(outcome.err_m, e_m, REL_AGREE_M)):
        fails.append(f"reported errors ({outcome.err_rho:.6e}, {outcome.err_m:.6e})"
                     f" differ from the closed form ({e_rho:.6e}, {e_m:.6e})")
    if outcome.reports:
        fails += _check_studies(outcome, indep)
    return fails


def _check_studies(outcome, indep) -> list[str]:
    conv, dep = outcome.reports
    fails = []
    lo, hi = RATE_BAND
    for prev, lev in zip(conv.levels, conv.levels[1:]):
        ours = [indep.get(("example1", n)) for n in (prev.n_cells, lev.n_cells)]
        if None in ours:
            fails.append(f"convergence N={lev.n_cells}: marches missing")
            continue
        step = math.log(prev.h / lev.h)
        for i, (name, rate) in enumerate((("rho", lev.rate_rho), ("m", lev.rate_m))):
            expect = math.log(ours[0][i] / ours[1][i]) / step
            if rate is None or not lo <= rate <= hi or abs(rate - expect) > 1e-3:
                fails.append(f"convergence N={lev.n_cells}: rate_{name}={rate} "
                             f"outside [{lo}, {hi}] or not the rate {expect:.4f} "
                             f"of the closed-form errors")
    for prev, cur in zip(dep.levels, dep.levels[1:]):
        if not (cur.err_rho < prev.err_rho and cur.err_m < prev.err_m):
            fails.append(f"dependence N={cur.n_cells}: differences did not fall")
    by_key = {(r.problem, r.n): r for r in outcome.marches}
    for lev in dep.levels:
        a, b = by_key.get(("dependence_a", lev.n_cells)), by_key.get(("dependence_b", lev.n_cells))
        if a is None or b is None:
            fails.append(f"dependence N={lev.n_cells}: marches missing")
            continue
        d_rho, d_m = differences(a.mesh, a.state, b.state)
        if not (_agree(lev.err_rho, d_rho, REL_AGREE_RHO)
                and _agree(lev.err_m, d_m, REL_AGREE_M)):
            fails.append(f"dependence N={lev.n_cells}: reported differences "
                         f"({lev.err_rho:.6e}, {lev.err_m:.6e}) != ({d_rho:.6e}, {d_m:.6e})")
    return fails
