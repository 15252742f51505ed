"""Error norms, convergence rates and refinement-study tables.

Deterministic post-processing of runs: final-time errors against the
manufactured solution, refinement rates, and the CSV and plain-text forms
of a study's levels.  Generic constants in the stability and error theorems
are unknowable, so the studies are judged by boundedness and rate
statements, never by literal inequalities with invented constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assembly import ProblemData, SystemState
from .mesh_fem import ScalarP1Space, StructuredTriMesh, VectorP1Space, norm

__all__ = [
    "LevelResult",
    "final_time_errors",
    "rates",
    "report_to_csv",
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
