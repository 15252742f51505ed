"""Newton iteration per time level and the backward-Euler march."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import Assembler, DiscretizationOptions, ProblemData, SystemState
from .mesh_fem import StructuredTriMesh, norm

__all__ = [
    "NewtonConfig",
    "MarchConfig",
    "LinearSolver",
    "LinearSolveFailure",
    "NonConvergence",
    "NewtonStats",
    "StepDiagnostics",
    "newton_solve",
    "march",
]


class LinearSolveFailure(RuntimeError):
    """Inner linear solve missed its residual-reduction contract."""


class NonConvergence(RuntimeError):
    """Newton ran out of iterations; carries the residual-norm trace."""

    def __init__(self, message: str, trace):
        super().__init__(f"{message} (residual trace: "
                         + ", ".join(f"{r:.3e}" for r in trace) + ")")
        self.trace = list(trace)


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping rule for the per-level nonlinear solve."""

    tol: float = 1e-6
    max_iter: int = 30
    damping: bool = False  # step halving, engaged only on residual growth

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class MarchConfig:
    """Backward-Euler time grid and diagnostics switches."""

    dt: float
    final_time: float = 1.0
    record_energies: bool = True
    verbose: bool = False

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        steps = round(self.final_time / self.dt)
        if steps < 1 or abs(steps * self.dt - self.final_time) > 1e-12:
            raise ValueError(
                f"dt={self.dt} does not divide final_time={self.final_time}")

    @property
    def n_steps(self) -> int:
        return round(self.final_time / self.dt)


class LinearSolver:
    """Sparse LU in SuperLU's symmetric mode, checked, with a pivoting fallback.

    The Newton Jacobian J = [[A, -B^T], [B, M_phi/dt]] is positive real: its
    symmetric part blockdiag(A_sym, M_phi/dt) is positive definite.  So every
    principal submatrix is nonsingular and LU without pivoting exists in any
    symmetric ordering.  SuperLU's symmetric mode (minimum degree on A^T + A,
    diagonal pivots) uses that; on the N=64 Jacobian its factor has half the
    fill of the default COLAMD factor with partial pivoting.  Rows pinned to
    identity rows by boundary conditions keep the property, since a
    principal minor containing a pinned row d equals the minor without d.

    Without pivoting nothing bounds element growth, so every solve is
    checked against the contract ||Ax - b|| <= rtol ||b||.  On a miss the
    matrix is refactored once with SciPy's default ``splu`` (COLAMD,
    partial pivoting); :class:`LinearSolveFailure` is raised only if that
    solve also misses.
    """

    def __init__(self, rtol: float = 1e-10):
        self.rtol = rtol

    def solve(self, matrix, rhs: np.ndarray) -> np.ndarray:
        matrix = matrix.tocsc()
        sol = _lu_solve(matrix, rhs, permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        if sol is not None and self._miss(matrix, sol, rhs) is None:
            return sol
        sol = _lu_solve(matrix, rhs)
        if sol is None:
            raise LinearSolveFailure("sparse LU: matrix is exactly singular")
        miss = self._miss(matrix, sol, rhs)
        if miss is not None:
            raise LinearSolveFailure(miss)
        return sol

    def _miss(self, matrix, sol: np.ndarray, rhs: np.ndarray) -> str | None:
        """Why ``sol`` breaks the residual contract, or None if it keeps it."""
        if not np.all(np.isfinite(sol)):
            return "linear solve produced non-finite entries"
        resid = np.linalg.norm(matrix @ sol - rhs)
        if not resid <= self.rtol * np.linalg.norm(rhs):
            return f"linear solve residual {resid:.3e} exceeds {self.rtol:.1e} * ||b||"
        return None


def _lu_solve(matrix, rhs: np.ndarray, **options) -> np.ndarray | None:
    """``splu(matrix, **options).solve(rhs)``, or None on an exactly zero pivot."""
    try:
        lu = spla.splu(matrix, **options)
    except RuntimeError:
        return None
    return lu.solve(rhs)


@dataclass
class NewtonStats:
    iterations: int
    residual_norm: float
    trace: list = field(default_factory=list)


@dataclass
class StepDiagnostics:
    step: int
    t: float
    newton_iterations: int
    residual_norm: float
    energy_rho: float = np.nan       # ||rho_bar_n||_L2^2
    energy_m_accum: float = np.nan   # sum_i dt ||m_i||_Ls^s up to this step


def newton_solve(assembler: Assembler, state_prev: SystemState, t_n: float,
                 dt: float, config: NewtonConfig | None = None,
                 linear_solver: LinearSolver | None = None
                 ) -> tuple[SystemState, NewtonStats]:
    """Advance one backward-Euler level; initial guess is the previous state."""
    config = config or NewtonConfig()
    linear_solver = linear_solver or LinearSolver()
    n_m = assembler.vector_space.n_dofs
    state = SystemState(state_prev.rho_bar.copy(), state_prev.m.copy(), t_n)
    r = assembler.residual(state, state_prev, dt)
    rnorm = float(np.linalg.norm(r))
    trace = [rnorm]
    for it in range(1, config.max_iter + 1):
        if rnorm <= config.tol:
            return state, NewtonStats(it - 1, rnorm, trace)
        step = linear_solver.solve(assembler.jacobian(state, dt), -r)
        scale = 1.0
        for _ in range(8):
            candidate = SystemState(state.rho_bar + scale * step[n_m:],
                                    state.m + scale * step[:n_m], t_n)
            r_new = assembler.residual(candidate, state_prev, dt)
            rnorm_new = float(np.linalg.norm(r_new))
            if not config.damping or rnorm_new < rnorm or scale <= 1 / 128:
                break
            scale *= 0.5
        state, r, rnorm = candidate, r_new, rnorm_new
        trace.append(rnorm)
    if rnorm <= config.tol:
        return state, NewtonStats(config.max_iter, rnorm, trace)
    raise NonConvergence(f"Newton stalled at t={t_n:.6g}", trace)


def march(data: ProblemData, mesh: StructuredTriMesh, march_config: MarchConfig,
          newton_config: NewtonConfig | None = None,
          options: DiscretizationOptions | None = None,
          linear_solver: LinearSolver | None = None
          ) -> tuple[SystemState, list[StepDiagnostics]]:
    """Run the backward-Euler march from the projected initial state.

    Returns the final state and per-step diagnostics.  The first Newton
    failure aborts with the step index attached.
    """
    newton_config = newton_config or NewtonConfig()
    assembler = Assembler(mesh, data, options)
    state = assembler.initial_state(newton_tol=newton_config.tol)
    dt = march_config.dt
    s = data.law.spec.s
    diagnostics: list[StepDiagnostics] = []
    energy_m_accum = 0.0
    for n in range(1, march_config.n_steps + 1):
        t_n = n * dt
        try:
            state, stats = newton_solve(assembler, state, t_n, dt,
                                        newton_config, linear_solver)
        except NonConvergence as exc:
            raise NonConvergence(f"march aborted at step {n} (t={t_n:.6g})",
                                 exc.trace) from exc
        except LinearSolveFailure as exc:
            raise LinearSolveFailure(
                f"march aborted at step {n} (t={t_n:.6g}): {exc}") from exc
        diag = StepDiagnostics(n, t_n, stats.iterations, stats.residual_norm)
        if march_config.record_energies:
            diag.energy_rho = norm(assembler.scalar_space, state.rho_bar, 2.0) ** 2
            energy_m_accum += dt * norm(assembler.vector_space, state.m, s) ** s
            diag.energy_m_accum = energy_m_accum
        if march_config.verbose:
            energy = diag.energy_rho + diag.energy_m_accum \
                if march_config.record_energies else float("nan")
            print(f"{n} {t_n:.6g} {stats.iterations} {stats.residual_norm:.3e} "
                  f"{energy:.6e}")
        diagnostics.append(diag)
    return state, diagnostics
