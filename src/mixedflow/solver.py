"""The Newton loop, its checked sparse linear solver and the backward-Euler march."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly
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
    """Newton stalled or left the finite numbers, or the initial state did;
    carries Newton's residual-norm trace, empty for the initial state."""

    def __init__(self, message: str, trace=()):
        if trace:
            message += " (residual trace: " + ", ".join(f"{r:.3e}" for r in trace) + ")"
        super().__init__(message)
        self.trace = list(trace)


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping rule for the per-level nonlinear solve."""

    tol: float = 1e-6
    max_iter: int = 30

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class MarchConfig:
    """Backward-Euler time grid and the per-step print switch."""

    dt: float
    final_time: float = 1.0
    verbose: bool = False

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.final_time < math.inf:
            raise ValueError(f"final_time must be positive and finite, got {self.final_time}")
        ratio = self.final_time / self.dt
        steps = round(ratio) if math.isfinite(ratio) else 0
        if steps < 1 or abs(steps * self.dt - self.final_time) \
                > 1e-12 * max(1.0, abs(self.final_time)):
            raise ValueError(
                f"dt={self.dt} does not divide final_time={self.final_time}")
        if steps > 2 ** 53:  # past it, t_n = n * dt no longer steps by dt
            raise ValueError(f"dt={self.dt} gives {ratio:.3g} steps, more than 2**53")

    @property
    def n_steps(self) -> int:
        return round(self.final_time / self.dt)


# A linear solution x of Jx = b is accepted when ||Jx - b|| <= max(_RTOL ||b||,
# atol), with atol the caller's absolute aim (0 by default).
_RTOL = 1e-10

# Newton's linear aim as a fraction of its tolerance (inexact Newton: Dembo,
# Eisenstat & Steihaug, SIAM J. Numer. Anal. 1982; Eisenstat & Walker, SIAM J.
# Sci. Comput. 1996); :class:`LinearSolver` says why it is safe.
_FORCING = 0.01


class LinearSolver:
    """Sparse LU in SuperLU's symmetric mode, held as the GMRES
    preconditioner of later solves, and checked.

    The Newton Jacobian J = [[A, -B^T], [B, M_phi/dt]] is positive real: its
    symmetric part blockdiag(A_sym, M_phi/dt) is positive definite.  So every
    principal submatrix is nonsingular and LU without pivoting exists in any
    symmetric ordering.  SuperLU's symmetric mode (minimum degree on A^T + A,
    diagonal pivots) uses that; on the N=64 Jacobian its factor has half the
    fill of the default COLAMD factor with partial pivoting.  Rows pinned to
    identity rows by boundary conditions keep the property, since a
    principal minor containing a pinned row d equals the minor without d.

    A solution x of Jx = b is accepted when

        ||Jx - b|| <= max(_RTOL ||b||, atol),    _RTOL = 1e-10,

    with ``atol`` the caller's absolute aim.  With atol = 0 this is the
    relative contract alone.  Newton passes atol = _FORCING * tol with
    _FORCING = 0.01: the next residual F(x + s) = (Js + F) + O(||s||^2) then
    moves by at most 1% of the tolerance it is checked against, and Newton
    checks that true residual by the unchanged rule, so a looser linear
    solve can cost Newton iterations but never accepts a level the rule
    would reject.  Since ||b|| = ||F|| > tol whenever Newton takes a step,
    the implied relative aim is always tighter than 0.01.

    Without pivoting, element growth rises with how far the skew part of J
    outweighs its symmetric part (Golub & Van Loan, Linear Algebra Appl.
    28, 1979), so every solution is checked; where growth is large no
    factor lets Newton finish, so a miss or an exactly zero pivot raises
    :class:`LinearSolveFailure`.  ``residual`` is ||Jx - b|| of the last
    accepted solution.

    Between Newton iterations and time levels only the flux block A(m)
    changes, and slowly, so the last symmetric-mode factor is held.  A
    matrix on the same sparsity pattern (one that shares the index arrays
    of the factored matrix, as every Jacobian of one ``Assembler`` does) is
    first solved by one cycle of right-preconditioned GMRES, with the held
    factor as the preconditioner and no restart, aiming at a residual a
    decade below the acceptance bound.  GMRES starts from the x0 of least
    residual ||b - J x0|| in the span S of the last 8 solutions accepted on
    the pattern, the factor's own direct solution among them: x0 = S c with
    c from a least-squares fit of J S c to b, one sparse-dense product and a
    dense fit on 8 columns.  The systems change slowly, so x0 carries what
    earlier solves found; GMRES then runs on b - J x0 towards the same
    absolute aim, and takes no iteration when x0 already meets it.  The
    kept solutions go with the factor, so they cost 2 * 8 * n floats (S and
    J S) and never reach another pattern.  The cycle length is a work
    budget read from the counts nnz(LU), nnz(J) and n alone:

        m = floor((nnz(LU)^2 / (4 n) - 8 nnz(J)) / (nnz(LU) + nnz(J))).

    Factoring costs at least sum_k c_k^2 over the column counts c_k of L,
    and by Cauchy-Schwarz that is at least nnz(L)^2 / n, about
    nnz(LU)^2 / (4 n).  The start's J S costs 8 nnz(J) multiply-adds, and a
    GMRES iteration a triangular solve pair and a product with J, about
    nnz(LU) + nnz(J).  So the start and m iterations do no more work than
    one factorization; the start's dense fit and each iteration's Arnoldi
    work are left out.  The factor is held only when m >= 1: m is 4, 10, 19 and 29 on
    the N = 8, 16, 32 and 64 Jacobians of example1, and below 1 at N=4,
    where every Newton step factors.  When the cycle misses the bound, the
    held factor is dropped before J is factored afresh, so one factor is
    alive at a time, and the fresh factor is held by the same rule.

    Reuse is safe because it changes only how x is found, never what is
    accepted: a GMRES solution, x0 included, passes the same residual check
    as a direct one, so a start that does not help costs at most a miss and
    a refactor.  The rule reads fill counts and residual norms, no clock and
    no random numbers, so a march repeats bit for bit.  ``factorizations``
    and ``krylov_iterations`` count the ``splu`` calls and GMRES iterations
    made so far.
    """

    def __init__(self):
        self.factorizations = 0
        self.krylov_iterations = 0
        self.residual = 0.0
        self._held: _HeldFactor | None = None

    def solve(self, matrix, rhs: np.ndarray, atol: float = 0.0) -> np.ndarray:
        """x with ||matrix x - rhs|| <= max(_RTOL ||rhs||, atol)."""
        matrix = matrix.tocsc()
        bound = max(_RTOL * np.linalg.norm(rhs), atol)
        held = self._held
        if held is not None and held.fits(matrix):
            x0, r0 = held.start(matrix, rhs)
            # a decade below the bound: the accepted solution stays clear of
            # the check's boundary
            step, iterations = _preconditioned_gmres(
                matrix, r0, held.lu.solve, held.cycle, 0.1 * bound)
            self.krylov_iterations += iterations
            sol = None if step is None else x0 + step
            if sol is not None and self._miss(matrix, sol, rhs, bound) is None:
                held.keep(sol)
                return sol
        self._held = None  # before factoring: one factor alive at a time
        self.factorizations += 1
        try:
            lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        except RuntimeError:  # an exactly zero pivot
            raise LinearSolveFailure("sparse LU: matrix is exactly singular") from None
        sol = lu.solve(rhs)
        miss = self._miss(matrix, sol, rhs, bound)
        if miss is not None:
            raise LinearSolveFailure(miss)
        self._hold(lu, matrix, sol)
        return sol

    def _hold(self, lu, matrix, sol: np.ndarray) -> None:
        """Keep ``lu`` and its solution ``sol`` for the next solve if its work
        budget, less the recycled start, allows an iteration."""
        # SuperLU factors always report nnz; the benchmark's traced factor
        # (perfbench/spans.py) forwards only solve, and gets no budget
        fill = getattr(lu, "nnz", 0)
        n, nnz = matrix.shape[0], matrix.nnz
        cycle = (fill * fill - 4 * n * _RECYCLED * nnz) // (4 * n * (fill + nnz))
        if cycle >= 1:
            self._held = _HeldFactor(lu, matrix.indptr, matrix.indices, cycle,
                                     np.empty((_RECYCLED, len(sol))))
            self._held.keep(sol)

    def _miss(self, matrix, sol: np.ndarray, rhs: np.ndarray,
              bound: float) -> str | None:
        """Why ``sol`` breaks ||matrix sol - rhs|| <= bound, or None if it
        keeps it; a kept solution's residual norm goes to ``residual``."""
        if not np.all(np.isfinite(sol)):
            return "linear solve produced non-finite entries"
        resid = float(np.linalg.norm(matrix @ sol - rhs))
        if not resid <= bound:
            return f"linear solve residual {resid:.3e} exceeds {bound:.3e}"
        self.residual = resid
        return None


# Accepted solutions a held factor keeps for the next solve's start.  On the
# example2_F2 N=32 march with exact momentum BC (dt = h/2, t = 1) 8 cut the
# GMRES total from 527 to 155 and 4 only to 213.  Keeping 30 cut it to 120,
# but at N=64 (one BLAS thread) the fit over 30 vectors costs as much as 3 to
# 4 triangular solves and saves 2 of 69 iterations over the example1 march
# to t = 0.125, so that march gained nothing.
_RECYCLED = 8


@dataclass
class _HeldFactor:
    """A symmetric-mode factor, the pattern it was built on, its cycle length
    and the last ``_RECYCLED`` solutions accepted on that pattern."""

    lu: object
    indptr: np.ndarray
    indices: np.ndarray
    cycle: int
    solutions: np.ndarray  # (_RECYCLED, n), filled round robin
    kept: int = 0

    def fits(self, matrix) -> bool:
        """True when ``matrix`` shares the factored matrix's index arrays."""
        return (np.shares_memory(matrix.indptr, self.indptr)
                and np.shares_memory(matrix.indices, self.indices))

    def keep(self, sol: np.ndarray) -> None:
        """Store ``sol`` in place of the oldest kept solution."""
        self.solutions[self.kept % _RECYCLED] = sol
        self.kept += 1

    def start(self, matrix, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x0 = S c of least residual in the span S of the kept solutions, and
        rhs - matrix x0.

        x0 = 0 when matrix S is not finite, which LAPACK's least-squares
        solver would reject.
        """
        span = self.solutions[:min(self.kept, _RECYCLED)]
        image = matrix @ span.T
        if not np.all(np.isfinite(image)):
            return np.zeros_like(rhs), rhs
        coef = np.linalg.lstsq(image, rhs, rcond=None)[0]
        return coef @ span, rhs - image @ coef


def _preconditioned_gmres(matrix, rhs: np.ndarray, precondition, max_iter: int,
                          atol: float) -> tuple[np.ndarray | None, int]:
    """One cycle of GMRES on matrix M^-1 y = rhs from y = 0, with x = M^-1 y.

    ``precondition`` applies M^-1.  The Arnoldi basis is orthogonalized by
    classical Gram-Schmidt applied twice, and Givens rotations keep the
    Hessenberg matrix triangular, so the least-squares residual norm is at
    hand after every iteration.  Returns x and the iteration count: x = 0
    after no iteration when ||rhs|| <= ``atol`` already, and None when the
    residual is still above ``atol`` after ``max_iter`` iterations, or the
    iteration broke down.
    """
    beta = np.linalg.norm(rhs)
    if beta <= atol:
        return np.zeros_like(rhs), 0
    basis = np.empty((max_iter + 1, len(rhs)))
    search = np.empty((max_iter, len(rhs)))  # M^-1 of each basis vector
    tri = np.zeros((max_iter, max_iter))     # rotated Hessenberg matrix
    rotations = []
    g = np.zeros(max_iter + 1)               # rotated beta e_1
    g[0] = beta
    basis[0] = rhs / beta
    for j in range(max_iter):
        search[j] = precondition(basis[j])
        w = matrix @ search[j]
        col = np.zeros(j + 2)
        for _ in range(2):
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            col[:j + 1] += h
        col[j + 1] = np.linalg.norm(w)
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        r = np.hypot(col[j], col[j + 1])
        if not (np.isfinite(r) and r > 0.0):
            return None, j + 1
        c, s = col[j] / r, col[j + 1] / r
        rotations.append((c, s))
        tri[:j, j] = col[:j]
        tri[j, j] = r
        g[j], g[j + 1] = c * g[j], -s * g[j]
        if abs(g[j + 1]) <= atol or col[j + 1] == 0.0:
            y = g[:j + 1]  # back substitution in tri y = g, in place
            for i in range(j, -1, -1):
                y[i] = (y[i] - tri[i, i + 1:j + 1] @ y[i + 1:]) / tri[i, i]
            return y @ search[:j + 1], j + 1
        basis[j + 1] = w / col[j + 1]
    return None, max_iter


@dataclass
class NewtonStats:
    iterations: int
    residual_norm: float
    trace: list
    linear_residual: float           # largest accepted ||Js - b|| of the steps


@dataclass
class StepDiagnostics:
    step: int
    t: float
    newton_iterations: int
    residual_norm: float
    energy_rho: float                # ||rho_bar_n||_L2^2
    energy_m_accum: float            # sum_i dt ||m_i||_Ls^s up to this step
    factorizations: int              # LU factorizations of this step's solves
    krylov_iterations: int           # GMRES iterations of this step's solves
    linear_residual: float           # largest accepted ||Jx - b|| of them


def _flat(state: assembly.SystemState) -> np.ndarray:
    """The flat ``[m, rho_bar]`` vector Newton iterates on."""
    return np.concatenate([state.m, state.rho_bar])


# How a failure names level n at t_n: ``_AT_STEP.format(n, t_n)``.
_AT_STEP = "at step {} (t={:.6g})"


def newton_solve(assembler: assembly.Assembler, state_prev: assembly.SystemState,
                 n: int, config: NewtonConfig | None = None,
                 linear_solver: LinearSolver | None = None,
                 guess: np.ndarray | None = None
                 ) -> tuple[assembly.SystemState, NewtonStats]:
    """Advance the assembler's system from ``state_prev`` by backward-Euler
    level n, at t_n = n ``assembler.dt`` (see
    :meth:`~mixedflow.assembly.Assembler.level`), by undamped Newton from
    ``guess``, a flat ``[m, rho_bar]`` vector (None: from ``state_prev``).

    The level is accepted when ||residual|| <= ``config.tol``, by the same
    rule from any start.  The Jacobian is built only at an unconverged
    iterate, and each step s solves J s = -residual only to
    ||Js + residual|| <= ``_FORCING`` * tol (see :class:`LinearSolver`).
    A non-finite residual norm, Jacobian or iterate, or ``config.max_iter``
    steps without convergence, raise :class:`NonConvergence` with the
    residual-norm trace.  It and a step's :class:`LinearSolveFailure` name
    the level ``at step n (t=t_n)``.  Overflow gives inf or nan without a
    warning; the checks name it.
    """
    config = config or NewtonConfig()
    linear_solver = linear_solver or LinearSolver()
    x = _flat(state_prev) if guess is None else guess
    with np.errstate(over="ignore", invalid="ignore"):
        linearize = assembler.level(n, state_prev.rho_bar)
        t_n = n * assembler.dt
        where = _AT_STEP.format(n, t_n)
        r, jacobian = linearize(x)
        trace = [float(np.linalg.norm(r))]
        linear_residual = 0.0
        while not trace[-1] <= config.tol:
            if not np.isfinite(trace[-1]):
                raise NonConvergence(f"non-finite residual norm {where}", trace)
            if len(trace) > config.max_iter:
                raise NonConvergence(f"Newton stalled {where}", trace)
            matrix, jacobian = jacobian(), None  # free its quadrature values first
            if not np.all(np.isfinite(matrix.data)):
                raise NonConvergence(f"non-finite Jacobian {where}", trace)
            try:
                x = x + linear_solver.solve(matrix, -r, _FORCING * config.tol)
            except LinearSolveFailure as exc:
                raise LinearSolveFailure(f"{exc} {where}") from exc
            del matrix  # not held through the next linearization
            if not np.all(np.isfinite(x)):
                raise NonConvergence(f"non-finite Newton iterate {where}", trace)
            linear_residual = max(linear_residual, linear_solver.residual)
            r, jacobian = linearize(x)
            trace.append(float(np.linalg.norm(r)))
    n_m = assembler.vector_space.n_dofs
    return (assembly.SystemState(x[n_m:], x[:n_m], t_n),
            NewtonStats(len(trace) - 1, trace[-1], trace, linear_residual))


def march(data: assembly.ProblemData, mesh: StructuredTriMesh,
          march_config: MarchConfig, newton_config: NewtonConfig | None = None,
          options: assembly.DiscretizationOptions | None = None,
          linear_solver: LinearSolver | None = None
          ) -> tuple[assembly.SystemState, list[StepDiagnostics]]:
    """Run the backward-Euler march from the projected initial state.

    Level n = 1, ..., ``march_config.n_steps`` is at t_n = n dt, and
    :func:`newton_solve` is given its step index n.  Level n's Newton
    iteration starts from the linear extrapolation 2 x_{n-1} - x_{n-2} of
    the last two accepted levels (flat ``[m, rho_bar]`` vectors); the
    first level starts from the initial state.
    The extrapolation's error is O(dt^2) where the previous state's is
    O(dt), so most levels converge in one Newton step.

    Returns the final state and per-step diagnostics.  One
    :class:`~mixedflow.assembly.Assembler`, built for ``march_config.dt``,
    serves every level.  One linear solver serves every step, so it can
    reuse its factor across time levels.  The first solver failure ends the
    march; :func:`newton_solve` names its level by step index and t, and
    :class:`NonConvergence` names an initial state whose projection fails
    or that is not finite, and the level of a non-finite step energy.
    Overflow anywhere in the march gives inf or nan without a warning.

    The step energies are ||rho_bar_n||^2 = rho_bar_n^T M rho_bar_n, with M
    the unweighted P1 mass matrix built once per march, ``assembler.mass``
    (exact for P1 under the degree-4 quadrature), and dt ||m_n||_{L^s}^s by
    quadrature (:func:`~mixedflow.mesh_fem.norm`).
    """
    newton_config = newton_config or NewtonConfig()
    linear_solver = linear_solver or LinearSolver()
    dt = march_config.dt
    assembler = assembly.Assembler(mesh, data, dt, options)
    s = data.law.spec.s
    diagnostics: list[StepDiagnostics] = []
    energy_m_accum = 0.0
    x_older = None  # the flat state two levels back
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            state = assembler.initial_state()
        except (RuntimeError, ValueError) as exc:  # a failed projection, a non-finite state
            raise NonConvergence(f"initial state: {exc}") from exc
        for n in range(1, march_config.n_steps + 1):
            t_n = n * dt
            factorizations = linear_solver.factorizations
            krylov_iterations = linear_solver.krylov_iterations
            x_prev = _flat(state)
            guess = x_prev if x_older is None else 2.0 * x_prev - x_older
            state, stats = newton_solve(assembler, state, n, newton_config,
                                        linear_solver, guess)
            x_older = x_prev
            energy_m_accum += dt * norm(assembler.vector_space, state.m, s) ** s
            energy_rho = float(state.rho_bar @ (assembler.mass @ state.rho_bar))
            if not (math.isfinite(energy_rho) and math.isfinite(energy_m_accum)):
                raise NonConvergence("non-finite step energy " + _AT_STEP.format(n, t_n))
            diag = StepDiagnostics(
                n, t_n, stats.iterations, stats.residual_norm,
                energy_rho=energy_rho, energy_m_accum=energy_m_accum,
                factorizations=linear_solver.factorizations - factorizations,
                krylov_iterations=linear_solver.krylov_iterations - krylov_iterations,
                linear_residual=stats.linear_residual)
            if march_config.verbose:
                print(f"{n} {t_n:.6g} {stats.iterations} {stats.residual_norm:.3e} "
                      f"{energy_rho + energy_m_accum:.6e}")
            diagnostics.append(diag)
    return state, diagnostics
