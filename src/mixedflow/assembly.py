"""Residual and Jacobian of the fully discrete mixed system.

Per backward-Euler time level the unknowns are the homogenized density
rho_bar (scalar P1) and the momentum m (vector P1), stacked as
``[m_dofs, rho_dofs]``.  The residual rows are

  momentum, test v:  (F(|m_n|) m_n, v) - (rho_bar_n, div v) + (grad Psi_n, v)
  density,  test q:  (phi (rho_bar_n - rho_bar_{n-1}) / dt, q)
                     + (div m_n, q) - (f_n, q) + (phi dPsi_n, q)

with all pairings by element quadrature.  ``dPsi_n`` is the time derivative
of the boundary extension; it is taken either as the backward difference
(Psi_n - Psi_{n-1}) / dt (default) or as the analytic derivative Psi_t(t_n),
selectable through :class:`DiscretizationOptions`.  The Jacobian has the
block form [[A(m), -B^T], [B, M_phi / dt]] where A carries the flux
Jacobian, B the divergence coupling and M_phi the porosity-weighted mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import solver
from .constitutive import GeneralizedPolynomial
from .mesh_fem import (ScalarP1Space, StructuredTriMesh, VectorP1Space,
                       l2_project)

__all__ = [
    "ExactSolution",
    "ProblemData",
    "SystemState",
    "DiscretizationOptions",
    "Assembler",
]


@dataclass(frozen=True)
class ExactSolution:
    """Analytic (rho, m) pair for manufactured-solution studies.

    ``rho(x, t)`` maps (..., 2) coordinates to scalars, ``m(x, t)`` to
    (..., 2) vectors.
    """

    rho: Callable[[np.ndarray, float], np.ndarray]
    m: Callable[[np.ndarray, float], np.ndarray]


@dataclass
class ProblemData:
    """Coefficients, data functions and the momentum law of one problem.

    All spatial callables take an (..., 2) coordinate array; time-dependent
    ones take (x, t).  ``psi`` is the boundary extension: its value,
    analytic time derivative and spatial gradient must all be evaluable in
    the interior.
    """

    law: GeneralizedPolynomial
    phi: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray, float], np.ndarray]
    psi: Callable[[np.ndarray, float], np.ndarray]
    psi_t: Callable[[np.ndarray, float], np.ndarray]
    grad_psi: Callable[[np.ndarray, float], np.ndarray]
    rho0: Callable[[np.ndarray], np.ndarray]
    final_time: float = 1.0
    phi_bounds: tuple[float, float] = (1.0, 1.0)
    exact: ExactSolution | None = None
    name: str = "problem"

    def __post_init__(self):
        lo, hi = self.phi_bounds
        if not (0.0 < lo <= hi):
            raise ValueError(f"porosity bounds must satisfy 0 < lo <= hi, got {self.phi_bounds}")
        if self.final_time <= 0.0:
            raise ValueError("final_time must be positive")


@dataclass
class SystemState:
    """Degree-of-freedom vectors of one time level."""

    rho_bar: np.ndarray
    m: np.ndarray
    t: float

    def __post_init__(self):
        self.rho_bar = np.asarray(self.rho_bar, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        if not (np.all(np.isfinite(self.rho_bar)) and np.all(np.isfinite(self.m))):
            raise ValueError("state contains non-finite entries")


@dataclass(frozen=True)
class DiscretizationOptions:
    """Switches for the parts of the scheme the formulation leaves open.

    psi_t_mode:
        "discrete" (default) uses the backward difference of the boundary
        extension for the dPsi term, i.e. the fully discrete data treatment;
        "analytic" evaluates the exact Psi_t at t_n.  With analytic data and
        a manufactured solution whose fields lie in the P1 spaces, the
        scheme is exact and refinement studies only measure solver noise.
    pin_rho_boundary:
        strongly enforce rho_bar = 0 at boundary nodes (the weak form
        already carries the condition naturally; default off).
    momentum_bc:
        "none" (default) leaves the momentum space unconstrained; "exact"
        pins boundary momentum dofs to the exact solution (requires
        ``ProblemData.exact``), a variant kept for sensitivity studies of
        the equal-order pair.
    """

    psi_t_mode: str = "discrete"
    pin_rho_boundary: bool = False
    momentum_bc: str = "none"

    def __post_init__(self):
        if self.psi_t_mode not in ("discrete", "analytic"):
            raise ValueError(f"unknown psi_t_mode {self.psi_t_mode!r}")
        if self.momentum_bc not in ("none", "exact"):
            raise ValueError(f"unknown momentum_bc {self.momentum_bc!r}")


# A residual and a thunk that builds its Jacobian at the same iterate.
Linearization = tuple[np.ndarray, Callable[[], sp.csc_matrix]]

# Newton steps the momentum initialization may take before it fails.
_INIT_MAX_ITER = 60


class _FixedCsc:
    """CSC pattern of an n x n matrix summed from triplets, built once.

    A triplet is given by its key ``col * n + row``.  :meth:`build` returns
    the pattern of a key array and the slots of its triplets: triplet k adds
    into ``data[slots[k]]``, so ``np.bincount`` over ``slots`` assembles the
    ``data`` array of the pattern.  Every matrix of one pattern shares its
    read-only ``indices`` and ``indptr``, which is how a held factor
    recognises the next matrix as its own.  Rows listed in ``pinned``
    become identity rows in :meth:`matrix`; their off-diagonal entries stay
    in the pattern as explicit zeros.
    """

    def __init__(self, unique: np.ndarray, n: int, pinned: np.ndarray):
        self.n = n
        self.nnz = len(unique)
        self.indices = (unique % n).astype(np.int32)
        counts = np.bincount(unique // n, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        # every matrix shares these; read-only so none can corrupt the rest
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False
        in_pinned_row = np.zeros(n, dtype=bool)
        in_pinned_row[pinned] = True
        self._pinned = np.flatnonzero(in_pinned_row[self.indices])
        col = np.repeat(np.arange(n), counts)[self._pinned]
        self._pinned_diag = self._pinned[self.indices[self._pinned] == col]

    @classmethod
    def build(cls, keys: np.ndarray, n: int, pinned: np.ndarray
              ) -> tuple[_FixedCsc, np.ndarray]:
        unique, slots = np.unique(keys, return_inverse=True)
        return cls(unique, n, pinned), slots

    def scatter(self, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.bincount(slots, weights=values, minlength=self.nnz)

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """CSC matrix over ``data``, with the pinned rows of ``data`` set to
        identity rows in place."""
        data[self._pinned] = 0.0
        data[self._pinned_diag] = 1.0
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))


class Assembler:
    """Caches the static operators of one (mesh, problem) pair."""

    def __init__(self, mesh: StructuredTriMesh, data: ProblemData,
                 options: DiscretizationOptions | None = None):
        self.mesh = mesh
        self.data = data
        self.options = options or DiscretizationOptions()
        self.scalar_space = ScalarP1Space(mesh)
        self.vector_space = VectorP1Space(mesh)
        if self.options.momentum_bc == "exact" and data.exact is None:
            raise ValueError("momentum_bc='exact' needs ProblemData.exact")
        self._qpts = self.scalar_space.quadrature_coords()
        self._phi_q = np.asarray(data.phi(self._qpts), dtype=float) \
            * np.ones(self._qpts.shape[:2])
        lo, hi = data.phi_bounds
        if np.any(self._phi_q < lo - 1e-12) or np.any(self._phi_q > hi + 1e-12):
            raise ValueError("porosity violates its stated bounds at quadrature points")
        self.mass_phi = self.scalar_space.mass_matrix(data.phi)
        self.div_coupling = self._assemble_div_coupling()
        self._div_coupling_T = self.div_coupling.T.tocsr()
        bn = mesh.boundary_nodes
        self._pinned_m = np.column_stack([2 * bn, 2 * bn + 1]).ravel() \
            if self.options.momentum_bc == "exact" else np.empty(0, dtype=int)
        self._pinned_rho = bn if self.options.pin_rho_boundary \
            else np.empty(0, dtype=int)
        self._momentum_pattern = self._build_momentum_pattern()
        self._jacobian_pattern = self._build_jacobian_pattern()

    # -- static operators ----------------------------------------------------

    def _assemble_div_coupling(self):
        """B[j, (i,c)] = (d phi_i / dx_c, phi_j): density rows, momentum cols."""
        mesh = self.mesh
        tris = mesh.triangles
        int_basis = mesh.areas / 3.0  # exact integral of each P1 basis
        rows, cols, vals = [], [], []
        for k in range(3):
            for i in range(3):
                for c in range(2):
                    rows.append(tris[:, k])
                    cols.append(2 * tris[:, i] + c)
                    vals.append(mesh.grads[:, i, c] * int_basis)
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(mesh.n_nodes, 2 * mesh.n_nodes)).tocsr()

    def _build_momentum_pattern(self) -> tuple[_FixedCsc, np.ndarray, np.ndarray,
                                               np.ndarray]:
        """Pattern of the A block, exact-BC momentum rows pinned, and how its
        data is filled.

        The element entry (dF_c/dm_d phi_j, phi_i) of triangle t sits at row
        dof[t,i] + c, column dof[t,j] + d.  The keys run over the blocks
        (c, d) = xx, xy, yy, each in (t, i, j) order, so their slots take the
        (3, nt, 9) element data of the flux Jacobian's three distinct entries
        in one ``bincount``.  A is symmetric, so its yx block is not summed:
        the keys end with the transposes of the distinct xy keys, and those
        slots, ``mirror``, copy the xy data from ``source``.
        """
        n_m = self.vector_space.n_dofs
        dof = 2 * self.mesh.triangles  # (nt, 3): x-dof of local node i
        nt = len(dof)

        def block(c, d):
            return ((dof[:, None, :] + d) * n_m + dof[:, :, None] + c).ravel()

        xy, first = np.unique(block(0, 1), return_index=True)
        a, slots = _FixedCsc.build(
            np.concatenate([block(0, 0), block(0, 1), block(1, 1),
                            xy % n_m * n_m + xy // n_m]), n_m, self._pinned_m)
        return a, slots[:27 * nt], slots[27 * nt:], slots[9 * nt + first]

    def _build_jacobian_pattern(self):
        """Pattern of [[A, -B^T], [B, M_phi/dt]] and its static data.

        Returns the pattern, the slots in it of the entries of
        :attr:`_momentum_pattern`, and the data of the B blocks and of M_phi.
        """
        a = self._momentum_pattern[0]
        n_m = a.n
        n = n_m + self.scalar_space.n_dofs
        b = self.div_coupling.tocoo()
        mass = self.mass_phi.tocoo()
        # int64 keys: n * n overflows int32 from N = 124 on
        a_col = np.repeat(np.arange(n_m, dtype=np.int64), np.diff(a.indptr))
        b_row, b_col = b.row.astype(np.int64), b.col.astype(np.int64)
        m_row, m_col = mass.row.astype(np.int64), mass.col.astype(np.int64)
        pattern, slots = _FixedCsc.build(
            np.concatenate([a_col * n + a.indices,
                            (n_m + b_row) * n + b_col,       # -B^T
                            b_col * n + n_m + b_row,         # B
                            (n_m + m_col) * n + n_m + m_row]),
            n, np.concatenate([self._pinned_m, n_m + self._pinned_rho]))
        a_slots, b_slots, mass_slots = np.split(
            slots, np.cumsum([a.nnz, 2 * b.nnz]))
        coupling = pattern.scatter(b_slots, np.concatenate([-b.data, b.data]))
        # a copy, so the slots of the static blocks are not kept
        return (pattern, a_slots.copy(), coupling,
                pattern.scatter(mass_slots, mass.data))

    # -- per-step data -------------------------------------------------------

    def _dpsi_values(self, t_n: float, dt: float) -> np.ndarray:
        if self.options.psi_t_mode == "analytic":
            return np.asarray(self.data.psi_t(self._qpts, t_n), dtype=float)
        return (np.asarray(self.data.psi(self._qpts, t_n), dtype=float)
                - np.asarray(self.data.psi(self._qpts, t_n - dt), dtype=float)) / dt

    def _momentum_bc_values(self, t_n: float) -> np.ndarray:
        """Exact momentum at the pinned dofs, in ``_pinned_m`` order."""
        bn = self.mesh.boundary_nodes
        return np.asarray(self.data.exact.m(self.mesh.nodes[bn], t_n),
                          dtype=float).reshape(-1)

    # -- the two nonlinear systems ---------------------------------------------

    def momentum(self, t: float) -> Callable[[np.ndarray, np.ndarray], Linearization]:
        """The momentum rows at time ``t``, as a function of (m, rho_bar).

        The load (grad Psi(t), v) and the exact-BC values are bound once.
        The function returns the rows and a thunk that builds their
        derivative w.r.t. m, the A block, on its own fixed pattern with the
        pinned rows set to identity rows: every A shares that pattern's
        index arrays, so a held factor of one preconditions the next.  m is
        evaluated at the quadrature points once, and the law's F(|m|) there
        serves the rows and the thunk; F' is evaluated only when the thunk
        is called, so a converged iterate never pays for it.  Alone, the
        momentum rows are the initialization's system.
        """
        vs = self.vector_space
        grad_psi = vs.load_vector(vs.component_major(self.data.grad_psi(self._qpts, t)))
        pinned = self._pinned_m
        bc = self._momentum_bc_values(t) if len(pinned) else np.empty(0)
        a, slots, mirror, source = self._momentum_pattern

        def linearize(m_dofs: np.ndarray, rho_bar: np.ndarray):
            flux, flux_jacobian = self.data.law.linearize(vs.eval_at_quadrature(m_dofs))
            r = vs.load_vector(flux) - self._div_coupling_T @ rho_bar + grad_psi
            r[pinned] = m_dofs[pinned] - bc

            def momentum_jacobian() -> sp.csc_matrix:
                data = a.scatter(slots, self.scalar_space.element_matrices(
                    flux_jacobian()).ravel())
                data[mirror] = data[source]
                return a.matrix(data)

            return r, momentum_jacobian

        return linearize

    def level(self, state_prev: SystemState, t_n: float,
              dt: float) -> Callable[[np.ndarray], Linearization]:
        """The backward-Euler level t_n = ``state_prev.t`` + dt, as a function
        of the flat ``[m, rho_bar]`` Newton vector x.

        The loads of f, dPsi and grad Psi and the exact-BC values are bound
        once.  ``linearize(x)`` returns the stacked (momentum, density)
        residual at x and a thunk that builds its Jacobian there (see
        :meth:`jacobian`) from the momentum rows' quadrature values.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if abs(t_n - state_prev.t - dt) > 1e-10 * max(1.0, abs(t_n)):
            raise ValueError("state times inconsistent with dt")
        ss = self.scalar_space
        f_vec = ss.load_vector(self.data.f(self._qpts, t_n))
        dpsi_vec = ss.load_vector(self._phi_q * self._dpsi_values(t_n, dt))
        momentum = self.momentum(t_n)
        n_m = self.vector_space.n_dofs
        rho_prev = state_prev.rho_bar

        def linearize(x: np.ndarray):
            m, rho_bar = x[:n_m], x[n_m:]
            r_mom, momentum_jacobian = momentum(m, rho_bar)
            r_den = self.mass_phi @ (rho_bar - rho_prev) / dt \
                + self.div_coupling @ m - f_vec + dpsi_vec
            r_den[self._pinned_rho] = rho_bar[self._pinned_rho]
            return (np.concatenate([r_mom, r_den]),
                    lambda: self._coupled_jacobian(momentum_jacobian(), dt))

        return linearize

    def _coupled_jacobian(self, momentum_jacobian: sp.csc_matrix,
                          dt: float) -> sp.csc_matrix:
        pattern, a_slots, coupling, mass = self._jacobian_pattern
        data = coupling + mass / dt
        data[a_slots] = momentum_jacobian.data
        return pattern.matrix(data)

    # -- views at one state ------------------------------------------------------

    def residual(self, state_n: SystemState, state_prev: SystemState,
                 dt: float) -> np.ndarray:
        """Stacked (momentum, density) residual at one time level."""
        return self.level(state_prev, state_n.t, dt)(
            np.concatenate([state_n.m, state_n.rho_bar]))[0]

    def jacobian(self, state_n: SystemState, dt: float) -> sp.csc_matrix:
        """Exact derivative of :meth:`residual` w.r.t. (m, rho_bar), in CSC.

        The matrix is J = [[A(m), -B^T], [B, M_phi / dt]] on a sparsity
        pattern built once per assembler.  Each call places the data of the
        A block (see :meth:`momentum`) in J's pattern, next to the static B
        and M_phi data (the four blocks share no entry).  A pinned row
        (``momentum_bc="exact"``, ``pin_rho_boundary``) is the identity row
        e_d^T, the derivative of its residual row m_d - g_d or rho_d.

        J is positive real: its symmetric part is blockdiag(A_sym, M_phi/dt)
        with A the symmetric positive definite flux Jacobian, since the B
        blocks cancel.  Every principal submatrix is then nonsingular, so
        LU without pivoting exists in any symmetric ordering.  Pinned rows
        keep this: expanding along e_d^T, a principal minor that contains d
        equals the minor without d, a principal minor of the positive-real
        unpinned matrix.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        _, momentum_jacobian = self.momentum(state_n.t)(state_n.m, state_n.rho_bar)
        return self._coupled_jacobian(momentum_jacobian(), dt)

    def initial_state(self, newton_tol: float = 1e-10) -> SystemState:
        """Project the initial density; solve the momentum rows by Newton from 0.

        The law is singular at m = 0, so the first steps are tiny; undamped
        Newton walks out of the clamp region reliably.  A failure raises
        :class:`~mixedflow.solver.NonConvergence` with the residual trace.
        """
        data = self.data
        rho_bar0 = l2_project(self.scalar_space,
                              lambda pts: np.asarray(data.rho0(pts), dtype=float)
                              - np.asarray(data.psi(pts, 0.0), dtype=float))
        momentum = self.momentum(0.0)
        m, _ = solver._newton(lambda m: momentum(m, rho_bar0),
                              np.zeros(self.vector_space.n_dofs), newton_tol,
                              _INIT_MAX_ITER, solver.LinearSolver(),
                              "in the momentum initialization")
        return SystemState(rho_bar0, m, 0.0)
