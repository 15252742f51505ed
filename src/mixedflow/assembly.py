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
All four blocks live on one CSC pattern, lifted once from the P1 node
graph.  B, -B^T and M_phi are scattered into it from their element data
once per assembler, and the flux block once per Jacobian; the A-only
matrix of the momentum initialization is J's momentum rows of its momentum
columns.
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
    """CSC pattern of an n x n matrix with fixed ``indices`` and ``indptr``.

    A triplet k that adds into ``data[slots[k]]`` is assembled by one
    ``np.bincount`` over ``slots`` (:meth:`scatter`).  Every matrix of one
    pattern shares its read-only ``indices`` and ``indptr``, which is how a
    held factor recognises the next matrix as its own.  Rows listed in
    ``pinned`` become identity rows in :meth:`matrix`; their off-diagonal
    entries stay in the pattern as explicit zeros.
    """

    def __init__(self, indices: np.ndarray, indptr: np.ndarray,
                 pinned: np.ndarray):
        self.n = len(indptr) - 1
        self.nnz = len(indices)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        # every matrix shares these; read-only so none can corrupt the rest
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False
        in_pinned_row = np.zeros(self.n, dtype=bool)
        in_pinned_row[pinned] = True
        self._pinned = np.flatnonzero(in_pinned_row[self.indices])
        col = np.repeat(np.arange(self.n), np.diff(self.indptr))[self._pinned]
        self._pinned_diag = self._pinned[self.indices[self._pinned] == col]

    def scatter(self, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.bincount(slots, weights=values, minlength=self.nnz)

    def operator(self, data: np.ndarray) -> sp.csc_matrix:
        """CSC matrix over ``data`` as it is, pinned rows included."""
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """CSC matrix over ``data``, with the pinned rows of ``data`` set to
        identity rows in place."""
        data[self._pinned] = 0.0
        data[self._pinned_diag] = 1.0
        return self.operator(data)


@dataclass(frozen=True)
class _NodeGraph:
    """The P1 node graph G, the pattern every block of the system lifts.

    Nodes i and j are adjacent when they share a triangle (i = j included);
    node j has ``node_deg[j]`` neighbours.  Entry s of G's CSC pattern is
    row node ``row[s]`` of a column node j, at ``local[s]`` within j's
    ``deg[s]`` entries, which start at ``start[s]``; ``transpose[s]`` is the
    entry (j, row[s]).  ``element[t, i, j]`` is the entry of local nodes i
    (row) and j (column) of triangle t.
    """

    nnz: int
    node_deg: np.ndarray
    row: np.ndarray
    start: np.ndarray
    deg: np.ndarray
    local: np.ndarray
    transpose: np.ndarray
    element: np.ndarray

    @classmethod
    def build(cls, triangles: np.ndarray, n_nodes: int) -> _NodeGraph:
        # keys col * n_nodes + row sort into CSC order
        unique, slots = np.unique(
            (triangles[:, None, :] * n_nodes + triangles[:, :, None]).ravel(),
            return_inverse=True)
        nnz = len(unique)
        element = slots.reshape(-1, 3, 3)
        transpose = np.empty(nnz, dtype=np.int64)
        transpose[element] = element.transpose(0, 2, 1)
        node_deg = np.bincount(unique // n_nodes, minlength=n_nodes)
        col = np.repeat(np.arange(n_nodes), node_deg)
        start = (np.cumsum(node_deg) - node_deg)[col]
        return cls(nnz, node_deg, unique % n_nodes, start, node_deg[col],
                   np.arange(nnz) - start, transpose, element)


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
        bn = mesh.boundary_nodes
        self._pinned_m = np.column_stack([2 * bn, 2 * bn + 1]).ravel() \
            if self.options.momentum_bc == "exact" else np.empty(0, dtype=int)
        self._pinned_rho = bn if self.options.pin_rho_boundary \
            else np.empty(0, dtype=int)
        self._lift(_NodeGraph.build(mesh.triangles, mesh.n_nodes))

    def _lift(self, g: _NodeGraph) -> None:
        """J's pattern, its A part and the static data of B, -B^T and M_phi,
        lifted from the node graph G.

        Columns 2j, 2j + 1 and n_m + j of J hold the same rows: 2i and
        2i + 1 for every neighbour i of node j in order, then n_m + i for
        each.  ``slot[r, c]`` is the data index of component block (r, c),
        r and c over (m_x, m_y, rho_bar), at every entry of G, so the
        element entry (i, j) of triangle t of that block sits at
        ``slot[r, c][g.element[t, i, j]]`` and each block is scattered from
        its (nt, 3, 3) element data by one ``bincount``.  The flux block
        takes the xx, xy and yy data of the flux Jacobian; A is symmetric,
        so its yx block is not summed: the yx slots ``_mirror`` copy the xy
        data of the transposed entries, ``_source``.  A alone is J's
        momentum rows of its momentum columns, ``_a_slots``, which keep J's
        order.
        """
        n_m = self.vector_space.n_dofs
        first = (6 * g.start, 6 * g.start + 3 * g.deg,  # columns 2j, 2j + 1,
                 6 * g.nnz + 3 * g.start)                # n_m + j
        offset = (2 * g.local, 2 * g.local + 1, 2 * g.deg + g.local)
        slot = np.array([[f + o for f in first] for o in offset])
        indices = np.empty(9 * g.nnz, dtype=np.int32)
        for r, rows in enumerate((2 * g.row, 2 * g.row + 1, n_m + g.row)):
            indices[slot[r]] = rows
        deg = g.node_deg
        self._pattern = _FixedCsc(
            indices, np.concatenate(
                [[0], np.cumsum(np.concatenate([np.repeat(3 * deg, 2), 3 * deg]))]),
            np.concatenate([self._pinned_m, n_m + self._pinned_rho]))
        self._a_slots = np.flatnonzero(indices[:6 * g.nnz] < n_m)
        self._a = _FixedCsc(indices[self._a_slots],
                            np.concatenate([[0], np.cumsum(np.repeat(2 * deg, 2))]),
                            self._pinned_m)
        self._flux_slots = slot[[0, 0, 1], [0, 1, 1]][:, g.element].ravel()
        self._mirror, self._source = slot[1, 0][g.transpose], slot[0, 1].copy()
        # B's element entry (d phi_j / dx_c, phi_i) = |T| / 3 d phi_j / dx_c
        # is b_el[c, t, i, j]; -B^T's is -b_el[c, t, j, i]
        mesh = self.mesh
        grad_int = np.moveaxis(mesh.grads, -1, 0) * (mesh.areas / 3.0)[:, None]
        b_el = np.broadcast_to(grad_int[:, :, None, :], (2, len(mesh.triangles), 3, 3))
        self._coupling = self._pattern.scatter(slot[2, :2][:, g.element].ravel(),
                                               b_el.ravel())
        self._coupling -= self._pattern.scatter(slot[:2, 2][:, g.element].ravel(),
                                                b_el.transpose(0, 1, 3, 2).ravel())
        self._mass = self._pattern.scatter(
            slot[2, 2][g.element].ravel(),
            self.scalar_space.element_matrices(self._phi_q).ravel())

    # -- per-step data -------------------------------------------------------

    def _dpsi_values(self, t_n: float, dt: float) -> np.ndarray:
        if self.options.psi_t_mode == "analytic":
            return np.asarray(self.data.psi_t(self._qpts, t_n), dtype=float)
        return (np.asarray(self.data.psi(self._qpts, t_n), dtype=float)
                - np.asarray(self.data.psi(self._qpts, t_n - dt), dtype=float)) / dt

    def _momentum_loads(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The load (grad Psi(t), v) and the exact momentum at the pinned
        dofs, in ``_pinned_m`` order."""
        vs = self.vector_space
        grad_psi = vs.load_vector(vs.component_major(self.data.grad_psi(self._qpts, t)))
        if not len(self._pinned_m):
            return grad_psi, np.empty(0)
        bn = self.mesh.boundary_nodes
        return grad_psi, np.asarray(self.data.exact.m(self.mesh.nodes[bn], t),
                                    dtype=float).reshape(-1)

    # -- the two nonlinear systems ---------------------------------------------

    def _momentum_rows(self, grad_psi: np.ndarray, bc: np.ndarray) -> Callable[
            [np.ndarray, np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]:
        """The momentum rows over the loads bound by :meth:`_momentum_loads`,
        as a function of m and their coupling term -B^T rho_bar.  The thunk
        returns J's data of the flux block A (see :meth:`_flux_block`)."""
        vs = self.vector_space
        pinned = self._pinned_m

        def linearize(m_dofs: np.ndarray, coupling: np.ndarray):
            flux, flux_jacobian = self.data.law.linearize(vs.eval_at_quadrature(m_dofs))
            r = vs.load_vector(flux) + coupling + grad_psi
            r[pinned] = m_dofs[pinned] - bc
            return r, lambda: self._flux_block(flux_jacobian)

        return linearize

    def _flux_block(self, flux_jacobian: Callable[[], np.ndarray]) -> np.ndarray:
        """J's data with the flux block A, and zeros elsewhere, from the law's
        thunk for its (3, nt, nq) xx, xy and yy values at the quadrature
        points.  The values are freed before J's data is allocated."""
        element_values = self.scalar_space.element_matrices(flux_jacobian())
        data = self._pattern.scatter(self._flux_slots, element_values.ravel())
        data[self._mirror] = data[self._source]
        return data

    def level(self, state_prev: SystemState, t_n: float,
              dt: float) -> Callable[[np.ndarray], Linearization]:
        """The backward-Euler level t_n = ``state_prev.t`` + dt, as a function
        of the flat ``[m, rho_bar]`` Newton vector x.

        The loads of f, dPsi and grad Psi, the exact-BC values and J's
        static data [[0, -B^T], [B, M_phi / dt]] are bound once.  One
        operator over that data gives the residual's -B^T rho_bar, B m and
        M_phi (rho_bar - rho_bar_{n-1}) / dt terms.  ``linearize(x)`` returns
        the stacked (momentum, density) residual at x and a thunk that adds
        the flux block at x, from the momentum rows' quadrature values, to
        the static data (see :meth:`jacobian`).
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if abs(t_n - state_prev.t - dt) > 1e-10 * max(1.0, abs(t_n)):
            raise ValueError("state times inconsistent with dt")
        ss = self.scalar_space
        load = ss.load_vector(self._phi_q * self._dpsi_values(t_n, dt)) \
            - ss.load_vector(self.data.f(self._qpts, t_n))
        momentum = self._momentum_rows(*self._momentum_loads(t_n))
        n_m = self.vector_space.n_dofs
        static = self._coupling + self._mass / dt
        operator = self._pattern.operator(static)
        x_prev = np.concatenate([np.zeros(n_m), state_prev.rho_bar])
        coupling_prev = (operator @ x_prev)[:n_m]  # -B^T rho_bar_{n-1}

        def linearize(x: np.ndarray):
            # [-B^T (rho_bar - rho_prev); B m + M_phi (rho_bar - rho_prev) / dt]
            static_rows = operator @ (x - x_prev)
            r_mom, flux_block = momentum(x[:n_m], static_rows[:n_m] + coupling_prev)
            r_den = static_rows[n_m:] + load
            r_den[self._pinned_rho] = x[n_m:][self._pinned_rho]

            def jacobian() -> sp.csc_matrix:
                data = flux_block()
                data += static
                return self._pattern.matrix(data)

            return np.concatenate([r_mom, r_den]), jacobian

        return linearize

    # -- views at one state ------------------------------------------------------

    def residual(self, state_n: SystemState, state_prev: SystemState,
                 dt: float) -> np.ndarray:
        """Stacked (momentum, density) residual at one time level."""
        return self.level(state_prev, state_n.t, dt)(
            np.concatenate([state_n.m, state_n.rho_bar]))[0]

    def jacobian(self, state_n: SystemState, dt: float) -> sp.csc_matrix:
        """Exact derivative of :meth:`residual` w.r.t. (m, rho_bar), in CSC:
        the Jacobian thunk of :meth:`level` at ``state_n``.

        The matrix is J = [[A(m), -B^T], [B, M_phi / dt]] on one sparsity
        pattern, lifted once per assembler from the P1 node graph.  The
        static B, -B^T and M_phi data are scattered into it once; each
        Jacobian scatters the flux block A into the same pattern (the four
        blocks share no entry) and adds the static data.  A pinned row
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
        prev = SystemState(state_n.rho_bar, state_n.m, state_n.t - dt)
        return self.level(prev, state_n.t, dt)(
            np.concatenate([state_n.m, state_n.rho_bar]))[1]()

    def initial_state(self, newton_tol: float = 1e-10) -> SystemState:
        """Project the initial density; solve the momentum rows by Newton from
        the law inverted at the nodes.

        The momentum rows hold no derivative of m.  With the mass lumped
        they read F(|m_i|) m_i = g_i at each node i, with the nodal target
        g_i = ((B^T rho_bar_0)_i - (grad Psi, v)_i) / (integral of phi_i),
        and :meth:`~mixedflow.constitutive.GeneralizedPolynomial.invert`
        solves them node by node: m_i = g_i z_i / |g_i| with
        z_i F(z_i) = |g_i|.  The pinned dofs take their exact values.  This
        start solves the rows to roundoff when the momentum is constant, as
        on the built-in problems (the lumped-mass method; Thomee, Galerkin
        Finite Element Methods for Parabolic Problems, 2006, ch. 15);
        otherwise it is only a start, and Newton corrects it.  Newton
        accepts an iterate by the same rule ||residual|| <= ``newton_tol``
        from any start, and checks the start like every iterate: a
        non-finite one raises :class:`~mixedflow.solver.NonConvergence`
        with the residual trace, as does a failure on the way.
        """
        data = self.data
        rho_bar0 = l2_project(self.scalar_space,
                              lambda pts: np.asarray(data.rho0(pts), dtype=float)
                              - np.asarray(data.psi(pts, 0.0), dtype=float))
        grad_psi, bc = self._momentum_loads(0.0)
        n_m = self.vector_space.n_dofs
        coupling = (self._pattern.operator(self._coupling)  # -B^T rho_bar_0
                    @ np.concatenate([np.zeros(n_m), rho_bar0]))[:n_m]
        with np.errstate(over="ignore", invalid="ignore"):
            target = (-coupling - grad_psi).reshape(-1, 2) \
                / self.scalar_space.load_vector(1.0)[:, None]
            size = np.hypot(target[:, 0], target[:, 1])
            scale = np.divide(data.law.invert(size), size,
                              out=np.zeros_like(size), where=size > 0.0)
            m0 = (target * scale[:, None]).reshape(-1)
        m0[self._pinned_m] = bc
        momentum = self._momentum_rows(grad_psi, bc)

        def linearize(m: np.ndarray) -> Linearization:
            # A alone, J's momentum rows of its momentum columns: every A
            # shares one pattern, so a held factor preconditions the next
            r, flux_block = momentum(m, coupling)
            return r, lambda: self._a.matrix(flux_block()[self._a_slots])

        m, _ = solver._newton(linearize, m0, newton_tol, _INIT_MAX_ITER,
                              solver.LinearSolver(), "in the momentum initialization")
        return SystemState(rho_bar0, m, 0.0)
