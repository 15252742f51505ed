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
An :class:`Assembler` is one system: a mesh, a problem, the
:class:`DiscretizationOptions` and the step dt.  It builds every sparse
matrix, each on the P1 node graph G.  J's four blocks live on one CSC
pattern lifted from G.  Its static data [[0, -B^T], [B, M_phi / dt]] is
scattered from the element data of B and M_phi once per assembler, and the
flux block once per Jacobian.  Beside J's pattern sits the residual
operator's: J's entries outside A, which the residual multiplies without
A's explicit zeros.  The unweighted P1 mass matrix M, which the initial
projection and a march's energies read, is on G.  The initial momentum
needs no matrix: it is the law inverted node by node (see
:meth:`Assembler.initial_state`).  Once built, an Assembler is plain data
that nothing writes: its methods cache nothing, so a level evaluates Psi
at both of its times.  Level n is named by its step index, an integer n >=
1 on the grid t_n = n dt; its data are evaluated at (n - 1) dt and n dt,
so no level lies off that grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import GeneralizedPolynomial
from .mesh_fem import ScalarP1Space, StructuredTriMesh, VectorP1Space

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
    the interior.  The porosity ``phi`` must be positive and finite at the
    quadrature points, which :class:`Assembler` checks.
    """

    law: GeneralizedPolynomial
    phi: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray, float], np.ndarray]
    psi: Callable[[np.ndarray, float], np.ndarray]
    psi_t: Callable[[np.ndarray, float], np.ndarray]
    grad_psi: Callable[[np.ndarray, float], np.ndarray]
    rho0: Callable[[np.ndarray], np.ndarray]
    exact: ExactSolution | None = None
    name: str = "problem"


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


class Assembler:
    """The backward-Euler system of one mesh, problem, options and step
    ``dt``: its static operators, built once, and its levels."""

    def __init__(self, mesh: StructuredTriMesh, data: ProblemData, dt: float,
                 options: DiscretizationOptions | None = None):
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        self.mesh = mesh
        self.data = data
        self.dt = dt
        self.options = options or DiscretizationOptions()
        self.scalar_space = ScalarP1Space(mesh)
        self.vector_space = VectorP1Space(mesh)
        if self.options.momentum_bc == "exact" and data.exact is None:
            raise ValueError("momentum_bc='exact' needs ProblemData.exact")
        self._qpts = self.scalar_space.quadrature_coords()
        self._phi_q = np.asarray(data.phi(self._qpts), dtype=float) \
            * np.ones(self._qpts.shape[:2])
        # phi > 0 keeps J positive real (see jacobian); nan fails both sides
        if not np.all((0.0 < self._phi_q) & (self._phi_q < math.inf)):
            raise ValueError("porosity must be positive and finite at the quadrature points")
        bn = mesh.boundary_nodes
        self._pinned_m = np.column_stack([2 * bn, 2 * bn + 1]).ravel() \
            if self.options.momentum_bc == "exact" else np.empty(0, dtype=int)
        self._pinned_rho = bn if self.options.pin_rho_boundary \
            else np.empty(0, dtype=int)
        self._lift()

    def _lift(self) -> None:
        """J's pattern, its static data and the residual operator, lifted
        from the P1 node graph G, and the unweighted mass M on G itself.

        Nodes i and j of G are adjacent when they share a triangle (i = j
        included).  Entry s of G's CSC pattern is row node ``row[s]`` of a
        column node j, at ``local[s]`` within j's ``deg[s]`` entries, which
        start at ``start[s]``; ``element[t, i, j]`` is the entry of local
        nodes i (row) and j (column) of triangle t.  Columns 2j, 2j + 1 and
        n_m + j of J hold the same rows: 2i and 2i + 1 for every neighbour i
        of node j in order, then n_m + i for each.  ``slot[r, c]`` is the
        data index of component block (r, c), r and c over (m_x, m_y,
        rho_bar), at every entry of G, so the element entry (i, j) of
        triangle t of that block sits at ``slot[r, c][element[t, i, j]]``
        and each block is scattered from its (nt, 3, 3) element data by one
        ``bincount``.  The flux block takes the xx, xy and yy data of the
        flux Jacobian; A is symmetric, so its yx block is not summed: the yx
        slots ``_mirror`` copy the xy data of the transposed entries,
        ``_source``.  Every J shares the read-only ``_indices`` and
        ``_indptr``, which is how a held factor recognises the next J as its
        own.  A pinned row is an identity row: its entries ``_pinned`` take
        ``_pinned_identity``, so its off-diagonal entries stay in the pattern
        as explicit zeros.  The static data ``_static`` is [[0, -B^T], [B,
        M_phi / dt]] on J's pattern, read-only.  The residual operator
        ``_operator`` holds it at J's entries outside A, in J's order.
        ``mass`` is M in CSC on G's rows and column starts, by one
        ``bincount``.
        """
        mesh = self.mesh
        tris, n_nodes = mesh.triangles, mesh.n_nodes
        # G's keys col * n_nodes + row sort into CSC order
        keys, element = np.unique(
            (tris[:, None, :] * n_nodes + tris[:, :, None]).ravel(), return_inverse=True)
        nnz = len(keys)
        element = element.reshape(-1, 3, 3)
        row = keys % n_nodes
        node_deg = np.bincount(keys // n_nodes, minlength=n_nodes)
        col = np.repeat(np.arange(n_nodes), node_deg)
        start = (np.cumsum(node_deg) - node_deg)[col]
        deg = node_deg[col]
        local = np.arange(nnz) - start
        n_m = self.vector_space.n_dofs
        first = (6 * start, 6 * start + 3 * deg,  # columns 2j, 2j + 1,
                 6 * nnz + 3 * start)              # n_m + j
        offset = (2 * local, 2 * local + 1, 2 * deg + local)
        slot = np.array([[f + o for f in first] for o in offset])
        indices = np.empty(9 * nnz, dtype=np.int32)
        for r, rows in enumerate((2 * row, 2 * row + 1, n_m + row)):
            indices[slot[r]] = rows
        n = n_m + n_nodes

        def starts(*counts):  # indptr of columns with these entry counts
            return np.concatenate([[0], np.cumsum(np.concatenate(counts))])

        indptr = starts(np.repeat(3 * node_deg, 2), 3 * node_deg).astype(np.int32)
        # every J shares these; read-only so none can corrupt the rest
        indices.flags.writeable = False
        indptr.flags.writeable = False
        self._indices, self._indptr = indices, indptr
        self._pinned = np.flatnonzero(
            np.isin(indices, np.concatenate([self._pinned_m, n_m + self._pinned_rho])))
        pinned_col = np.searchsorted(indptr, self._pinned, side="right") - 1
        self._pinned_identity = (indices[self._pinned] == pinned_col).astype(float)
        self._flux_slots = slot[[0, 0, 1], [0, 1, 1]][:, element].ravel()
        transpose = np.empty(nnz, dtype=np.int64)  # G's entry (j, i) at entry (i, j)
        transpose[element] = element.transpose(0, 2, 1)
        self._mirror, self._source = slot[1, 0][transpose], slot[0, 1].copy()
        # B's element entry (d phi_j / dx_c, phi_i) = |T| / 3 d phi_j / dx_c
        # is b_el[c, t, i, j]; -B^T's is -b_el[c, t, j, i]
        grad_int = np.moveaxis(mesh.grads, -1, 0) * (mesh.areas / 3.0)[:, None]
        b_el = np.broadcast_to(grad_int[:, :, None, :], (2, len(tris), 3, 3))
        coupling = np.bincount(slot[2, :2][:, element].ravel(), b_el.ravel(),
                               minlength=9 * nnz)
        coupling -= np.bincount(slot[:2, 2][:, element].ravel(),
                                b_el.transpose(0, 1, 3, 2).ravel(), minlength=9 * nnz)
        ss = self.scalar_space
        mass_phi = np.bincount(slot[2, 2][element].ravel(),
                               ss.element_matrices(self._phi_q).ravel(), minlength=9 * nnz)
        self._static = coupling + mass_phi / self.dt
        self._static.flags.writeable = False
        # the residual operator's entries: the rho_bar rows of each momentum
        # column, then each rho_bar column
        outside_a = (indices >= n_m) | (np.arange(9 * nnz) >= 6 * nnz)
        self._operator = sp.csc_matrix(
            (self._static[outside_a], indices[outside_a],
             starts(np.repeat(node_deg, 2), 3 * node_deg)), shape=(n, n))
        self._operator.data.flags.writeable = False
        mass = np.bincount(element.ravel(), ss.element_matrices(
            np.ones_like(self._phi_q)).ravel(), minlength=nnz)
        mass.flags.writeable = False
        self.mass = sp.csc_matrix((mass, row, starts(node_deg)), shape=(n_nodes, n_nodes))

    # -- per-step data -------------------------------------------------------

    def _psi_at(self, t: float) -> np.ndarray:
        return np.asarray(self.data.psi(self._qpts, t), dtype=float)

    def _dpsi_values(self, t_prev: float, t_n: float) -> np.ndarray:
        if self.options.psi_t_mode == "analytic":
            return np.asarray(self.data.psi_t(self._qpts, t_n), dtype=float)
        return (self._psi_at(t_n) - self._psi_at(t_prev)) / self.dt

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

    # -- one time level ----------------------------------------------------------

    def _jacobian(self, flux_jacobian: Callable[[], np.ndarray]) -> sp.csc_matrix:
        """J from the law's thunk for its (3, nt, nq) xx, xy and yy flux
        Jacobian values at the quadrature points: the flux block A scattered
        into J's pattern, plus the static data, with the pinned rows' identity
        entries.  The values are freed before J's data is allocated."""
        element_values = self.scalar_space.element_matrices(flux_jacobian())
        data = np.bincount(self._flux_slots, element_values.ravel(),
                           minlength=len(self._indices))
        data[self._mirror] = data[self._source]
        data += self._static
        data[self._pinned] = self._pinned_identity
        size = len(self._indptr) - 1
        return sp.csc_matrix((data, self._indices, self._indptr), shape=(size, size))

    def level(self, n: int,
              rho_bar_prev: np.ndarray) -> Callable[[np.ndarray], Linearization]:
        """Level n of the backward-Euler grid t_n = n dt, after the density
        ``rho_bar_prev`` of level n - 1, as a function of the flat ``[m,
        rho_bar]`` Newton vector x.

        n is an integer >= 1: a float raises ``TypeError`` and n < 1
        ``ValueError``.  Bound per assembler, so per dt: J's static data
        [[0, -B^T], [B, M_phi / dt]] and the residual operator over its
        entries outside A (see :meth:`_lift`).  Bound per level: the loads of
        f, dPsi and grad Psi at t_n, the exact-BC values at t_n and -B^T
        rho_bar_{n-1}; in the discrete ``psi_t_mode`` Psi is evaluated at
        (n - 1) dt and at t_n.  Per iterate, ``linearize(x)`` returns the
        stacked (momentum, density) residual at x, whose -B^T rho_bar, B m
        and M_phi (rho_bar - rho_bar_{n-1}) / dt terms are one product with
        the residual operator, and a thunk that builds J at x from the law's
        values at x's quadrature points (see :meth:`jacobian`).
        """
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"level n must be >= 1, got {n}")
        t_n = n * self.dt
        load = self.scalar_space.load_vector(
            self._phi_q * self._dpsi_values((n - 1) * self.dt, t_n)
            - self.data.f(self._qpts, t_n))
        grad_psi, bc = self._momentum_loads(t_n)
        vs = self.vector_space
        n_m = vs.n_dofs
        x_prev = np.concatenate([np.zeros(n_m), rho_bar_prev])
        coupling_prev = (self._operator @ x_prev)[:n_m]  # -B^T rho_bar_{n-1}

        def linearize(x: np.ndarray):
            # [-B^T (rho_bar - rho_prev); B m + M_phi (rho_bar - rho_prev) / dt]
            static_rows = self._operator @ (x - x_prev)
            flux, flux_jacobian = self.data.law.linearize(vs.eval_at_quadrature(x[:n_m]))
            r_mom = vs.load_vector(flux) + (static_rows[:n_m] + coupling_prev) + grad_psi
            r_mom[self._pinned_m] = x[self._pinned_m] - bc
            r_den = static_rows[n_m:] + load
            r_den[self._pinned_rho] = x[n_m:][self._pinned_rho]
            return np.concatenate([r_mom, r_den]), lambda: self._jacobian(flux_jacobian)

        return linearize

    # -- views at one state ------------------------------------------------------

    def residual(self, n: int, state_n: SystemState,
                 state_prev: SystemState) -> np.ndarray:
        """Stacked (momentum, density) residual of level n at ``state_n``,
        after ``state_prev``."""
        return self.level(n, state_prev.rho_bar)(
            np.concatenate([state_n.m, state_n.rho_bar]))[0]

    def jacobian(self, state_n: SystemState) -> sp.csc_matrix:
        """Exact derivative of :meth:`residual` w.r.t. (m, rho_bar), in CSC,
        at ``state_n``; it reads only the momentum, so it is the same at
        every level.

        The matrix is J = [[A(m), -B^T], [B, M_phi / dt]] on one sparsity
        pattern, lifted once per assembler from the P1 node graph.  The
        static data of B, -B^T and M_phi / dt, for the assembler's dt, are
        scattered into it once; each Jacobian scatters the flux block A into
        the same pattern (the four blocks share no entry) and adds the
        static data.  A pinned row
        (``momentum_bc="exact"``, ``pin_rho_boundary``) is the identity row
        e_d^T, the derivative of its residual row m_d - g_d or rho_d.

        J is positive real: its symmetric part is blockdiag(A_sym, M_phi/dt)
        with A the symmetric positive definite flux Jacobian and phi > 0,
        since the B blocks cancel.  Every principal submatrix is then
        nonsingular, so LU without pivoting exists in any symmetric
        ordering.  Pinned rows keep this: expanding along e_d^T, a principal
        minor that contains d equals the minor without d, a principal minor
        of the positive-real unpinned matrix.
        """
        _, flux_jacobian = self.data.law.linearize(
            self.vector_space.eval_at_quadrature(state_n.m))
        return self._jacobian(flux_jacobian)

    def initial_state(self) -> SystemState:
        """Project rho_0 - Psi(., 0) onto P1 with :attr:`mass`; invert the
        law node by node for the momentum.

        m_0 enters no level equation (level n reads rho_bar_{n-1} alone, see
        :meth:`level`): it only starts the first level's Newton and the
        second level's extrapolation, so no Newton solve refines it.  It
        solves the momentum rows at rho_bar_0 with the mass lumped, where
        they read F(|m_i|) m_i = g_i at each node i, with the nodal target
        g_i = ((B^T rho_bar_0)_i - (grad Psi, v)_i) / (integral of phi_i);
        :meth:`~mixedflow.constitutive.GeneralizedPolynomial.invert` gives
        m_i = (g_i / |g_i|) z_i with z_i F(z_i) = |g_i|, which does not
        overflow where F is tiny and z_i / |g_i| = 1 / F(z_i) would.  The
        pinned dofs take their exact values.  When the momentum is constant in space, as on
        the built-in problems, this solves the unlumped rows to roundoff too
        (the lumped-mass method; Thomee, Galerkin Finite Element Methods for
        Parabolic Problems, 2006, ch. 15).  B^T rho_bar_0 comes from the
        momentum rows of the residual operator, whose -B^T entries do not
        depend on dt, so the initial state is the same for every dt.
        """
        rho_bar0 = _solve_spd(self.mass, self.scalar_space.load_vector(
            np.asarray(self.data.rho0(self._qpts), dtype=float) - self._psi_at(0.0)))
        grad_psi, bc = self._momentum_loads(0.0)
        n_m = self.vector_space.n_dofs
        coupling = (self._operator  # -B^T rho_bar_0
                    @ np.concatenate([np.zeros(n_m), rho_bar0]))[:n_m]
        target = (-coupling - grad_psi).reshape(-1, 2) \
            / self.scalar_space.load_vector(1.0)[:, None]
        size = np.hypot(target[:, 0], target[:, 1])[:, None]
        direction = np.divide(target, size, out=np.zeros_like(target), where=size > 0.0)
        m0 = (direction * self.data.law.invert(size)).reshape(-1)
        m0[self._pinned_m] = bc
        return SystemState(rho_bar0, m0, 0.0)


def _solve_spd(mat: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve a P1 mass-matrix system by Jacobi-preconditioned CG.

    The Jacobi-scaled P1 mass matrix has condition number at most 4 on any
    mesh (Wathen, IMA J. Numer. Anal. 1987), so CG needs a fixed, small
    number of iterations at every h (19-22 at N = 16 to 128).  CG aims at
    1e-12 ||rhs||, at least two decades inside the residual check; for a
    zero ``rhs`` it returns zero without iterating.
    """
    sol, _ = spla.cg(mat, rhs, rtol=1e-12, atol=0.0,
                     M=sp.diags(1.0 / mat.diagonal()))
    resid = np.linalg.norm(mat @ sol - rhs)
    scale = max(np.linalg.norm(rhs), 1.0)
    if not np.isfinite(resid) or resid > 1e-10 * scale:
        raise RuntimeError(f"mass solve failed: residual {resid:.3e}")
    return sol
