"""Parity of the fixed-pattern Jacobian, the per-level residual loads and
the reused symmetric-mode LU with the paths they replaced: a ``sp.bmat``
assembly with LIL row surgery, a residual that assembles its load vectors
on every call by a four-operand einsum and ``np.add.at``, and SciPy's
default (COLAMD, partial pivoting) ``splu`` on every solve.  The references
take m at the quadrature points and the element dofs from their own einsum
and the mesh's triangles, and B and M_phi from the mesh's basis gradients
and their own element mass, not from the assembler or the space kernels
under test."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import momentum_rows
from mixedflow import solver as solver_module
from mixedflow.assembly import Assembler, DiscretizationOptions, SystemState
from mixedflow.harness import builtin_problem
from mixedflow.mesh_fem import QUAD_POINTS, QUAD_WEIGHTS, build_mesh
from mixedflow.solver import (LinearSolveFailure, LinearSolver, MarchConfig,
                              march)

OPTIONS = [DiscretizationOptions(momentum_bc=bc, pin_rho_boundary=pin)
           for bc in ("none", "exact") for pin in (False, True)]


def element_dofs(space):
    """The dofs of each triangle node by node, a node's components adjacent:
    (nt, 3) in the scalar space, (nt, 6) in the vector space."""
    tris = space.mesh.triangles
    if space.n_dofs == space.mesh.n_nodes:
        return tris
    return (2 * tris[:, :, None] + np.arange(2)).reshape(-1, 6)


def reference_momentum_at_quadrature(asm, m_dofs):
    """m at the quadrature points, (nt, nq, 2), by an einsum over the nodal
    values."""
    nodal = np.asarray(m_dofs).reshape(-1, 2)[asm.mesh.triangles]  # (nt, 3, 2)
    return np.einsum("qk,tkc->tqc", QUAD_POINTS, nodal)


def reference_load(space, g):
    """(g, v) for every basis function v of ``space``, from the einsum and an
    ``np.add.at`` scatter; g maps (nt, nq, 2) points to (nt, nq) scalars or
    (nt, nq, 2) vectors."""
    gq = np.asarray(g(space.quadrature_coords()), dtype=float)
    r_el = np.einsum("q,tq...,qk->tk...", QUAD_WEIGHTS, gq, QUAD_POINTS)
    r_el *= space.mesh.areas.reshape(-1, *(1,) * (r_el.ndim - 1))
    out = np.zeros(space.n_dofs)
    np.add.at(out, element_dofs(space).ravel(), r_el.ravel())
    return out


def reference_momentum_block(asm, m_dofs):
    """A(m) from the four-operand element einsum and a coo->csr scatter."""
    law = asm.data.law
    vs = asm.vector_space
    basis = QUAD_POINTS
    mq = reference_momentum_at_quadrature(asm, m_dofs)
    mag = np.sqrt(np.sum(mq * mq, axis=-1))
    f = law.eval_F(mag)
    magc = np.maximum(mag, law.eps_reg)
    fp = law.eval_F_prime(magc)
    jq = f[:, :, None, None] * np.eye(2)[None, None] \
        + (fp / magc)[:, :, None, None] * mq[:, :, :, None] * mq[:, :, None, :]
    a_el = np.einsum("q,qi,qj,tqcd->ticjd", QUAD_WEIGHTS, basis, basis, jq) \
        * asm.mesh.areas[:, None, None, None, None]
    dof = element_dofs(vs)
    rows = np.repeat(dof, 6, axis=1).ravel()
    cols = np.tile(dof, (1, 6)).ravel()
    return sp.coo_matrix((a_el.reshape(-1, 36).ravel(), (rows, cols)),
                         shape=(vs.n_dofs, vs.n_dofs)).tocsr()


def reference_div_coupling(asm):
    """B[k, 2i + c] = (d phi_i / dx_c, phi_k) from the mesh's basis gradients
    and |T| / 3, the integral of each P1 basis function over triangle T, by a
    coo->csr scatter: density rows, momentum columns."""
    mesh = asm.mesh
    tris, nt = mesh.triangles, len(mesh.triangles)
    vals = mesh.grads[:, None, :, :] * mesh.areas[:, None, None, None] / 3.0
    rows = np.broadcast_to(tris[:, :, None, None], (nt, 3, 3, 2))
    cols = np.broadcast_to(2 * tris[:, None, :, None] + np.arange(2), (nt, 3, 3, 2))
    return sp.coo_matrix((np.broadcast_to(vals, (nt, 3, 3, 2)).ravel(),
                          (rows.ravel(), cols.ravel())),
                         shape=(mesh.n_nodes, 2 * mesh.n_nodes)).tocsr()


def reference_mass(asm):
    """(phi phi_j, phi_i) from the element quadrature and a coo->csr scatter."""
    mesh = asm.mesh
    pts = asm.scalar_space.quadrature_coords()
    phi_q = np.asarray(asm.data.phi(pts), dtype=float) * np.ones(pts.shape[:2])
    m_el = np.einsum("q,tq,qi,qj->tij", QUAD_WEIGHTS, phi_q, QUAD_POINTS,
                     QUAD_POINTS) * mesh.areas[:, None, None]
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    return sp.coo_matrix((m_el.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def pinned_momentum_dofs(asm):
    bn = asm.mesh.boundary_nodes
    return np.column_stack([2 * bn, 2 * bn + 1]).ravel()


def reference_jacobian(asm, state, dt):
    a_blk = reference_momentum_block(asm, state.m)
    b = reference_div_coupling(asm)
    bt = b.T.tocsr()
    m_dt = reference_mass(asm) / dt
    if asm.options.momentum_bc == "exact":
        a_blk, bt = a_blk.tolil(), bt.tolil()
        for d in pinned_momentum_dofs(asm):
            a_blk.rows[d], a_blk.data[d] = [d], [1.0]
            bt.rows[d], bt.data[d] = [], []
        a_blk, bt = a_blk.tocsr(), bt.tocsr()
    if asm.options.pin_rho_boundary:
        m_dt, b = m_dt.tolil(), b.tolil()
        for d in asm.mesh.boundary_nodes:
            m_dt.rows[d], m_dt.data[d] = [d], [1.0]
            b.rows[d], b.data[d] = [], []
        m_dt, b = m_dt.tocsr(), b.tocsr()
    return sp.bmat([[a_blk, -bt], [b, m_dt]], format="csc")


def reference_flux_vector(asm, m_dofs):
    """(F(|m|) m, v) from the four-operand einsum and an ``np.add.at`` scatter."""
    vs = asm.vector_space
    mq = reference_momentum_at_quadrature(asm, m_dofs)
    f = asm.data.law.eval_F(np.sqrt(np.sum(mq * mq, axis=-1)))
    r_el = np.einsum("q,tq,tqc,qk->tkc", QUAD_WEIGHTS, f, mq, QUAD_POINTS) \
        * asm.mesh.areas[:, None, None]
    out = np.zeros(vs.n_dofs)
    np.add.at(out, element_dofs(vs).ravel(), r_el.reshape(-1, 6).ravel())
    return out


def reference_momentum_residual(asm, m_dofs, rho_bar, t):
    data = asm.data
    grad_psi = reference_load(asm.vector_space, lambda pts: data.grad_psi(pts, t))
    r = reference_flux_vector(asm, m_dofs) \
        - reference_div_coupling(asm).T @ rho_bar + grad_psi
    if asm.options.momentum_bc == "exact":
        bn = asm.mesh.boundary_nodes
        pinned = pinned_momentum_dofs(asm)
        r[pinned] = m_dofs[pinned] - data.exact.m(asm.mesh.nodes[bn], t).reshape(-1)
    return r


def reference_residual(asm, state, prev, dt):
    """The residual with every load vector assembled on the call."""
    data, ss, t = asm.data, asm.scalar_space, state.t

    def phi_dpsi(pts):
        if asm.options.psi_t_mode == "analytic":
            dpsi = data.psi_t(pts, t)
        else:
            dpsi = (data.psi(pts, t) - data.psi(pts, t - dt)) / dt
        return np.asarray(data.phi(pts), dtype=float) * dpsi * np.ones(pts.shape[:2])

    f_vec = reference_load(ss, lambda pts: np.asarray(data.f(pts, t), dtype=float)
                           * np.ones(pts.shape[:2]))
    r_mom = reference_momentum_residual(asm, state.m, state.rho_bar, t)
    r_den = reference_mass(asm) @ (state.rho_bar - prev.rho_bar) / dt \
        + reference_div_coupling(asm) @ state.m - f_vec + reference_load(ss, phi_dpsi)
    if asm.options.pin_rho_boundary:
        bn = asm.mesh.boundary_nodes
        r_den[bn] = state.rho_bar[bn]
    return np.concatenate([r_mom, r_den])


def random_state(asm, rng, t=0.5):
    nv = asm.mesh.n_nodes
    m = np.tile([0.8, -0.6], nv) + 0.3 * rng.standard_normal(2 * nv)
    return SystemState(rng.standard_normal(nv), m, t)


def rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module")
def systems():
    """(N, options, assembler, state, dt) for every parity case."""
    data = builtin_problem("example1")
    cases = []
    for n in (2, 8, 32):
        mesh = build_mesh(n)
        for k, options in enumerate(OPTIONS):
            asm = Assembler(mesh, data, 0.5 / n, options)
            rng = np.random.default_rng(10 * n + k)
            cases.append((n, options, asm, random_state(asm, rng), asm.dt))
    return cases


class TestJacobianParity:
    def test_matches_bmat_reference(self, systems):
        for n, options, asm, state, dt in systems:
            jac = asm.jacobian(state)
            assert jac.format == "csc"
            ref = reference_jacobian(asm, state, dt)
            assert rel_diff(jac.toarray(), ref.toarray()) <= 1e-13, (n, options)

    def test_matches_reference_past_int32_keys(self):
        # n * n exceeds 2**31 from N = 124 on; pattern keys must not wrap
        options = DiscretizationOptions(momentum_bc="exact", pin_rho_boundary=True)
        asm = Assembler(build_mesh(128), builtin_problem("example1"), 1 / 256, options)
        state = random_state(asm, np.random.default_rng(128))
        ref = reference_jacobian(asm, state, 1 / 256)
        assert abs(asm.jacobian(state) - ref).max() <= 1e-13 * abs(ref).max()

    def test_momentum_jacobian_matches_reference_block(self, systems):
        for n, options, asm, state, _ in systems:
            ref = reference_momentum_block(asm, state.m).tolil()
            if options.momentum_bc == "exact":
                for d in pinned_momentum_dofs(asm):
                    ref.rows[d], ref.data[d] = [d], [1.0]
            n_m = asm.vector_space.n_dofs
            got = asm.jacobian(state)[:n_m, :n_m]
            assert rel_diff(got.toarray(), ref.toarray()) <= 1e-13, (n, options)

    def test_calls_do_not_share_data(self, systems):
        _, _, asm, state, _ = systems[-1]
        first = asm.jacobian(state)
        before = first.toarray()
        asm.jacobian(SystemState(state.rho_bar, 2.0 * state.m, state.t))
        np.testing.assert_array_equal(first.toarray(), before)


def key_sort_pattern(asm):
    """J's pattern and the arrays that fill it, by one sort of the keys
    ``col * n + row`` of every element entry of every block: how the fixed
    patterns were built before they were lifted from the node graph.
    Returns J's indices and indptr, the flux slots, the yx ``mirror`` and
    xy ``source`` slots, and the static data of the B blocks and of M_phi."""
    n_m = asm.vector_space.n_dofs
    n = n_m + asm.mesh.n_nodes
    tris = asm.mesh.triangles
    dofs = (2 * tris, 2 * tris + 1, n_m + tris)  # m_x, m_y, rho_bar of each node

    def keys(r, c):  # element entries (t, i, j) of block (r, c)
        return (dofs[c][:, None, :] * n + dofs[r][:, :, None]).ravel()

    unique = np.unique(np.concatenate([keys(r, c) for r in range(3) for c in range(3)]))
    row, col = unique % n, unique // n

    def slots(ks):
        return np.searchsorted(unique, ks)

    xy = np.unique(keys(0, 1))
    b, mass = reference_div_coupling(asm).tocoo(), reference_mass(asm).tocoo()
    b_row, b_col = b.row.astype(np.int64), b.col.astype(np.int64)
    coupling = np.bincount(
        slots(np.concatenate([b_col * n + n_m + b_row, (n_m + b_row) * n + b_col])),
        np.concatenate([b.data, -b.data]), len(unique))
    mass_data = np.bincount(
        slots((n_m + mass.col.astype(np.int64)) * n + n_m + mass.row), mass.data,
        len(unique))
    return (row, np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n))]),
            slots(np.concatenate([keys(0, 0), keys(0, 1), keys(1, 1)])),
            slots(xy % n * n + xy // n), slots(xy), coupling, mass_data)


class TestLiftedPatterns:
    """The single pattern lifted from the node graph against the key sort it
    replaces: the same arrays, and Jacobians equal bit for bit."""

    @pytest.fixture(params=[(n, options) for n in (2, 5, 16) for options in OPTIONS],
                    ids=lambda p: f"N{p[0]}-{p[1].momentum_bc}-pin{p[1].pin_rho_boundary}")
    def pair(self, request):
        n, options = request.param
        mesh, data = build_mesh(n), builtin_problem("example1")
        return Assembler(mesh, data, 0.1, options), Assembler(mesh, data, 0.1, options)

    @staticmethod
    def pinned_entries(asm, indices, indptr):
        """The entries of J's pinned rows, and 1.0 at the diagonal ones, 0.0
        at the rest."""
        pinned = np.concatenate([asm._pinned_m, asm.vector_space.n_dofs + asm._pinned_rho])
        in_pinned_row = np.flatnonzero(np.isin(indices, pinned))
        col = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        return in_pinned_row, (indices[in_pinned_row] == col[in_pinned_row]).astype(float)

    def test_same_arrays(self, pair):
        asm, _ = pair
        *ref_arrays, coupling, mass = key_sort_pattern(asm)
        for got, ref in zip([asm._indices, asm._indptr, asm._flux_slots, asm._mirror,
                             asm._source], ref_arrays):
            assert got.dtype.kind == ref.dtype.kind and np.array_equal(got, ref)
        assert not asm._indices.flags.writeable and not asm._indptr.flags.writeable
        # the static data sum the same element entries
        ref = coupling + mass / asm.dt
        assert np.array_equal(asm._static.view(np.int64), ref.view(np.int64))
        for got, ref in zip([asm._pinned, asm._pinned_identity],
                            self.pinned_entries(asm, asm._indices, asm._indptr)):
            assert np.array_equal(got, ref)

    def test_jacobian_bitwise_equal(self, pair):
        asm, ref = pair
        (ref._indices, ref._indptr, ref._flux_slots, ref._mirror, ref._source,
         _, _) = key_sort_pattern(ref)
        ref._pinned, ref._pinned_identity = self.pinned_entries(
            ref, ref._indices, ref._indptr)
        state = random_state(asm, np.random.default_rng(asm.mesh.n_nodes))
        got, want = asm.jacobian(state).data, ref.jacobian(state).data
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestMassMatrix:
    """The unweighted P1 mass matrix M, scattered on the node graph G,
    against the coo->csr build of the same element matrices it replaced:
    equal bit for bit, on G's rows and column starts.  Under a porosity
    phi != 1, M differs from J's block M_phi, so an M built from phi's
    element matrices fails."""

    POROUS = dict(phi=lambda x: 1.0 + 0.5 * x[..., 0] * x[..., 1])

    @pytest.mark.parametrize("porous", [False, True], ids=["phi1", "phi_varies"])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_matches_coo_csr_on_node_graph(self, n, porous):
        data = builtin_problem("example1")
        if porous:
            data = dataclasses.replace(data, **self.POROUS)
        asm = Assembler(build_mesh(n), data, 0.5 / n)
        space, tris = asm.scalar_space, asm.mesh.triangles
        m_el = space.element_matrices(np.ones(space.quadrature_coords().shape[:2]))
        ref = sp.coo_matrix((m_el.ravel(), (np.repeat(tris, 3, axis=1).ravel(),
                                            np.tile(tris, (1, 3)).ravel())),
                            shape=(space.n_dofs, space.n_dofs)).tocsr()
        # G by one sort of the keys col * n_nodes + row of every element entry
        n_nodes = asm.mesh.n_nodes
        keys = np.unique(tris[:, None, :] * n_nodes + tris[:, :, None])
        mass = asm.mass
        assert mass.format == "csc" and not mass.data.flags.writeable
        assert np.array_equal(mass.indices, keys % n_nodes)
        assert np.array_equal(mass.indptr, np.concatenate(
            [[0], np.cumsum(np.bincount(keys // n_nodes, minlength=n_nodes))]))
        # M is symmetric, so its CSR arrays are its CSC ones
        assert np.array_equal(ref.indices, mass.indices)
        assert np.array_equal(ref.indptr, mass.indptr)
        assert np.array_equal(mass.data.view(np.int64), ref.data.view(np.int64))


class TestResidualParity:
    def test_matches_per_call_assembly(self, systems):
        for n, options, asm, state, dt in systems:
            # dt = h / 2, so the state at t = 0.5 is level n
            rng = np.random.default_rng(n)
            prev = random_state(asm, rng, (n - 1) * dt)
            # a second level and a return to the first must not reuse stale loads
            later = random_state(asm, rng, (n + 1) * dt)
            for level, cur, before in ((n, state, prev), (n + 1, later, state),
                                       (n, state, prev)):
                got = asm.residual(level, cur, before)
                ref = reference_residual(asm, cur, before, dt)
                assert rel_diff(got, ref) <= 1e-13, (n, options, cur.t)

    @pytest.mark.parametrize("psi_t_mode", ["discrete", "analytic"])
    def test_loads_follow_dt_at_one_time(self, psi_t_mode):
        options = DiscretizationOptions(psi_t_mode=psi_t_mode)
        mesh, data = build_mesh(8), builtin_problem("example1")
        assemblers = [Assembler(mesh, data, dt, options) for dt in (0.25, 0.125, 0.25)]
        rng = np.random.default_rng(8)
        state = random_state(assemblers[0], rng)
        for asm, n in zip(assemblers, (2, 4, 2)):  # t = 0.5 is level n
            prev = random_state(asm, rng, (n - 1) * asm.dt)
            ref = reference_residual(asm, state, prev, asm.dt)
            assert rel_diff(asm.residual(n, state, prev), ref) <= 1e-13, asm.dt

    def test_momentum_residual_matches(self, systems):
        for n, options, asm, state, _ in systems:
            for level in (n, 1, n):  # t = 0.5, dt, 0.5
                got = momentum_rows(asm, level, state.rho_bar, state.m)
                ref = reference_momentum_residual(asm, state.m, state.rho_bar,
                                                  level * asm.dt)
                assert rel_diff(got, ref) <= 1e-13, (n, options, level)


class TestSymmetricModeParity:
    def test_solutions_match_default_splu(self, systems):
        solver = LinearSolver()
        for n, options, asm, state, _ in systems:
            jac = asm.jacobian(state)
            rhs = np.random.default_rng(n).standard_normal(jac.shape[0])
            got = solver.solve(jac, rhs)
            ref = spla.splu(jac).solve(rhs)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), \
                (n, options)


class DefaultLU(LinearSolver):
    """The replaced inner solver: SciPy's default ``splu``, no checks, and
    exact up to roundoff whatever the caller's aim."""

    def solve(self, matrix, rhs, atol=0.0):
        return spla.splu(matrix.tocsc()).solve(rhs)


class TestMarchParity:
    """The march's inexact Newton steps against exact ones.

    Newton asks each linear solve only for ||Js + F|| <= 0.01 * tol, so the
    fields leave exact LU's by more than roundoff: the flat ``[m, rho_bar]``
    vector by 1.9e-8 (example1 N=16) and 6.7e-9 (example2_F2 N=8) relative
    in the 2-norm.  The bound is 1e-7, a margin of five over the larger.
    rho_bar alone is no measure: example1's exact rho_bar is 0, so its
    largest entry is tiny and moves by 2.3e-7 of itself.  Newton counts must
    be equal step by step.
    """

    # Newton totals of these marches from the extrapolated predictor, equal
    # for both linear solvers
    @pytest.mark.parametrize("problem, n, options, newton_total", [
        ("example1", 16, DiscretizationOptions(), 34),
        ("example2_F2", 8,
         DiscretizationOptions(momentum_bc="exact", pin_rho_boundary=True), 25),
    ])
    def test_march_matches_default_lu(self, problem, n, options, newton_total):
        data = builtin_problem(problem)
        config = MarchConfig(dt=0.5 / n)
        final, diags = march(data, build_mesh(n), config, options=options)
        ref, ref_diags = march(data, build_mesh(n), config, options=options,
                               linear_solver=DefaultLU())
        newton = [d.newton_iterations for d in diags]
        assert newton == [d.newton_iterations for d in ref_diags]
        assert sum(newton) == newton_total
        x = np.concatenate([final.m, final.rho_bar])
        x_ref = np.concatenate([ref.m, ref.rho_bar])
        assert np.linalg.norm(x - x_ref) <= 1e-7 * np.linalg.norm(x_ref)


class TestFrozenMarch:
    """Two N=16 marches (dt = 1/32, t = 1, default Newton tolerance) against
    ``data/march_parity.npz``, written by :func:`frozen_march` before the
    per-dt static data, the per-level Psi cache and the mass-matrix energies.

    Those changes keep the arithmetic to roundoff, so the final flat
    ``[m, rho_bar]`` vector must stay within 1e-10 relative and the Newton
    and factorization counts equal step by step.  A change of where GMRES
    starts that moves the state by 3e-8 fails.  GMRES counts sit on ties (a
    1e-16 change can move one step's count by one), so their totals are only
    reported in the message.
    """

    FIXTURE = Path(__file__).parent / "data" / "march_parity.npz"
    MARCHES = {
        "example2_F2": DiscretizationOptions(momentum_bc="exact",
                                             pin_rho_boundary=True),
        "example1": DiscretizationOptions(),
    }

    @staticmethod
    def frozen_march(problem, options) -> dict:
        state, diags = march(builtin_problem(problem), build_mesh(16),
                             MarchConfig(dt=1 / 32), options=options)
        return {"state": np.concatenate([state.m, state.rho_bar]),
                "newton": [d.newton_iterations for d in diags],
                "factorizations": [d.factorizations for d in diags],
                "krylov": [d.krylov_iterations for d in diags]}

    @pytest.mark.parametrize("problem", list(MARCHES))
    def test_march_matches_fixture(self, problem):
        frozen = np.load(self.FIXTURE)
        got = self.frozen_march(problem, self.MARCHES[problem])
        want = {key: frozen[f"{problem}_{key}"] for key in got}
        krylov = f"GMRES totals {sum(got['krylov'])} vs {want['krylov'].sum()}"
        np.testing.assert_array_equal(got["newton"], want["newton"], err_msg=krylov)
        np.testing.assert_array_equal(got["factorizations"], want["factorizations"],
                                      err_msg=krylov)
        gap = np.linalg.norm(got["state"] - want["state"])
        gap /= np.linalg.norm(want["state"])
        assert gap <= 1e-10, (gap, krylov)


class _RecordingSpla:
    """Stands in for ``scipy.sparse.linalg`` and records ``splu`` keywords."""

    def __init__(self):
        self.calls = []

    def splu(self, matrix, **kwargs):
        self.calls.append(kwargs)
        return spla.splu(matrix, **kwargs)


class TestFactorFailure:
    """The symmetric-mode factor is the only factor: its miss raises."""

    # any symmetric ordering of this matrix starts with a 1e-18 pivot, so the
    # pivot-free factor loses the solution to element growth
    TINY_DIAGONAL = sp.csc_matrix(np.array([[1e-18, 1.0], [1.0, 1e-18]]))

    def test_pivot_free_factor_misses_contract(self):
        rhs = np.ones(2)
        lu = spla.splu(self.TINY_DIAGONAL, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        resid = np.linalg.norm(self.TINY_DIAGONAL @ lu.solve(rhs) - rhs)
        assert resid > 1e-10 * np.linalg.norm(rhs)

    def test_miss_raises_after_one_factor(self, monkeypatch):
        recorder = _RecordingSpla()
        monkeypatch.setattr(solver_module, "spla", recorder)
        with pytest.raises(LinearSolveFailure, match="linear solve residual"):
            LinearSolver().solve(self.TINY_DIAGONAL, np.ones(2))
        assert len(recorder.calls) == 1
        assert recorder.calls[0]["options"] == dict(SymmetricMode=True)

    def test_singular_matrix_factors_once(self, monkeypatch):
        recorder = _RecordingSpla()
        monkeypatch.setattr(solver_module, "spla", recorder)
        singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(LinearSolveFailure, match="exactly singular"):
            LinearSolver().solve(singular, np.array([1.0, 0.0]))
        assert len(recorder.calls) == 1


def keeps_contract(matrix, sol, rhs):
    return np.linalg.norm(matrix @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)


class TestFactorReuse:
    @pytest.fixture
    def recorder(self, monkeypatch):
        recorder = _RecordingSpla()
        monkeypatch.setattr(solver_module, "spla", recorder)
        return recorder

    def test_n16_march_factors_once(self, recorder):
        mesh = build_mesh(16)
        _, diags = march(builtin_problem("example1"), mesh, MarchConfig(dt=1 / 32))
        assert sum(d.newton_iterations for d in diags) == 34
        assert len(recorder.calls) == 1
        assert sum(d.factorizations for d in diags) == 1
        assert diags[0].factorizations == 1
        assert sum(d.krylov_iterations for d in diags) > 0

    def test_exact_bc_march_recycles_solutions(self, recorder):
        """Started from the span of the kept solutions and aiming at 0.01 *
        newton_tol, GMRES makes 70 iterations over the 64 levels' 65 solves;
        started from zero and aiming at 1e-11 ||b|| it made 5 rising to 10
        per level, 527 over the march."""
        mesh = build_mesh(32)
        _, diags = march(builtin_problem("example2_F2"), mesh,
                         MarchConfig(dt=1 / 64), None,
                         DiscretizationOptions(momentum_bc="exact",
                                               pin_rho_boundary=True))
        assert sum(d.newton_iterations for d in diags) == 65
        assert len(recorder.calls) == 1
        assert sum(d.factorizations for d in diags) == 1
        assert sum(d.krylov_iterations for d in diags) <= 100

    def test_exact_bc_march_repeats_bit_for_bit(self):
        def run():
            return march(builtin_problem("example2_F2"), build_mesh(16),
                         MarchConfig(dt=1 / 32), None,
                         DiscretizationOptions(momentum_bc="exact"))

        (first, diags), (again, diags_again) = run(), run()
        assert np.array_equal(first.m, again.m)
        assert np.array_equal(first.rho_bar, again.rho_bar)
        krylov = [d.krylov_iterations for d in diags]
        assert sum(krylov) > 0
        assert krylov == [d.krylov_iterations for d in diags_again]

    def test_initial_state_of_constant_momentum_factors_nothing(
            self, recorder, newton_runs, nonconstant_momentum):
        """The initial momentum is the nodal start, with no Newton solve and
        no factorization, whether the momentum is constant in space, as on
        the built-in problems, or not; pinned or not."""
        pinned = DiscretizationOptions(momentum_bc="exact", pin_rho_boundary=True)
        for problem in (builtin_problem, nonconstant_momentum):
            Assembler(build_mesh(16), problem("example1"), 1 / 32).initial_state()
            Assembler(build_mesh(32), problem("example2_F2"), 1 / 64,
                      pinned).initial_state()
        assert newton_runs == []
        assert recorder.calls == []

    def test_n4_march_factors_every_jacobian(self, recorder):
        """At N=4 the cycle budget, less the recycled start, is below one
        iteration, so no factor is held and GMRES never runs."""
        mesh = build_mesh(4)
        linear_solver = LinearSolver()
        _, diags = march(builtin_problem("example1"), mesh, MarchConfig(dt=0.125),
                         linear_solver=linear_solver)
        newton_total = sum(d.newton_iterations for d in diags)
        assert newton_total == 17
        assert len(recorder.calls) == newton_total
        assert sum(d.factorizations for d in diags) == newton_total
        assert sum(d.krylov_iterations for d in diags) == 0
        assert linear_solver._held is None

    def test_zero_start_march_holds_a_factor(self, recorder, monkeypatch):
        """From a zero initial momentum the early levels take several Newton
        steps, and the first reuse attempts miss; each miss refactors and
        holds the new factor, so the march still settles on a held one."""
        real = Assembler.initial_state

        def zero_momentum(self):
            state = real(self)
            return SystemState(state.rho_bar, np.zeros_like(state.m), state.t)

        monkeypatch.setattr(Assembler, "initial_state", zero_momentum)
        _, diags = march(builtin_problem("example1"), build_mesh(16),
                         MarchConfig(dt=1 / 32, final_time=0.25))
        assert [d.newton_iterations for d in diags] == [6, 4, 1, 1, 1, 1, 1, 1]
        assert sum(d.factorizations for d in diags) <= 4
        assert len(recorder.calls) == sum(d.factorizations for d in diags)

    @pytest.fixture(scope="class")
    def n16_systems(self):
        """Two Jacobians of one assembler at different states, and a twin
        assembler of the same problem."""
        data, mesh = builtin_problem("example1"), build_mesh(16)
        asm, twin = Assembler(mesh, data, 1 / 32), Assembler(mesh, data, 1 / 32)
        state = asm.initial_state()
        moved = SystemState(state.rho_bar, 1.1 * state.m, 0.5)
        return asm, twin, state, moved

    def test_reused_factor_keeps_contract(self, recorder, n16_systems):
        asm, _, state, moved = n16_systems
        solver = LinearSolver()
        rhs = np.random.default_rng(16).standard_normal(3 * asm.mesh.n_nodes)
        solver.solve(asm.jacobian(state), rhs)
        jac = asm.jacobian(moved)
        sol = solver.solve(jac, rhs)
        assert len(recorder.calls) == 1 and solver.factorizations == 1
        assert solver.krylov_iterations > 0
        assert keeps_contract(jac, sol, rhs)

    def test_forced_miss_refactors_once(self, recorder, n16_systems, monkeypatch):
        asm, _, state, moved = n16_systems
        solver = LinearSolver()
        rhs = np.ones(3 * asm.mesh.n_nodes)
        solver.solve(asm.jacobian(state), rhs)
        real_gmres = solver_module._preconditioned_gmres
        monkeypatch.setattr(solver_module, "_preconditioned_gmres",
                            lambda *args: (np.zeros_like(rhs), 1))
        jac = asm.jacobian(moved)
        sol = solver.solve(jac, rhs)
        assert keeps_contract(jac, sol, rhs)
        assert len(recorder.calls) == 2
        assert recorder.calls[1]["options"] == dict(SymmetricMode=True)
        assert solver.krylov_iterations == 1
        # the miss is not remembered: the fresh factor is held and reused
        monkeypatch.setattr(solver_module, "_preconditioned_gmres", real_gmres)
        jac = asm.jacobian(state)
        sol = solver.solve(jac, rhs)
        assert keeps_contract(jac, sol, rhs)
        assert len(recorder.calls) == 2 and solver.krylov_iterations > 1

    @pytest.mark.parametrize("garbage", [np.nan, "random"])
    def test_garbage_start_keeps_contract(self, recorder, n16_systems, garbage):
        asm, _, state, moved = n16_systems
        solver = LinearSolver()
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(3 * asm.mesh.n_nodes)
        solver.solve(asm.jacobian(state), rhs)
        kept = solver._held.solutions
        kept[:] = rng.standard_normal(kept.shape) if garbage == "random" else garbage
        jac = asm.jacobian(moved)
        assert keeps_contract(jac, solver.solve(jac, rhs), rhs)
        assert len(recorder.calls) <= 2

    def test_foreign_factor_never_used(self, recorder, n16_systems):
        asm, twin, state, _ = n16_systems
        solver = LinearSolver()
        rhs = np.ones(3 * asm.mesh.n_nodes)
        solver.solve(asm.jacobian(state), rhs)
        jac = twin.jacobian(state)
        assert (jac != asm.jacobian(state)).nnz == 0  # same pattern and values
        sol = solver.solve(jac, rhs)
        assert keeps_contract(jac, sol, rhs)
        assert len(recorder.calls) == 2 and solver.krylov_iterations == 0
        # the twin's factor keeps its own direct solution and nothing else
        assert solver._held.fits(jac) and solver._held.kept == 1
        assert np.array_equal(solver._held.solutions[0], sol)
