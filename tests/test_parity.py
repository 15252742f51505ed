"""Parity of the fixed-pattern Jacobian, the per-level residual loads and
the reused symmetric-mode LU with the paths they replaced: a ``sp.bmat``
assembly with LIL row surgery, a residual that assembles its load vectors
on every call by a four-operand einsum and ``np.add.at``, and SciPy's
default (COLAMD, partial pivoting) ``splu`` on every solve."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mixedflow import solver as solver_module
from mixedflow.assembly import Assembler, DiscretizationOptions, SystemState
from mixedflow.harness import builtin_problem
from mixedflow.mesh_fem import QUAD_POINTS, QUAD_WEIGHTS, build_mesh
from mixedflow.solver import (LinearSolveFailure, LinearSolver, MarchConfig,
                              march)

OPTIONS = [DiscretizationOptions(momentum_bc=bc, pin_rho_boundary=pin)
           for bc in ("none", "exact") for pin in (False, True)]


def reference_load(space, g):
    """(g, v) for every basis function v of ``space``, from the einsum and an
    ``np.add.at`` scatter; g maps (nt, nq, 2) points to (nt, nq) scalars or
    (nt, nq, 2) vectors."""
    gq = np.asarray(g(space.quadrature_coords()), dtype=float)
    r_el = np.einsum("q,tq...,qk->tk...", QUAD_WEIGHTS, gq, QUAD_POINTS)
    r_el *= space.mesh.areas.reshape(-1, *(1,) * (r_el.ndim - 1))
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.element_dof_map.ravel(), r_el.ravel())
    return out


def reference_momentum_block(asm, m_dofs):
    """A(m) from the four-operand element einsum and a coo->csr scatter."""
    law = asm.data.law
    vs = asm.vector_space
    basis = QUAD_POINTS
    mq = vs.eval_at_quadrature(m_dofs)
    mag = np.sqrt(np.sum(mq * mq, axis=-1))
    f = law.eval_F(mag)
    magc = np.maximum(mag, law.eps_reg)
    fp = law.eval_F_prime(magc)
    jq = f[:, :, None, None] * np.eye(2)[None, None] \
        + (fp / magc)[:, :, None, None] * mq[:, :, :, None] * mq[:, :, None, :]
    a_el = np.einsum("q,qi,qj,tqcd->ticjd", QUAD_WEIGHTS, basis, basis, jq) \
        * asm.mesh.areas[:, None, None, None, None]
    dof = vs.element_dof_map
    rows = np.repeat(dof, 6, axis=1).ravel()
    cols = np.tile(dof, (1, 6)).ravel()
    return sp.coo_matrix((a_el.reshape(-1, 36).ravel(), (rows, cols)),
                         shape=(vs.n_dofs, vs.n_dofs)).tocsr()


def pinned_momentum_dofs(asm):
    bn = asm.mesh.boundary_nodes
    return np.column_stack([2 * bn, 2 * bn + 1]).ravel()


def reference_jacobian(asm, state, dt):
    a_blk = reference_momentum_block(asm, state.m)
    bt = asm.div_coupling.T.tocsr()
    b = asm.div_coupling
    m_dt = asm.mass_phi / dt
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
    mq = vs.eval_at_quadrature(m_dofs)
    f = asm.data.law.eval_F(np.sqrt(np.sum(mq * mq, axis=-1)))
    r_el = np.einsum("q,tq,tqc,qk->tkc", QUAD_WEIGHTS, f, mq, QUAD_POINTS) \
        * asm.mesh.areas[:, None, None]
    out = np.zeros(vs.n_dofs)
    np.add.at(out, vs.element_dof_map.ravel(), r_el.reshape(-1, 6).ravel())
    return out


def reference_momentum_residual(asm, m_dofs, rho_bar, t):
    data = asm.data
    grad_psi = reference_load(asm.vector_space, lambda pts: data.grad_psi(pts, t))
    r = reference_flux_vector(asm, m_dofs) - asm.div_coupling.T @ rho_bar + grad_psi
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
    r_den = asm.mass_phi @ (state.rho_bar - prev.rho_bar) / dt \
        + asm.div_coupling @ state.m - f_vec + reference_load(ss, phi_dpsi)
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
            asm = Assembler(mesh, data, options)
            rng = np.random.default_rng(10 * n + k)
            cases.append((n, options, asm, random_state(asm, rng), 0.5 / n))
    return cases


class TestJacobianParity:
    def test_matches_bmat_reference(self, systems):
        for n, options, asm, state, dt in systems:
            jac = asm.jacobian(state, dt)
            assert jac.format == "csc"
            ref = reference_jacobian(asm, state, dt)
            assert rel_diff(jac.toarray(), ref.toarray()) <= 1e-13, (n, options)

    def test_matches_reference_past_int32_keys(self):
        # n * n exceeds 2**31 from N = 124 on; pattern keys must not wrap
        options = DiscretizationOptions(momentum_bc="exact", pin_rho_boundary=True)
        asm = Assembler(build_mesh(128), builtin_problem("example1"), options)
        state = random_state(asm, np.random.default_rng(128))
        ref = reference_jacobian(asm, state, 1 / 256)
        assert abs(asm.jacobian(state, 1 / 256) - ref).max() <= 1e-13 * abs(ref).max()

    def test_momentum_jacobian_matches_reference_block(self, systems):
        for n, options, asm, state, _ in systems:
            ref = reference_momentum_block(asm, state.m).tolil()
            if options.momentum_bc == "exact":
                for d in pinned_momentum_dofs(asm):
                    ref.rows[d], ref.data[d] = [d], [1.0]
            got = asm.momentum_jacobian(state.m)
            assert rel_diff(got.toarray(), ref.toarray()) <= 1e-13, (n, options)

    def test_calls_do_not_share_data(self, systems):
        _, _, asm, state, dt = systems[-1]
        first = asm.jacobian(state, dt)
        before = first.toarray()
        asm.jacobian(SystemState(state.rho_bar, 2.0 * state.m, state.t), 2.0 * dt)
        np.testing.assert_array_equal(first.toarray(), before)


class TestResidualParity:
    def test_matches_per_call_assembly(self, systems):
        for n, options, asm, state, dt in systems:
            rng = np.random.default_rng(n)
            prev = random_state(asm, rng, state.t - dt)
            # a second level and a return to the first must not reuse stale loads
            later = random_state(asm, rng, state.t + dt)
            for cur, before in ((state, prev), (later, state), (state, prev)):
                got = asm.residual(cur, before, dt)
                ref = reference_residual(asm, cur, before, dt)
                assert rel_diff(got, ref) <= 1e-13, (n, options, cur.t)

    @pytest.mark.parametrize("psi_t_mode", ["discrete", "analytic"])
    def test_loads_follow_dt_at_one_time(self, psi_t_mode):
        options = DiscretizationOptions(psi_t_mode=psi_t_mode)
        asm = Assembler(build_mesh(8), builtin_problem("example1"), options)
        rng = np.random.default_rng(8)
        state = random_state(asm, rng)
        for dt in (0.25, 0.125, 0.25):
            prev = random_state(asm, rng, state.t - dt)
            ref = reference_residual(asm, state, prev, dt)
            assert rel_diff(asm.residual(state, prev, dt), ref) <= 1e-13, dt

    def test_momentum_residual_matches(self, systems):
        for n, options, asm, state, _ in systems:
            for t in (state.t, 0.0, state.t):
                got = asm.momentum_residual(state.m, state.rho_bar, t)
                ref = reference_momentum_residual(asm, state.m, state.rho_bar, t)
                assert rel_diff(got, ref) <= 1e-13, (n, options, t)


class TestSymmetricModeParity:
    def test_solutions_match_default_splu(self, systems):
        solver = LinearSolver()
        for n, options, asm, state, dt in systems:
            jac = asm.jacobian(state, dt)
            rhs = np.random.default_rng(n).standard_normal(jac.shape[0])
            got = solver.solve(jac, rhs)
            ref = spla.splu(jac).solve(rhs)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), \
                (n, options)


class DefaultLU(LinearSolver):
    """The replaced inner solver: SciPy's default ``splu``, no checks."""

    def solve(self, matrix, rhs):
        return spla.splu(matrix.tocsc()).solve(rhs)


class TestMarchParity:
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
        assert sum(d.newton_iterations for d in diags) == newton_total
        assert sum(d.newton_iterations for d in ref_diags) == newton_total
        assert rel_diff(final.rho_bar, ref.rho_bar) <= 1e-8
        assert rel_diff(final.m, ref.m) <= 1e-8


class _RecordingSpla:
    """Stands in for ``scipy.sparse.linalg`` and records ``splu`` keywords
    and matrix sizes."""

    def __init__(self):
        self.calls = []
        self.sizes = []

    def splu(self, matrix, **kwargs):
        self.calls.append(kwargs)
        self.sizes.append(matrix.shape[0])
        return spla.splu(matrix, **kwargs)


class TestPivotingFallback:
    # any symmetric ordering of this matrix starts with a 1e-18 pivot, so the
    # pivot-free factor loses the solution to element growth
    TINY_DIAGONAL = sp.csc_matrix(np.array([[1e-18, 1.0], [1.0, 1e-18]]))

    def test_pivot_free_factor_misses_contract(self):
        rhs = np.ones(2)
        lu = spla.splu(self.TINY_DIAGONAL, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        resid = np.linalg.norm(self.TINY_DIAGONAL @ lu.solve(rhs) - rhs)
        assert resid > 1e-10 * np.linalg.norm(rhs)

    def test_fallback_recovers_solution(self, monkeypatch):
        recorder = _RecordingSpla()
        monkeypatch.setattr(solver_module, "spla", recorder)
        rhs = np.ones(2)
        sol = LinearSolver().solve(self.TINY_DIAGONAL, rhs)
        assert len(recorder.calls) == 2
        assert recorder.calls[0]["options"] == dict(SymmetricMode=True)
        assert recorder.calls[1] == {}
        assert np.linalg.norm(self.TINY_DIAGONAL @ sol - rhs) <= 1e-10 * np.sqrt(2)

    def test_no_fallback_on_jacobian(self, systems, monkeypatch):
        recorder = _RecordingSpla()
        monkeypatch.setattr(solver_module, "spla", recorder)
        _, _, asm, state, dt = systems[-1]
        jac = asm.jacobian(state, dt)
        LinearSolver().solve(jac, np.ones(jac.shape[0]))
        assert len(recorder.calls) == 1

    def test_raises_when_fallback_also_fails(self, monkeypatch):
        recorder = _RecordingSpla()
        monkeypatch.setattr(solver_module, "spla", recorder)
        singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(LinearSolveFailure):
            LinearSolver().solve(singular, np.array([1.0, 0.0]))
        assert len(recorder.calls) == 2


def keeps_contract(matrix, sol, rhs):
    return np.linalg.norm(matrix @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)


class TestFactorReuse:
    @pytest.fixture
    def recorder(self, monkeypatch):
        recorder = _RecordingSpla()
        monkeypatch.setattr(solver_module, "spla", recorder)
        return recorder

    @staticmethod
    def coupled_factorizations(recorder, mesh):
        """``splu`` calls on the coupled system, not on the momentum block."""
        return recorder.sizes.count(3 * mesh.n_nodes)

    def test_n16_march_factors_once(self, recorder):
        mesh = build_mesh(16)
        _, diags = march(builtin_problem("example1"), mesh, MarchConfig(dt=1 / 32))
        assert sum(d.newton_iterations for d in diags) == 34
        assert self.coupled_factorizations(recorder, mesh) == 1
        assert sum(d.factorizations for d in diags) == 1
        assert diags[0].factorizations == 1
        assert sum(d.krylov_iterations for d in diags) > 0

    def test_exact_bc_march_recycles_solutions(self, recorder):
        """Started from the span of the kept solutions, GMRES needs about 2
        iterations per level from level 15 on; started from zero it needs
        5 rising to 10, 527 over the march."""
        mesh = build_mesh(32)
        _, diags = march(builtin_problem("example2_F2"), mesh,
                         MarchConfig(dt=1 / 64), None,
                         DiscretizationOptions(momentum_bc="exact",
                                               pin_rho_boundary=True))
        assert sum(d.newton_iterations for d in diags) == 65
        assert self.coupled_factorizations(recorder, mesh) == 1
        assert sum(d.factorizations for d in diags) == 1
        assert sum(d.krylov_iterations for d in diags) <= 200

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

    def test_initial_state_factors_momentum_block_once(self, recorder):
        mesh = build_mesh(16)
        Assembler(mesh, builtin_problem("example1")).initial_state()
        assert recorder.sizes.count(2 * mesh.n_nodes) == 1
        assert len(recorder.sizes) == 1

    def test_n4_march_factors_every_jacobian(self, recorder):
        mesh = build_mesh(4)
        _, diags = march(builtin_problem("example1"), mesh, MarchConfig(dt=0.125))
        newton_total = sum(d.newton_iterations for d in diags)
        assert self.coupled_factorizations(recorder, mesh) == newton_total
        assert sum(d.factorizations for d in diags) == newton_total
        # the one reuse attempt missed, and reuse stopped after it
        assert 0 < sum(d.krylov_iterations for d in diags) <= 3

    @pytest.fixture(scope="class")
    def n16_systems(self):
        """Two Jacobians of one assembler at different states, and a twin
        assembler of the same problem."""
        data, mesh = builtin_problem("example1"), build_mesh(16)
        asm, twin = Assembler(mesh, data), Assembler(mesh, data)
        state = asm.initial_state(newton_tol=1e-6)
        moved = SystemState(state.rho_bar, 1.1 * state.m, 0.5)
        return asm, twin, state, moved

    def test_reused_factor_keeps_contract(self, recorder, n16_systems):
        asm, _, state, moved = n16_systems
        solver = LinearSolver()
        rhs = np.random.default_rng(16).standard_normal(3 * asm.mesh.n_nodes)
        solver.solve(asm.jacobian(state, 1 / 32), rhs)
        jac = asm.jacobian(moved, 1 / 32)
        sol = solver.solve(jac, rhs)
        assert len(recorder.calls) == 1 and solver.factorizations == 1
        assert solver.krylov_iterations > 0
        assert keeps_contract(jac, sol, rhs)

    def test_forced_miss_refactors_once(self, recorder, n16_systems, monkeypatch):
        asm, _, state, moved = n16_systems
        solver = LinearSolver()
        rhs = np.ones(3 * asm.mesh.n_nodes)
        solver.solve(asm.jacobian(state, 1 / 32), rhs)
        real_gmres = solver_module._preconditioned_gmres
        monkeypatch.setattr(solver_module, "_preconditioned_gmres",
                            lambda *args: (np.zeros_like(rhs), 1))
        jac = asm.jacobian(moved, 1 / 32)
        sol = solver.solve(jac, rhs)
        assert keeps_contract(jac, sol, rhs)
        assert len(recorder.calls) == 2
        assert recorder.calls[1]["options"] == dict(SymmetricMode=True)
        assert solver.krylov_iterations == 1
        # the fresh factor's first reuse missed, so reuse is off from here on
        monkeypatch.setattr(solver_module, "_preconditioned_gmres", real_gmres)
        solver.solve(asm.jacobian(state, 1 / 32), rhs)
        assert len(recorder.calls) == 3 and solver.krylov_iterations == 1

    @pytest.mark.parametrize("garbage", [np.nan, "random"])
    def test_garbage_start_keeps_contract(self, recorder, n16_systems, garbage):
        asm, _, state, moved = n16_systems
        solver = LinearSolver()
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(3 * asm.mesh.n_nodes)
        solver.solve(asm.jacobian(state, 1 / 32), rhs)
        kept = solver._held.solutions
        kept[:] = rng.standard_normal(kept.shape) if garbage == "random" else garbage
        jac = asm.jacobian(moved, 1 / 32)
        assert keeps_contract(jac, solver.solve(jac, rhs), rhs)
        assert len(recorder.calls) <= 2

    def test_foreign_factor_never_used(self, recorder, n16_systems):
        asm, twin, state, _ = n16_systems
        solver = LinearSolver()
        rhs = np.ones(3 * asm.mesh.n_nodes)
        solver.solve(asm.jacobian(state, 1 / 32), rhs)
        jac = twin.jacobian(state, 1 / 32)
        assert (jac != asm.jacobian(state, 1 / 32)).nnz == 0  # same pattern and values
        sol = solver.solve(jac, rhs)
        assert keeps_contract(jac, sol, rhs)
        assert len(recorder.calls) == 2 and solver.krylov_iterations == 0
        # the twin's factor keeps its own direct solution and nothing else
        assert solver._held.fits(jac) and solver._held.kept == 1
        assert np.array_equal(solver._held.solutions[0], sol)
