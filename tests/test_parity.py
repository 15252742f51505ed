"""Parity of the fixed-pattern Jacobian and the symmetric-mode LU with the
paths they replaced: a ``sp.bmat`` assembly with LIL row surgery, and
SciPy's default (COLAMD, partial pivoting) ``splu``."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mixedflow import solver as solver_module
from mixedflow.assembly import Assembler, DiscretizationOptions, SystemState
from mixedflow.harness import builtin_problem
from mixedflow.mesh_fem import build_mesh
from mixedflow.solver import (LinearSolveFailure, LinearSolver, MarchConfig,
                              march)

OPTIONS = [DiscretizationOptions(momentum_bc=bc, pin_rho_boundary=pin)
           for bc in ("none", "exact") for pin in (False, True)]


def reference_momentum_block(asm, m_dofs, t):
    """A(m) from the four-operand element einsum and a coo->csr scatter."""
    law = asm.data.law
    vs = asm.vector_space
    rule = vs.quadrature
    basis = rule.basis_values()
    mq = vs.eval_at_quadrature(m_dofs)
    mag = np.sqrt(np.sum(mq * mq, axis=-1))
    f = law.eval_F(mag, t)
    magc = np.maximum(mag, law.eps_reg)
    fp = law.eval_F_prime(magc, t)
    jq = f[:, :, None, None] * np.eye(2)[None, None] \
        + (fp / magc)[:, :, None, None] * mq[:, :, :, None] * mq[:, :, None, :]
    a_el = np.einsum("q,qi,qj,tqcd->ticjd", rule.weights, basis, basis, jq) \
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
    a_blk = reference_momentum_block(asm, state.m, state.t)
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
            ref = reference_momentum_block(asm, state.m, state.t).tolil()
            if options.momentum_bc == "exact":
                for d in pinned_momentum_dofs(asm):
                    ref.rows[d], ref.data[d] = [d], [1.0]
            got = asm.momentum_jacobian(state.m, state.t)
            assert rel_diff(got.toarray(), ref.toarray()) <= 1e-13, (n, options)

    def test_calls_do_not_share_data(self, systems):
        _, _, asm, state, dt = systems[-1]
        first = asm.jacobian(state, dt)
        before = first.toarray()
        asm.jacobian(SystemState(state.rho_bar, 2.0 * state.m, state.t), 2.0 * dt)
        np.testing.assert_array_equal(first.toarray(), before)


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
    # Newton totals of these marches before the symmetric-mode LU and the
    # fixed-pattern Jacobian
    @pytest.mark.parametrize("problem, n, options, newton_total", [
        ("example1", 16, DiscretizationOptions(), 63),
        ("example2_F2", 8,
         DiscretizationOptions(momentum_bc="exact", pin_rho_boundary=True), 32),
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
    """Stands in for ``scipy.sparse.linalg`` and records ``splu`` keywords."""

    def __init__(self):
        self.calls = []

    def splu(self, matrix, **kwargs):
        self.calls.append(kwargs)
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
