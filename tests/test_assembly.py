import numpy as np
import pytest

from conftest import momentum_rows
from mixedflow import solver
from mixedflow.assembly import Assembler, DiscretizationOptions, SystemState
from mixedflow.harness import builtin_problem
from mixedflow.mesh_fem import build_mesh, norm
from mixedflow.verify import jacobian_fd_error


@pytest.fixture(scope="module")
def example1():
    return builtin_problem("example1")


@pytest.fixture(scope="module")
def assembler4(example1):
    return Assembler(build_mesh(4), example1)


def interpolated_exact_state(asm, data, t):
    ex, nodes = data.exact, asm.mesh.nodes
    rb = np.asarray(ex.rho(nodes, t)) - np.asarray(data.psi(nodes, t))
    m = np.asarray(ex.m(nodes, t)).reshape(-1)
    return SystemState(rb, m, t)


class TestResidual:
    def test_zero_data_zero_state_zero_residual(self, example1):
        import dataclasses
        zero_scalar = lambda x, t: np.zeros(np.shape(x)[:-1])
        zero_vec = lambda x, t: np.zeros(np.shape(x))
        data = dataclasses.replace(
            example1, f=zero_scalar, psi=zero_scalar, psi_t=zero_scalar,
            grad_psi=zero_vec, rho0=lambda x: np.zeros(np.shape(x)[:-1]),
            exact=None)
        asm = Assembler(build_mesh(2), data)
        nv = asm.mesh.n_nodes
        state = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.1)
        prev = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.0)
        assert np.linalg.norm(asm.residual(state, prev, 0.1)) == 0.0

    def test_doubling_f_doubles_its_contribution(self, example1):
        import dataclasses
        doubled = dataclasses.replace(
            example1, f=lambda x, t: 2.0 * example1.f(x, t))
        mesh = build_mesh(2)
        asm1 = Assembler(mesh, example1)
        asm2 = Assembler(mesh, doubled)
        nv = mesh.n_nodes
        state = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.2)
        prev = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.1)
        r1 = asm1.residual(state, prev, 0.1)
        r2 = asm2.residual(state, prev, 0.1)
        ss = asm1.scalar_space
        fvec = ss.load_vector(example1.f(ss.quadrature_coords(), 0.2))
        np.testing.assert_allclose(r2[2 * nv:] - r1[2 * nv:], -fvec,
                                   atol=1e-14)
        np.testing.assert_allclose(r2[: 2 * nv], r1[: 2 * nv])

    def test_consistency_sweep_discrete_mode(self, example1):
        """Residual at interpolated exact states shrinks under refinement."""
        norms = []
        t_eval = 0.5
        for n in (4, 8, 16):
            asm = Assembler(build_mesh(n), example1,
                            DiscretizationOptions(psi_t_mode="discrete"))
            dt = 0.5 / n
            state = interpolated_exact_state(asm, example1, t_eval)
            prev = interpolated_exact_state(asm, example1, t_eval - dt)
            norms.append(np.linalg.norm(asm.residual(state, prev, dt)))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 0.3 * norms[0]

    def test_exactness_analytic_mode(self, example1):
        """With analytic data the manufactured pair solves the discrete system.

        The manufactured density is linear and the momentum spatially
        constant, so both lie in the P1 spaces and every residual row
        cancels pointwise; this is why refinement studies need the
        backward-difference data treatment to measure anything.
        """
        for n in (3, 6):
            asm = Assembler(build_mesh(n), example1,
                            DiscretizationOptions(psi_t_mode="analytic"))
            dt = 0.5 / n
            state = interpolated_exact_state(asm, example1, 0.5)
            prev = interpolated_exact_state(asm, example1, 0.5 - dt)
            assert np.linalg.norm(asm.residual(state, prev, dt)) <= 1e-12

    def test_rejects_inconsistent_times(self, assembler4):
        nv = assembler4.mesh.n_nodes
        state = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.5)
        prev = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.1)
        with pytest.raises(ValueError):
            assembler4.residual(state, prev, 0.1)


class TestJacobian:
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_finite_differences(self, example1, n):
        rng = np.random.default_rng(100 + n)
        asm = Assembler(build_mesh(n), example1)
        nv = asm.mesh.n_nodes
        base = np.tile([0.8, -0.6], nv)
        state = SystemState(rng.standard_normal(nv),
                            base + 0.3 * rng.standard_normal(2 * nv), 0.5)
        prev = SystemState(rng.standard_normal(nv),
                           base + 0.3 * rng.standard_normal(2 * nv), 0.4)
        assert jacobian_fd_error(asm, state, prev, dt=0.1) <= 1e-5

    def test_block_antisymmetry(self, assembler4):
        nv = assembler4.mesh.n_nodes
        state = SystemState(np.zeros(nv), np.tile([0.5, 0.5], nv), 0.5)
        jac = assembler4.jacobian(state, 0.1).toarray()
        top_right = jac[: 2 * nv, 2 * nv:]
        bottom_left = jac[2 * nv:, : 2 * nv]
        np.testing.assert_allclose(top_right, -bottom_left.T, atol=1e-14)

    def test_momentum_block_positive_definite(self, example1, rng):
        asm = Assembler(build_mesh(2), example1)
        nv = asm.mesh.n_nodes
        m = np.tile([0.3, -0.9], nv) + 0.2 * rng.standard_normal(2 * nv)
        state = SystemState(np.zeros(nv), m, 0.5)
        jac = asm.jacobian(state, 0.1).toarray()
        a_block = jac[: 2 * nv, : 2 * nv]
        np.testing.assert_allclose(a_block, a_block.T, atol=1e-12)
        assert np.linalg.eigvalsh(a_block).min() > 0.0

    def test_darcy_block_is_vector_mass(self):
        import dataclasses
        from mixedflow.constitutive import (CoefficientVector,
                                            GeneralizedPolynomial, PowerSpec)
        darcy_law = GeneralizedPolynomial(PowerSpec(0.5, [1.0]),
                                          CoefficientVector([0.0, 1.0, 0.0]))
        data = dataclasses.replace(builtin_problem("example1"), law=darcy_law,
                                   exact=None)
        asm = Assembler(build_mesh(2), data)
        nv = asm.mesh.n_nodes
        rng = np.random.default_rng(3)
        for m in (np.zeros(2 * nv), rng.standard_normal(2 * nv)):
            state = SystemState(np.zeros(nv), m, 0.5)
            a_block = asm.jacobian(state, 0.1).toarray()[: 2 * nv, : 2 * nv]
            # F == 1: the block is the interleaved vector mass matrix
            mass = asm.scalar_space.mass_matrix().toarray()
            expected = np.zeros_like(a_block)
            expected[0::2, 0::2] = mass
            expected[1::2, 1::2] = mass
            np.testing.assert_allclose(a_block, expected, atol=1e-13)

    def test_independent_of_f_and_psi(self, example1):
        import dataclasses
        other = dataclasses.replace(
            example1,
            f=lambda x, t: 7.0 + 0.0 * x[..., 0],
            psi_t=lambda x, t: -3.0 + 0.0 * x[..., 0])
        mesh = build_mesh(2)
        nv = mesh.n_nodes
        state = SystemState(np.ones(nv), np.tile([0.4, 0.1], nv), 0.5)
        j1 = Assembler(mesh, example1).jacobian(state, 0.1).toarray()
        j2 = Assembler(mesh, other).jacobian(state, 0.1).toarray()
        np.testing.assert_array_equal(j1, j2)


class TestSpaces:
    def test_spaces_share_quadrature_coords(self, assembler4):
        asm = assembler4
        assert asm.scalar_space.quadrature_coords() \
            is asm.vector_space.quadrature_coords()


class TestInitialState:
    def test_example1_density_identically_zero(self, assembler4):
        state = assembler4.initial_state()
        assert np.abs(state.rho_bar).max() <= 1e-12

    def test_example1_momentum_matches_exact(self, example1):
        for n in (4, 8):
            asm = Assembler(build_mesh(n), example1)
            state = asm.initial_state(newton_tol=1e-10)
            err = norm(asm.vector_space, state.m, 3.0,
                       against=lambda pts: np.asarray(example1.exact.m(pts, 0.0)))
            assert err <= 1e-10

    def test_rho0_equal_psi_gives_zero(self, example1):
        # example1 is constructed with rho0 = psi(., 0)
        asm = Assembler(build_mesh(2), example1)
        np.testing.assert_allclose(asm.initial_state().rho_bar, 0.0,
                                   atol=1e-13)

    # the nodal start's Newton steps at the march's tolerance, at most
    NONCONSTANT = [
        ("example1", 16, DiscretizationOptions(), 4),
        ("example2_F2", 32, DiscretizationOptions(momentum_bc="exact",
                                                  pin_rho_boundary=True), 2),
    ]

    @pytest.mark.parametrize("problem, n, options, max_steps", NONCONSTANT)
    def test_nodal_start_saves_steps_on_nonconstant_momentum(
            self, nonconstant_momentum, newton_runs, problem, n, options,
            max_steps):
        """Fewer Newton steps and no more factorizations than from m = 0
        (zero start: 7 steps at N=16, 6 at N=32 pinned)."""
        asm = Assembler(build_mesh(n), nonconstant_momentum(problem), options)
        state = asm.initial_state(newton_tol=1e-6)
        solver._newton(momentum_rows(asm, 0.0, state.rho_bar),
                       np.zeros(asm.vector_space.n_dofs), 1e-6, 60,
                       solver.LinearSolver(), "from m = 0")
        (steps, factorizations), (zero_steps, zero_factorizations) = newton_runs
        assert 0 < steps <= max_steps < zero_steps
        assert factorizations <= zero_factorizations

    @pytest.mark.parametrize("problem, n, options, max_steps", NONCONSTANT)
    def test_nodal_start_reaches_tight_solution(
            self, nonconstant_momentum, problem, n, options, max_steps):
        asm = Assembler(build_mesh(n), nonconstant_momentum(problem), options)
        m = asm.initial_state().m
        ref = asm.initial_state(newton_tol=1e-12).m
        assert np.linalg.norm(m - ref) <= 1e-6 * np.linalg.norm(ref)


class TestOptions:
    def test_pin_rho_boundary_rows(self, example1):
        asm = Assembler(build_mesh(2), example1,
                        DiscretizationOptions(pin_rho_boundary=True))
        nv = asm.mesh.n_nodes
        rng = np.random.default_rng(0)
        state = SystemState(rng.standard_normal(nv),
                            np.tile([0.5, 0.5], nv), 0.1)
        prev = SystemState(np.zeros(nv), np.tile([0.5, 0.5], nv), 0.0)
        r = asm.residual(state, prev, 0.1)
        bn = asm.mesh.boundary_nodes
        np.testing.assert_array_equal(r[2 * nv:][bn], state.rho_bar[bn])

    def test_momentum_bc_requires_exact(self, example1):
        import dataclasses
        data = dataclasses.replace(example1, exact=None)
        with pytest.raises(ValueError):
            Assembler(build_mesh(2), data,
                      DiscretizationOptions(momentum_bc="exact"))

    def test_unknown_option_values_rejected(self):
        with pytest.raises(ValueError):
            DiscretizationOptions(psi_t_mode="midpoint")
        with pytest.raises(ValueError):
            DiscretizationOptions(momentum_bc="zero")


class TestModuleLevelApi:
    def test_state_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SystemState(np.array([np.nan]), np.zeros(2), 0.0)
