import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from mixedflow import assembly
from mixedflow.assembly import (Assembler, DiscretizationOptions, SystemState,
                                _solve_spd)
from mixedflow.harness import StudyConfig, builtin_problem, manufactured_problem
from mixedflow.mesh_fem import build_mesh, norm
from mixedflow.solver import MarchConfig, march
from mixedflow.verify import jacobian_fd_error


@pytest.fixture(scope="module")
def example1():
    return builtin_problem("example1")


@pytest.fixture(scope="module")
def assembler4(example1):
    return Assembler(build_mesh(4), example1, 0.1)


def interpolated_exact_state(asm, data, t):
    ex, nodes = data.exact, asm.mesh.nodes
    rb = np.asarray(ex.rho(nodes, t)) - np.asarray(data.psi(nodes, t))
    m = np.asarray(ex.m(nodes, t)).reshape(-1)
    return SystemState(rb, m, t)


class TestResidual:
    def test_zero_data_zero_state_zero_residual(self, example1):
        zero_scalar = lambda x, t: np.zeros(np.shape(x)[:-1])
        zero_vec = lambda x, t: np.zeros(np.shape(x))
        data = dataclasses.replace(
            example1, f=zero_scalar, psi=zero_scalar, psi_t=zero_scalar,
            grad_psi=zero_vec, rho0=lambda x: np.zeros(np.shape(x)[:-1]),
            exact=None)
        asm = Assembler(build_mesh(2), data, 0.1)
        nv = asm.mesh.n_nodes
        state = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.1)
        prev = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.0)
        assert np.linalg.norm(asm.residual(state, prev)) == 0.0

    def test_doubling_f_doubles_its_contribution(self, example1):
        doubled = dataclasses.replace(
            example1, f=lambda x, t: 2.0 * example1.f(x, t))
        mesh = build_mesh(2)
        asm1 = Assembler(mesh, example1, 0.1)
        asm2 = Assembler(mesh, doubled, 0.1)
        nv = mesh.n_nodes
        state = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.2)
        prev = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.1)
        r1 = asm1.residual(state, prev)
        r2 = asm2.residual(state, prev)
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
            dt = 0.5 / n
            asm = Assembler(build_mesh(n), example1, dt,
                            DiscretizationOptions(psi_t_mode="discrete"))
            state = interpolated_exact_state(asm, example1, t_eval)
            prev = interpolated_exact_state(asm, example1, t_eval - dt)
            norms.append(np.linalg.norm(asm.residual(state, prev)))
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
            dt = 0.5 / n
            asm = Assembler(build_mesh(n), example1, dt,
                            DiscretizationOptions(psi_t_mode="analytic"))
            state = interpolated_exact_state(asm, example1, 0.5)
            prev = interpolated_exact_state(asm, example1, 0.5 - dt)
            assert np.linalg.norm(asm.residual(state, prev)) <= 1e-12

    def test_rejects_inconsistent_times(self, assembler4):
        nv = assembler4.mesh.n_nodes
        state = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.5)
        prev = SystemState(np.zeros(nv), np.zeros(2 * nv), 0.1)
        with pytest.raises(ValueError):
            assembler4.residual(state, prev)

    def test_rejects_a_gap_of_many_small_steps(self, example1):
        # 50 steps of dt = 1e-12 are far inside an absolute 1e-10
        asm = Assembler(build_mesh(2), example1, 1e-12)
        prev = asm.initial_state()
        with pytest.raises(ValueError, match="inconsistent"):
            asm.level(prev, 5e-11)

    @pytest.mark.parametrize("dt, n", [(1e-3, 10 ** 7), (0.1, 10 ** 9)])
    def test_accepts_late_grid_levels(self, example1, dt, n):
        """t_n = n dt after (n - 1) dt: the rounded gap misses dt by more
        than 1e-10 dt, but by less than an ulp of t_n."""
        asm = Assembler(build_mesh(2), example1, dt)
        nv = asm.mesh.n_nodes
        prev = SystemState(np.zeros(nv), np.zeros(2 * nv), (n - 1) * dt)
        assert abs(n * dt - prev.t - dt) > 1e-10 * dt
        residual, _ = asm.level(prev, n * dt)(np.zeros(3 * nv))
        assert np.all(np.isfinite(residual))


class TestJacobian:
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_finite_differences(self, example1, n):
        rng = np.random.default_rng(100 + n)
        asm = Assembler(build_mesh(n), example1, 0.1)
        nv = asm.mesh.n_nodes
        base = np.tile([0.8, -0.6], nv)
        state = SystemState(rng.standard_normal(nv),
                            base + 0.3 * rng.standard_normal(2 * nv), 0.5)
        prev = SystemState(rng.standard_normal(nv),
                           base + 0.3 * rng.standard_normal(2 * nv), 0.4)
        assert jacobian_fd_error(asm, state, prev) <= 1e-5

    def test_block_antisymmetry(self, assembler4):
        nv = assembler4.mesh.n_nodes
        state = SystemState(np.zeros(nv), np.tile([0.5, 0.5], nv), 0.5)
        jac = assembler4.jacobian(state).toarray()
        top_right = jac[: 2 * nv, 2 * nv:]
        bottom_left = jac[2 * nv:, : 2 * nv]
        np.testing.assert_allclose(top_right, -bottom_left.T, atol=1e-14)

    @pytest.mark.parametrize("n, floor", [(4, 2.5e-2), (8, 1e-2), (16, 3.5e-3)])
    def test_coupling_kernel_is_three_colour_modes(self, example1, n, floor):
        """The -B^T block has rank n_rho - 2, and its kernel is spanned by
        the three-colour density modes: node (i, j) has colour (i + j) mod 3,
        and the colours' values sum to 0, so the mode has zero mean on every
        triangle."""
        dt = 0.5 / n
        asm = Assembler(build_mesh(n), example1, dt)
        state = asm.initial_state()
        x = np.concatenate([state.m, state.rho_bar])
        jac = asm.level(state, dt)(x)[1]()
        n_m = asm.vector_space.n_dofs
        coupling = jac[:n_m, n_m:].toarray()
        node = np.arange(asm.mesh.n_nodes)
        colour = (node % (n + 1) + node // (n + 1)) % 3
        # colour values (1, -1, 0) and (0, 1, -1)
        modes = 1.0 * (colour[:, None] == [0, 1]) - (colour[:, None] == [1, 2])
        singular = np.linalg.svd(coupling, compute_uv=False)
        assert coupling.shape == (n_m, n_m // 2)
        assert singular[-3] >= floor
        assert singular[-2] <= 1e-14 * singular[0]
        assert np.linalg.norm(coupling @ modes) <= 1e-14 * np.linalg.norm(coupling)

    def test_momentum_block_positive_definite(self, example1, rng):
        asm = Assembler(build_mesh(2), example1, 0.1)
        nv = asm.mesh.n_nodes
        m = np.tile([0.3, -0.9], nv) + 0.2 * rng.standard_normal(2 * nv)
        state = SystemState(np.zeros(nv), m, 0.5)
        jac = asm.jacobian(state).toarray()
        a_block = jac[: 2 * nv, : 2 * nv]
        np.testing.assert_allclose(a_block, a_block.T, atol=1e-12)
        assert np.linalg.eigvalsh(a_block).min() > 0.0

    def test_darcy_block_is_vector_mass(self):
        from mixedflow.constitutive import (CoefficientVector,
                                            GeneralizedPolynomial, PowerSpec)
        darcy_law = GeneralizedPolynomial(PowerSpec(0.5, [1.0]),
                                          CoefficientVector([0.0, 1.0, 0.0]))
        data = dataclasses.replace(builtin_problem("example1"), law=darcy_law,
                                   exact=None)
        asm = Assembler(build_mesh(2), data, 0.1)
        nv = asm.mesh.n_nodes
        rng = np.random.default_rng(3)
        for m in (np.zeros(2 * nv), rng.standard_normal(2 * nv)):
            state = SystemState(np.zeros(nv), m, 0.5)
            a_block = asm.jacobian(state).toarray()[: 2 * nv, : 2 * nv]
            # F == 1: the block is the interleaved vector mass matrix
            mass = asm.mass.toarray()
            expected = np.zeros_like(a_block)
            expected[0::2, 0::2] = mass
            expected[1::2, 1::2] = mass
            np.testing.assert_allclose(a_block, expected, atol=1e-13)

    def test_independent_of_f_and_psi(self, example1):
        other = dataclasses.replace(
            example1,
            f=lambda x, t: 7.0 + 0.0 * x[..., 0],
            psi_t=lambda x, t: -3.0 + 0.0 * x[..., 0])
        mesh = build_mesh(2)
        nv = mesh.n_nodes
        state = SystemState(np.ones(nv), np.tile([0.4, 0.1], nv), 0.5)
        j1 = Assembler(mesh, example1, 0.1).jacobian(state).toarray()
        j2 = Assembler(mesh, other, 0.1).jacobian(state).toarray()
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
            asm = Assembler(build_mesh(n), example1, 0.5 / n)
            state = asm.initial_state()
            err = norm(asm.vector_space, state.m, 3.0,
                       against=lambda pts: np.asarray(example1.exact.m(pts, 0.0)))
            assert err <= 1e-10

    @pytest.mark.parametrize("key", ["coefficients_a", "coefficients_b"])
    def test_tiny_law_momentum_matches_exact(self, key):
        """Below F ~ 1e-308 the nodal start's 1 / F(z_i) overflows; m_i =
        (g_i / |g_i|) z_i does not."""
        cfg = StudyConfig(study="dependence", levels=4, **{key: (1e-310,) * 3})
        law = cfg.law_a() if key == "coefficients_a" else cfg.law_b()
        data = manufactured_problem(law, "tiny")
        asm = Assembler(build_mesh(4), data, 0.125)
        np.testing.assert_allclose(asm.initial_state().m,
                                   np.asarray(data.exact.m(asm.mesh.nodes, 0.0)).ravel(),
                                   rtol=1e-10)

    def test_rho0_equal_psi_gives_zero(self, example1):
        # example1 is constructed with rho0 = psi(., 0)
        asm = Assembler(build_mesh(2), example1, 0.25)
        np.testing.assert_allclose(asm.initial_state().rho_bar, 0.0,
                                   atol=1e-13)

    @pytest.mark.parametrize("problem, options, steps", [
        ("example1", DiscretizationOptions(), [4, 4, 3, 2, 2, 2, 2, 2]),
        ("example2_F2", DiscretizationOptions(momentum_bc="exact",
                                              pin_rho_boundary=True),
         [3, 4, 2, 2, 2, 2, 2, 2]),
    ])
    def test_nodal_start_newton_steps_on_nonconstant_momentum(
            self, nonconstant_momentum, problem, options, steps):
        """Each level's Newton steps at N = 16 to t = 0.25 from the nodal
        start; from m = 0 the first level of example1 takes 6."""
        _, diags = march(nonconstant_momentum(problem), build_mesh(16),
                         MarchConfig(dt=1 / 32, final_time=0.25), options=options)
        assert [d.newton_iterations for d in diags] == steps


def test_assembly_imports_nothing_from_solver():
    """The solver builds on the assembly, not the other way round."""
    tree = ast.parse(Path(assembly.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[-1] == "solver" for name in names), \
            ast.unparse(node)


class TestProjection:
    """The L^2 projection of the initial density, M rho_bar_0 = (g, q) with
    M the assembler's mass matrix."""

    @staticmethod
    def project(n, g):
        """The space of the N x N mesh and g's projection onto it."""
        asm = Assembler(build_mesh(n), builtin_problem("example1"), 0.5 / n)
        space = asm.scalar_space
        return space, _solve_spd(asm.mass, space.load_vector(g(space.quadrature_coords())))

    def test_fixes_space_members(self, example1):
        # rho_0 - Psi(., 0) = g, projected by the initial state
        g = lambda x: 1.0 + 2.0 * x[..., 0] - 0.5 * x[..., 1]
        data = dataclasses.replace(example1,
                                   rho0=lambda x: example1.psi(x, 0.0) + g(x))
        asm = Assembler(build_mesh(3), data, 0.5 / 3)
        np.testing.assert_allclose(asm.initial_state().rho_bar,
                                   g(asm.mesh.nodes), atol=1e-11)

    def test_zero(self):
        assert np.all(self.project(2, lambda x: 0.0 * x[..., 0])[1] == 0.0)

    def test_second_order_rate_for_sine(self):
        g = lambda x: np.sin(np.pi * x[..., 0])
        errs = [norm(*self.project(n, g), 2.0, against=g) for n in (4, 8, 16)]
        # frozen oracle values from the dev sweep
        np.testing.assert_allclose(
            errs, [1.702501e-02, 4.126684e-03, 1.020294e-03], rtol=1e-5)
        rates = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2.0)
        assert np.all(rates > 1.9)

    def test_mass_matrix_spd(self, example1):
        for n in (2, 4, 8):
            mass = Assembler(build_mesh(n), example1, 0.5 / n).mass.toarray()
            np.testing.assert_allclose(mass, mass.T, atol=1e-16)
            assert np.linalg.eigvalsh(mass).min() > 0.0


def snapshot(asm):
    """Every attribute of ``asm`` by identity, with the identity and bytes of
    each array it holds, the arrays of its sparse matrices included."""
    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        if sp.issparse(value):
            return [value.data, value.indices, value.indptr]
        return []
    return {name: (id(value), [(id(a), a.tobytes()) for a in arrays(value)])
            for name, value in vars(asm).items()}


@pytest.mark.parametrize("problem, options", [
    ("example1", DiscretizationOptions()),
    ("example2_F2", DiscretizationOptions(momentum_bc="exact", pin_rho_boundary=True)),
])
def test_use_leaves_the_assembler_unchanged(problem, options):
    """An Assembler is plain data once built: no call writes an attribute
    or an array it holds."""
    asm = Assembler(build_mesh(8), builtin_problem(problem), 1 / 16, options)
    # beside its inputs and spaces it holds only arrays and sparse matrices
    rest = vars(asm).keys() - {"mesh", "data", "dt", "options", "scalar_space",
                               "vector_space"}
    assert all(isinstance(getattr(asm, name), np.ndarray)
               or sp.issparse(getattr(asm, name)) for name in rest), rest
    built = snapshot(asm)
    state = asm.initial_state()
    assert snapshot(asm) == built
    _, jacobian = asm.level(state, 1 / 16)(np.concatenate([state.m, state.rho_bar]))
    assert snapshot(asm) == built
    jacobian()
    assert snapshot(asm) == built


class TestOptions:
    def test_pin_rho_boundary_rows(self, example1):
        asm = Assembler(build_mesh(2), example1, 0.1,
                        DiscretizationOptions(pin_rho_boundary=True))
        nv = asm.mesh.n_nodes
        rng = np.random.default_rng(0)
        state = SystemState(rng.standard_normal(nv),
                            np.tile([0.5, 0.5], nv), 0.1)
        prev = SystemState(np.zeros(nv), np.tile([0.5, 0.5], nv), 0.0)
        r = asm.residual(state, prev)
        bn = asm.mesh.boundary_nodes
        np.testing.assert_array_equal(r[2 * nv:][bn], state.rho_bar[bn])

    def test_momentum_bc_requires_exact(self, example1):
        data = dataclasses.replace(example1, exact=None)
        with pytest.raises(ValueError):
            Assembler(build_mesh(2), data, 0.1,
                      DiscretizationOptions(momentum_bc="exact"))

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_dt_must_be_positive_and_finite(self, example1, dt):
        with pytest.raises(ValueError, match="dt"):
            Assembler(build_mesh(2), example1, dt)

    def test_unknown_option_values_rejected(self):
        with pytest.raises(ValueError):
            DiscretizationOptions(psi_t_mode="midpoint")
        with pytest.raises(ValueError):
            DiscretizationOptions(momentum_bc="zero")


class TestModuleLevelApi:
    def test_state_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SystemState(np.array([np.nan]), np.zeros(2), 0.0)
