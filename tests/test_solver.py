import collections
import dataclasses
import functools

import numpy as np
import pytest

from mixedflow import harness
from mixedflow import solver as solver_module
from mixedflow.assembly import Assembler, DiscretizationOptions
from mixedflow.cli import EXIT_NEWTON_FAILURE, main
from mixedflow.constitutive import (CoefficientVector, GeneralizedPolynomial,
                                    PowerSpec)
from mixedflow.harness import builtin_problem
from mixedflow.mesh_fem import build_mesh
from mixedflow.solver import (LinearSolveFailure, LinearSolver, MarchConfig,
                              NewtonConfig, NonConvergence, march,
                              newton_solve)


@pytest.fixture(scope="module")
def example1():
    return builtin_problem("example1")


def darcy_problem():
    """F == 1 makes the system linear in (m, rho_bar)."""
    law = GeneralizedPolynomial(PowerSpec(0.5, [1.0]),
                                CoefficientVector([0.0, 1.0, 0.0]))
    return dataclasses.replace(builtin_problem("example1"), law=law, exact=None)


def zero_problem():
    base = builtin_problem("example1")
    zs = lambda x, t: np.zeros(np.shape(x)[:-1])
    zv = lambda x, t: np.zeros(np.shape(x))
    return dataclasses.replace(base, f=zs, psi=zs, psi_t=zs, grad_psi=zv,
                               rho0=lambda x: np.zeros(np.shape(x)[:-1]),
                               exact=None)


class TestConfigs:
    @pytest.mark.parametrize("field, build", [
        ("tol", lambda: NewtonConfig(tol=np.nan)),
        ("tol", lambda: NewtonConfig(tol=np.inf)),
        ("max_iter", lambda: NewtonConfig(max_iter=2.5)),
        ("exponents", lambda: PowerSpec(0.5, (np.nan,))),
        ("exponents", lambda: PowerSpec(0.5, (1.0, np.inf))),
        ("values", lambda: CoefficientVector((1, 1, np.nan))),
        ("a_star", lambda: CoefficientVector((1, 1, 1), a_star=np.nan)),
        ("a_sup", lambda: CoefficientVector((1, 1, 1), a_sup=np.inf)),
        ("eps_reg", lambda: GeneralizedPolynomial(
            PowerSpec(0.5, (1.0,)), CoefficientVector((1, 1, 1)), eps_reg=np.nan)),
        ("final_time", lambda: MarchConfig(dt=0.5, final_time=np.inf)),
        ("dt", lambda: MarchConfig(dt=np.nan)),
        ("dt", lambda: MarchConfig(dt=1e-320)),  # final_time / dt overflows
    ], ids=["tol=nan", "tol=inf", "max_iter=2.5", "exponent=nan", "exponent=inf",
            "coefficient=nan", "a_star=nan", "a_sup=inf", "eps_reg=nan",
            "final_time=inf", "dt=nan", "dt=1e-320"])
    def test_non_finite_number_names_its_field(self, field, build):
        with pytest.raises(ValueError, match=field):
            build()

    def test_newton_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)

    def test_march_requires_integral_steps(self):
        with pytest.raises(ValueError):
            MarchConfig(dt=0.3, final_time=1.0)
        assert MarchConfig(dt=0.125, final_time=1.0).n_steps == 8

    @pytest.mark.parametrize("dt, final_time", [
        (0.14, 14000.0), (1.1, 110000.0), (0.28, 28000.0)])
    def test_divisibility_relative_to_final_time(self, dt, final_time):
        """n dt is off final_time by more than an absolute 1e-12 here, but by
        less than 1e-12 final_time."""
        assert MarchConfig(dt=dt, final_time=final_time).n_steps == 100_000
        with pytest.raises(ValueError, match="does not divide"):
            MarchConfig(dt=dt, final_time=final_time * (1.0 + 1e-10))

    def test_march_refuses_more_than_2_53_steps(self):
        """Past 2**53 steps t_n = n * dt no longer advances by dt in float64;
        dt = 2.5e-291 divides final_time = 1 in 4e290 steps."""
        with pytest.raises(ValueError, match=r"dt=2\.5e-291 .*4e\+290 steps.*2\*\*53"):
            MarchConfig(dt=2.5e-291)
        assert MarchConfig(dt=2.0 ** -53).n_steps == 2 ** 53

    def test_single_step_march(self):
        assert MarchConfig(dt=1.0, final_time=1.0).n_steps == 1


class TestNewton:
    def test_darcy_converges_in_one_iteration(self):
        data = darcy_problem()
        asm = Assembler(build_mesh(4), data, 0.125)
        state0 = asm.initial_state()
        _, stats = newton_solve(asm, state0, 1)
        assert stats.iterations == 1
        assert stats.residual_norm <= 1e-10

    def test_example1_first_step_bounded_iterations(self, example1):
        asm = Assembler(build_mesh(4), example1, 0.125)
        state0 = asm.initial_state()
        state, stats = newton_solve(asm, state0, 1)
        assert stats.residual_norm <= 1e-6
        assert stats.iterations <= 10

    def test_loose_tolerance_never_more_iterations(self, example1):
        asm = Assembler(build_mesh(4), example1, 0.125)
        state0 = asm.initial_state()
        _, tight = newton_solve(asm, state0, 1, NewtonConfig(tol=1e-6))
        _, loose = newton_solve(asm, state0, 1, NewtonConfig(tol=1e-2))
        assert loose.iterations <= tight.iterations

    def test_nonconvergence_carries_trace(self, example1):
        asm = Assembler(build_mesh(2), example1, 0.25)
        state0 = asm.initial_state()
        with pytest.raises(NonConvergence) as err:
            newton_solve(asm, state0, 1, NewtonConfig(tol=1e-300, max_iter=2))
        assert len(err.value.trace) >= 2

    def test_level_time_is_not_a_step_index(self, example1):
        # a caller still passing t_n = dt is refused, not run as level 0
        asm = Assembler(build_mesh(2), example1, 0.125)
        with pytest.raises(TypeError):
            newton_solve(asm, asm.initial_state(), 0.125)


class TestLinearSolver:
    def test_contract_check_passes_on_sane_system(self, example1):
        asm = Assembler(build_mesh(2), example1, 0.25)
        state0 = asm.initial_state()
        newton_solve(asm, state0, 1, linear_solver=LinearSolver())

    def test_gmres_start_meeting_aim_takes_no_iteration(self):
        """A start residual already within the aim costs no triangular solve."""
        import scipy.sparse as sp

        def precondition(v):
            raise AssertionError("preconditioner applied")

        rhs = np.full(3, 1e-9)
        step, iterations = solver_module._preconditioned_gmres(
            sp.identity(3, format="csc"), rhs, precondition, 5, atol=1e-8)
        assert iterations == 0
        assert np.array_equal(step, np.zeros(3))


class TestMarch:
    def test_zero_problem_stays_zero(self):
        data = zero_problem()
        final, diags = march(data, build_mesh(2), MarchConfig(dt=0.25))
        assert np.all(final.rho_bar == 0.0)
        assert np.all(final.m == 0.0)
        assert all(d.newton_iterations == 0 for d in diags)

    def test_single_step(self, example1):
        final, diags = march(example1, build_mesh(2), MarchConfig(dt=1.0))
        assert len(diags) == 1
        assert final.t == pytest.approx(1.0)

    def test_example1_n4_completes(self, example1):
        final, diags = march(example1, build_mesh(4), MarchConfig(dt=0.125))
        assert len(diags) == 8
        assert all(d.residual_norm <= 1e-6 for d in diags)

    def test_linear_residual_within_newton_aim(self, example1):
        tol = NewtonConfig().tol
        _, diags = march(example1, build_mesh(16), MarchConfig(dt=1 / 32))
        assert all(d.newton_iterations > 0 for d in diags)
        assert all(0.0 < d.linear_residual <= 0.01 * tol for d in diags)

    def test_determinism_bitwise(self, example1):
        f1, _ = march(example1, build_mesh(4), MarchConfig(dt=0.125))
        f2, _ = march(example1, build_mesh(4), MarchConfig(dt=0.125))
        assert np.array_equal(f1.rho_bar, f2.rho_bar)
        assert np.array_equal(f1.m, f2.m)

    def test_superlinear_tail(self, example1):
        """Within the basin, residuals contract superlinearly."""
        asm = Assembler(build_mesh(4), example1, 0.125)
        state0 = asm.initial_state()
        _, stats = newton_solve(asm, state0, 1,
                                NewtonConfig(tol=1e-13, max_iter=20))
        trace = [r for r in stats.trace if r > 1e-14]
        # ratios of successive residuals must collapse faster than a fixed
        # linear rate once inside the basin
        tail = trace[1:]
        assert any(b <= 10.0 * a ** 1.5 for a, b in zip(tail, tail[1:]))

    def test_abort_carries_step_index(self, example1):
        # a tolerance one Newton step of the first level cannot reach
        with pytest.raises(NonConvergence) as err:
            march(example1, build_mesh(2), MarchConfig(dt=0.5),
                  NewtonConfig(tol=1e-12, max_iter=1))
        assert str(err.value).startswith("Newton stalled at step 1 (t=0.5) ")

    def test_linear_failure_names_the_level(self, example1):
        """A direct solve's linear failure names its level as a march would."""
        class Failing(LinearSolver):
            def solve(self, matrix, rhs, atol=0.0):
                raise LinearSolveFailure("no solution")

        asm = Assembler(build_mesh(2), example1, 0.25)
        with pytest.raises(LinearSolveFailure) as err:
            newton_solve(asm, asm.initial_state(), 2, NewtonConfig(tol=1e-12),
                         Failing())
        assert str(err.value) == "no solution at step 2 (t=0.5)"

    def test_newton_starts_from_guess(self, example1):
        asm = Assembler(build_mesh(4), example1, 0.125)
        state0 = asm.initial_state()
        tight, stats = newton_solve(asm, state0, 1, NewtonConfig(tol=1e-12))
        assert stats.iterations > 0
        again, stats = newton_solve(asm, state0, 1,
                                    NewtonConfig(tol=1e-12),
                                    guess=np.concatenate([tight.m, tight.rho_bar]))
        assert stats.iterations == 0
        assert np.array_equal(again.m, tight.m)


def divergence(mesh, m: np.ndarray) -> np.ndarray:
    """(nt, 1) divergence on each triangle of the P1 field with dofs m."""
    return np.einsum("tkc,tkc->t", m.reshape(-1, 2)[mesh.triangles], mesh.grads)[:, None]


ENERGY_CASES = [(name, bc) for name in (*harness.BUILTIN_PROBLEMS, "porous")
                for bc in ("natural", "pinned")
                if (name, bc) != ("example2_F1", "pinned")]  # F1 has no exact m


class TestEnergyIdentity:
    """The discrete energy identity at every accepted level of a march.

    Testing level n's momentum rows with m_n and its density rows with
    rho_bar_n cancels the coupling:

        (phi (rho_bar_n - rho_bar_{n-1}), rho_bar_n) / dt + (F(|m_n|) m_n, m_n)
            = -(grad Psi_n, m_n) + (f_n - phi dPsi_n, rho_bar_n) + r_n . x_n

    with r_n the accepted residual and x_n = [m_n, rho_bar_n], so the two
    sides differ by at most ||r_n|| ||x_n||.  A pinned row is not its weak
    form, so the test functions are m_n and rho_bar_n with their pinned
    dofs zeroed, u and w, and the coupling (div m_n, w) - (div u, rho_bar_n)
    is kept on the left; without pins it is zero.  Every term is a
    quadrature of the spaces, the law and the data, not a product with the
    Assembler's matrices, so a wrong -B^T, M_phi or dPsi load fails it.
    """

    @pytest.mark.parametrize("name, bc", ENERGY_CASES)
    def test_holds_at_every_level(self, monkeypatch, name, bc):
        if name == "porous":  # every built-in problem has phi == 1
            data = dataclasses.replace(
                builtin_problem("example1"), phi=lambda x: 1.0 + 0.5 * x[..., 0] * x[..., 1])
        else:
            data = builtin_problem(name)
        pinned = bc == "pinned"
        options = DiscretizationOptions(momentum_bc="exact" if pinned else "none",
                                        pin_rho_boundary=pinned)
        levels = []
        real = solver_module.newton_solve

        def newton(assembler, state_prev, n, *args):
            state, stats = real(assembler, state_prev, n, *args)
            levels.append((assembler, n, state_prev, state, stats.residual_norm))
            return state, stats

        monkeypatch.setattr(solver_module, "newton_solve", newton)
        march(data, build_mesh(8), MarchConfig(dt=1 / 16), options=options)
        assert len(levels) == 16
        for asm, n, prev, state, r_norm in levels:
            ss, vs, mesh, dt = asm.scalar_space, asm.vector_space, asm.mesh, asm.dt
            qp, t = ss.quadrature_coords(), n * dt
            u, w = state.m.copy(), state.rho_bar.copy()
            if pinned:
                u.reshape(-1, 2)[mesh.boundary_nodes] = 0.0
                w[mesh.boundary_nodes] = 0.0
            m_q, u_q = vs.eval_at_quadrature(state.m), vs.eval_at_quadrature(u)
            rho_q, w_q = ss.eval_at_quadrature(state.rho_bar), ss.eval_at_quadrature(w)
            drho_q = rho_q - ss.eval_at_quadrature(prev.rho_bar)
            phi = data.phi(qp)
            dpsi = (data.psi(qp, t) - data.psi(qp, (n - 1) * dt)) / dt
            flux, _ = data.law.linearize(m_q)
            grad_psi = vs.component_major(data.grad_psi(qp, t))
            lhs = ss.integrate(phi * drho_q * w_q) / dt \
                + ss.integrate(np.sum(flux * u_q, axis=0)) \
                + ss.integrate(divergence(mesh, state.m) * w_q - divergence(mesh, u) * rho_q)
            rhs = -ss.integrate(np.sum(grad_psi * u_q, axis=0)) \
                + ss.integrate((data.f(qp, t) - phi * dpsi) * w_q)
            assert abs(lhs - rhs) <= r_norm * np.linalg.norm(np.concatenate([u, w])), n


class TestOneLawPassPerIterate:
    def test_march_evaluates_law_once_per_iterate(self, example1, monkeypatch):
        """F once per residual, shared with the Jacobian; F' once per step."""
        calls = collections.Counter()

        def counted(name):
            real = getattr(GeneralizedPolynomial, name)

            def wrapper(self, z):
                calls[name] += 1
                return real(self, z)
            return wrapper

        for name in ("eval_F", "eval_F_prime"):
            monkeypatch.setattr(GeneralizedPolynomial, name, counted(name))
        steps = []
        real_newton = solver_module.newton_solve

        def newton(*args):
            state, stats = real_newton(*args)
            steps.append(stats.iterations)
            return state, stats

        monkeypatch.setattr(solver_module, "newton_solve", newton)
        march(example1, build_mesh(4), MarchConfig(dt=0.125))
        assert len(steps) == 8  # one per level
        assert calls["eval_F"] == sum(steps) + len(steps)
        assert calls["eval_F_prime"] == sum(steps)

    @pytest.mark.parametrize("momentum_bc", ["none", "exact"])
    def test_march_evaluates_data_once_per_level(self, example1, momentum_bc):
        """f once per level; grad Psi and the exact boundary momentum once per
        level and once for the initialization, not once per Newton iterate."""
        calls = collections.Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        data = dataclasses.replace(
            example1, f=counted("f", example1.f),
            grad_psi=counted("grad_psi", example1.grad_psi),
            exact=dataclasses.replace(example1.exact,
                                      m=counted("exact.m", example1.exact.m)))
        _, diags = march(data, build_mesh(4), MarchConfig(dt=0.125),
                         options=DiscretizationOptions(momentum_bc=momentum_bc))
        assert len(diags) == 8 and sum(d.newton_iterations for d in diags) > 8
        assert calls["f"] == 8
        assert calls["grad_psi"] == 8 + 1
        assert calls["exact.m"] == (8 + 1 if momentum_bc == "exact" else 0)


class TestTightReference:
    """The march at the default tolerance stays near a tol=1e-12 march.

    Newton stops on an absolute residual of 1e-6, so each level keeps a
    residual error; the start of the iteration decides how large it is.
    Starting each level from the previous state leaves example1 at N=32
    7.4e-5 from the reference; the extrapolated start leaves 7.9e-8 with
    exact linear solves and 8.5e-8 with Newton's linear aim of 0.01 * tol.
    An aim of 1 * tol would leave 1.2e-6, so that case's bound is 2e-7.
    """

    BOUNDS = {("example1", 32): 2e-7}  # the rest: 1e-5

    @pytest.mark.parametrize("problem, n, final_time, options", [
        ("example1", 8, 1.0, DiscretizationOptions()),
        ("example1", 32, 1.0, DiscretizationOptions()),
        ("example2_F2", 32, 0.25,
         DiscretizationOptions(momentum_bc="exact", pin_rho_boundary=True)),
    ])
    def test_fields_near_tight_reference(self, problem, n, final_time, options):
        data, mesh = builtin_problem(problem), build_mesh(n)
        config = MarchConfig(dt=0.5 / n, final_time=final_time)
        final, _ = march(data, mesh, config, NewtonConfig(tol=1e-6), options)
        ref, _ = march(data, mesh, config, NewtonConfig(tol=1e-12), options)
        x = np.concatenate([final.m, final.rho_bar])
        x_ref = np.concatenate([ref.m, ref.rho_bar])
        bound = self.BOUNDS.get((problem, n), 1e-5)
        assert np.linalg.norm(x - x_ref) <= bound * np.linalg.norm(x_ref)


class NanSteps(LinearSolver):
    """A linear solver whose every solution is NaN."""

    def solve(self, matrix, rhs, atol=0.0):
        return np.full(rhs.shape, np.nan)


class TestNonFiniteIterate:
    def test_newton_raises_nonconvergence_with_trace(self, example1):
        asm = Assembler(build_mesh(2), example1, 0.25)
        state0 = asm.initial_state()
        with pytest.raises(NonConvergence, match="non-finite Newton iterate") as err:
            newton_solve(asm, state0, 1, linear_solver=NanSteps())
        assert len(err.value.trace) == 1 and np.isfinite(err.value.trace[0])

    def test_cli_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "march", functools.partial(
            solver_module.march, linear_solver=NanSteps()))
        assert main(["single", "--levels", "4"]) == EXIT_NEWTON_FAILURE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("solver failure: ")
        assert "non-finite Newton iterate" in err[0]
