import dataclasses

import numpy as np
import pytest

from mixedflow import solver
from mixedflow.assembly import SystemState
from mixedflow.constitutive import (CoefficientVector, GeneralizedPolynomial,
                                    PowerSpec)
from mixedflow.harness import builtin_problem


def flux(law: GeneralizedPolynomial, m) -> np.ndarray:
    """F(|m|) m for one 2-vector or an (..., 2) array of vectors, from
    ``law.linearize``."""
    values, _ = law.linearize(np.moveaxis(np.asarray(m, dtype=float), -1, 0))
    return np.moveaxis(values, 0, -1)


def momentum_rows(asm, n: int, rho_bar: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The momentum rows of level ``n`` of ``asm`` at density ``rho_bar`` and
    momentum ``m``: the first n_m rows of the level residual, which are
    -B^T rho_bar + (F(|m|) m, v) + (grad Psi(n dt), v) whatever
    rho_bar_{n-1} is, here zero."""
    zero = SystemState(np.zeros_like(rho_bar), np.zeros_like(m), (n - 1) * asm.dt)
    return asm.residual(n, SystemState(rho_bar, m, n * asm.dt), zero)[:len(m)]


@pytest.fixture(scope="session")
def reference_law() -> GeneralizedPolynomial:
    """F(z) = z^-1/2 + 1 + z: alpha = 1/2, alpha_N = 1, s = 3."""
    return GeneralizedPolynomial(PowerSpec(0.5, [1.0]),
                                 CoefficientVector([1.0, 1.0, 1.0]))


@pytest.fixture(scope="session")
def perturbed_law() -> GeneralizedPolynomial:
    """F(z) = 0.95 z^-1/2 + 1 + 0.95 z with the shared [0.95, 1] box."""
    return GeneralizedPolynomial(
        PowerSpec(0.5, [1.0]),
        CoefficientVector([0.95, 1.0, 0.95], a_star=0.95, a_sup=1.0))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def nonconstant_momentum():
    """A built-in problem with rho_0 = Psi(., 0) + 0.5 sin(pi x) sin(2 pi y)
    + x^2, whose initial momentum is not constant in space."""
    def problem(name: str):
        data = builtin_problem(name)
        return dataclasses.replace(data, rho0=lambda x: data.psi(x, 0.0)
                                   + 0.5 * np.sin(np.pi * x[..., 0])
                                   * np.sin(2 * np.pi * x[..., 1])
                                   + x[..., 0] ** 2)
    return problem


@pytest.fixture
def newton_runs(monkeypatch):
    """(Newton steps, factorizations of its linear solver) of every
    ``solver.newton_solve`` call from here on."""
    runs = []
    real = solver.newton_solve

    def newton(assembler, state_prev, n, config=None, linear_solver=None,
               guess=None):
        linear_solver = linear_solver or solver.LinearSolver()
        state, stats = real(assembler, state_prev, n, config, linear_solver,
                            guess)
        runs.append((stats.iterations, linear_solver.factorizations))
        return state, stats

    monkeypatch.setattr(solver, "newton_solve", newton)
    return runs
