import dataclasses

import numpy as np
import pytest

from mixedflow import solver
from mixedflow.constitutive import (CoefficientVector, GeneralizedPolynomial,
                                    PowerSpec)
from mixedflow.harness import builtin_problem


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
    ``solver._newton`` call from here on."""
    runs = []
    real = solver._newton

    def newton(linearize, x, tol, max_iter, linear_solver, where):
        x, stats = real(linearize, x, tol, max_iter, linear_solver, where)
        runs.append((stats.iterations, linear_solver.factorizations))
        return x, stats

    monkeypatch.setattr(solver, "_newton", newton)
    return runs
