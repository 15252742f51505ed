import dataclasses

import numpy as np
import pytest

from mixedflow import solver
from mixedflow.constitutive import (CoefficientVector, GeneralizedPolynomial,
                                    PowerSpec)
from mixedflow.harness import builtin_problem


def flux(law: GeneralizedPolynomial, m) -> np.ndarray:
    """F(|m|) m for one 2-vector or an (..., 2) array of vectors, from
    ``law.linearize``."""
    values, _ = law.linearize(np.moveaxis(np.asarray(m, dtype=float), -1, 0))
    return np.moveaxis(values, 0, -1)


def momentum_rows(asm, t: float, rho_bar: np.ndarray):
    """The momentum rows of ``asm`` at time ``t`` and density ``rho_bar``, as
    a function of m: the rows and a thunk for their derivative A, on A's own
    pattern, as the momentum initialization solves them."""
    n_m = asm.vector_space.n_dofs
    coupling = (asm._pattern.operator(asm._coupling)  # -B^T rho_bar
                @ np.concatenate([np.zeros(n_m), rho_bar]))[:n_m]
    rows = asm._momentum_rows(*asm._momentum_loads(t))

    def linearize(m: np.ndarray):
        r, flux_block = rows(m, coupling)
        return r, lambda: asm._a.matrix(flux_block()[asm._a_slots])

    return linearize


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
