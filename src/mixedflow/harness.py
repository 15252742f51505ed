"""Built-in manufactured problems, study orchestration and configuration.

Three example problems are built in, the first two manufactured:

``example1``      law (1, 1, 1) with alpha = 1/2, alpha_1 = 1; density
                  (e^-t + e^-2t + e^-4t)(x1 + x2)/sqrt(2), spatially
                  constant momentum -e^-2t (1, 1)/sqrt(2).
``example2_F2``   law (0.95, 1, 0.95) with its own manufactured data of the
                  same shape (weights 0.95, 1, 0.95).
``example2_F1``   law (1, 1, 1) paired with example2_F2's data, for
                  ``problem`` only; no exact solution is attached (the
                  pair is not manufactured for this law).

The dependence study marches both laws on one mesh per level and measures
the norms of the discrete-solution differences.  Its default pairing solves
each law with its own manufactured data ("manufactured"); the "shared_data"
pairing instead solves both laws against example2_F2's data.  With shared
data the two exact solutions differ by a fixed, h-independent momentum gap
(the two laws invert the same pressure gradient differently), so the
difference norms plateau instead of decaying; the manufactured pairing is
the one whose difference norms keep decreasing under refinement.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .analysis import (LevelResult, final_time_errors, format_table, rates,
                       report_to_csv)
from .assembly import (DiscretizationOptions, ExactSolution, ProblemData,
                       SystemState)
from .constitutive import (DEFAULT_EPS_REG, CoefficientVector,
                           GeneralizedPolynomial, PowerSpec)
from .mesh_fem import ScalarP1Space, VectorP1Space, build_mesh, norm
from .solver import MarchConfig, NewtonConfig, march

__all__ = [
    "StudyConfig",
    "StudyReport",
    "builtin_problem",
    "BUILTIN_PROBLEMS",
    "manufactured_problem",
    "run_single",
    "run_convergence",
    "run_dependence",
    "parse_config_text",
    "parse_value",
]

SQRT2 = math.sqrt(2.0)


def manufactured_problem(law: GeneralizedPolynomial, name: str) -> ProblemData:
    """Manufactured problem with constant momentum, valid for any law.

    The momentum -e^{-2t} (1, 1)/sqrt(2) has magnitude e^{-2t}, so
    F(|m|) m = -(sum_i a_i e^{-2(1+alpha_i) t}) (1, 1)/sqrt(2); choosing the
    density rho = (sum_i a_i e^{-2(1+alpha_i) t})(x1 + x2)/sqrt(2) closes the
    momentum law exactly, and f = rho_t closes the divergence-free mass
    balance.  The built-in example problems are its (1,1,1) and
    (0.95,1,0.95) instances.
    """
    a = law.coefficients()
    decay = 2.0 * (1.0 + law.spec.all_exponents())

    def coef(t):
        return sum(ai * np.exp(-di * t) for ai, di in zip(a, decay)) / SQRT2

    def coef_dt(t):
        return sum(-di * ai * np.exp(-di * t) for ai, di in zip(a, decay)) / SQRT2

    def rho(x, t):
        return coef(t) * (x[..., 0] + x[..., 1])

    def m_exact(x, t):
        out = np.empty(np.shape(x), dtype=float)
        out[...] = -np.exp(-2.0 * t) / SQRT2
        return out

    def f(x, t):
        return coef_dt(t) * (x[..., 0] + x[..., 1])

    def grad_psi(x, t):
        out = np.empty(np.shape(x), dtype=float)
        out[...] = coef(t)
        return out

    def rho0(x):
        return rho(x, 0.0)

    return ProblemData(
        law=law,
        phi=lambda x: np.ones(np.shape(x)[:-1]),
        f=f, psi=rho, psi_t=f, grad_psi=grad_psi, rho0=rho0,
        exact=ExactSolution(rho=rho, m=m_exact), name=name)


def _law(coefficients: Sequence[float], alpha: float = 0.5,
         exponents: Sequence[float] = (1.0,), eps_reg: float = DEFAULT_EPS_REG,
         a_star: float | None = None, a_sup: float | None = None
         ) -> GeneralizedPolynomial:
    return GeneralizedPolynomial(
        PowerSpec(alpha, exponents),
        CoefficientVector(coefficients, a_star=a_star, a_sup=a_sup),
        eps_reg=eps_reg)


def _example1() -> ProblemData:
    return manufactured_problem(_law((1.0, 1.0, 1.0)), "example1")


def _example2_f2() -> ProblemData:
    return manufactured_problem(_law((0.95, 1.0, 0.95)), "example2_F2")


def _example2_f1() -> ProblemData:
    base = _example2_f2()
    return replace(base, law=_law((1.0, 1.0, 1.0)), exact=None,
                   name="example2_F1")


BUILTIN_PROBLEMS: dict[str, Callable[[], ProblemData]] = {
    "example1": _example1,
    "example2_F2": _example2_f2,
    "example2_F1": _example2_f1,
}


def builtin_problem(name: str) -> ProblemData:
    try:
        return BUILTIN_PROBLEMS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin problem {name!r}; "
                         f"choose from {sorted(BUILTIN_PROBLEMS)}") from None


# ---------------------------------------------------------------------------
# Study configuration
# ---------------------------------------------------------------------------

_DEFAULT_LEVELS = (4, 8, 16, 32, 64, 128, 256)


@dataclass
class StudyConfig:
    """Configuration of one harness invocation."""

    study: str = "convergence"
    problem: str = "example1"
    levels: tuple[int, ...] = _DEFAULT_LEVELS
    dt_ratio: float = 0.5
    final_time: float = 1.0
    # constitutive parameters (dependence study and verify suite)
    alpha: float = 0.5
    exponents: tuple[float, ...] = (1.0,)
    coefficients_a: tuple[float, ...] = (1.0, 1.0, 1.0)
    coefficients_b: tuple[float, ...] = (0.95, 1.0, 0.95)
    eps_reg: float = DEFAULT_EPS_REG
    pairing: str = "manufactured"  # or "shared_data"
    # solver settings
    newton_tol: float = 1e-6
    newton_max_iter: int = 30
    # discretization switches
    psi_t_mode: str = "discrete"
    pin_rho_boundary: bool = False
    momentum_bc: str = "none"
    # verification
    seed: int = 0
    trials: int = 10_000
    gronwall_trials: int = 1000
    # io
    out: str | None = None
    verbose: bool = False

    def __post_init__(self):
        if self.study not in ("single", "convergence", "dependence", "verify"):
            raise ValueError(f"unknown study {self.study!r}")
        for f in fields(self):
            setattr(self, f.name, _coerce(f.name, str(f.type), getattr(self, f.name)))
        levels = self.levels
        if not levels:
            raise ValueError("levels must name at least one mesh level")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        for n in levels:
            if n < 4 or n & (n - 1):  # 4 * 2^k is a power of two from 4 on
                raise ValueError(f"levels must be 4 * powers of two, got {n}")
        if self.dt_ratio <= 0.0:
            raise ValueError("dt_ratio must be positive")
        if self.pairing not in ("manufactured", "shared_data"):
            raise ValueError(f"unknown pairing {self.pairing!r}")
        # marches that need an exact solution: for the errors, or for the
        # momentum boundary values
        no_exact = builtin_problem(self.problem).exact is None
        if self.study == "convergence" and no_exact:
            raise ValueError(f"convergence needs an exact solution; problem "
                             f"{self.problem!r} has none")
        if self.momentum_bc == "exact":
            if self.study == "single" and no_exact:
                raise ValueError(f"momentum_bc = exact needs an exact solution; "
                                 f"problem {self.problem!r} has none")
            if self.study == "dependence" and self.pairing == "shared_data":
                raise ValueError("momentum_bc = exact needs an exact solution; "
                                 "the shared_data pairing's law a has none")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("trials", "gronwall_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("coefficients_a", "coefficients_b"):
            if len(getattr(self, name)) < 3:  # _box indexes a_-1, a_0 and a_N
                raise ValueError(f"{name} needs at least (a_-1, a_0, a_N), "
                                 f"got {getattr(self, name)}")
        if self.out:
            target = os.path.abspath(self.out)
            if os.path.isdir(target) \
                    or not os.access(os.path.dirname(target), os.W_OK):
                raise ValueError(f"out: cannot write {self.out!r}")
        # validate the option values, both laws and every time grid now, not
        # mid-study
        self.discretization()
        self.newton()
        for name, law in (("a", self.law_a()), ("b", self.law_b())):
            # the Jacobian takes F(z) and F'(z)/z at z >= eps_reg, and their
            # z^-alpha terms peak at the clamp
            with np.errstate(over="ignore", invalid="ignore"):
                at_clamp = (law.eval_F(self.eps_reg),
                            np.divide(law.eval_F_prime(self.eps_reg), self.eps_reg))
            if not np.all(np.isfinite(at_clamp)):
                raise ValueError(f"eps_reg: F(eps_reg) or F'(eps_reg)/eps_reg of law "
                                 f"{name} is not finite at eps_reg = {self.eps_reg!r}")
        if self.study == "verify" and self._box()[0] <= 0.0:
            raise ValueError("verify needs the anchor coefficients a_-1, a_0, a_N "
                             f"of both laws > 0, got a_star = {self._box()[0]}")
        for n in levels:
            self.march_config(n)

    def discretization(self) -> DiscretizationOptions:
        return DiscretizationOptions(psi_t_mode=self.psi_t_mode,
                                     pin_rho_boundary=self.pin_rho_boundary,
                                     momentum_bc=self.momentum_bc)

    def newton(self) -> NewtonConfig:
        return NewtonConfig(tol=self.newton_tol, max_iter=self.newton_max_iter)

    def march_config(self, n: int) -> MarchConfig:
        return MarchConfig(dt=self.dt_ratio / n, final_time=self.final_time,
                           verbose=self.verbose)

    def law_a(self) -> GeneralizedPolynomial:
        a_star, a_sup = self._box()
        return _law(self.coefficients_a, self.alpha, self.exponents,
                    self.eps_reg, a_star, a_sup)

    def law_b(self) -> GeneralizedPolynomial:
        a_star, a_sup = self._box()
        return _law(self.coefficients_b, self.alpha, self.exponents,
                    self.eps_reg, a_star, a_sup)

    def _box(self) -> tuple[float, float]:
        anchors = [self.coefficients_a[i] for i in (0, 1, -1)] \
            + [self.coefficients_b[i] for i in (0, 1, -1)]
        return min(anchors), max(max(self.coefficients_a),
                                 max(self.coefficients_b))


def _coerce(name: str, kind: str, value):
    """``value`` as a ``StudyConfig`` field of annotated type ``kind``.

    A config line holding one value parses to a scalar, so tuple fields take
    scalars too.  A value of the wrong type, a bool where a number is
    expected, or a nan or infinite float, raises ``ValueError`` naming the
    field; a ``str`` field takes strings only, and None where it is optional.
    """
    def as_int(v):
        if isinstance(v, float) and v.is_integer():
            return int(v)
        return operator.index(v)

    def as_float(v):
        v = float(v)
        if not math.isfinite(v):
            raise ValueError
        return v

    try:
        items = value if isinstance(value, (tuple, list)) else (value,)
        if kind != "bool" and any(isinstance(v, bool) for v in items):
            raise TypeError
        if kind.startswith("tuple"):
            cast = as_int if kind.startswith("tuple[int") else as_float
            return tuple(cast(v) for v in items)
        if kind == "float":
            return as_float(value)
        if kind == "int":
            return as_int(value)
        if kind == "bool" and not isinstance(value, bool):
            raise TypeError
        if kind.startswith("str") and not isinstance(value, str) \
                and not (value is None and kind.endswith("None")):
            raise TypeError
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected {kind}, got {value!r}") from None
    return value


def parse_value(key: str, raw: str):
    """The value of ``key = raw``: a tuple for a comma list, else a bool,
    int, float or the stripped string.  An empty list item raises
    ``ValueError`` naming ``key``; ``StudyConfig`` checks the types."""
    raw = raw.strip()
    if "," in raw:
        parts = raw.split(",")
        if not all(part.strip() for part in parts):
            raise ValueError(f"{key}: empty item in list {raw!r}")
        return tuple(parse_value(key, part) for part in parts)
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_config_text(text: str) -> dict:
    """Parse flat 'key = value' lines; '#' starts a comment, lists use
    commas, and a key may be set once."""
    out: dict = {}
    set_on: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise ValueError(f"{key}: set on line {set_on[key]} and again on line {lineno}")
        set_on[key] = lineno
        out[key] = parse_value(key, raw)
    return out


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

@dataclass
class StudyReport:
    study: str
    problem: str
    levels: list[LevelResult] = field(default_factory=list)
    # a study of one march per level: its (energy_rho, energy_m_accum) per step
    energies: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    text: str = ""
    csv: str = ""


def run_single(cfg: StudyConfig) -> tuple[SystemState, list]:
    """Full march at the first configured level, with diagnostics."""
    data = builtin_problem(cfg.problem)
    n = cfg.levels[0]
    mesh = build_mesh(n)
    final, diags = march(data, mesh, cfg.march_config(n), cfg.newton(),
                         cfg.discretization())
    if cfg.out:
        nodal = final.m.reshape(-1, 2)
        with open(cfg.out, "w") as fh:
            fh.write("# x y rho_bar m_x m_y\n")
            for (x, y), r, (mx, my) in zip(mesh.nodes, final.rho_bar, nodal):
                fh.write(f"{float(x)!r} {float(y)!r} {float(r)!r} {float(mx)!r} {float(my)!r}\n")
    return final, diags


def _refine(cfg: StudyConfig, report: StudyReport,
            problems: Sequence[ProblemData], measure: Callable,
            **table) -> StudyReport:
    """The studies' refinement loop: each level marches every one of
    ``problems`` on one mesh and appends a ``LevelResult`` with errors
    ``measure(mesh, final states)`` and the marches' Newton iterations.
    Then it fills in the rates, the CSV (also written to ``cfg.out``) and
    the table; ``table`` holds ``format_table``'s keyword arguments."""
    for n in cfg.levels:
        mesh = build_mesh(n)
        runs = [march(data, mesh, cfg.march_config(n), cfg.newton(),
                      cfg.discretization()) for data in problems]
        diags = [d for _, level in runs for d in level]
        report.levels.append(LevelResult(
            n, 1.0 / n, cfg.dt_ratio / n, *measure(mesh, [final for final, _ in runs]),
            newton_total=sum(d.newton_iterations for d in diags)))
        if len(runs) == 1:
            report.energies[n] = [(d.energy_rho, d.energy_m_accum) for d in diags]
    report.levels = rates(report.levels)
    report.csv = report_to_csv(report.levels)
    report.text = format_table(report.levels, **table)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(report.csv)
    return report


def run_convergence(cfg: StudyConfig) -> StudyReport:
    """Refinement study against the problem's manufactured solution."""
    data = builtin_problem(cfg.problem)
    if data.exact is None:
        raise ValueError(f"problem {cfg.problem!r} has no exact solution")
    return _refine(cfg, StudyReport("convergence", cfg.problem), [data],
                   lambda mesh, finals: final_time_errors(finals[0], data, mesh))


def run_dependence(cfg: StudyConfig) -> StudyReport:
    """Difference-norm study between the two configured coefficient vectors."""
    data_b = manufactured_problem(cfg.law_b(), "dependence_b")
    if cfg.pairing == "manufactured":
        data_a = manufactured_problem(cfg.law_a(), "dependence_a")
    else:
        data_a = replace(data_b, law=cfg.law_a(), exact=None, name="dependence_a")
    s = data_b.law.spec.s

    def differences(mesh, finals):
        a, b = finals
        return (norm(ScalarP1Space(mesh), a.rho_bar - b.rho_bar, 2.0),
                norm(VectorP1Space(mesh), a.m - b.m, s))

    return _refine(cfg, StudyReport("dependence", cfg.pairing),
                   [data_a, data_b], differences,
                   err_labels=("diff_rho(L2)", "diff_m(Ls)"))
