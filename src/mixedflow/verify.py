"""Randomized certification of the structural results: ``mixedflow verify``.

``WITNESSES`` holds one entry per structural inequality of the flux (growth
and derivative sandwiches of F, Hoelder continuity, monotonicity and
two-coefficient perturbation bounds): how to sample its inputs, and an
evaluator returning one ``(small, large)`` pair per side, whose contract is
small <= large.  Evaluators use the unregularized law, so the constants keep
their analytic values and arguments must stay off the z = 0 singularity.
``run_verify`` adds discrete Gronwall samples, a Jacobian-vs-finite-difference
check and the mesh and quadrature invariants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .assembly import Assembler, SystemState
from .constitutive import GeneralizedPolynomial
from .harness import StudyConfig, builtin_problem
from .mesh_fem import ScalarP1Space, StructuredTriMesh, build_mesh

__all__ = [
    "WITNESSES",
    "lemma_constants",
    "InequalityReport",
    "inequality_suite",
    "gronwall_check",
    "sample_gronwall_sequences",
    "jacobian_fd_error",
    "VerifyReport",
    "run_verify",
]


# ---------------------------------------------------------------------------
# Inequality witnesses
# ---------------------------------------------------------------------------

def lemma_constants(law: GeneralizedPolynomial) -> tuple[float, float, float]:
    """(c1, c2, c3): the Hoelder, perturbation and monotonicity constants."""
    if law.coeffs.a_star <= 0.0:
        raise ValueError("inequality constants need a_star > 0")
    spec = law.spec
    s = spec.s
    c1 = 2.0 * (s - 1.0) / (1.0 - spec.alpha)
    c2 = 3.0 * spec.n_powers
    c3 = law.coeffs.a_star * (1.0 - spec.alpha) / (2.0 ** (s - 1.0) * (s - 1.0))
    return c1, c2, c3


def _polynomial(law, w, a, derivative=False):
    """F(a, w), or w F'(a, w) with ``derivative``, for coefficient rows ``a``."""
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("w must be positive (unregularized witness)")
    out = np.zeros(np.broadcast_shapes(w.shape, a.shape[:-1]), dtype=float)
    for i, e in enumerate(law.spec.all_exponents()):
        out = out + (a[..., i] * e if derivative else a[..., i]) * w ** e
    return out


def _norm(v):
    return np.sqrt(np.sum(np.asarray(v, dtype=float) ** 2, axis=-1))


def _radial(x, scale):
    """scale(|x|) x, continuously extended by 0 at x = 0."""
    mag = _norm(x)
    safe = np.where(mag > 0.0, mag, 1.0)
    return np.where(mag[..., None] > 0.0, scale(safe)[..., None] * x, 0.0)


def _derv_f(law, w, a):
    """-alpha F <= w F' <= alpha_N F."""
    f = _polynomial(law, w, a)
    wfp = _polynomial(law, w, a, derivative=True)
    return [(-law.spec.alpha * f, wfp), (wfp, law.spec.alpha_top * f)]


def _ord_f(law, w, a):
    """a_star g <= F <= (N+2) a_sup g with g = w^-alpha + 1 + w^alpha_N."""
    f = _polynomial(law, w, a)
    spec = law.spec
    g = w ** -spec.alpha + 1.0 + w ** spec.alpha_top
    return [(law.coeffs.a_star * g, f),
            (f, (spec.n_powers + 2.0) * law.coeffs.a_sup * g)]


def _power_maps(x, y, p, lo, hi):
    """x, y, p as arrays and | |x|^p x - |y|^p y |, for p in (lo, hi)."""
    x, y, p = (np.asarray(v, dtype=float) for v in (x, y, p))
    if np.any((p <= lo) | (p >= hi)):
        raise ValueError(f"p must lie in ({lo}, {hi})")
    return x, y, p, _norm(_radial(x, lambda r: r ** p) - _radial(y, lambda r: r ** p))


def _cont1(law, x, y, p):
    """| |x|^p x - |y|^p y | <= 2 |x - y|^(1+p) for -1 < p < 0."""
    x, y, p, gap = _power_maps(x, y, p, -1.0, 0.0)
    return [(gap, 2.0 * _norm(x - y) ** (1.0 + p))]


def _cont2(law, x, y, p):
    """| |x|^p x - |y|^p y | <= (1+p) (|x| + |y|)^p |x - y| for p > 0."""
    x, y, p, gap = _power_maps(x, y, p, 0.0, np.inf)
    return [(gap, (1.0 + p) * (_norm(x) + _norm(y)) ** p * _norm(x - y))]


def _difference(law, y, y2, a=None, a2=None):
    """For states y, y2 under coefficient rows a, a2 (default the law's):
    1 + |y| + |y2|, |y - y2|, |a - a2|, the flux gap
    g = F(a, |y|) y - F(a2, |y2|) y2, and (g, y - y2)."""
    y, y2 = np.asarray(y, dtype=float), np.asarray(y2, dtype=float)
    a = law.coefficients() if a is None else np.asarray(a, dtype=float)
    a2 = a if a2 is None else np.asarray(a2, dtype=float)
    ymag, y2mag = _norm(y), _norm(y2)
    if np.any((ymag == 0.0) & (y2mag == 0.0)):
        raise ValueError("y and y2 must not both vanish (unregularized witness)")
    gap = _radial(y, lambda r: _polynomial(law, r, a)) \
        - _radial(y2, lambda r: _polynomial(law, r, a2))
    return (1.0 + ymag + y2mag, _norm(y - y2),
            np.sqrt(np.sum((a - a2) ** 2, axis=-1)), gap,
            np.sum(gap * (y - y2), axis=-1))


def _hoelder(law, base, dy):
    alpha = law.spec.alpha
    return lemma_constants(law)[0] * base ** (law.spec.s - 2.0 + alpha) \
        * dy ** (1.0 - alpha)


def _lipchitz(law, y, y2):
    """|flux(y) - flux(y2)| <= c1 (1+|y|+|y2|)^(s-2+alpha) |y - y2|^(1-alpha)."""
    base, dy, _, gap, _ = _difference(law, y, y2)
    return [(_norm(gap), _hoelder(law, base, dy))]


def _umono(law, y, y2, a, a2):
    """The Hoelder bound plus c2 (1+|y|+|y2|)^(s-1) |a - a2|."""
    base, dy, da, gap, _ = _difference(law, y, y2, a, a2)
    c2 = lemma_constants(law)[1]
    return [(_norm(gap),
             _hoelder(law, base, dy) + c2 * base ** (law.spec.s - 1.0) * da)]


def _monotone0(law, y, y2):
    """(flux(y) - flux(y2), y - y2) >= c3 |y - y2|^s."""
    _, dy, _, _, inner = _difference(law, y, y2)
    return [(lemma_constants(law)[2] * dy ** law.spec.s, inner)]


def _quasimonotone(law, y, y2, a, a2):
    """The monotonicity bound less c2 (1+|y|+|y2|)^(s-1) |y - y2| |a - a2|."""
    base, dy, da, _, inner = _difference(law, y, y2, a, a2)
    _, c2, c3 = lemma_constants(law)
    s = law.spec.s
    return [(c3 * dy ** s - c2 * base ** (s - 1.0) * dy * da, inner)]


class _Draw:
    """Random witness inputs, ``trials`` of each, drawn in call order.

    Magnitudes are log-uniform from eps_reg up (w to 1e3, vectors to 1e2),
    vector angles uniform, coefficient rows from the law's recorded box with
    the anchors a_-1, a_0, a_N at least a_star.
    """

    def __init__(self, law: GeneralizedPolynomial, rng: np.random.Generator,
                 trials: int):
        self.law, self.rng, self.trials = law, rng, trials

    def log_uniform(self, lo, hi):
        return np.exp(self.rng.uniform(np.log(lo), np.log(hi), size=self.trials))

    def magnitudes(self):
        return self.log_uniform(self.law.eps_reg, 1e3)

    def vectors(self):
        mag = self.log_uniform(self.law.eps_reg, 1e2)
        ang = self.rng.uniform(0.0, 2.0 * np.pi, size=self.trials)
        return np.column_stack([mag * np.cos(ang), mag * np.sin(ang)])

    def coefficients(self):
        box = self.law.coeffs
        n_coef = len(box)
        a = self.rng.uniform(0.0, box.a_sup, size=(self.trials, n_coef))
        for anchor in (0, 1, n_coef - 1):
            a[:, anchor] = self.rng.uniform(box.a_star, box.a_sup, size=self.trials)
        return a

    def negative_powers(self):
        return self.rng.uniform(-0.999, -1e-3, size=self.trials)

    def positive_powers(self):
        return self.log_uniform(1e-3, 4.0)


class Witness(NamedTuple):
    """One inequality: its input names with their samplers, in draw order,
    and its evaluator ``evaluate(law, **inputs) -> [(small, large), ...]``."""

    inputs: dict[str, Callable[[_Draw], np.ndarray]]
    evaluate: Callable[..., list]


_MAGNITUDE = {"w": _Draw.magnitudes, "a": _Draw.coefficients}
_PAIR = {"y": _Draw.vectors, "y2": _Draw.vectors}
_PERTURBED_PAIR = _PAIR | {"a": _Draw.coefficients, "a2": _Draw.coefficients}

#: kind -> witness, in the order the suite samples and reports them
WITNESSES: dict[str, Witness] = {
    "dervF": Witness(_MAGNITUDE, _derv_f),
    "OrdF": Witness(_MAGNITUDE, _ord_f),
    "cont1": Witness({"x": _Draw.vectors, "y": _Draw.vectors,
                      "p": _Draw.negative_powers}, _cont1),
    "cont2": Witness({"x": _Draw.vectors, "y": _Draw.vectors,
                      "p": _Draw.positive_powers}, _cont2),
    "Umono": Witness(_PERTURBED_PAIR, _umono),
    "quasimonotone": Witness(_PERTURBED_PAIR, _quasimonotone),
    "Lipchitz": Witness(_PAIR, _lipchitz),
    "monotone0": Witness(_PAIR, _monotone0),
}


# ---------------------------------------------------------------------------
# Randomized inequality suite
# ---------------------------------------------------------------------------

@dataclass
class KindReport:
    kind: str
    violations: int
    max_violation: float
    worst_inputs: dict = field(default_factory=dict)


@dataclass
class InequalityReport:
    seed: int
    trials: int
    kinds: list[KindReport] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(k.violations for k in self.kinds)

    def summary(self) -> str:
        lines = [f"inequality suite: seed={self.seed} trials={self.trials}"]
        for k in self.kinds:
            status = "ok" if k.violations == 0 else "VIOLATED"
            lines.append(f"  {k.kind:<14s} {status:<9s} violations={k.violations}"
                         f" max_violation={k.max_violation:.3e}")
        return "\n".join(lines)


_SLACK = 1e-12  # relative, for roundoff in both sides of every inequality


def _violation(small, large):
    """Positive where small <= large fails beyond the relative ``_SLACK``."""
    scale = np.maximum(1.0, np.maximum(np.abs(small), np.abs(large)))
    return small - large - _SLACK * scale


def inequality_suite(law: GeneralizedPolynomial, seed: int = 0,
                     trials: int = 10_000) -> InequalityReport:
    """Run ``trials`` random draws per witness and report violations.

    A trial counts as violated unless its violation is <= 0, so a side that
    overflows to inf or nan is reported, not passed, and without a warning.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if law.coeffs.a_star <= 0.0:
        raise ValueError("inequality suite needs a law with a_star > 0")
    draw = _Draw(law, np.random.default_rng(seed), trials)
    report = InequalityReport(seed=seed, trials=trials)
    for kind, witness in WITNESSES.items():
        inputs = {name: sample(draw) for name, sample in witness.inputs.items()}
        with np.errstate(over="ignore", invalid="ignore"):
            viol = functools.reduce(np.maximum, (
                _violation(small, large)
                for small, large in witness.evaluate(law, **inputs)))
        worst = int(np.argmax(viol))
        report.kinds.append(KindReport(
            kind=kind, violations=int(np.sum(~(viol <= 0.0))),
            max_violation=float(np.max(viol)),
            worst_inputs={name: v[worst].tolist() for name, v in inputs.items()}))
    return report


# ---------------------------------------------------------------------------
# Discrete Gronwall, Jacobian and mesh checks
# ---------------------------------------------------------------------------

def gronwall_check(a: Sequence[float], b: Sequence[float], g: Sequence[float],
                   dt: float) -> bool:
    """Check the backward-difference Gronwall conclusion for given sequences.

    The sequences must be nonnegative with a common length (a has one more
    leading entry a_0) and satisfy the hypothesis
    (a_n - a_{n-1})/dt - a_n + b_n <= g_n for every n >= 1; inputs violating
    the hypothesis (or dt >= 1) are rejected with ValueError.  Returns True
    iff  a_n + dt * sum b_i <= exp(n dt / (1 - dt)) (a_0 + dt * sum g_i)
    holds for every n, up to the relative ``_SLACK``.
    """
    if not 0.0 < dt < 1.0:
        raise ValueError("dt must lie in (0, 1)")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)
    if a.ndim != 1 or len(a) != len(b) + 1 or len(b) != len(g):
        raise ValueError("need len(a) = len(b) + 1 = len(g) + 1")
    if np.any(a < 0.0) or np.any(b < 0.0) or np.any(g < 0.0):
        raise ValueError("sequences must be nonnegative")
    hyp = (a[1:] - a[:-1]) / dt - a[1:] + b - g
    tol = _SLACK * np.maximum(1.0, np.abs(a[1:]) / dt)
    if np.any(hyp > tol):
        raise ValueError("hypothesis (a_n - a_{n-1})/dt - a_n + b_n <= g_n fails")
    n = np.arange(1, len(a))
    lhs = a[1:] + dt * np.cumsum(b)
    rhs = np.exp(n * dt / (1.0 - dt)) * (a[0] + dt * np.cumsum(g))
    return bool(np.all(lhs <= rhs * (1.0 + _SLACK) + _SLACK))


def sample_gronwall_sequences(rng: np.random.Generator, n_steps: int,
                              dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw nonnegative sequences satisfying the Gronwall hypothesis.

    g is free; each a_n is drawn below the largest value the hypothesis
    admits with b_n = 0, and b_n is then the slack the hypothesis leaves,
    so the sampled family includes the binding edge (b_n = 0 exactly when
    a_n sits at its cap).
    """
    g = rng.uniform(0.0, 10.0, size=n_steps)
    a = np.empty(n_steps + 1)
    a[0] = rng.uniform(0.0, 10.0)
    for n in range(1, n_steps + 1):
        cap = (a[n - 1] + dt * g[n - 1]) / (1.0 - dt)
        a[n] = rng.uniform(0.0, cap)
    b = np.maximum(0.0, g + a[1:] - (a[1:] - a[:-1]) / dt)
    return a, b, g


def jacobian_fd_error(assembler: Assembler, n: int, state: SystemState,
                      state_prev: SystemState) -> float:
    """Max entrywise relative deviation of level n's Jacobian at ``state``
    from central differences of its residual."""
    linearize = assembler.level(n, state_prev.rho_bar)
    x0 = np.concatenate([state.m, state.rho_bar])
    jac = linearize(x0)[1]().toarray()
    fd = np.empty_like(jac)
    for j in range(len(x0)):
        h = 1e-6 * (1.0 + abs(x0[j]))
        xp = x0.copy()
        xp[j] += h
        xm = x0.copy()
        xm[j] -= h
        fd[:, j] = (linearize(xp)[0] - linearize(xm)[0]) / (2.0 * h)
    scale = np.abs(jac).max()
    denom = np.maximum(np.abs(jac), 1e-6 * scale)
    return float(np.max(np.abs(fd - jac) / denom))


def _random_states(asm: Assembler, rng: np.random.Generator
                   ) -> tuple[SystemState, SystemState]:
    """Random smooth states of levels 5 and 4 of dt = 0.1, biased away from
    the law's singular origin."""
    nv = asm.mesh.n_nodes
    base = np.tile([0.8, -0.6], nv)
    m = base + 0.3 * rng.standard_normal(2 * nv)
    rho = rng.standard_normal(nv)
    prev = SystemState(rho + 0.1 * rng.standard_normal(nv),
                       m + 0.1 * rng.standard_normal(2 * nv), 0.4)
    return SystemState(rho, m, 0.5), prev


def _gradient_defect(mesh: StructuredTriMesh) -> float:
    """Largest entry of |sum_k p_k (x) grad phi_k - I| and |sum_k grad phi_k|
    over the triangles of ``mesh``, with p_k the nodes of a triangle.

    These are the gradients of the P1 interpolants of x and of 1, which are
    those fields, so the defect is roundoff unless an entry of ``mesh.grads``,
    the table the Assembler builds the divergence coupling from, is wrong.
    """
    grads = mesh.grads
    position = np.einsum("tki,tkj->tij", mesh.nodes[mesh.triangles], grads)
    return float(max(np.abs(position - np.eye(2)).max(),
                     np.abs(grads.sum(axis=1)).max()))


def _quadrature_polynomial_defect() -> float:
    """Compare degree <= 4 monomial quadrature on [0,1]^2 with closed forms."""
    mesh = build_mesh(3)
    space = ScalarP1Space(mesh)
    qpts = space.quadrature_coords()
    defect = 0.0
    for px in range(5):
        for py in range(5 - px):
            vals = qpts[..., 0] ** px * qpts[..., 1] ** py
            exact = 1.0 / ((px + 1) * (py + 1))
            defect = max(defect, abs(space.integrate(vals) - exact))
    return defect


# ---------------------------------------------------------------------------
# The verify study
# ---------------------------------------------------------------------------

#: each scalar check of VerifyReport and the largest value that passes it
_BOUNDS = {
    "gronwall_failures": 0,
    "jacobian_fd_max": 1e-5,
    "mesh_area_defect": 1e-14,
    "gradient_defect": 1e-13,
    "quadrature_defect": 1e-13,
}


@dataclass
class VerifyReport:
    inequality: InequalityReport
    gronwall_failures: int
    gronwall_trials: int
    jacobian_fd_max: float
    mesh_area_defect: float
    gradient_defect: float
    quadrature_defect: float

    def _status(self, name: str) -> str:
        return "ok" if getattr(self, name) <= _BOUNDS[name] else "VIOLATED"

    @property
    def ok(self) -> bool:
        return self.inequality.total_violations == 0 \
            and all(self._status(name) == "ok" for name in _BOUNDS)

    def summary(self) -> str:
        lines = [self.inequality.summary()]
        for label, name, figure in (
                ("gronwall", "gronwall_failures",
                 f"failures={self.gronwall_failures}/{self.gronwall_trials}"),
                ("jacobian_fd", "jacobian_fd_max", f"max_rel_err={self.jacobian_fd_max:.3e}"),
                ("mesh_area", "mesh_area_defect", f"defect={self.mesh_area_defect:.2e}"),
                ("grads", "gradient_defect", f"defect={self.gradient_defect:.2e}"),
                ("quadrature", "quadrature_defect", f"defect={self.quadrature_defect:.2e}")):
            lines.append(f"  {label:<14s} {self._status(name):<9s} {figure}")
        lines.append("verification " + ("PASSED" if self.ok else "FAILED"))
        return "\n".join(lines)


def run_verify(cfg: StudyConfig) -> VerifyReport:
    """Randomized inequality suite, Gronwall sampling and discrete checks."""
    ineq = inequality_suite(cfg.law_a(), seed=cfg.seed, trials=cfg.trials)

    rng = np.random.default_rng(cfg.seed)
    failures = 0
    for _ in range(cfg.gronwall_trials):
        n_steps = int(rng.integers(1, 40))
        dt = float(rng.uniform(0.01, 0.5))
        a, b, g = sample_gronwall_sequences(rng, n_steps, dt)
        if not gronwall_check(a, b, g, dt):
            failures += 1

    asm = Assembler(build_mesh(2), builtin_problem("example1"), 0.1,
                    cfg.discretization())
    jac_err = float(np.max([jacobian_fd_error(asm, 5, *_random_states(asm, rng))
                            for _ in range(3)]))

    mesh8 = build_mesh(8)
    return VerifyReport(inequality=ineq, gronwall_failures=failures,
                        gronwall_trials=cfg.gronwall_trials,
                        jacobian_fd_max=jac_err,
                        mesh_area_defect=abs(mesh8.areas.sum() - 1.0),
                        gradient_defect=_gradient_defect(mesh8),
                        quadrature_defect=_quadrature_polynomial_defect())
