"""Generalized polynomial momentum law spanning pre-Darcy to post-Darcy regimes.

The scalar law is

    F(z) = a_{-1} z^(-alpha) + a_0 + a_1 z^(alpha_1) + ... + a_N z^(alpha_N)

with one singular negative power -alpha, alpha in (0,1), and positive top
power alpha_N.  The vector flux is m -> F(|m|) m.  Besides evaluation and
differentiation, this module provides witnesses for the structural
inequalities (growth sandwich, derivative sandwich, Hoelder continuity,
monotonicity, two-coefficient perturbation bounds) that make the flux a
monotone operator; the randomized verification suite in
:mod:`mixedflow.analysis` delegates to these witnesses.

Witness evaluations use the unregularized formulas so the inequality
constants keep their analytic values; callers must keep arguments off the
z = 0 singularity.  The evaluation entry points used by assembly
(``eval_F``, ``eval_F_prime``, ``flux``, ``flux_jacobian``) instead clamp
the argument at ``eps_reg``, which keeps Newton linearizations finite and
positive definite at m = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PowerSpec",
    "CoefficientVector",
    "GeneralizedPolynomial",
    "LemmaConstants",
    "lemma_witness",
    "WITNESS_KINDS",
    "GREATER_OR_EQUAL_KINDS",
    "DEFAULT_EPS_REG",
]

DEFAULT_EPS_REG = 1e-10


@dataclass(frozen=True)
class PowerSpec:
    """Exponent data: the negative power alpha and positive powers alpha_1..alpha_N."""

    alpha: float
    exponents: tuple[float, ...]

    def __init__(self, alpha: float, exponents: Sequence[float]):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {alpha}")
        exps = tuple(float(e) for e in exponents)
        if not exps:
            raise ValueError("need at least one positive exponent")
        if any(e <= 0.0 for e in exps):
            raise ValueError(f"positive exponents required, got {exps}")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError(f"exponents must be strictly increasing, got {exps}")
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "exponents", exps)

    @property
    def n_powers(self) -> int:
        return len(self.exponents)

    @property
    def alpha_top(self) -> float:
        return self.exponents[-1]

    @property
    def s(self) -> float:
        """Coercivity exponent of the flux: top power plus two."""
        return self.alpha_top + 2.0

    @property
    def s_conjugate(self) -> float:
        return self.s / (self.s - 1.0)

    def all_exponents(self) -> np.ndarray:
        """Full exponent vector (-alpha, 0, alpha_1, ..., alpha_N)."""
        return np.concatenate(([-self.alpha, 0.0], self.exponents))


@dataclass(frozen=True)
class CoefficientVector:
    """Nonnegative coefficients (a_-1, a_0, a_1, ..., a_N) plus admissible box.

    ``a_star``/``a_sup`` record the box bounds parameterizing the inequality
    constants; they default to the tight bounds of the given values.  The
    structural inequalities additionally need a_-1, a_0, a_N > 0, which is
    *not* enforced at construction so that degenerate vectors such as the
    pure-Darcy (0, 1, 0) remain usable in linear sanity checks; witness
    evaluation rejects a_star <= 0 instead.
    """

    values: tuple[float, ...]
    a_star: float
    a_sup: float

    def __init__(self, values: Sequence[float], a_star: float | None = None,
                 a_sup: float | None = None):
        vals = tuple(float(v) for v in values)
        if len(vals) < 3:
            raise ValueError("need at least (a_-1, a_0, a_N)")
        if any(v < 0.0 for v in vals):
            raise ValueError(f"coefficients must be nonnegative, got {vals}")
        anchors = (vals[0], vals[1], vals[-1])
        if a_star is None:
            a_star = min(anchors)
        if a_sup is None:
            a_sup = max(vals) if max(vals) > 0.0 else 1.0
        if max(vals) > a_sup + 1e-15:
            raise ValueError(f"coefficient {max(vals)} exceeds recorded a_sup={a_sup}")
        if min(anchors) < a_star - 1e-15:
            raise ValueError(f"anchor coefficient below recorded a_star={a_star}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "a_star", float(a_star))
        object.__setattr__(self, "a_sup", float(a_sup))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LemmaConstants:
    """Constants of the perturbation and monotonicity inequalities."""

    c1: float
    c2: float
    c3: float

    @classmethod
    def from_law(cls, spec: PowerSpec, a_star: float) -> "LemmaConstants":
        s = spec.s
        c1 = 2.0 * (s - 1.0) / (1.0 - spec.alpha)
        c2 = 3.0 * spec.n_powers
        c3 = a_star * (1.0 - spec.alpha) / (2.0 ** (s - 1.0) * (s - 1.0))
        return cls(c1, c2, c3)


class GeneralizedPolynomial:
    """The momentum law F with its power spectrum and coefficient box."""

    def __init__(self, spec: PowerSpec, coeffs: CoefficientVector,
                 eps_reg: float = DEFAULT_EPS_REG):
        if len(coeffs) != spec.n_powers + 2:
            raise ValueError(
                f"need {spec.n_powers + 2} coefficients for {spec.n_powers} "
                f"positive powers, got {len(coeffs)}")
        if eps_reg <= 0.0:
            raise ValueError("eps_reg must be positive")
        self.spec = spec
        self.coeffs = coeffs
        self.eps_reg = float(eps_reg)
        self._exps = spec.all_exponents()

    @property
    def constants(self) -> LemmaConstants:
        if self.coeffs.a_star <= 0.0:
            raise ValueError("inequality constants need a_star > 0")
        return LemmaConstants.from_law(self.spec, self.coeffs.a_star)

    def coefficients(self) -> np.ndarray:
        return np.array(self.coeffs.values, dtype=float)

    # -- regularized evaluation (assembly path) -----------------------------

    def eval_F(self, z):
        """F(max(z, eps_reg)); exact for z >= eps_reg, finite at z = 0."""
        z = np.maximum(np.asarray(z, dtype=float), self.eps_reg)
        a = self.coefficients()
        out = np.zeros_like(z)
        for ai, ei in zip(a, self._exps):
            if ai != 0.0:
                out += ai * z ** ei
        return out if out.ndim else float(out)

    def eval_F_prime(self, z):
        """dF/dz at max(z, eps_reg), including the singular -alpha term."""
        z = np.maximum(np.asarray(z, dtype=float), self.eps_reg)
        a = self.coefficients()
        out = np.zeros_like(z)
        for ai, ei in zip(a, self._exps):
            if ai != 0.0 and ei != 0.0:
                out += ai * ei * z ** (ei - 1.0)
        return out if out.ndim else float(out)

    def flux(self, m):
        """F(|m|) m for one 2-vector or an (..., 2) array of vectors."""
        m = np.asarray(m, dtype=float)
        mag = np.sqrt(np.sum(m * m, axis=-1))
        f = self.eval_F(mag)
        if m.ndim == 1:
            return float(f) * m
        return np.asarray(f)[..., None] * m

    def flux_jacobian(self, m):
        """d(flux)/dm = F(|m^|) I + F'(|m^|)/|m^| m (x) m with |m^| = max(|m|, eps_reg).

        Symmetric, eigenvalues >= (1 - alpha) F(|m^|) > 0; this keeps the
        momentum block of the Newton matrix positive definite at any state.
        """
        m = np.asarray(m, dtype=float)
        magc = np.maximum(np.sqrt(np.sum(m * m, axis=-1)), self.eps_reg)
        jac = np.asarray(self.eval_F_prime(magc) / magc)[..., None, None] \
            * m[..., :, None] * m[..., None, :]
        f = self.eval_F(magc)
        jac[..., 0, 0] += f
        jac[..., 1, 1] += f
        return jac

    # -- unregularized evaluation (witness path) -----------------------------

    def raw_F(self, mag, a=None):
        """Unregularized F(mag) with optional per-sample coefficient rows."""
        mag = np.asarray(mag, dtype=float)
        a = self.coefficients() if a is None else np.asarray(a, dtype=float)
        out = np.zeros(np.broadcast_shapes(mag.shape, a.shape[:-1]), dtype=float)
        for i, ei in enumerate(self._exps):
            out = out + a[..., i] * mag ** ei
        return out

    def raw_flux(self, y, a=None):
        """Unregularized F(a, |y|) y, continuously extended by 0 at y = 0."""
        y = np.asarray(y, dtype=float)
        mag = np.sqrt(np.sum(y * y, axis=-1))
        safe = np.where(mag > 0.0, mag, 1.0)
        f = self.raw_F(safe, a)
        return np.where(mag[..., None] > 0.0, f[..., None] * y, 0.0)


# ---------------------------------------------------------------------------
# Inequality witnesses
# ---------------------------------------------------------------------------

WITNESS_KINDS = ("dervF", "OrdF", "cont1", "cont2", "Umono",
                 "quasimonotone", "Lipchitz", "monotone0")

#: kinds whose contract is lhs >= rhs; all others assert lhs <= rhs
GREATER_OR_EQUAL_KINDS = frozenset({"monotone0", "quasimonotone"})


def _norm(v):
    return np.sqrt(np.sum(np.asarray(v, dtype=float) ** 2, axis=-1))


def _power_map(x, p):
    """|x|^p x, continuously extended by 0 at x = 0 (valid for p > -1)."""
    x = np.asarray(x, dtype=float)
    mag = _norm(x)
    safe = np.where(mag > 0.0, mag, 1.0)
    return np.where(mag[..., None] > 0.0, (safe ** p)[..., None] * x, 0.0)


def _maybe_scalar(value):
    value = np.asarray(value)
    return float(value) if value.ndim == 0 else value


def lemma_witness(kind: str, law: GeneralizedPolynomial | None = None, *,
                  side: str = "upper",
                  w=None, y=None, y2=None, a=None, a2=None,
                  x=None, p=None,
                  constant_scale: float = 1.0,
                  narrow_constant: bool = False):
    """Evaluate both sides of one structural inequality, unregularized.

    Inputs per ``kind`` (all accept batched leading axes):

    ``dervF``          ``w > 0``, ``side`` in {"lower", "upper"}: the
                       derivative sandwich -alpha F <= w F' <= alpha_N F.
    ``OrdF``           ``w > 0``, ``side``: the growth sandwich.  The upper
                       side uses the provable (N+2) a_sup constant; pass
                       ``narrow_constant=True`` for the narrower
                       N a_sup (w^-alpha + w^alpha_N) form, which fails at
                       w = 1 already for the reference law.
    ``cont1``          ``x``, ``y`` vectors, ``p`` in (-1, 0):
                       | |x|^p x - |y|^p y | <= 2 |x - y|^(1+p).
    ``cont2``          ``x``, ``y`` vectors, ``p > 0``: same map bounded by
                       (1+p) (|x| + |y|)^p |x - y|.
    ``Umono``          ``y``, ``y2``, ``a``, ``a2``: flux difference upper
                       bound with the coefficient perturbation term.
    ``quasimonotone``  same inputs: lower bound c3 |dy|^s - c2 (...) |da|.
    ``Lipchitz``       ``y``, ``y2``: Hoelder continuity, constant c1.
    ``monotone0``      ``y``, ``y2``: monotonicity, constant c3.

    Returns ``(lhs, rhs)``; the contract is lhs <= rhs, or lhs >= rhs for
    kinds in :data:`GREATER_OR_EQUAL_KINDS`.  ``constant_scale`` multiplies
    the constant-bearing side so the verification suite can show the checks
    are falsifiable.
    """
    if kind not in WITNESS_KINDS:
        raise ValueError(f"unknown inequality kind {kind!r}")

    if kind in ("cont1", "cont2"):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        p = np.asarray(p, dtype=float)
        if kind == "cont1" and np.any((p <= -1.0) | (p >= 0.0)):
            raise ValueError("cont1 requires -1 < p < 0")
        if kind == "cont2" and np.any(p <= 0.0):
            raise ValueError("cont2 requires p > 0")
        lhs = _norm(_power_map(x, p) - _power_map(y, p))
        if kind == "cont1":
            rhs = 2.0 * _norm(x - y) ** (1.0 + p)
        else:
            rhs = (1.0 + p) * (_norm(x) + _norm(y)) ** p * _norm(x - y)
        return _maybe_scalar(lhs), _maybe_scalar(constant_scale * rhs)

    if law is None:
        raise ValueError(f"kind {kind!r} requires the generalized polynomial")
    spec = law.spec
    alpha, alpha_n, s = spec.alpha, spec.alpha_top, spec.s

    if kind in ("dervF", "OrdF"):
        if side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")
        w = np.asarray(w, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("w must be positive (unregularized witness)")
        a_rows = law.coefficients() if a is None else np.asarray(a, dtype=float)
        f = law.raw_F(w, a_rows)
        if kind == "dervF":
            wfp = np.zeros(np.broadcast_shapes(w.shape, a_rows.shape[:-1]),
                           dtype=float)
            for i, ei in enumerate(law._exps):
                if ei != 0.0:
                    wfp = wfp + a_rows[..., i] * ei * w ** ei
            if side == "lower":
                lhs, rhs = -alpha * f, constant_scale * wfp
            else:
                lhs, rhs = wfp, constant_scale * (alpha_n * f)
            return _maybe_scalar(lhs), _maybe_scalar(rhs)
        a_star, a_sup = law.coeffs.a_star, law.coeffs.a_sup
        if side == "lower":
            if a_star <= 0.0:
                raise ValueError("OrdF lower bound needs a_star > 0")
            lhs = constant_scale * a_star * (w ** -alpha + 1.0 + w ** alpha_n)
            return _maybe_scalar(lhs), _maybe_scalar(f)
        if narrow_constant:
            rhs = spec.n_powers * a_sup * (w ** -alpha + w ** alpha_n)
        else:
            rhs = (spec.n_powers + 2.0) * a_sup * (w ** -alpha + 1.0 + w ** alpha_n)
        return _maybe_scalar(f), _maybe_scalar(constant_scale * rhs)

    # flux-difference kinds
    y = np.asarray(y, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    a_arr = np.asarray(a, dtype=float) if a is not None else law.coefficients()
    a2_arr = np.asarray(a2, dtype=float) if a2 is not None else a_arr
    consts = law.constants
    ymag, y2mag = _norm(y), _norm(y2)
    if np.any((ymag == 0.0) & (y2mag == 0.0)):
        raise ValueError("y and y2 must not both vanish (unregularized witness)")
    base = 1.0 + ymag + y2mag
    dy = _norm(y - y2)
    da = np.sqrt(np.sum((a_arr - a2_arr) ** 2, axis=-1))
    fy = law.raw_flux(y, a_arr)
    fy2 = law.raw_flux(y2, a2_arr)

    if kind == "Lipchitz":
        lhs = _norm(fy - fy2)
        rhs = consts.c1 * base ** (s - 2.0 + alpha) * dy ** (1.0 - alpha)
    elif kind == "Umono":
        lhs = _norm(fy - fy2)
        rhs = consts.c1 * base ** (s - 2.0 + alpha) * dy ** (1.0 - alpha) \
            + consts.c2 * base ** (s - 1.0) * da
    elif kind == "monotone0":
        lhs = np.sum((fy - fy2) * (y - y2), axis=-1)
        rhs = consts.c3 * dy ** s
    else:  # quasimonotone
        lhs = np.sum((fy - fy2) * (y - y2), axis=-1)
        rhs = consts.c3 * dy ** s - consts.c2 * base ** (s - 1.0) * dy * da
    return _maybe_scalar(lhs), _maybe_scalar(constant_scale * rhs)
