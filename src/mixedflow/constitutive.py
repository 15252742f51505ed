"""Generalized polynomial momentum law spanning pre-Darcy to post-Darcy regimes.

The scalar law is

    F(z) = a_{-1} z^(-alpha) + a_0 + a_1 z^(alpha_1) + ... + a_N z^(alpha_N)

with one singular negative power -alpha, alpha in (0,1), and positive top
power alpha_N.  The vector flux is m -> F(|m|) m.  The evaluation entry
points (``eval_F``, ``eval_F_prime`` and ``linearize``) clamp the argument
at ``eps_reg``, which keeps Newton linearizations finite and positive
definite at m = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PowerSpec",
    "CoefficientVector",
    "GeneralizedPolynomial",
    "DEFAULT_EPS_REG",
]

DEFAULT_EPS_REG = 1e-10

# Newton steps :meth:`GeneralizedPolynomial.invert` may take; over 3000
# random laws (alpha in [0.05, 0.95], powers up to 8, coefficients 1e-3 to
# 1e3, gamma 1e-300 to 1e300) none needed more than 6.
_INVERT_MAX_ITER = 100


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
    pure-Darcy (0, 1, 0) remain usable in linear sanity checks;
    :mod:`mixedflow.verify` rejects a_star <= 0 instead.
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

    def coefficients(self) -> np.ndarray:
        return np.array(self.coeffs.values, dtype=float)

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

    def invert(self, gamma):
        """The z >= 0 with z F(max(z, eps_reg)) = gamma, for gamma >= 0.

        Below the clamp this is z = gamma / F(eps_reg).  Above it,
        z F(z) = sum_k a_k z^(1 + e_k) has only positive powers 1 + e_k, in
        [1 - alpha, 1 + alpha_N], so in u = log z its logarithm
        lse_k(log a_k + (1 + e_k) u) is convex and increasing with slope in
        that range.  Newton on it starts from u0 = min_k (log gamma -
        log a_k) / (1 + e_k), where one term alone already reaches gamma, so
        u0 lies right of the root and the iterates fall monotonically onto
        it; in log-sum-exp form nothing overflows.  It stops one step after
        every residual is below 1e-8, which leaves roundoff.  gamma = 0
        gives 0; with every coefficient zero no z reaches gamma > 0, and the
        result is inf.
        """
        gamma = np.asarray(gamma, dtype=float)
        a = self.coefficients()
        live = a > 0.0
        log_a = np.log(a[live])[:, None]
        powers = 1.0 + self._exps[live][:, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_g = np.log(gamma).reshape(-1)
            log_eps = np.log(self.eps_reg)
            log_f_eps = np.logaddexp.reduce(log_a + (powers - 1.0) * log_eps,
                                            axis=None, initial=-np.inf)
            u = log_g - log_f_eps  # below the clamp: z F(eps_reg) = gamma
            above = np.isfinite(log_g) & (u > log_eps)
            if live.any() and above.any():
                target = log_g[above]
                v = np.min((target - log_a) / powers, axis=0)
                for _ in range(_INVERT_MAX_ITER):
                    terms = log_a + powers * v
                    top = terms.max(axis=0)
                    weights = np.exp(terms - top)
                    total = weights.sum(axis=0)
                    residual = top + np.log(total) - target
                    v = v - residual * total / (powers * weights).sum(axis=0)
                    if np.all(residual <= 1e-8):
                        break
                u[above] = v
            z = np.where(gamma == 0.0, 0.0, np.exp(u).reshape(gamma.shape))
        return z if z.ndim else float(z)

    def linearize(self, m):
        """The flux F(|m|) m at component-major vectors ``m`` of shape
        (2, ...), and a thunk for the flux Jacobian there.

        The thunk returns the three distinct entries xx, xy and yy of the
        symmetric Jacobian F(|m^|) I + F'(|m^|)/|m^| m (x) m, with |m^| =
        max(|m|, eps_reg), stacked as a (3, ...) array.  Its eigenvalues are
        at least (1 - alpha) F(|m^|) > 0, which keeps the momentum block of
        the Newton matrix positive definite at any state.  F is evaluated once
        for both; F' only when the thunk is called.  Overflow gives inf or
        nan entries without a warning, so callers check what they use.
        """
        m = np.asarray(m, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.maximum(np.sqrt(m[0] * m[0] + m[1] * m[1]), self.eps_reg)
            f = self.eval_F(mag)
            flux = f * m

        def jacobian():
            with np.errstate(over="ignore", invalid="ignore"):
                g = self.eval_F_prime(mag) / mag
                gx = g * m[0]
                return np.stack([f + gx * m[0], gx * m[1], f + g * m[1] * m[1]])

        return flux, jacobian
