import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import flux
from mixedflow.constitutive import (CoefficientVector, GeneralizedPolynomial,
                                    PowerSpec)
from mixedflow.verify import WITNESSES, lemma_constants


def flux_jacobian(law, m):
    """The flux Jacobian at one 2-vector or an (..., 2) array of vectors, as
    (..., 2, 2) matrices, from the thunk of ``linearize``."""
    xx, xy, yy = law.linearize(np.moveaxis(np.asarray(m, dtype=float), -1, 0))[1]()
    return np.stack([np.stack([xx, xy], axis=-1),
                     np.stack([xy, yy], axis=-1)], axis=-2)


def vec(mag_lo=1e-6, mag_hi=1e2):
    return st.tuples(
        st.floats(min_value=np.log(mag_lo), max_value=np.log(mag_hi)),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    ).map(lambda t: (np.exp(t[0]) * np.cos(t[1]), np.exp(t[0]) * np.sin(t[1])))


class TestPowerSpec:
    def test_derived_exponents(self):
        spec = PowerSpec(0.5, [1.0])
        assert spec.s == 3.0
        assert list(spec.all_exponents()) == [-0.5, 0.0, 1.0]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(ValueError):
            PowerSpec(alpha, [1.0])

    def test_exponents_sorted_positive(self):
        with pytest.raises(ValueError):
            PowerSpec(0.5, [1.0, 0.5])
        with pytest.raises(ValueError):
            PowerSpec(0.5, [-1.0])


class TestCoefficientVector:
    def test_box_defaults(self):
        c = CoefficientVector([0.95, 1.0, 0.95])
        assert c.a_star == pytest.approx(0.95)
        assert c.a_sup == pytest.approx(1.0)

    def test_nonnegative_required(self):
        with pytest.raises(ValueError):
            CoefficientVector([1.0, -0.1, 1.0])

    @pytest.mark.parametrize("box", [dict(a_sup=np.nextafter(1.0, 0.0)),
                                     dict(a_star=np.nextafter(1.0, 2.0))])
    def test_box_excluding_the_values_refused(self, box):
        with pytest.raises(ValueError, match="recorded a_s"):
            CoefficientVector([1.0, 1.0, 1.0], **box)


class TestEvaluation:
    def test_unit_argument(self, reference_law):
        assert reference_law.eval_F(1.0) == pytest.approx(3.0)

    def test_scalar_value_at_four(self, reference_law):
        # 4^{-1/2} + 1 + 4
        assert reference_law.eval_F(4.0) == pytest.approx(5.5)

    def test_zero_is_clamped(self, reference_law):
        val = reference_law.eval_F(0.0)
        assert np.isfinite(val)
        assert val == pytest.approx(reference_law.eval_F(reference_law.eps_reg))

    def test_exact_above_clamp(self, reference_law):
        z = 3.7
        expected = z ** -0.5 + 1.0 + z
        assert reference_law.eval_F(z) == pytest.approx(expected, rel=1e-15)

    def test_prime_at_one(self, reference_law):
        assert reference_law.eval_F_prime(1.0) == pytest.approx(0.5)

    def test_darcy_only_constant(self):
        law = GeneralizedPolynomial(PowerSpec(0.5, [1.0]),
                                    CoefficientVector([0.0, 1.0, 0.0]))
        for z in (0.0, 0.3, 1.0, 50.0):
            assert law.eval_F(z) == pytest.approx(1.0)
            assert law.eval_F_prime(max(z, 1e-3)) == 0.0

    @given(w=st.floats(min_value=-20, max_value=6).map(np.exp))
    @settings(max_examples=200, deadline=None)
    def test_derivative_sandwich(self, reference_law, w):
        w = max(w, reference_law.eps_reg)
        f = reference_law.eval_F(w)
        wfp = w * reference_law.eval_F_prime(w)
        assert -0.5 * f - 1e-12 * f <= wfp <= 1.0 * f + 1e-12 * f


@st.composite
def laws(draw):
    """Admissible laws, zero coefficients included, with a_0 or a positive
    power present: with the singular term alone z^(1 - alpha) grows slower
    than z, and gamma = 1e300 can need a z beyond the floats.  Coefficients
    and eps_reg stay where z^e in ``eval_F`` neither over- nor underflows
    while z F(z) is finite."""
    exponents = draw(st.lists(st.floats(0.1, 8.0), min_size=1, max_size=3,
                              unique=True).map(sorted))
    values = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1e3),
                           min_size=len(exponents) + 2,
                           max_size=len(exponents) + 2).filter(lambda v: any(v[1:])))
    return GeneralizedPolynomial(
        PowerSpec(draw(st.floats(0.05, 0.95)), exponents),
        CoefficientVector(values), eps_reg=draw(st.floats(1e-12, 1e-2)))


DARCY = GeneralizedPolynomial(PowerSpec(0.5, [1.0]), CoefficientVector([0.0, 1.0, 0.0]))


class TestInvert:
    @example(law=DARCY, gammas=[0.0, 1e-300, 1.0, 1e300])
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(law=laws(), gammas=st.lists(st.just(0.0) | st.floats(1e-300, 1e300),
                                       min_size=1, max_size=5))
    def test_solves_z_times_F(self, law, gammas):
        """z >= 0 finite, z F(z) = gamma to 1e-12 relative where z is a
        normal float and z F(z) finite, and no numpy warning."""
        gamma = np.array(gammas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = law.invert(gamma)
        assert z.shape == gamma.shape
        assert np.all(np.isfinite(z)) and np.all(z >= 0.0)
        assert np.all(z[gamma == 0.0] == 0.0)
        with np.errstate(over="ignore"):
            product = z * law.eval_F(z)
        checked = np.isfinite(product) & (z >= np.finfo(float).tiny)
        assert np.all(np.abs(product - gamma)[checked] <= 1e-12 * gamma[checked])

    def test_scalar_and_clamp(self, reference_law):
        eps = reference_law.eps_reg
        assert reference_law.invert(3.0) == pytest.approx(1.0, rel=1e-14)
        assert reference_law.invert(0.0) == 0.0
        # below the clamp the law is linear: z F(eps_reg) = gamma
        gamma = 0.5 * eps * reference_law.eval_F(eps)
        assert reference_law.invert(gamma) == pytest.approx(0.5 * eps, rel=1e-14)

    def test_zero_law_reaches_nothing(self):
        law = GeneralizedPolynomial(PowerSpec(0.5, [1.0]),
                                    CoefficientVector([0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(law.invert(np.array([0.0, 1.0])), [0.0, np.inf])


class TestFlux:
    def test_zero_maps_to_zero(self, reference_law):
        assert np.all(flux(reference_law, [0.0, 0.0]) == 0.0)

    def test_axis_value(self, reference_law):
        np.testing.assert_allclose(flux(reference_law, [1.0, 0.0]), [3.0, 0.0])

    @given(m=vec())
    @settings(max_examples=100, deadline=None)
    def test_odd_symmetry(self, reference_law, m):
        m = np.array(m)
        np.testing.assert_allclose(flux(reference_law, -m),
                                   -flux(reference_law, m), rtol=1e-13)

    @given(m=vec())
    @settings(max_examples=100, deadline=None)
    def test_isotropy_coordinate_swap(self, reference_law, m):
        mx, my = m
        np.testing.assert_allclose(flux(reference_law, [mx, my])[::-1],
                                   flux(reference_law, [my, mx]), rtol=1e-13)


class TestFluxJacobian:
    def test_axis_value(self, reference_law):
        jac = flux_jacobian(reference_law, [1.0, 0.0])
        np.testing.assert_allclose(jac, [[3.5, 0.0], [0.0, 3.0]], atol=1e-14)

    def test_clamped_at_origin(self, reference_law):
        jac = flux_jacobian(reference_law, [0.0, 0.0])
        f_eps = reference_law.eval_F(reference_law.eps_reg)
        np.testing.assert_allclose(jac, f_eps * np.eye(2))

    @given(m=vec(mag_lo=1e-8))
    @settings(max_examples=150, deadline=None)
    def test_eigenvalue_floor(self, reference_law, m):
        m = np.array(m)
        mag = max(np.linalg.norm(m), reference_law.eps_reg)
        eigs = np.linalg.eigvalsh(flux_jacobian(reference_law, m))
        floor = (1.0 - 0.5) * reference_law.eval_F(mag)
        assert eigs.min() >= floor * (1.0 - 1e-12)
        assert eigs.min() > 0.0

    def test_matches_finite_differences(self, reference_law, rng):
        for _ in range(50):
            m = rng.standard_normal(2)
            m *= max(1.0, 10 * reference_law.eps_reg / np.linalg.norm(m))
            jac = flux_jacobian(reference_law, m)
            fd = np.empty((2, 2))
            h = 1e-6 * (1.0 + np.linalg.norm(m))
            for j in range(2):
                dm = np.zeros(2)
                dm[j] = h
                fd[:, j] = (flux(reference_law, m + dm)
                            - flux(reference_law, m - dm)) / (2 * h)
            assert np.abs(fd - jac).max() <= 1e-6 * np.abs(jac).max()

    def test_batched_matches_single(self, reference_law, rng):
        ms = rng.standard_normal((7, 2)) + np.array([1.0, 0.2])
        batch = flux_jacobian(reference_law, ms)
        for k, m in enumerate(ms):
            np.testing.assert_allclose(batch[k], flux_jacobian(reference_law, m))


class TestLemmaConstants:
    def test_reference_values(self, reference_law):
        c1, c2, c3 = lemma_constants(reference_law)
        assert c1 == pytest.approx(8.0)       # 2(s-1)/(1-alpha) = 4/0.5
        assert c2 == pytest.approx(3.0)       # 3N
        assert c3 == pytest.approx(0.0625)    # a*(1-alpha)/(2^{s-1}(s-1))

    def test_tracks_box(self, perturbed_law):
        assert lemma_constants(perturbed_law)[2] == pytest.approx(0.95 * 0.0625)


class TestLemmaWitness:
    """Each witness returns (small, large) pairs whose contract is small <= large."""

    def test_monotone0_example(self, reference_law):
        [(small, large)] = WITNESSES["monotone0"].evaluate(
            reference_law, y=[1.0, 0.0], y2=[2.0, 0.0])
        assert large == pytest.approx(4.4142, abs=1e-4)
        assert small == pytest.approx(0.0625)
        assert large >= small

    def test_cont1_coincident_points(self, reference_law):
        [(small, large)] = WITNESSES["cont1"].evaluate(
            reference_law, x=[0.3, -0.1], y=[0.3, -0.1], p=-0.5)
        assert small == 0.0
        assert large == 0.0

    def test_ordf_lower_equality_at_one(self, reference_law):
        (small, large), _ = WITNESSES["OrdF"].evaluate(
            reference_law, w=1.0, a=reference_law.coefficients())
        assert small == pytest.approx(3.0)
        assert large == pytest.approx(3.0)

    def test_ordf_narrow_constant_fails_at_one(self, reference_law):
        w = 1.0
        _, (f, _) = WITNESSES["OrdF"].evaluate(
            reference_law, w=w, a=reference_law.coefficients())
        spec = reference_law.spec
        narrow = spec.n_powers * reference_law.coeffs.a_sup \
            * (w ** -spec.alpha + w ** spec.alpha_top)
        assert f == pytest.approx(3.0)
        assert narrow == pytest.approx(2.0)
        assert f > narrow  # the narrow constant is too small

    def test_widened_ordf_constant_holds(self, reference_law, rng):
        w = np.exp(rng.uniform(np.log(1e-10), np.log(1e3), size=2000))
        _, (small, large) = WITNESSES["OrdF"].evaluate(
            reference_law, w=w, a=reference_law.coefficients())
        assert np.all(small <= large * (1 + 1e-12))

    def test_rejects_unregularized_singularity(self, reference_law):
        with pytest.raises(ValueError):
            WITNESSES["dervF"].evaluate(reference_law, w=0.0,
                                        a=reference_law.coefficients())
        with pytest.raises(ValueError):
            WITNESSES["monotone0"].evaluate(reference_law,
                                            y=[0.0, 0.0], y2=[0.0, 0.0])

    def test_rejects_bad_power_range(self, reference_law):
        with pytest.raises(ValueError):
            WITNESSES["cont1"].evaluate(reference_law, x=[1.0, 0.0],
                                        y=[0.0, 1.0], p=0.3)
        with pytest.raises(ValueError):
            WITNESSES["cont2"].evaluate(reference_law, x=[1.0, 0.0],
                                        y=[0.0, 1.0], p=-0.3)

    @given(x=vec(), y=vec(), p=st.floats(min_value=-0.95, max_value=-0.05))
    @settings(max_examples=200, deadline=None)
    def test_cont1_property(self, reference_law, x, y, p):
        [(small, large)] = WITNESSES["cont1"].evaluate(reference_law, x=x, y=y, p=p)
        assert small <= large + 1e-12 * max(1.0, large)

    @given(y=vec(), y2=vec())
    @settings(max_examples=200, deadline=None)
    def test_monotonicity_property(self, reference_law, y, y2):
        [(small, large)] = WITNESSES["monotone0"].evaluate(reference_law, y=y, y2=y2)
        assert large >= small - 1e-12 * max(1.0, abs(large), abs(small))

    @given(y=vec(), y2=vec())
    @settings(max_examples=200, deadline=None)
    def test_hoelder_property(self, reference_law, y, y2):
        [(small, large)] = WITNESSES["Lipchitz"].evaluate(reference_law, y=y, y2=y2)
        assert small <= large + 1e-12 * max(1.0, large)
