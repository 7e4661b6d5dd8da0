"""Jet arithmetic: frozen examples, calculus properties, bivariate extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmschwarz import Jet, bivariate_extract
from harmschwarz.errors import (
    BranchPointAtCenter,
    CenterMismatch,
    DivisionByZeroConstantTerm,
    IllConditioned,
    NonFinite,
)


def jet_of(coeffs, center=0.0):
    return Jet(center, np.asarray(coeffs, dtype=complex))


def assert_coeffs(jet, expected, tol=1e-12):
    got = jet.coeffs
    expected = np.asarray(expected, dtype=complex)
    assert np.allclose(got, expected, rtol=0, atol=tol), f"{got} != {expected}"


class TestArithmetic:
    def test_geometric_series(self):
        one = Jet.constant(1.0, 3)
        z = Jet.variable(0.0, 3)
        assert_coeffs(one / (one - z), [1, 1, 1, 1])

    def test_polynomial_square(self):
        z = Jet.variable(0.0, 3)
        assert_coeffs((1.0 - z) * (1.0 - z), [1, -2, 1, 0])

    def test_koebe_derivative_series(self):
        # (1+z)/(1-z)^3 = 1 + 4z + 9z^2 + ...; oracle: term-by-term
        # multiplication of (1+z) against binomial coefficients C(n+2,2)
        z = Jet.variable(0.0, 2)
        assert_coeffs((1.0 + z) / (1.0 - z) ** 3, [1, 4, 9])

    def test_center_mismatch(self):
        with pytest.raises(CenterMismatch):
            Jet.variable(0.0, 2) + Jet.variable(0.5, 2)
        with pytest.raises(CenterMismatch):
            Jet.variable(0.0, 2) + Jet.variable(0.0, 3)

    def test_division_by_zero_constant_term(self):
        z = Jet.variable(0.0, 3)
        with pytest.raises(DivisionByZeroConstantTerm):
            (1.0 + z) / z

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            jet_of([1.0, float("inf")])
        with pytest.raises(NonFinite):
            jet_of([float("nan"), 1.0])

    def test_nonfinite_center_rejected(self):
        with pytest.raises(NonFinite, match="^non-finite jet center$"):
            Jet(float("nan"), np.ones(2, dtype=complex))
        with pytest.raises(NonFinite, match="^non-finite jet center$"):
            Jet(np.array([0.1, np.inf]), np.ones((2, 2), dtype=complex))

    def test_equal_centers_held_apart_match(self):
        a = Jet.variable(np.array([0.1, 0.2]), 2)
        total = a + Jet.variable(np.array([0.1, 0.2]), 2)
        assert total.coeffs[:, 1].tolist() == [0.4, 2, 0]
        with pytest.raises(CenterMismatch):
            a + Jet.variable(np.array([0.1, 0.3]), 2)

    def test_division_error_carries_the_zero_mask(self):
        z = Jet.variable(np.array([0.5, 0.0, 0.2]), 2)
        with pytest.raises(DivisionByZeroConstantTerm) as err:
            (1.0 + z) / z
        assert err.value.mask.tolist() == [False, True, False]

    def test_negative_integer_power(self):
        z = Jet.variable(0.0, 3)
        assert_coeffs((1.0 - z) ** -1, [1, 1, 1, 1])

    def test_negative_power_that_overflows_names_its_point(self):
        # 0.1^512 underflows to 0 while 0.1 does not: 1/0.1^512 overflows
        z = Jet.variable(np.array([0.5, 0.1, 0.0]), 2)
        with pytest.raises(NonFinite, match=r"^jet power -512 overflows "
                           r"at \(0\.1\+0j\)$") as err:
            z ** -512
        assert err.value.at == 0.1
        with pytest.raises(DivisionByZeroConstantTerm):
            Jet.variable(0.0, 2) ** -2  # a zero base stays a division

    def test_negative_power_is_the_reciprocal(self):
        z = Jet.variable(np.array([0.1, -0.45 + 0.2j]), 3)
        for n in (1, 2, 7, 100):
            assert np.array_equal((z ** -n).coeffs, (1.0 / z ** n).coeffs)

    @given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False),
                    min_size=5, max_size=5),
           st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=3,
                                       allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=1),
           st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False),
                    min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_div_mul_roundtrip(self, a, b0, brest):
        # (a/b)*b = a to 1e-12 when |b0| >= 1e-3.  The error scale is the
        # size of the intermediates: quotient coefficients grow like
        # (|b|/|b0|)^k, so the relative bound is against that growth.
        ja, jb = jet_of(a), jet_of(b0 + brest)
        q = ja / jb
        back = q * jb
        conv = np.convolve(np.abs(q.coeffs), np.abs(jb.coeffs))[:5]
        scale = max(np.max(np.abs(ja.coeffs)), np.max(conv), 1.0)
        assert np.max(np.abs(back.coeffs - ja.coeffs)) <= 1e-12 * scale

    def test_div_mul_roundtrip_well_scaled(self, rng):
        # plain relative round trip on O(1)-scaled jets
        for _ in range(50):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b[0] = b[0] / abs(b[0])  # |b0| = 1
            ja, jb = jet_of(a), jet_of(b)
            back = (ja / jb) * jb
            scale = max(np.max(np.abs(ja.coeffs)), 1.0)
            assert np.max(np.abs(back.coeffs - ja.coeffs)) <= 1e-12 * scale


class TestTranscend:
    def test_mercator_series(self):
        z = Jet.variable(0.0, 3)
        assert_coeffs((1.0 - z).log(), [0, -1, -0.5, -1.0 / 3.0])

    def test_sqrt_of_constant(self):
        assert_coeffs(jet_of([4.0, 0.0, 0.0]).sqrt(), [2, 0, 0])

    def test_exp_log_inverse_pair(self):
        z = Jet.variable(0.0, 4)
        assert_coeffs((1.0 - z).log().exp(), [1, -1, 0, 0, 0])

    def test_branch_point_errors(self):
        z = Jet.variable(0.0, 3)
        for fn in ("sqrt", "log"):
            with pytest.raises(BranchPointAtCenter):
                getattr(z, fn)()

    def test_branch_point_error_carries_the_zero_mask(self):
        z = Jet.variable(np.array([0.5, 0.0, 0.2]), 2)
        for fn in ("sqrt", "log"):
            with pytest.raises(BranchPointAtCenter) as err:
                getattr(z, fn)()
            assert err.value.mask.tolist() == [False, True, False]

    def test_cpow_matches_integer_power(self):
        z = Jet.variable(0.2 + 0.1j, 4)
        exact = (1.0 + z) ** 3
        via_log = (1.0 + z).cpow(3.0)
        assert np.max(np.abs(exact.coeffs - via_log.coeffs)) < 1e-12


class TestCompose:
    def test_square_after_shift(self):
        outer = jet_of([1, 2, 1, 0, 0], center=1.0)   # w^2 around w=1
        inner = jet_of([1, 1, 0, 0, 0], center=0.0)   # 1+z around 0
        assert_coeffs(outer.compose(inner), [1, 2, 1, 0, 0])

    def test_identity_outer(self):
        inner = jet_of([0.5, 2.0, -1.0, 0.25])
        outer = Jet.variable(0.5, 3)
        assert_coeffs(outer.compose(inner), inner.coeffs)

    def test_koebe_of_half_z(self):
        # k(z/2) = sum n (z/2)^n; oracle: direct series expansion
        z = Jet.variable(0.0, 4)
        half = 0.5 * z
        k = half / (1.0 - half) ** 2
        assert_coeffs(k, [0, 0.5, 0.5, 0.375, 0.25])

    def test_center_requirement(self):
        outer = jet_of([1, 2, 1], center=2.0)
        inner = jet_of([1, 1, 0], center=0.0)
        with pytest.raises(CenterMismatch):
            outer.compose(inner)


class TestCalculusProperties:
    # jets of e' (coefficient shift) vs finite differences of the value
    EXPRESSIONS = [
        lambda z: (1.0 + z) / (1.0 - z) ** 3,
        lambda z: ((1.0 + z) / (1.0 - z)).log() * 0.5,
        lambda z: (z * z + 0.25).sqrt(),
        lambda z: (z * (0.3 + 0.4j)).exp() * (1.0 - z) ** -2,
        lambda z: ((2.0 + z).log().exp() - z) / (1.0 + z * z),
    ]

    @pytest.mark.parametrize("expri", range(len(EXPRESSIONS)))
    def test_derivative_matches_finite_differences(self, expri, rng):
        build = self.EXPRESSIONS[expri]
        h = 1e-5
        for _ in range(5):
            z0 = complex(0.4 * (rng.random() - 0.5), 0.4 * (rng.random() - 0.5))
            jet = build(Jet.variable(z0, 4))
            dval = build(Jet.variable(z0 + h, 0)).value - \
                build(Jet.variable(z0 - h, 0)).value
            fd = dval / (2.0 * h)
            exact = jet.derivative().value
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_derivative_shift(self, rng):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        j = jet_of(coeffs)
        d = j.derivative()
        expect = [(k + 1) * coeffs[k + 1] for k in range(4)]
        assert_coeffs(d, expect)

    def test_vectorized_matches_scalar(self, rng):
        zs = 0.3 * (rng.random(7) + 1j * rng.random(7))
        vec = ((1.0 + Jet.variable(zs, 3)) / (1.0 - Jet.variable(zs, 3))).log()
        for i, z in enumerate(zs):
            scal = ((1.0 + Jet.variable(complex(z), 3))
                    / (1.0 - Jet.variable(complex(z), 3))).log()
            assert np.allclose(vec.coeffs[:, i], scal.coeffs)


class TestBivariate:
    def test_simple_mixed_map(self):
        def F(t):
            return t + np.conjugate(t) ** 2

        coeffs = bivariate_extract(F, degree=2)
        assert abs(coeffs[(1, 0)] - 1.0) < 1e-9
        assert abs(coeffs[(0, 2)] - 1.0) < 1e-9
        others = [v for mn, v in coeffs.items() if mn not in ((1, 0), (0, 2))]
        assert max(abs(v) for v in others) < 1e-9

    def test_analytic_map_has_no_antianalytic_content(self):
        def koebe(t):
            w = 0.2 + t
            return w / (1.0 - w) ** 2

        coeffs = bivariate_extract(koebe, degree=3)
        # c_{m0} are the Taylor coefficients of k around 0.2
        z = Jet.variable(0.2, 3)
        taylor = (z / (1.0 - z) ** 2).coeffs
        for m in range(4):
            assert abs(coeffs[(m, 0)] - taylor[m]) < 1e-8
        for (m, n), v in coeffs.items():
            if n >= 1:
                assert abs(v) <= 1e-8

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_returns_every_coefficient_as_a_dict(self, degree):
        coeffs = bivariate_extract(lambda t: t, degree=degree)
        assert type(coeffs) is dict
        assert set(coeffs) == {(m, n) for m in range(degree + 1)
                               for n in range(degree + 1 - m)}

    def test_ill_conditioned_radii(self):
        with pytest.raises(IllConditioned):
            bivariate_extract(lambda t: t, degree=3,
                              radii=(0.01, 0.01, 0.01))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bivariate_extract(lambda t: t, degree=3, radii=(0.01,))
        with pytest.raises(ValueError):
            bivariate_extract(lambda t: t, degree=3, angles=5)

    def test_wrong_output_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            bivariate_extract(lambda t: t[0], degree=3)
        with pytest.raises(ValueError, match="shape"):
            bivariate_extract(lambda t: 1.0, degree=3)

    def test_errors_inside_f_propagate(self):
        calls = []

        def F(t):
            calls.append(np.shape(t))
            raise TypeError("boom")

        with pytest.raises(TypeError, match="boom"):
            bivariate_extract(F, degree=3)
        assert calls == [(3, 64)]  # one vectorised call, no pointwise rerun
