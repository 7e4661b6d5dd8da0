"""The jet recurrences, on the coefficients of one point (a list of Python
complex numbers, as the tape runs them, and an array) and on arrays of
points: frozen examples, calculus properties and errors; the Jet record;
bivariate extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmschwarz import ExprFunction, Jet, bivariate_extract
from harmschwarz.errors import (
    BranchPointAtCenter,
    DivisionByZeroConstantTerm,
    IllConditioned,
    NonFinite,
)
from harmschwarz.expr import Var, compose, eval_ast_jet, parse
from harmschwarz.jets import (
    add_coeffs,
    check_finite,
    constant_coeffs,
    derivative_coeffs,
    div_coeffs,
    exp_coeffs,
    log_coeffs,
    mul_coeffs,
    neg_coeffs,
    pow_coeffs,
    sqrt_coeffs,
    sub_coeffs,
    variable_coeffs,
)

# the two forms of the coefficients of one point
FORMS = (list, np.ndarray)


def var(z0, order, form=np.ndarray):
    """The coefficients of z at ``z0`` (one point in ``form``, or an array
    of points)."""
    if form is list:
        return variable_coeffs(complex(z0), order)
    return variable_coeffs(np.asarray(z0, dtype=np.complex128), order)


def const(value, like):
    """The coefficients of a constant, shaped as ``like``."""
    shape = None if type(like) is list else like.shape[1:]
    return constant_coeffs(value, len(like) - 1, shape)


def one_minus(a):
    return sub_coeffs(const(1.0, a), a)


def one_plus(a):
    return add_coeffs(const(1.0, a), a)


def in_form(coeffs, form):
    if form is list:
        return [complex(c) for c in coeffs]
    return np.asarray(coeffs, dtype=np.complex128)


def assert_coeffs(got, expected, tol=1e-12):
    got = np.asarray(got)
    expected = np.asarray(expected, dtype=complex)
    assert np.allclose(got, expected, rtol=0, atol=tol), f"{got} != {expected}"


_COMPLEX = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
_UNIT_SCALE = st.complex_numbers(min_magnitude=0.5, max_magnitude=2,
                                 allow_nan=False, allow_infinity=False)


class TestArithmetic:
    def test_geometric_series(self):
        for form in FORMS:
            z = var(0.0, 3, form)
            assert_coeffs(div_coeffs(const(1.0, z), one_minus(z)), [1, 1, 1, 1])

    def test_polynomial_square(self):
        for form in FORMS:
            w = one_minus(var(0.0, 3, form))
            assert_coeffs(mul_coeffs(w, w), [1, -2, 1, 0])

    def test_koebe_derivative_series(self):
        # (1+z)/(1-z)^3 = 1 + 4z + 9z^2 + ...; oracle: term-by-term
        # multiplication of (1+z) against binomial coefficients C(n+2,2)
        for form in FORMS:
            z = var(0.0, 2, form)
            cube = pow_coeffs(one_minus(z), 3, 0j)
            assert_coeffs(div_coeffs(one_plus(z), cube), [1, 4, 9])

    def test_division_by_zero_constant_term(self):
        for form in FORMS:
            z = var(0.0, 3, form)
            with pytest.raises(DivisionByZeroConstantTerm):
                div_coeffs(one_plus(z), z)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            Jet(0.0, [1.0, float("inf")])
        with pytest.raises(NonFinite):
            Jet(0.0, [float("nan"), 1.0])
        for form in FORMS:
            for bad in ([1.0, float("inf")], [float("nan"), 1.0]):
                with pytest.raises(NonFinite) as err:
                    check_finite(in_form(bad, form), 0.5)
                assert err.value.at == 0.5
            # finite coefficients whose sum overflows
            check_finite(in_form([1e308, 1e308], form), 0.5)

    def test_nonfinite_center_rejected(self):
        with pytest.raises(NonFinite, match="^non-finite jet center$"):
            Jet(float("nan"), np.ones(2, dtype=complex))
        with pytest.raises(NonFinite, match="^non-finite jet center$"):
            Jet(np.array([0.1, np.inf]), np.ones((2, 2), dtype=complex))

    def test_division_error_carries_the_zero_mask(self):
        z = var(np.array([0.5, 0.0, 0.2]), 2)
        with pytest.raises(DivisionByZeroConstantTerm) as err:
            div_coeffs(one_plus(z), z)
        assert err.value.mask.tolist() == [False, True, False]

    def test_negative_integer_power(self):
        for form in FORMS:
            z = var(0.0, 3, form)
            assert_coeffs(pow_coeffs(one_minus(z), -1, 0j), [1, 1, 1, 1])

    def test_negative_power_that_overflows_names_its_point(self):
        # 0.1^512 underflows to 0 while 0.1 does not: 1/0.1^512 overflows
        zs = np.array([0.5, 0.1, 0.0])
        message = r"^jet power -512 overflows at \(0\.1\+0j\)$"
        with pytest.raises(NonFinite, match=message) as err:
            pow_coeffs(var(zs, 2), -512, zs)
        assert err.value.at == 0.1
        for form in FORMS:
            with pytest.raises(NonFinite, match=message):
                pow_coeffs(var(0.1, 2, form), -512, 0.1 + 0j)
            with pytest.raises(DivisionByZeroConstantTerm):
                pow_coeffs(var(0.0, 2, form), -2, 0j)  # a zero base stays a division

    def test_negative_power_is_the_reciprocal(self):
        zs = np.array([0.1, -0.45 + 0.2j])
        for z0, z in [(zs, var(zs, 3))] + [(0.1 + 0j, var(0.1, 3, form))
                                           for form in FORMS]:
            for n in (1, 2, 7, 100):
                want = div_coeffs(const(1.0, z), pow_coeffs(z, n, z0))
                assert (np.asarray(pow_coeffs(z, -n, z0)).tobytes()
                        == np.asarray(want).tobytes())

    @given(st.lists(_COMPLEX, min_size=5, max_size=5),
           st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=3,
                                       allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=1),
           st.lists(_COMPLEX, min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_div_mul_roundtrip(self, a, b0, brest):
        # (a/b)*b = a to 1e-12 when |b0| >= 1e-3.  The error scale is the
        # size of the intermediates: quotient coefficients grow like
        # (|b|/|b0|)^k, so the relative bound is against that growth.
        for form in FORMS:
            ja, jb = in_form(a, form), in_form(b0 + brest, form)
            q = div_coeffs(ja, jb)
            back = np.asarray(mul_coeffs(q, jb))
            conv = np.convolve(np.abs(q), np.abs(jb))[:5]
            scale = max(np.max(np.abs(ja)), np.max(conv), 1.0)
            assert np.max(np.abs(back - ja)) <= 1e-12 * scale

    def test_div_mul_roundtrip_well_scaled(self, rng):
        # plain relative round trip on O(1)-scaled jets
        for _ in range(50):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b[0] = b[0] / abs(b[0])  # |b0| = 1
            for form in FORMS:
                ja, jb = in_form(a, form), in_form(b, form)
                back = np.asarray(mul_coeffs(div_coeffs(ja, jb), jb))
                scale = max(np.max(np.abs(a)), 1.0)
                assert np.max(np.abs(back - a)) <= 1e-12 * scale

    @given(st.lists(_UNIT_SCALE, min_size=4, max_size=4),
           st.lists(_UNIT_SCALE, min_size=4, max_size=4),
           st.sampled_from([2, 3, 5, -1, -3]))
    @settings(max_examples=100, deadline=None)
    def test_list_and_array_give_the_same_bits(self, a, b, n):
        # the tape runs one point on lists and arrays of points on arrays:
        # each recurrence gives both the same bits
        def run(form):
            x, y = in_form(a, form), in_form(b, form)
            return [add_coeffs(x, y), sub_coeffs(x, y), neg_coeffs(x),
                    mul_coeffs(x, y), div_coeffs(x, y), pow_coeffs(x, n, 0.1 + 0j),
                    sqrt_coeffs(x), log_coeffs(x, 0.1 + 0j),
                    exp_coeffs(mul_coeffs(x, in_form([0.1] * 4, form))),
                    derivative_coeffs(x)]

        with np.errstate(all="ignore"):
            for got, want in zip(run(list), run(np.ndarray)):
                assert type(got) is list
                assert np.array(got, dtype=np.complex128).tobytes() == want.tobytes()


class TestTranscend:
    def test_mercator_series(self):
        for form in FORMS:
            z = var(0.0, 3, form)
            assert_coeffs(log_coeffs(one_minus(z), 0j), [0, -1, -0.5, -1.0 / 3.0])

    def test_sqrt_of_constant(self):
        for form in FORMS:
            assert_coeffs(sqrt_coeffs(in_form([4.0, 0.0, 0.0], form)), [2, 0, 0])

    def test_exp_log_inverse_pair(self):
        for form in FORMS:
            z = var(0.0, 4, form)
            assert_coeffs(exp_coeffs(log_coeffs(one_minus(z), 0j)), [1, -1, 0, 0, 0])

    def test_branch_point_errors(self):
        for form in FORMS:
            z = var(0.0, 3, form)
            with pytest.raises(BranchPointAtCenter):
                sqrt_coeffs(z)
            with pytest.raises(BranchPointAtCenter):
                log_coeffs(z, 0j)

    def test_branch_point_error_carries_the_zero_mask(self):
        zs = np.array([0.5, 0.0, 0.2])
        for fn in (sqrt_coeffs, lambda a: log_coeffs(a, zs)):
            with pytest.raises(BranchPointAtCenter) as err:
                fn(var(zs, 2))
            assert err.value.mask.tolist() == [False, True, False]

    def test_cpow_matches_integer_power(self):
        # a^e = exp(e*log a), as the tape raises to a non-integer exponent
        z0 = 0.2 + 0.1j
        for form in FORMS:
            base = one_plus(var(z0, 4, form))
            exact = pow_coeffs(base, 3, z0)
            via_log = exp_coeffs(mul_coeffs(const(3.0, base), log_coeffs(base, z0)))
            assert np.max(np.abs(np.subtract(exact, via_log))) < 1e-12


class TestCompose:
    # jets of a composition: the inner tree substituted for z
    def test_square_after_shift(self):
        composed = compose(parse("z^2"), parse("1+z"))
        assert_coeffs(eval_ast_jet(composed, 0.0, 4).coeffs, [1, 2, 1, 0, 0])

    def test_identity_outer(self):
        inner = parse("0.5+2*z-z^2+0.25*z^3")
        for z in (0.0, 0.3 - 0.2j, np.array([0.1, -0.5j])):
            assert (eval_ast_jet(compose(Var(), inner), z, 3).coeffs.tobytes()
                    == eval_ast_jet(inner, z, 3).coeffs.tobytes())

    def test_koebe_of_half_z(self):
        # k(z/2) = sum n (z/2)^n; oracle: direct series expansion
        for form in FORMS:
            z = var(0.0, 4, form)
            half = mul_coeffs(const(0.5, z), z)
            k = div_coeffs(half, pow_coeffs(one_minus(half), 2, 0j))
            assert_coeffs(k, [0, 0.5, 0.5, 0.375, 0.25])


class TestCalculusProperties:
    # the jet of e' (derivative_coeffs) against finite differences of
    # the value; each expression builds coefficients from those of z at z0
    EXPRESSIONS = [
        lambda z, z0: div_coeffs(one_plus(z), pow_coeffs(one_minus(z), 3, z0)),
        lambda z, z0: mul_coeffs(log_coeffs(div_coeffs(one_plus(z), one_minus(z)), z0),
                                 const(0.5, z)),
        lambda z, z0: sqrt_coeffs(add_coeffs(mul_coeffs(z, z), const(0.25, z))),
        lambda z, z0: mul_coeffs(exp_coeffs(mul_coeffs(z, const(0.3 + 0.4j, z))),
                                 pow_coeffs(one_minus(z), -2, z0)),
        lambda z, z0: div_coeffs(
            sub_coeffs(exp_coeffs(log_coeffs(add_coeffs(const(2.0, z), z), z0)), z),
            one_plus(mul_coeffs(z, z))),
    ]

    @pytest.mark.parametrize("expri", range(len(EXPRESSIONS)))
    def test_derivative_matches_finite_differences(self, expri, rng):
        build = self.EXPRESSIONS[expri]
        h = 1e-5
        for _ in range(5):
            z0 = complex(0.4 * (rng.random() - 0.5), 0.4 * (rng.random() - 0.5))
            for form in FORMS:
                jet = build(var(z0, 4, form), z0)
                dval = (build(var(z0 + h, 0, form), z0 + h)[0]
                        - build(var(z0 - h, 0, form), z0 - h)[0])
                fd = dval / (2.0 * h)
                exact = derivative_coeffs(jet)[0]
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_derivative_shift(self, rng):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        expect = [(k + 1) * coeffs[k + 1] for k in range(4)]
        for form in FORMS:
            assert_coeffs(derivative_coeffs(in_form(coeffs, form)), expect)

    def test_vectorized_matches_scalar(self, rng):
        zs = 0.3 * (rng.random(7) + 1j * rng.random(7))

        def log_ratio(z, z0):
            return log_coeffs(div_coeffs(one_plus(z), one_minus(z)), z0)

        vec = log_ratio(var(zs, 3), zs)
        for i, z in enumerate(zs):
            for form in FORMS:
                assert np.allclose(vec[:, i], log_ratio(var(z, 3, form), z))


class TestRecord:
    def test_fields(self):
        jet = Jet(0.5, [1.0, 2.0, 3.0, 4.0])
        assert jet.coeffs.dtype == np.complex128
        assert (jet.center, jet.order, jet.value) == (0.5, 3, 1.0)
        assert jet.derivative_value(3) == 24.0
        assert repr(jet).startswith("Jet(center=0.5, coeffs=array([1.+0.j")
        with pytest.raises(AttributeError, match="immutable"):
            jet.coeffs = np.zeros(4)
        with pytest.raises(ValueError, match="leading coefficient axis"):
            Jet(0.5, 1.0)


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
        taylor = ExprFunction("z/(1-z)^2").jet(0.2, 3).coeffs
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
