"""The jet recurrences, on the coefficients of one point (a list of Python
complex numbers, as the tape runs them, and an array) and on arrays of
points: frozen examples, calculus properties and errors; the Jet record;
bivariate extraction."""

import random
import struct

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
from harmschwarz.expr import Var, compose, eval_jet, parse
from harmschwarz.jets import (
    _extraction_plan,
    _quotient,
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
                    sqrt_coeffs(x), log_coeffs(x),
                    exp_coeffs(mul_coeffs(x, in_form([0.1] * 4, form))),
                    derivative_coeffs(x)]

        with np.errstate(all="ignore"):
            for got, want in zip(run(list), run(np.ndarray)):
                assert type(got) is list
                assert np.array(got, dtype=np.complex128).tobytes() == want.tobytes()

    @given(st.lists(st.lists(_UNIT_SCALE, min_size=4, max_size=4), min_size=3, max_size=3),
           st.lists(_UNIT_SCALE, min_size=4, max_size=4),
           st.sampled_from([2, 3, 5, -1, -3]))
    @settings(max_examples=100, deadline=None)
    def test_rows_of_one_point_broadcast_to_the_bits_of_the_array(self, a, b, n):
        # the trapped array run of the tape computes a jet of one point once
        # and broadcasts its rows against the points: each recurrence gives
        # the bits of the array that repeats that point
        points = np.array(a, dtype=np.complex128).T  # 4 coefficients, 3 points
        one = np.array(b, dtype=np.complex128)[:, None]
        center = np.array([0.1, 0.2, 0.3], dtype=np.complex128)

        def run(x, y):
            return [add_coeffs(x, y), sub_coeffs(x, y), mul_coeffs(x, y),
                    div_coeffs(x, y), div_coeffs(y, x), pow_coeffs(y, n, center),
                    sqrt_coeffs(y), log_coeffs(y), exp_coeffs(mul_coeffs(y, x)),
                    derivative_coeffs(y)]

        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rows = run(list(points), list(one))
            full = run(points, np.repeat(one, 3, axis=1))
        for got, want in zip(rows, full):
            assert type(got) is list
            got = np.stack(np.broadcast_arrays(*got, points[0]))[:-1]
            assert got.tobytes() == want.tobytes()

    def test_rows_are_checked_and_name_their_point(self):
        rows = [np.array([0.5, 0.6], dtype=complex), np.array([np.inf], dtype=complex)]
        with pytest.raises(NonFinite) as err:
            check_finite(rows, np.array([0.1, 0.2]))
        assert err.value.at == 0.1
        check_finite([np.array([1e308, 1e308]), np.array([1e308])], np.array([0.1, 0.2]))
        # a power whose rows are of one point names the first point of the batch
        with pytest.raises(NonFinite, match=r"overflows at \(0\.1\+0j\)"):
            pow_coeffs([np.array([1e-200 + 0j]), np.array([0j])], -2, np.array([0.1, 0.2]))


# (dividend, divisor) pairs of one point: subnormal and +-1e308
# divisors, signed zeros, a pure-imaginary divisor, and the divisors the
# recurrences use besides a constant term, k (exp, log) and (2+0j)*c (sqrt)
_QUOTIENTS = [
    (1 + 2j, 5e-324 + 0j), (0.3 - 0.7j, 2e-320 - 5e-324j), (1e-300 + 3e-310j, 5e-324j),
    (1 + 1j, 1e308 + 1e308j), (1e308 - 1e308j, -1e308 + 0j), (1e308 + 1e308j, 1e-308 + 0j),
    (-1e308 + 0.5j, 0.5 - 1e308j), (0j, 1 + 0j), (-0.0 + 0j, 1 - 1j),
    (complex(0.0, -0.0), -2 + 0j), (complex(-0.0, -0.0), complex(-0.0, 3.0)),
    (2.5 - 1j, -0.25j), (1 + 2j, 3j), (1e308 + 1e308j, 1e-300j),
    (1 + 2j, 3), (0.1 + 0.2j, 7), (1e308 - 1e308j, 2), (5e-324 + 5e-324j, 4),
    (0.3 + 0.1j, (2 + 0j) * (0.7 - 0.2j)), (1e-200 + 1e200j, (2 + 0j) * 1e-160j),
]


def _wide_quotients(n, seed=35):
    """n (dividend, divisor) pairs with exponents from 1e-320 to 1e308."""
    rng = random.Random(seed)

    def part():
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 308)

    return [(complex(part(), part()), complex(part(), part())) for _ in range(n)]


def _bytes(c):
    return struct.pack("<dd", c.real, c.imag)


class TestQuotient:
    # one point divides a Python complex number with numpy's scalar
    # division: the bits of numpy's scalars, as every other operation of
    # the one-point recurrences has
    @pytest.mark.parametrize("x, y", _QUOTIENTS)
    def test_one_point_is_numpys_scalar_division(self, x, y):
        with np.errstate(all="ignore"):
            got = _quotient(x, y)
            want = np.complex128(x) / y
        assert type(got) is complex
        assert _bytes(got) == _bytes(complex(want))

    def test_wide_exponents(self):
        with np.errstate(all="ignore"):
            for x, y in _wide_quotients(2000):
                assert _bytes(_quotient(x, y)) == _bytes(complex(np.complex128(x) / y))

    def test_rows_and_arrays_divide_by_their_operator(self):
        x = np.array([1 + 2j, 1e308 - 1e308j, -0.0j])
        for y in (3, 0.5 - 2j, np.array([2j, 1e-308, -1 + 0j])):
            with np.errstate(all="ignore"):
                assert _quotient(x, y).tobytes() == (x / y).tobytes()

    def test_an_overflow_takes_numpys_flags(self):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _quotient(1e308 + 1e308j, 1e-10 + 0j)
        with np.errstate(over="ignore"):
            assert _quotient(1e308 + 1e308j, 1e-10 + 0j).real == float("inf")


class TestTranscend:
    def test_mercator_series(self):
        for form in FORMS:
            z = var(0.0, 3, form)
            assert_coeffs(log_coeffs(one_minus(z)), [0, -1, -0.5, -1.0 / 3.0])

    def test_sqrt_of_constant(self):
        for form in FORMS:
            assert_coeffs(sqrt_coeffs(in_form([4.0, 0.0, 0.0], form)), [2, 0, 0])

    def test_exp_log_inverse_pair(self):
        for form in FORMS:
            z = var(0.0, 4, form)
            assert_coeffs(exp_coeffs(log_coeffs(one_minus(z))), [1, -1, 0, 0, 0])

    def test_branch_point_errors(self):
        for form in FORMS:
            z = var(0.0, 3, form)
            with pytest.raises(BranchPointAtCenter):
                sqrt_coeffs(z)
            with pytest.raises(BranchPointAtCenter):
                log_coeffs(z)

    def test_branch_point_error_carries_the_zero_mask(self):
        zs = np.array([0.5, 0.0, 0.2])
        for fn in (sqrt_coeffs, log_coeffs):
            with pytest.raises(BranchPointAtCenter) as err:
                fn(var(zs, 2))
            assert err.value.mask.tolist() == [False, True, False]

    def test_cpow_matches_integer_power(self):
        # a^e = exp(e*log a), as the tape raises to a non-integer exponent
        z0 = 0.2 + 0.1j
        for form in FORMS:
            base = one_plus(var(z0, 4, form))
            exact = pow_coeffs(base, 3, z0)
            via_log = exp_coeffs(mul_coeffs(const(3.0, base), log_coeffs(base)))
            assert np.max(np.abs(np.subtract(exact, via_log))) < 1e-12


class TestCompose:
    # jets of a composition: the inner tree substituted for z
    def test_square_after_shift(self):
        composed = compose(parse("z^2"), parse("1+z"))
        assert_coeffs(eval_jet(composed, 0.0, 4).coeffs, [1, 2, 1, 0, 0])

    def test_identity_outer(self):
        inner = parse("0.5+2*z-z^2+0.25*z^3")
        for z in (0.0, 0.3 - 0.2j, np.array([0.1, -0.5j])):
            assert (eval_jet(compose(Var(), inner), z, 3).coeffs.tobytes()
                    == eval_jet(inner, z, 3).coeffs.tobytes())

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
        lambda z, z0: mul_coeffs(log_coeffs(div_coeffs(one_plus(z), one_minus(z))),
                                 const(0.5, z)),
        lambda z, z0: sqrt_coeffs(add_coeffs(mul_coeffs(z, z), const(0.25, z))),
        lambda z, z0: mul_coeffs(exp_coeffs(mul_coeffs(z, const(0.3 + 0.4j, z))),
                                 pow_coeffs(one_minus(z), -2, z0)),
        lambda z, z0: div_coeffs(
            sub_coeffs(exp_coeffs(log_coeffs(add_coeffs(const(2.0, z), z))), z),
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

        def log_ratio(z):
            return log_coeffs(div_coeffs(one_plus(z), one_minus(z)))

        vec = log_ratio(var(zs, 3))
        for i, z in enumerate(zs):
            for form in FORMS:
                assert np.allclose(vec[:, i], log_ratio(var(z, 3, form)))


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

    def test_angles_must_be_an_integer(self):
        with pytest.raises(ValueError, match="angles must be an integer"):
            bivariate_extract(lambda t: t, degree=3, angles=32.0)

    def test_degree_must_be_non_negative(self):
        with pytest.raises(ValueError, match="degree must be a non-negative integer"):
            bivariate_extract(lambda t: t, degree=-1)

    def test_radii_must_be_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="radii must be finite and positive"):
                bivariate_extract(lambda t: t, degree=3, radii=(0.01, bad, 0.03))

    def test_wrong_output_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            bivariate_extract(lambda t: t[0], degree=3)
        with pytest.raises(ValueError, match="shape"):
            bivariate_extract(lambda t: 1.0, degree=3)

    def test_non_finite_samples_raise(self):
        with pytest.raises(NonFinite, match="bivariate extraction"):
            bivariate_extract(lambda t: np.full_like(t, np.nan), degree=3)

    def test_errors_inside_f_propagate(self):
        calls = []

        def F(t):
            calls.append(np.shape(t))
            raise TypeError("boom")

        with pytest.raises(TypeError, match="boom"):
            bivariate_extract(F, degree=3)
        assert calls == [(3, 32)]  # one vectorised call, no pointwise rerun


def _lstsq_extract(F, degree, radii, angles):
    """The reference extraction: one least-squares solve per frequency on
    every call, with no plan."""
    rho = np.asarray(radii)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    dft = np.fft.fft(F(rho[:, None] * np.exp(1j * theta)[None, :]), axis=1) / angles
    table = {}
    for k in range(-degree, degree + 1):
        nterms = min(len(radii), (degree - abs(k)) // 2 + 3)
        exps = [abs(k) + 2 * j for j in range(nterms)]
        A = rho[:, None] ** np.asarray(exps)[None, :]
        colscale = np.linalg.norm(A, axis=0)
        sol, *_ = np.linalg.lstsq(A / colscale, dft[:, k % angles], rcond=None)
        for e, c in zip(exps, sol / colscale):
            if e <= degree:
                table[((e + k) // 2, (e - k) // 2)] = complex(c)
    return table


_POLY_TERMS = [(m, n) for m in range(6) for n in range(6 - m)]

# Both paths read an order-3 coefficient next to an order-1 one of the same
# frequency through the radial system, so each carries a rounding error up
# to about 40 eps |c_10| rho^-2 (the system's condition number times the
# ratio of the column scales): they differ by up to 6.7e-12 of the largest
# coefficient on 4,000 random unit-sized polynomials.  Against the exact coefficients
# the rounding of the samples themselves counts, read in an order-3
# coefficient through rho^-3: up to 1.1e-10 of the largest coefficient.
TOL_PLAN = 1e-11
TOL_EXACT = 1e-9


class TestExtractionPlan:
    """The sample points and radial solves depend only on (radii, degree,
    angles) and are built once per key."""

    def test_built_once_per_key(self, monkeypatch):
        _extraction_plan.cache_clear()
        built = []
        for name in ("pinv", "cond"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, real=real, name=name, **k:
                                built.append(name) or real(*a, **k))
        first = bivariate_extract(lambda t: t + t * np.conjugate(t), degree=3)
        assert sorted(built) == ["cond"] * 7 + ["pinv"] * 7  # one per frequency
        built.clear()
        second = bivariate_extract(lambda t: t + t * np.conjugate(t), degree=3)
        assert built == [] and second == first

    def test_sample_points_are_read_only(self):
        def F(t):
            t[0, 0] = 0.0
            return t

        with pytest.raises(ValueError, match="read-only"):
            bivariate_extract(F, degree=3)

    def test_ill_conditioned_radii_are_never_cached(self):
        _extraction_plan.cache_clear()
        for _ in range(2):
            with pytest.raises(IllConditioned):
                bivariate_extract(lambda t: t, degree=3, radii=(0.01, 0.01, 0.01))
        info = _extraction_plan.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    def test_cache_is_bounded(self):
        size = _extraction_plan.cache_info().maxsize
        assert size is not None
        for i in range(size + 3):
            bivariate_extract(lambda t: t, degree=1, radii=(0.01 + 1e-4 * i, 0.02))
        assert _extraction_plan.cache_info().currsize == size

    def test_import_fills_no_plan(self):
        import os
        import subprocess
        import sys

        import harmschwarz
        src = os.path.dirname(os.path.dirname(harmschwarz.__file__))
        code = ("import harmschwarz.cli, harmschwarz.jets as j; "
                "print(j._extraction_plan.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "0\n"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1, allow_nan=False,
                                       allow_infinity=False),
                    min_size=len(_POLY_TERMS), max_size=len(_POLY_TERMS)),
           st.integers(0, 5))
    def test_matches_per_call_least_squares(self, coeffs, top):
        # a polynomial of total degree <= top <= 5 is exact for the degree-3
        # extraction (every order it has in a kept frequency is a column)
        terms = {mn: c for mn, c in zip(_POLY_TERMS, coeffs) if sum(mn) <= top}

        def F(t):
            return sum(c * t ** m * np.conjugate(t) ** n
                       for (m, n), c in terms.items()) + 0 * t

        scale = max(max(abs(c) for c in terms.values()), 1e-300)
        got = bivariate_extract(F, degree=3)
        want = _lstsq_extract(F, 3, (0.01, 0.02, 0.03), 32)
        assert got.keys() == want.keys()
        for mn in got:
            assert abs(got[mn] - want[mn]) <= TOL_PLAN * scale
            assert abs(got[mn] - terms.get(mn, 0)) <= TOL_EXACT * scale
