"""The constructions of maps.py against the jet closures they replaced,
their JSON round trips, and the paper's invariance results on them."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmschwarz import (
    AffineMap,
    ExprFunction,
    affine_compose,
    catalog_map,
    classical_pre_schwarzian,
    classical_schwarzian,
    conjugate,
    disk_automorphism,
    group_apply,
    hyperbolic_sup,
    map_from_json,
    map_to_json,
    partner_map,
    pre_schwarzian,
    precompose,
    schwarzian,
    shear,
)
from harmschwarz.errors import ToolkitError
from harmschwarz.expr import AnalyticFunction
from harmschwarz.jets import (
    Jet,
    add_coeffs,
    check_finite,
    constant_coeffs,
    div_coeffs,
    mul_coeffs,
    sqrt_coeffs,
)
from harmschwarz.maps import CATALOG_NAMES, PRESERVING, REVERSING, HarmonicMap

# ---------------------------------------------------------------------------
# the reference: maps built from closures that run the jet recurrences,
# each result checked as a Jet is when built, as the constructions built
# them before they built expression trees


def _constant_like(value, a):
    return constant_coeffs(value, len(a) - 1, a.shape[1:])


def _checked(z, coeffs):
    check_finite(coeffs, z)
    return coeffs


def _horner(outer, inner):
    """The jet of outer o inner at inner's centre, from the jet of outer
    at inner's value: Horner's rule in inner - inner(centre)."""
    z, n = inner.center, inner.order
    shifted = inner.coeffs.copy()
    shifted[0] = 0.0
    acc = _constant_like(outer.coeffs[n], shifted)
    for k in range(n - 1, -1, -1):
        acc = _checked(z, mul_coeffs(acc, shifted))
        acc = _checked(z, add_coeffs(acc, _constant_like(outer.coeffs[k], acc)))
    return Jet._checked(z, acc)


class DerivedFunction(AnalyticFunction):
    """Analytic function defined by a jet-producing closure."""

    def __init__(self, jet_fn):
        self._jet_fn = jet_fn

    def jet(self, z, order):
        return self._jet_fn(z, order)

    def compose(self, inner):
        def jet_fn(z, n):
            ij = inner.jet(z, n)
            return _horner(self.jet(ij.value, n), ij)
        return DerivedFunction(jet_fn)

    def _apply(self, recurrence, other):
        """The closure of ``recurrence`` on the jets of self and other (a
        function, or a number as a constant jet)."""
        def jet_fn(z, n):
            a = self.jet(z, n).coeffs
            b = (other.jet(z, n).coeffs if isinstance(other, AnalyticFunction)
                 else _constant_like(other, a))
            return Jet(z, recurrence(a, b))
        return DerivedFunction(jet_fn)

    def __add__(self, other):
        return self._apply(add_coeffs, other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, AnalyticFunction):
            return self._apply(mul_coeffs, other)
        # a number scales every coefficient: numpy's broadcast product
        factor = np.asarray(other, dtype=np.complex128)
        return DerivedFunction(lambda z, n: Jet(z, self.jet(z, n).coeffs * factor))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(div_coeffs, other)


def _lift(fn):
    return fn if isinstance(fn, DerivedFunction) else DerivedFunction(fn.jet)


class ClosureMap(HarmonicMap):
    """h', g', omega and the sense of a map, as closures; derivative_data
    is HarmonicMap's."""

    def __init__(self, hp, gp, omega, sense, partner=None):
        self.hp, self.gp, self.sense = _lift(hp), _lift(gp), sense
        self._omega_is_quotient = omega is None
        self.omega = self.gp / self.hp if omega is None else _lift(omega)
        self._conjugate = partner
        self.label = "closures"

    def preserving(self):
        if self.sense == PRESERVING:
            return self
        return self._conjugate or _ref_conjugate(self)


def _ref_load(d):
    """map_from_json, with g' = omega*h' a closure."""
    if d["form"] == "dilatation":
        hp, omega = ExprFunction(d["h"]), ExprFunction(d["omega"])
        return ClosureMap(hp, _lift(omega) * _lift(hp), omega, d["sense"])
    h, g = ExprFunction(d["h"]), ExprFunction(d["g"])
    hp = ExprFunction(d["hp"]) if "hp" in d else h.derivative()
    omega = ExprFunction(d["omega"]) if "omega" in d else None
    gp = (_lift(omega) * _lift(hp) if "hp" in d and omega is not None
          else g.derivative())
    return ClosureMap(hp, gp, omega, d["sense"])


def _ref_conjugate(f):
    return ClosureMap(f.gp, f.hp, None,
                      REVERSING if f.sense == PRESERVING else PRESERVING, f)


def _ref_affine(A, f):
    a, b = A.a, A.b
    ac, bc = np.conjugate(a), np.conjugate(b)
    w = f.omega
    sense = f.sense if abs(a) > abs(b) else (
        REVERSING if f.sense == PRESERVING else PRESERVING)
    return ClosureMap(a * f.hp + b * f.gp, bc * f.hp + ac * f.gp,
                      (bc + ac * w) / (a + b * w), sense)


def _ref_precompose(f, phi):
    phip = _lift(phi.derivative())
    return ClosureMap(f.hp.compose(phi) * phip, f.gp.compose(phi) * phip,
                      f.omega.compose(phi), f.sense)


def _ref_group(f, kind, p):
    if kind == "Rp":
        return ClosureMap(p * f.hp, p * f.gp, f.omega, f.sense)
    if kind == "Rq":
        return ClosureMap(f.hp, p * f.gp, p * f.omega, f.sense)
    return _ref_affine(AffineMap(1.0, np.conjugate(p), 0.0), f)


def _ref_partner(f, a, mu, lam):
    ac = np.conjugate(a)
    w = f.omega

    den = 1.0 + ac * w

    def hp_jet(z, n):
        d = den.jet(z, n).coeffs
        d2 = _checked(z, mul_coeffs(d, d))
        dphi = _checked(z, div_coeffs(_constant_like(1.0 - abs(a) ** 2, d2), d2))
        scaled = _checked(z, f.hp.jet(z, n).coeffs * np.asarray(lam, dtype=np.complex128))
        return Jet(z, div_coeffs(scaled, _checked(z, sqrt_coeffs(dphi))))

    hp, omega = DerivedFunction(hp_jet), ((a + w) / den) * mu
    return ClosureMap(hp, omega * hp, omega, PRESERVING)


# ---------------------------------------------------------------------------

_PHI = disk_automorphism(0.3 - 0.2j)
_MU = cmath.exp(1.1j)

# name -> (construction, its closure reference, whether the tree performs
# the closure's operations): a closure scaled a jet by a number through
# numpy's broadcast product, which rounds otherwise than the jet product
# of the tree's constant (on an array, and at one point as Python complex
# numbers), and precompose substitutes phi into trees where the closure
# composed jets
CONSTRUCTIONS = {
    "conjugate": (conjugate, _ref_conjugate, True),
    "affine": (lambda f: affine_compose(AffineMap(1.2 - 0.3j, 0.4 + 0.2j, 2.0 + 1.0j), f),
               lambda f: _ref_affine(AffineMap(1.2 - 0.3j, 0.4 + 0.2j, 2.0 + 1.0j), f),
               False),
    "affine-reversing": (lambda f: affine_compose(AffineMap(0.5j, 0.9, -1.0), f),
                         lambda f: _ref_affine(AffineMap(0.5j, 0.9, -1.0), f), False),
    "precompose": (lambda f: precompose(f, _PHI), lambda f: _ref_precompose(f, _PHI),
                   False),
    "Rp": (lambda f: group_apply(f, "Rp", 1.5 - 0.5j),
           lambda f: _ref_group(f, "Rp", 1.5 - 0.5j), False),
    "Rq": (lambda f: group_apply(f, "Rq", _MU), lambda f: _ref_group(f, "Rq", _MU), False),
    "I": (lambda f: group_apply(f, "I", 0.3 - 0.2j),
          lambda f: _ref_group(f, "I", 0.3 - 0.2j), False),
    "partner": (lambda f: partner_map(f, 0.5 - 0.1j, _MU, 2.0),
                lambda f: _ref_partner(f, 0.5 - 0.1j, _MU, 2.0), False),
}

SHEARS = {
    "shear-koebe": lambda: shear(ExprFunction("z/(1-z)"), ExprFunction("0.5*z"), 0.3),
    "shear-strip": lambda: shear(ExprFunction("0.5*log((1+z)/(1-z))"),
                                 ExprFunction("z^2")),
}

# the last array reaches the rim, where most of these maps fail
POINTS = {"0": 0.0, "0.3+0.1i": 0.3 + 0.1j, "-0.45+0.2i": -0.45 + 0.2j,
          "array": np.array([0.3 + 0.1j, -0.45 + 0.2j, 0.0, 0.1 - 0.7j]),
          "rim": np.array([0.3 + 0.1j, 1.0, -1.0])}


def _base(name):
    return SHEARS[name]() if name in SHEARS else catalog_map(name)


def _outcome(f, z):
    """The jets of derivative_data at orders 2/2, or the error class and
    its point."""
    try:
        return f.derivative_data(z, 2, 2)
    except ToolkitError as exc:
        return type(exc), exc.at


def _failed(outcome):
    return isinstance(outcome[0], type)


def _same_bits(a, b):
    if _failed(a) or _failed(b):
        return a == b
    return all(x.coeffs.tobytes() == y.coeffs.tobytes() for x, y in zip(a, b))


class TestAgainstClosures:
    @pytest.mark.parametrize("z", POINTS, ids=list(POINTS))
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    @pytest.mark.parametrize("base", CATALOG_NAMES + tuple(SHEARS))
    def test_derivative_data(self, base, construction, z):
        build, reference, exact = CONSTRUCTIONS[construction]
        z = POINTS[z]
        f = _base(base)
        got = _outcome(build(f), z)
        want = _outcome(reference(_ref_load(map_to_json(f))), z)
        if exact or _failed(got) or _failed(want):
            assert _same_bits(got, want)
            return
        for x, y in zip(got, want):
            assert x.coeffs.shape == y.coeffs.shape
            scale = np.maximum(np.abs(y.coeffs), 1.0)
            assert np.all(np.abs(x.coeffs - y.coeffs) <= 1e-13 * scale)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    @pytest.mark.parametrize("base", CATALOG_NAMES)
    def test_reload_is_bitwise(self, base, construction):
        F = CONSTRUCTIONS[construction][0](catalog_map(base))
        d = map_to_json(F)
        G = map_from_json(d)
        assert map_to_json(G) == d
        for z in POINTS.values():
            assert _same_bits(_outcome(G, z), _outcome(F, z))

    def test_reloaded_conjugate_of_koebe_norm(self):
        g = map_from_json(map_to_json(conjugate(catalog_map("K"))))
        assert hyperbolic_sup(g, "S").value == 9.5

    @pytest.mark.parametrize("build", [
        lambda f: affine_compose(AffineMap(2.0, 0.5, 1.0), f),
        lambda f: precompose(f, disk_automorphism(0.3)),
    ], ids=["affine c != 0", "precompose phi(0) != 0"])
    def test_dilatation_map_with_h0_nonzero(self, build):
        # in memory the antiderivative starts at h(0); the JSON cannot say so
        sh = SHEARS["shear-koebe"]()
        F = build(sh)
        assert F.form == "dilatation" and F.h.at_zero != 0
        with pytest.raises(ValueError, match=r"h\(0\) != 0"):
            map_to_json(F)


# ---------------------------------------------------------------------------
# the paper's invariance results on generated affine maps and automorphisms

_TARGETS = ("K", "L", "S1", "S2", "K2", "shear-koebe")
_TEST_POINTS = (0.2 - 0.1j, -0.3 + 0.25j)


@st.composite
def _affine_maps(draw):
    """a*w + b*conj(w) + c with |b|/|a| in [0, 0.8] or [1.25, 3]."""
    a = draw(st.floats(0.3, 2.0)) * cmath.exp(1j * draw(st.floats(0, 6.3)))
    ratio = draw(st.one_of(st.floats(0.0, 0.8), st.floats(1.25, 3.0)))
    b = ratio * abs(a) * cmath.exp(1j * draw(st.floats(0, 6.3)))
    c = draw(st.sampled_from([0.0, 1.0 - 0.5j]))
    return AffineMap(a, b, c)


_AUTOMORPHISM_PARAMETERS = st.builds(
    lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.6), st.floats(0, 6.3))


def _close(x, y, tol):
    return abs(x - y) <= tol * max(1.0, abs(y))


def _check_round_trip(F):
    if F.form == "dilatation" and (F.h.at_zero or F.g.at_zero):
        with pytest.raises(ValueError):
            map_to_json(F)
        return
    G = map_from_json(map_to_json(F))
    for z in _TEST_POINTS:
        assert _same_bits(_outcome(G, z), _outcome(F, z))


@given(st.sampled_from(_TARGETS), _affine_maps(), _AUTOMORPHISM_PARAMETERS)
@settings(max_examples=40, deadline=None)
def test_invariance_chain_rule_and_round_trip(name, A, a):
    f = _base(name)
    F = affine_compose(A, f)
    assert F.sense == (PRESERVING if abs(A.a) > abs(A.b) else REVERSING)
    phi = disk_automorphism(a)
    P = precompose(f, phi)
    for z in _TEST_POINTS:
        assert _close(pre_schwarzian(F, z), pre_schwarzian(f, z), 1e-10)
        assert _close(schwarzian(F, z), schwarzian(f, z), 1e-10)
        j = phi.jet(z, 1)
        w, dw = complex(j.value), complex(j.coeffs[1])
        assert _close(pre_schwarzian(P, z),
                      pre_schwarzian(f, w) * dw + classical_pre_schwarzian(phi, z), 1e-9)
        assert _close(schwarzian(P, z),
                      schwarzian(f, w) * dw ** 2 + classical_schwarzian(phi, z), 1e-9)
    _check_round_trip(F)
    _check_round_trip(P)
