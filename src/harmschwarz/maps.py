"""Planar harmonic mappings f = h + conj(g) and their constructions.

A map is held in canonical form: the analytic part ``h``, the
co-analytic part ``g``, their derivatives h' and g', the dilatation
omega = g'/h', and a sense flag.  h', g' and omega are expression trees,
which the constructions combine, so every map runs on the tape and
serializes.  Two concrete shapes occur:

* parts form - h and g are explicit, and h' and omega may be (the
  catalog: a table of map JSON that ``map_from_json`` loads);
* dilatation form - h' and omega are explicit, h and g exist only as
  antiderivatives with h(0) = g(0) = 0, valued by Gauss-Legendre
  integration along [0, z] (the shear construction, partner maps).

Derivative-only consumers (all the Schwarzian operators, the norm
searches) never trigger integration: ``derivative_data`` serves jets of
h' and omega directly in either form.  Values (``HarmonicMap.value``,
``values`` and ``evaluate``, one check) exist on the open disk only: a
point outside raises DomainError.

Sense-reversing maps are stored as such; anything that needs a
sense-preserving representative uses the conjugate, built once per map
(P and S are invariant under conjugation, the Jacobian flips sign).
"""

import cmath
import math

import numpy as np

from .errors import (
    BranchPointAtCenter,
    DivisionByZeroConstantTerm,
    DomainError,
    ParameterOutOfRange,
    UnknownCatalogName,
)
from .expr import (
    AnalyticFunction,
    Call,
    Const,
    ExprFunction,
    Var,
    _chain,
    compose,
    trapped,
)
from .jets import Jet, div_coeffs, first_point
from .quadrature import DEFAULT_TOL, integrate_segments

PRESERVING = "preserving"
REVERSING = "reversing"


def _flip(sense):
    return REVERSING if sense == PRESERVING else PRESERVING


def _finite(what, *values):
    """``values`` as complex numbers, each finite, else ParameterOutOfRange."""
    out = tuple(complex(v) for v in values)
    if not all(map(cmath.isfinite, out)):
        raise ParameterOutOfRange(f"{what} needs finite parameters, got {out}")
    return out


def _scaled(c, fn):
    """The AST of c*fn for a number c."""
    return _chain(Const(c), ("*", fn.ast))


# ---------------------------------------------------------------------------
# Moebius machinery


class MobiusMap:
    """w -> (a*w + b)/(c*w + d) with ad - bc != 0."""

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = _finite("Moebius map", a, b, c, d)
        if self.a * self.d - self.b * self.c == 0:
            raise ParameterOutOfRange("degenerate Moebius map: ad - bc = 0")

    def __call__(self, w):
        return (self.a * w + self.b) / (self.c * w + self.d)

    def inverse(self):
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def as_function(self):
        num = _chain(_chain(Const(self.a), ("*", Var())), ("+", Const(self.b)))
        den = _chain(_chain(Const(self.c), ("*", Var())), ("+", Const(self.d)))
        return ExprFunction(_chain(num, ("/", den)))

    def __repr__(self):
        return f"MobiusMap({self.a}, {self.b}, {self.c}, {self.d})"


class HarmonicMobius:
    """T + alpha*conj(T) with T Moebius and |alpha| < 1."""

    def __init__(self, T, alpha):
        (alpha,) = _finite("harmonic Moebius", alpha)
        if abs(alpha) >= 1:
            raise ParameterOutOfRange("harmonic Moebius needs |alpha| < 1")
        self.T = T
        self.alpha = alpha

    def __call__(self, w):
        t = self.T(w)
        return t + self.alpha * np.conjugate(t)

    def invert(self, w):
        """Inverse map: first undo the affine part, then the Moebius."""
        a = self.alpha
        u = (w - a * np.conjugate(w)) / (1.0 - abs(a) ** 2)
        return self.T.inverse()(u)

    def as_harmonic_map(self):
        t = self.T.as_function()
        return HarmonicMap.from_parts(
            t, ExprFunction(_scaled(self.alpha.conjugate(), t)),
            omega=ExprFunction(Const(self.alpha.conjugate())), label="harmonic-mobius")


class AffineMap:
    """w -> a*w + b*conj(w) + c with |a| != |b|."""

    def __init__(self, a, b, c):
        self.a, self.b, self.c = _finite("affine map", a, b, c)
        if abs(self.a) == abs(self.b):
            raise ParameterOutOfRange("degenerate affine map: |a| = |b|")

    def __call__(self, w):
        return self.a * w + self.b * np.conjugate(w) + self.c

    def __repr__(self):
        return f"AffineMap({self.a}, {self.b}, {self.c})"


# ---------------------------------------------------------------------------
# antiderivatives (dilatation-form parts)


class AntiderivativeFunction(AnalyticFunction):
    """h(z) = h(0) + integral of df over [0, z]: the one function without a
    tree.  h(0) = ``at_zero`` is 0 but where map_to_json refuses the map."""

    def __init__(self, df, at_zero=0j):
        self.df = df
        self.at_zero = complex(at_zero)

    def value(self, z, tol=DEFAULT_TOL):
        start = np.zeros(np.shape(z))  # one segment 0 -> z per point
        value = integrate_segments(self.df.value, start, z, tol=tol)
        return value + self.at_zero if self.at_zero else value

    def jet(self, z, order):
        shape = np.shape(z)
        coeffs = np.zeros((order + 1,) + shape, dtype=np.complex128)
        coeffs[0] = self.value(z)
        if order >= 1:
            dj = self.df.jet(z, order - 1)
            for k in range(1, order + 1):
                coeffs[k] = dj.coeffs[k - 1] / k
        return Jet(z, coeffs)


# ---------------------------------------------------------------------------
# the central object


class HarmonicMap:
    """Canonical pair (h, g) with h', g', dilatation omega and a sense flag.

    g' is kept apart from omega*h': it is the h' of a reversing map's
    conjugate, and omega*h' is 0*inf where h' vanishes.

    ``omega=None`` makes omega the quotient g'/h' (``from_parts``
    without an omega, every ``conjugate``); then the jet of omega divides
    by the jet of h': see ``derivative_data``.
    """

    def __init__(self, h, g, hp, gp, omega, sense, label=""):
        if sense not in (PRESERVING, REVERSING):
            raise ParameterOutOfRange(f"unknown sense flag {sense!r}")
        self.h = h
        self.g = g
        self.hp = hp
        self.gp = gp
        self._omega_is_quotient = omega is None
        self.omega = omega or ExprFunction(_chain(gp.ast, ("/", hp.ast)))
        self.sense = sense
        self.label = label
        self._conjugate = None  # conj(self) once built; see conjugate()

    @property
    def form(self):
        """What map_to_json writes: "dilatation" (h', omega) when h is an
        antiderivative of h', else "parts" (h, g)."""
        if isinstance(self.h, AntiderivativeFunction):
            return "dilatation"
        return "parts"

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_parts(cls, h, g, omega=None, sense=PRESERVING, label=""):
        return cls(h, g, h.derivative(), g.derivative(), omega, sense,
                   label=label)

    @classmethod
    def from_dilatation(cls, hp, omega, sense=PRESERVING, label=""):
        """Map defined by h' and omega, normalized by h(0) = g(0) = 0."""
        gp = ExprFunction(_chain(omega.ast, ("*", hp.ast)))
        return cls(AntiderivativeFunction(hp), AntiderivativeFunction(gp),
                   hp, gp, omega, sense, label=label)

    def __repr__(self):
        return f"HarmonicMap({self.label or self.form}, sense={self.sense})"

    # -- evaluation --------------------------------------------------------

    def preserving(self):
        """Sense-preserving representative (self, or its conjugate)."""
        return self if self.sense == PRESERVING else conjugate(self)

    def value(self, z):
        """f(z) = h(z) + conj(g(z)); see ``evaluate``, which checks the disk."""
        return evaluate(self, z)

    def values(self, zs):
        return self.value(np.asarray(zs, dtype=np.complex128))

    def _hp_omega_jets(self, z, order_h, order_w):
        """Jets of h' and omega at z (a point or an array); local
        univalence is not checked.

        They are evaluated under numpy's floating-point trap
        (``expr.trapped``), at one point as on an array, in a fixed
        order, so the first failure is reported: h' through ``order_h``,
        then omega; for a quotient omega = g'/h', g' through ``order_w``,
        then h' through ``order_w`` only if that is higher (the division
        reads the jet of h' at hand).  A jet division by zero or a branch
        point at the centre raises DomainError naming its first point.
        """
        return trapped(self._evaluate_hp_omega, z, order_h, order_w)

    def _evaluate_hp_omega(self, z, order_h, order_w):
        """The jets of ``_hp_omega_jets``, under the error state it sets."""
        try:
            hpj = self.hp.jet(z, order_h)
            if not self._omega_is_quotient:
                return hpj, self.omega.jet(z, order_w)
            num = self.gp.jet(z, order_w).coeffs
            den = (hpj if order_w <= order_h else self.hp.jet(z, order_w)).coeffs
            if num.ndim == 1:  # one point: the recurrence on Python numbers
                num, den = num.tolist(), den.tolist()
            return hpj, Jet(z, div_coeffs(num, den[:len(num)]))
        except (DivisionByZeroConstantTerm, BranchPointAtCenter) as exc:
            raise DomainError(f"derivative data unavailable: {exc}",
                              at=first_point(z, exc.mask)) from exc

    def derivative_data(self, z, order_h=2, order_w=2):
        """Jets of h' and omega of the preserving representative at z.

        A quotient omega = g'/h' evaluates h' once, or twice when omega
        needs the higher order.
        Checks local univalence lazily: raises DomainError naming the
        first offending point when h' = 0 or |omega| >= 1, and the first
        point where a jet division meets a zero divisor or a branch
        point sits at the centre.
        """
        hpj, wj = self.preserving()._hp_omega_jets(z, order_h, order_w)
        # ``.any()`` of a numpy bool, scalar or array, as np.any reads it
        bad = hpj.value == 0
        if bad.any():
            raise DomainError("h' vanishes", at=first_point(z, bad))
        bad = abs(wj.value) >= 1.0
        if bad.any():
            raise DomainError("|omega| >= 1 (map not sense-preserving)",
                              at=first_point(z, bad))
        return hpj, wj


# ---------------------------------------------------------------------------
# catalog

# K, L, S1, S2, K2 are shears of k, l, s in closed form, so evaluation
# never integrates; the factored hp avoids the quotient-rule cancellation
# of differentiating h near the rim (h' -> 0 at z = -1 for K), and
# g' = omega*hp is cancellation free too.  The analytic maps have
# g = omega = 0.  k = u^2 - 1/4 with u = (1+z)/(2-2z) gives k' = 2u*u',
# free of the cancellation near z = -1 that lifted ||S_k|| above 6 (s
# keeps its text: one giving s' = 1/(1-z^2) lifts ||S_s|| above 2).
_CATALOG = {
    "K": {"h": "(z-0.5*z^2+z^3/6)/(1-z)^3", "g": "(0.5*z^2+z^3/6)/(1-z)^3",
          "hp": "(1+z)/(1-z)^4", "omega": "z"},
    "L": {"h": "(z-0.5*z^2)/(1-z)^2", "g": "-(0.5*z^2)/(1-z)^2",
          "hp": "1/(1-z)^3", "omega": "-z"},
    "S1": {"h": "0.5*(z/(1-z)+0.5*log((1+z)/(1-z)))",
           "g": "0.5*(z/(1-z)-0.5*log((1+z)/(1-z)))",
           "hp": "1/((1-z)^2*(1+z))", "omega": "z"},
    "S2": {"h": "0.5*(z/(1-z^2)+0.5*log((1+z)/(1-z)))",
           "g": "0.5*(z/(1-z^2)-0.5*log((1+z)/(1-z)))",
           "hp": "1/(1-z^2)^2", "omega": "z^2"},
    "K2": {"h": "(1/(1-z)^3-1)/3", "g": "(z^2-z+1/3)/(1-z)^3-1/3",
           "hp": "1/(1-z)^4", "omega": "z^2"},
    "k": {"h": "(0.5*(1+z)/(1-z))^2-0.25", "g": "0", "omega": "0"},
    "l": {"h": "z/(1-z)", "g": "0", "omega": "0"},
    "s": {"h": "0.5*log((1+z)/(1-z))", "g": "0", "omega": "0"},
    "q2": {"h": "z/(1-z^2)", "g": "0", "omega": "0"},
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name):
    """Named maps: harmonic K, L, S1, S2, K2 as the ``catalog_map``, and
    analytic k, l, s, q2 (g = 0) as its analytic part h, an ExprFunction."""
    f = catalog_map(name)
    return f.h if _CATALOG[name]["g"] == "0" else f


def catalog_map(name):
    """Any catalog name as a HarmonicMap: map_from_json of its entry."""
    if name not in _CATALOG:
        raise UnknownCatalogName(f"unknown catalog name {name!r}; "
                                 f"known: {', '.join(CATALOG_NAMES)}")
    return map_from_json({"label": name, "form": "parts", **_CATALOG[name]})


# ---------------------------------------------------------------------------
# constructions


def shear(phi, omega, theta=0.0, label=None):
    """Shear construction (Clunie & Sheil-Small 1984): the harmonic map
    with h - e^{2i theta} g = phi - phi(0) and dilatation omega,
    normalized by h(0) = g(0) = 0 like every dilatation-form map.

    phi and omega must carry expression ``source`` text: h' =
    phi'/(1 - e^{2i theta} omega) is built once as the expression
    ``d(phi)/(1-c*(omega))`` with c = e^{2i theta}, so
    ``map_from_json(map_to_json(f))`` rebuilds exactly this map.  A point
    where the denominator vanishes raises DivisionByZeroConstantTerm with
    the AST path ``[ast /div]``.
    """
    theta = float(theta)
    if not math.isfinite(2.0 * theta):
        raise ParameterOutOfRange(
            f"shear needs a theta with 2*theta finite, got {theta!r}")
    if phi.source is None or omega.source is None:
        raise ParameterOutOfRange(
            "shear needs phi and omega with expression sources")
    den = _chain(Const(1), ("-", _scaled(cmath.exp(2j * theta), omega)))
    hp = ExprFunction(_chain(Call("d", phi.ast), ("/", den)))
    return HarmonicMap.from_dilatation(  # omega's tree, printed canonically
        hp, ExprFunction(omega.ast), label=label or f"shear({phi.source}, theta={theta!r})")


def _linear(terms, offset=0j):
    """(F, F') for F = offset + the sum of c*u over ``terms`` (c, u, u')."""
    def tree(i, *last):
        first, *rest = [_scaled(term[0], term[i]) for term in terms]
        return _chain(first, *[("+", node) for node in rest], *last)

    dpart = ExprFunction(tree(2))
    if isinstance(terms[0][1], AntiderivativeFunction):
        at_zero = sum(c * u.at_zero for c, u, _ in terms) + offset
        return AntiderivativeFunction(dpart, at_zero), dpart
    return ExprFunction(tree(1, *([("+", Const(offset))] if offset else []))), dpart


def affine_compose(A, f):
    """Post-composition A o f for an affine A(w) = a*w + b*conj(w) + c.

    Canonical parts: H = a*h + b*g + c, G = conj(b)*h + conj(a)*g; the
    dilatation becomes (conj(b) + conj(a)*omega)/(a + b*omega).  The
    sense flips when |b| > |a|.
    """
    a, b, c = A.a, A.b, A.c
    ac, bc = a.conjugate(), b.conjugate()
    H, Hp = _linear([(a, f.h, f.hp), (b, f.g, f.gp)], c)
    G, Gp = _linear([(bc, f.h, f.hp), (ac, f.g, f.gp)])
    num = _chain(Const(bc), ("+", _scaled(ac, f.omega)))
    den = _chain(Const(a), ("+", _scaled(b, f.omega)))
    sense = f.sense if abs(a) > abs(b) else _flip(f.sense)
    return HarmonicMap(H, G, Hp, Gp, ExprFunction(_chain(num, ("/", den))),
                       sense, label=f"affine({f.label})")


def precompose(f, phi):
    """f o phi for analytic phi mapping into f's domain: phi's tree for z."""
    inner = phi.ast

    def pulled_back(part, dpart):
        node = dpart.ast
        if type(node) is Call and node.fn == "d":  # (u' o phi)*phi' = d(u o phi)
            dnew = ExprFunction(Call("d", compose(node.arg, inner)))
        else:
            dnew = ExprFunction(_chain(compose(node, inner), ("*", Call("d", inner))))
        if isinstance(part, AntiderivativeFunction):
            return AntiderivativeFunction(dnew, part.value(complex(phi.value(0j)))), dnew
        return ExprFunction(compose(part.ast, inner)), dnew

    H, Hp = pulled_back(f.h, f.hp)
    G, Gp = pulled_back(f.g, f.gp)
    omega = None if f._omega_is_quotient else ExprFunction(compose(f.omega.ast, inner))
    return HarmonicMap(H, G, Hp, Gp, omega, f.sense,
                       label=f"{f.label or 'f'}o{phi.source or 'phi'}")


def conjugate(f):
    """conj(f): swaps the canonical parts and flips the sense flag.

    A pair is built once: the conjugate is stored on f and f on it, so
    ``conjugate(f) is conjugate(f)`` and ``conjugate(conjugate(f)) is f``.
    """
    if f._conjugate is None:
        out = HarmonicMap(f.g, f.h, f.gp, f.hp, None, _flip(f.sense),
                          label=f"conj({f.label})")
        f._conjugate, out._conjugate = out, f
    return f._conjugate


def group_apply(f, kind, param):
    """Operators generating the group that preserves Jacobian homothety:

    - ``Rp``: f -> lambda*h + conj(lambda*g), lambda != 0;
    - ``Rq``: f -> h + conj(mu*g), |mu| = 1;
    - ``I``:  f -> f + conj(a*f), a in the unit disk.
    """
    (param,) = _finite(f"group element {kind!r}", param)
    if kind == "Rp":
        if param == 0:
            raise ParameterOutOfRange("Rp requires lambda != 0")
        H, Hp = _linear([(param, f.h, f.hp)])
        G, Gp = _linear([(param, f.g, f.gp)])
        return HarmonicMap(H, G, Hp, Gp, f.omega, f.sense,
                           label=f"Rp({f.label})")
    if kind == "Rq":
        if abs(abs(param) - 1.0) > 1e-12:
            raise ParameterOutOfRange("Rq requires |mu| = 1")
        G, Gp = _linear([(param, f.g, f.gp)])
        return HarmonicMap(f.h, G, f.hp, Gp, ExprFunction(_scaled(param, f.omega)),
                           f.sense, label=f"Rq({f.label})")
    if kind == "I":
        if abs(param) >= 1:
            raise ParameterOutOfRange("I requires |a| < 1")
        # I_a(f) = f + conj(a f); dilatation becomes phi_a o omega
        return affine_compose(AffineMap(1.0, param.conjugate(), 0.0), f)
    raise ParameterOutOfRange(f"unknown group element kind {kind!r}")


def disk_automorphism(a):
    """phi_a(z) = (z + a)/(conj(a) z + 1), an automorphism of the disk."""
    (a,) = _finite("disk automorphism", a)
    if abs(a) >= 1:
        raise ParameterOutOfRange("disk automorphism requires |a| < 1")
    return MobiusMap(1.0, a, a.conjugate(), 1.0).as_function()


def partner_map(f, a, mu, lam):
    """The equal-pre-Schwarzian partner of f for parameters (a, mu, lam):
    omega_F = mu*(phi_a o omega), H' = lam*h'/sqrt(phi_a' o omega).

    These are exactly the maps sharing P_f (their Jacobians are
    homothetic).  Since phi_a'(w) = (1-|a|^2)/(1+conj(a)w)^2 never
    vanishes on the disk, the square root is branch-safe pointwise.
    """
    if f.sense != PRESERVING:
        raise DomainError("partner_map requires a sense-preserving map")
    a, mu, lam = _finite("partner_map", a, mu, lam)
    if abs(a) >= 1:
        raise ParameterOutOfRange("partner_map requires |a| < 1")
    if abs(abs(mu) - 1.0) > 1e-12:
        raise ParameterOutOfRange("partner_map requires |mu| = 1")
    if lam == 0:
        raise ParameterOutOfRange("partner_map requires lambda != 0")
    den = _chain(Const(1), ("+", _scaled(a.conjugate(), f.omega)))
    phi_a = _chain(_chain(Const(a), ("+", f.omega.ast)), ("/", den))
    dphi_a = _chain(Const(1.0 - abs(a) ** 2), ("/", _chain(den, ("*", den))))
    hp = _chain(f.hp.ast, ("*", Const(lam)), ("/", Call("sqrt", dphi_a)))
    omega = _chain(Const(mu), ("*", phi_a))
    return HarmonicMap.from_dilatation(ExprFunction(hp), ExprFunction(omega),
                                       label=f"partner({f.label})")


def evaluate(f, z, tol=DEFAULT_TOL):
    """f(z) = h(z) + conj(g(z)).

    In dilatation form the parts are integrated along [0, z] with
    adaptive Gauss-Legendre to absolute tolerance ``tol``; the segment
    must stay inside the unit disk.  A point (of an array, the first)
    outside the open disk raises DomainError.
    """
    _require_in_disk(z)

    def part_value(part):
        if isinstance(part, AntiderivativeFunction):
            return part.value(z, tol=tol)
        return part.value(z)

    return part_value(f.h) + np.conjugate(part_value(f.g))


def _require_in_disk(z):
    """Raise DomainError naming the first point of ``z`` (a point or an
    array) outside the open unit disk."""
    bad = np.abs(z) >= 1
    if np.any(bad):
        raise DomainError("evaluation point outside the open unit disk",
                          at=first_point(z, bad))


def _increments(f, z0, t):
    """f(z0 + t) - f(z0) at the offsets ``t`` (an array) from z0.

    Parts form takes the differences of the closed forms of h and g.
    Dilatation form integrates the pair (h', g') along the segments
    z0 -> z0 + t in one batch, with g' = omega*h' read off one value of
    h' per node unless omega is the quotient g'/h'.  z0, then every
    z0 + t, must lie in the open disk, else DomainError as ``evaluate``
    names it.
    """
    _require_in_disk(z0)
    z = z0 + t
    _require_in_disk(z)
    if f.form == "parts":
        h0, g0 = f.h.value(z0), f.g.value(z0)
        dh = f.h.value(z) - h0
        dg = f.g.value(z) - g0
    else:
        def pair(nodes):
            hp = f.hp.value(nodes)
            gp = f.gp.value(nodes) if f._omega_is_quotient else f.omega.value(nodes) * hp
            return np.stack((hp, gp))

        dh, dg = integrate_segments(pair, np.full_like(z, z0), z)
    return dh + np.conjugate(dg)


def _harmonic_germ(f, z0):
    """(alpha, h'(z0), kappa) of a sense-preserving f at z0 by ``derivative_data``,
    with alpha = conj(omega(z0)) and kappa = h''(z0)/(2 h'(z0)): what its best
    harmonic Moebius approximation reads besides f(z0)."""
    hpj, wj = f.derivative_data(z0, 1, 0)
    hp = complex(hpj.value)
    hpp = complex(hpj.coeffs[1])  # h'' (first coefficient of the h' jet)
    return complex(np.conjugate(wj.value)), hp, hpp / (2.0 * hp)


def best_harmonic_mobius(f, z0):
    """Best harmonic Moebius approximation M = T + alpha*conj(T) of f at z0.

    Matches value, both first Wirtinger derivatives, and the second
    z-derivative of f(z0 + t) at t = 0: alpha = conj(omega(z0)), T(0) =
    (f(z0) - alpha*conj(f(z0)))/(1 - |alpha|^2), T'(0) = h'(z0), T''(0)
    = h''(z0), realized as T(t) = a0 + a1 t/(1 - (a2/a1) t).
    """
    f = f.preserving()
    alpha, hp, kappa = _harmonic_germ(f, z0)
    v = complex(f.value(z0))
    a0 = (v - alpha * np.conjugate(v)) / (1.0 - abs(alpha) ** 2)
    T = MobiusMap(hp - a0 * kappa, a0, -kappa, 1.0)
    return HarmonicMobius(T, alpha)


# ---------------------------------------------------------------------------
# JSON interchange


def map_to_json(f):
    """Serializable dict {label, form, h, g|omega, sense}.

    Parts form carries the text of h and g, and of h' (``hp``) and omega
    where h' is a tree of its own (not d(h) on h's own tree, as
    ``h.derivative()`` builds it) or omega is explicit.
    Dilatation form (h an antiderivative) carries the text of h' in the
    ``h`` field (h of a general shear has no closed form) plus omega;
    ValueError unless h(0) = g(0) = 0.  A sense-reversing map writes the
    h' and omega of its conjugate, which the operators read.
    """
    rep = f.preserving()
    if f.form == "parts":
        fields = {"h": f.h, "g": f.g}
        hp = rep.hp.ast
        if not (type(hp) is Call and hp.fn == "d" and hp.arg is rep.h.ast):
            fields["hp"] = rep.hp
        if "hp" in fields or not rep._omega_is_quotient:
            fields["omega"] = rep.omega
    else:
        if f.h.at_zero or f.g.at_zero:
            raise ValueError("h(0) != 0: the dilatation JSON fixes h(0) = g(0) = 0")
        fields = {"h": rep.hp, "omega": rep.omega}
    return {"label": f.label, "form": f.form,
            **{key: fn.source for key, fn in fields.items()},
            "sense": f.sense}


def map_from_json(d):
    """The map of a map_to_json dict, built from every text it carries.

    Parts form derives only what is missing: h' = d/dz h without
    ``hp``, omega = g'/h' without ``omega``, and g' = omega*h' when both
    texts are given, else d/dz g.  Dilatation form reads h' from ``h``.
    A reversing map is the conjugate of the one with h and g swapped.
    """
    form, sense = d.get("form"), d.get("sense", PRESERVING)
    label = d.get("label", "")
    if sense == REVERSING:
        swapped = {"h": d["g"], "g": d["h"]} if form == "parts" else {}
        f = conjugate(map_from_json({**d, **swapped, "sense": PRESERVING}))
        f.label = label
        return f
    if form == "dilatation":
        return HarmonicMap.from_dilatation(
            ExprFunction(d["h"]), ExprFunction(d["omega"]),
            sense=sense, label=label)
    if form != "parts":
        raise ValueError(f"unknown map form {form!r}")
    h, g = ExprFunction(d["h"]), ExprFunction(d["g"])
    hp = ExprFunction(d["hp"]) if "hp" in d else h.derivative()
    omega = ExprFunction(d["omega"]) if "omega" in d else None
    gp = (ExprFunction(_chain(omega.ast, ("*", hp.ast))) if "hp" in d and omega
          else g.derivative())
    return HarmonicMap(h, g, hp, gp, omega, sense, label=label)
