"""Pre-Schwarzian and Schwarzian operators for harmonic maps.

All primary-path operators read jets of h' and omega off the map (no
values, so dilatation-form maps never integrate here) and assemble the
closed formulas:

    P_f = h''/h' - conj(w) w' / (1 - |w|^2)
    S_f = Sh + conj(w)/(1-|w|^2) * ((h''/h') w' - w'') - 3/2 (w' conj(w)/(1-|w|^2))^2

with w the dilatation.  These formulas, the Jacobian,
``dbar_pre_schwarzian`` and ``mixed_laplacian_schwarzian`` compute
1 - |w|^2 as (1 - |w|)(1 + |w|) (``_one_minus_sq``) to limit
cancellation near the boundary.  Three
places compute 1 - |alpha|^2, with alpha = conj(w(z0)), directly:
``_mobius_deviation`` (the Tamanoi oracle), ``maps.best_harmonic_mobius``
and ``maps.HarmonicMobius.invert``.

Three independent oracles cross-validate S_f:

* ``lemma1_schwarzian``   - classical Schwarzian of h - conj(w(z0)) g;
* ``schwarzian_via_jacobian_fd`` - delta_zz - delta_z^2/2 for
  delta = log J_f, by finite differences on a 5x5 stencil;
* ``tamanoi_schwarzian``  - 6(c30 - c20^2) from the bivariate expansion
  of the deviation from the best harmonic Moebius approximation, sampled
  from the increments f(z0 + t) - f(z0) (one quadrature pass from z0 on
  a dilatation-form map) under numpy's floating-point trap.

Everything accepts a scalar evaluation point or an ndarray of points
(the finite-difference and Tamanoi oracles take one point).
Sense-reversing maps are routed through their conjugate (P and S are
conjugation invariant; the Jacobian changes sign).
"""

import math

import numpy as np

from .errors import (
    CriticalPoint,
    DilatationZeroNeedsQ,
    DomainError,
    QMismatch,
    StencilOutsideDomain,
)
from .expr import trapped
from .jets import (
    bivariate_extract,
    check_finite,
    derivative_coeffs,
    first_point,
    mul_coeffs,
    sqrt_coeffs,
)
from .maps import PRESERVING, _harmonic_germ, _increments

_FD_STEP = 1e-3

# fourth-order central differences for f' and f'' on offsets -2..2, step _FD_STEP
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0 / _FD_STEP
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0 / _FD_STEP ** 2


def _one_minus_sq(wabs):
    return (1.0 - wabs) * (1.0 + wabs)


def classical_pre_schwarzian(phi, z):
    """P(phi) = phi''/phi' for an analytic function."""
    j = phi.jet(z, 2)
    d1 = j.coeffs[1]
    _require_noncritical(z, d1)
    return 2.0 * j.coeffs[2] / d1


def _require_noncritical(z, d1):
    """Raise CriticalPoint, naming the first point in ``at``, where phi'
    (``d1``) vanishes."""
    zero = d1 == 0
    if np.any(zero):
        raise CriticalPoint("phi' vanishes at the evaluation point",
                            at=first_point(z, zero))


def _schwarzian_from_derivative_jet(u):
    """Classical Schwarzian from the coefficients of a jet of phi'
    (order >= 2); every S_h in the package comes from here."""
    d1 = u[0]
    d2 = u[1]
    d3 = 2.0 * u[2]
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def classical_schwarzian(phi, z):
    """S(phi) = (P phi)' - (P phi)^2/2 for an analytic function."""
    u = derivative_coeffs(phi.jet(z, 3).coeffs)
    check_finite(u, z)
    _require_noncritical(z, u[0])
    return _schwarzian_from_derivative_jet(u)


def _pre_schwarzian_from_jets(hpj, wj):
    """(P_f, 1 - |w|^2) from the jets of h' and w (order >= 1)."""
    w, wp = wj.coeffs[0], wj.coeffs[1]
    denom = _one_minus_sq(np.abs(w))
    return hpj.coeffs[1] / hpj.coeffs[0] - np.conjugate(w) * wp / denom, denom


def pre_schwarzian(f, z):
    """P_f = (log J_f)_z; reduces to h''/h' for analytic maps."""
    hpj, wj = f.derivative_data(z, order_h=1, order_w=1)
    return _pre_schwarzian_from_jets(hpj, wj)[0]


def schwarzian(f, z):
    """S_f = (P_f)_z - (P_f)^2/2 assembled from the canonical pair."""
    hpj, wj = f.derivative_data(z, order_h=2, order_w=2)
    hpp_over_hp = hpj.coeffs[1] / hpj.coeffs[0]
    Sh = _schwarzian_from_derivative_jet(hpj.coeffs)
    w, wp, wpp = wj.coeffs[0], wj.coeffs[1], 2.0 * wj.coeffs[2]
    A = np.conjugate(w) / _one_minus_sq(np.abs(w))
    return Sh + A * (hpp_over_hp * wp - wpp) - 1.5 * (A * wp) ** 2


def cdo_schwarzian(f, z, q=None):
    """The Chuaqui-Duren-Osgood Schwarzian, defined when omega = q^2.

    Without an explicit ``q`` the principal square root of omega is
    used, which requires omega(z) != 0 -- unless omega is identically
    zero through second order (analytic map), where q = 0.  A supplied q
    must satisfy q^2 = omega at z (checked on jets, rel. 1e-8).
    """
    hpj, wj = f.derivative_data(z, order_h=2, order_w=2)
    hpp_over_hp = hpj.coeffs[1] / hpj.coeffs[0]
    Sh = _schwarzian_from_derivative_jet(hpj.coeffs)

    if q is not None:
        qc = q.jet(z, 2).coeffs
        sq = mul_coeffs(qc, qc)
        check_finite(sq, z)
        scale = np.maximum(np.abs(wj.coeffs).max(axis=0), 1.0)
        bad = (np.abs(sq - wj.coeffs) > 1e-8 * scale).any(axis=0)
        if bad.any():
            raise QMismatch("q^2 does not match the dilatation at z",
                            at=first_point(z, bad))
    elif np.all(np.abs(wj.coeffs) == 0):
        qc = wj.coeffs  # analytic map: q identically 0, correction terms vanish
    else:
        zero = wj.coeffs[0] == 0  # the branch point of sqrt(omega)
        if zero.any():
            raise DilatationZeroNeedsQ("omega(z) = 0: supply q with q^2 = omega",
                                       at=first_point(z, zero))
        qc = sqrt_coeffs(wj.coeffs)
        check_finite(qc, z)

    qv, qp, qpp = qc[0], qc[1], 2.0 * qc[2]
    B = np.conjugate(qv) / (1.0 + np.abs(qv) ** 2)
    return Sh + 2.0 * B * (qpp - qp * hpp_over_hp) - 4.0 * (qp * B) ** 2


def jacobian(f, z):
    """J_f = |h'|^2 - |g'|^2, via |h'|^2 (1-|w|)(1+|w|); sign follows sense."""
    hpj, wj = f.preserving()._hp_omega_jets(z, 0, 0)
    wabs = np.abs(wj.coeffs[0])
    J = np.abs(hpj.coeffs[0]) ** 2 * _one_minus_sq(wabs)
    return J if f.sense == PRESERVING else -J


def dbar_pre_schwarzian(f, z):
    """d(P_f)/d(conj z) = |w'|^2/(1-|w|^2)^2 >= 0."""
    _, wj = f.derivative_data(z, order_h=1, order_w=1)
    denom = _one_minus_sq(np.abs(wj.coeffs[0]))
    return np.abs(wj.coeffs[1]) ** 2 / denom ** 2


def mixed_laplacian_schwarzian(f, z):
    """d^2 S_f / (d conj z, d z); the Laplacian of S_f is 4x this value.

    Vanishes identically iff the dilatation is constant (S_f analytic).
    """
    hpj, wj = f.derivative_data(z, order_h=2, order_w=3)
    hp = hpj.coeffs[0]
    hpp_over_hp = hpj.coeffs[1] / hp
    hppp_over_hp = 2.0 * hpj.coeffs[2] / hp
    w, wp = wj.coeffs[0], wj.coeffs[1]
    wpp, wppp = 2.0 * wj.coeffs[2], 6.0 * wj.coeffs[3]
    phi1 = wp * hpp_over_hp - wpp
    phi1p = wpp * hpp_over_hp + wp * (hppp_over_hp - hpp_over_hp ** 2) - wppp
    phi2 = phi1 * wp - 3.0 * wp * wpp
    D = _one_minus_sq(np.abs(w))
    wb, wpb = np.conjugate(w), np.conjugate(wp)
    return (phi2 * 2.0 * wb * wpb / D ** 3
            + phi1p * wpb / D ** 2
            - 9.0 * wp ** 3 * wb ** 2 * wpb / D ** 4)


def schwarzian_via_jacobian_fd(f, z):
    """Oracle: delta_zz - delta_z^2/2 for delta = log J_f by central
    finite differences (fourth order, 5x5 stencil in x and y)."""
    z = complex(z)
    f = f.preserving()
    offsets = np.arange(-2, 3)
    pts = z + _FD_STEP * (offsets[:, None] + 1j * offsets[None, :])
    if np.any(np.abs(pts) >= 1.0):
        raise StencilOutsideDomain(f"stencil of half-width {2 * _FD_STEP} "
                                   f"leaves the unit disk at {z}", at=z)
    J = jacobian(f, pts)
    if np.any(J <= 0):
        raise DomainError("log J_f undefined: Jacobian not positive", at=z)
    # math.log, since numpy's real log rounds by its SIMD level
    delta = np.array([[math.log(j) for j in row] for row in J.tolist()])
    dx = _D1 @ delta[:, 2]
    dy = _D1 @ delta[2, :]
    dxx = _D2 @ delta[:, 2]
    dyy = _D2 @ delta[2, :]
    dxy = _D1 @ delta @ _D1
    delta_z = 0.5 * (dx - 1j * dy)
    delta_zz = 0.25 * (dxx - dyy - 2j * dxy)
    return delta_zz - 0.5 * delta_z ** 2


def lemma1_schwarzian(f, z0):
    """Oracle: S_f(z0) as the classical Schwarzian of h - conj(w(z0)) g.

    The combination h + lambda g is analytic for each frozen lambda;
    freezing lambda = -conj(w(z0)) reproduces S_f at z0 exactly.
    """
    hpj, wj = f.derivative_data(z0, order_h=2, order_w=2)
    gp = mul_coeffs(wj.coeffs, hpj.coeffs)
    check_finite(gp, z0)
    lam = -np.conjugate(wj.coeffs[0])  # one number per point
    lam_gp = gp * lam  # broadcast over the coefficients of each point
    check_finite(lam_gp, z0)
    u = hpj.coeffs + lam_gp  # jet of (h + lambda g)' at z0
    check_finite(u, z0)
    return _schwarzian_from_derivative_jet(u)


def tamanoi_schwarzian(f, z0):
    """Oracle: 6(c30 - c20^2) of the deviation F = M^{-1} o f(z0 + .)
    from the best harmonic Moebius approximation M at z0.

    F is built from the increments D = f(z0 + t) - f(z0) alone: with
    alpha = conj(omega(z0)) and kappa = h''(z0)/(2 h'(z0)),

        F(t) = u/(h'(z0) + kappa u),  u = (D - alpha conj(D))/(1 - |alpha|^2),

    so neither f(z0) nor M enters.  Parts form takes differences of the
    closed forms of h and g; dilatation form integrates the pair
    (h', omega*h') along the segments z0 -> z0 + t, never from 0, in one
    quadrature pass.
    The 96 samples lie on circles of radii 0.01, 0.02 and 0.03 with 32
    points each (bivariate_extract's defaults), whose radial truncation
    sets the accuracy (64 angles give the same errors to 3 digits):
    against S_f on a polar grid of |z0| <= 0.45 the worst error is
    1.6e-7 on K, 5.3e-8 on K2 and below 1e-9 on L, S1 and S2, parts and
    dilatation form alike; at |z0| = 0.9 it reaches 2.8e-2 on K, and it
    stays below 2e-9 on the benchmark's generated maps at |z0| <= 0.9.
    The circles must stay inside the disk (|z0| < 0.97), else
    DomainError, and h' and omega must be analytic on the closed disk of
    radius 0.03 around z0: nothing checks it, and a branch point inside
    gives a wrong number with no error.  ``derivative_data`` gives alpha,
    h'(z0) and kappa: DomainError where h'(z0) = 0 or |omega(z0)| >= 1.
    The oracle runs under numpy's floating-point trap and, where numpy
    raises, again checked (``expr.trapped``), so its errors do not depend
    on the caller's error state.
    """
    return trapped(_tamanoi, f.preserving(), complex(z0))


def _tamanoi(f, z0):
    coeffs = bivariate_extract(_mobius_deviation(f, z0), degree=3)
    return 6.0 * (coeffs[(3, 0)] - coeffs[(2, 0)] ** 2)


def _mobius_deviation(f, z0):
    """t -> M^{-1}(f(z0 + t)) for a sense-preserving f, from increments."""
    alpha, hp, kappa = _harmonic_germ(f, z0)
    scale = 1.0 - abs(alpha) ** 2

    def deviation(t):
        d = _increments(f, z0, t)
        u = (d - alpha * np.conjugate(d)) / scale
        return u / (hp + kappa * u)
    return deviation
