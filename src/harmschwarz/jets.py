"""Truncated complex Taylor jets and the recurrences that propagate them.

A :class:`Jet` is a checked record of the coefficients
``c[k] = f^(k)(center)/k!`` of an analytic function at a point, through
a fixed order.  It does no arithmetic: every derivative in the package
comes from the recurrences below, exact to rounding, with no symbolic
algebra and no finite differences on the primary path.

Coefficients live in a numpy array whose leading axis indexes the
coefficient.  Trailing axes, if any, are broadcast point batches, so the
same recurrences evaluate one expansion point or a whole grid of them.

The recurrences (product, quotient, integer power, log, exp, sqrt,
derivative) are module-level functions on raw coefficient sequences of
one centre and one order, which they do not check.  The expression tape
of :mod:`~harmschwarz.expr` and the operators call them: on arrays for
an array of points, on lists of Python complex numbers for one point,
where numpy's per-scalar dispatch would cost more than the arithmetic,
and, in the tape's trapped run on an array, on lists of coefficient
rows.  Each recurrence is written once, over any of these sequences.  One
point gets the bits of numpy's scalar arithmetic, not those of its array
loops, which round a complex product otherwise: the same point in a
batch can differ in the last bits.

Every Jet checks, when it is built, that its coefficients and then its
centre are finite (NonFinite otherwise, naming in ``at`` the
:func:`first_point` with a non-finite coefficient); :func:`check_finite`
is that check.  A recurrence only computes, and its caller checks the
result, as the tape checks each slot, so an overflow raises where it
happens.  An overflow inside a recurrence leaves the result non-finite
(``inf*0`` and ``inf - inf`` give nan) unless 1 is divided by it, which
would read 0: so ``pow_coeffs`` checks a power before it inverts it,
the one check inside a recurrence, made under numpy's trap too.  How
the tape checks its slots, and when numpy's trap lets it skip them, is
told in :mod:`~harmschwarz.expr`; checked only at the operator boundary
without that trap, ``1/inf`` would read 0.

The module also hosts :func:`bivariate_extract`, which recovers the
coefficients ``c_{mn}`` of a smooth (not necessarily analytic) map
``F(z) = sum c_{mn} (z-z0)^m conj(z-z0)^n`` by sampling ``F`` on small
circles: an FFT in the angle separates the frequencies ``m - n``, and a
least-squares fit in the radius separates the orders ``m + n``.  The
sample points and the least-squares solves depend only on the radii, the
degree and the angle count, so each such plan is built once and cached.
"""

import cmath
import functools
import math

import numpy as np

from .errors import (
    BranchPointAtCenter,
    DivisionByZeroConstantTerm,
    IllConditioned,
    NonFinite,
)

DEFAULT_ORDER = 4
_NUMBER = (int, float, complex, np.number)


# ---------------------------------------------------------------------------
# coefficient sequences: the recurrences
#
# Each function takes and returns the raw coefficients of jets that share
# one centre, as a sequence indexed by the coefficient: an array whose
# trailing axes are the points; for one point, a list of Python complex
# numbers; or, in the trapped array run of the tape, a list of rows, each
# an array of the points or of one point that broadcasts against them
# (numpy's array loops round an element alike either way).  Python
# arithmetic on one number skips numpy's scalar dispatch and rounds as
# numpy's scalars do, except in a division (see ``_quotient``) and in
# exp, log and sqrt (see ``_elementary``), so a list of numbers carries
# the bits of numpy's scalars.  The expression tape of
# ``expr`` and the operators call these functions, so every recurrence
# exists once.  A real factor is written as a complex number: numpy
# multiplies by k + 0j, and some Python versions mix a real and a complex
# operand by other rules.  A function only computes, and its caller
# checks the result as the tape checks a slot; only ``pow_coeffs`` checks
# a power, before inverting it.


def one_point(center):
    """``center`` as a Python complex number when it is one point (a Python
    or numpy number, or a 0-d array), else None: the tape of ``expr`` then
    runs on Python complex numbers."""
    if isinstance(center, _NUMBER) or (isinstance(center, np.ndarray)
                                       and center.ndim == 0):
        return complex(center)
    return None


def check_finite(coeffs, center):
    """Raise NonFinite unless the coefficients, and then the centre, are
    finite: the check of a Jet as it is built.

    For a coefficient, the error's ``at`` names the first point (in C
    order of the trailing axes) where one is not finite.
    """
    if type(coeffs) is not list:
        finite = np.isfinite(coeffs).all()
    elif type(coeffs[0]) is complex:
        # a sum of finite numbers can overflow, but no sum with a
        # non-finite term is finite
        finite = cmath.isfinite(sum(coeffs)) or all(map(cmath.isfinite, coeffs))
    else:  # rows of an array of points, which broadcast against each other
        coeffs = np.broadcast_arrays(*coeffs)
        finite = np.isfinite(coeffs).all()
    if not finite:
        raise NonFinite("non-finite jet coefficient",
                        at=first_point(center, ~np.isfinite(coeffs).all(axis=0)))
    if not center_is_finite(center):
        raise NonFinite("non-finite jet center")


def first_point(z, mask):
    """The first point (in C order) of ``z`` and ``mask`` broadcast against
    each other where ``mask`` holds: the ``at`` of an error; at one point,
    or where the mask is of one point (a constant's), the first point."""
    z, mask = np.broadcast_arrays(z, mask)
    return complex(z[mask][0])


def center_is_finite(center):
    """Whether every point of ``center`` (a point or an array) is finite."""
    if isinstance(center, _NUMBER):
        return cmath.isfinite(center)
    return bool(np.isfinite(center).all())


def _any(mask):
    """Whether ``mask`` (a bool, or a numpy bool scalar or array) holds
    anywhere."""
    return mask if type(mask) is bool else bool(mask.any())


def _zeros_like(a):
    if type(a) is list:
        return [0j] * len(a)
    return np.zeros_like(a)


def _one_like(a):
    """The jet of 1 in the form of ``a``: an array of its points, a list of
    one point, or rows of one point each (which broadcast)."""
    if type(a) is not list:
        return constant_coeffs(1.0, len(a) - 1, a.shape[1:])
    if type(a[0]) is complex:
        return constant_coeffs(1.0, len(a) - 1, None)
    return list(constant_coeffs(1.0, len(a) - 1, (1,) * a[0].ndim))


def _quotient(x, y):
    """x / y as numpy divides complex numbers, also for a Python complex x
    (y a Python complex number or int).

    Python divides complex numbers by another formula, so a one-point jet
    spells out numpy's loop: Smith's method, multiplying by the reciprocal
    ``scl`` (so that ``acc / k`` is ``acc*(1/k)``, not ``acc/k``).
    """
    if type(x) is not complex:
        return x / y
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    if abs(yr) >= abs(yi):  # no jet recurrence divides by zero
        rat = yi / yr
        scl = 1.0 / (yr + yi * rat)
        return complex((xr + xi * rat) * scl, (xi - xr * rat) * scl)
    rat = yr / yi
    scl = 1.0 / (yi + yr * rat)
    return complex((xr * rat + xi) * scl, (xi * rat - xr) * scl)


def _elementary(fn, x):
    """``fn`` (np.exp, np.log or np.sqrt) of a row of coefficients, or of
    one Python complex number: cmath rounds otherwise, so numpy serves
    both."""
    return complex(fn(x)) if type(x) is complex else fn(x)


def constant_coeffs(value, order, shape):
    """The jet of a constant; ``shape`` None gives the list of one point."""
    if shape is None:
        return [complex(value)] + [0j] * order
    coeffs = np.zeros((order + 1,) + tuple(shape), dtype=np.complex128)
    coeffs[0] = value
    return coeffs


def variable_coeffs(z0, order):
    """The jet of z at ``z0``: a list when ``z0`` is a Python complex number."""
    if type(z0) is complex:
        return ([z0, 1 + 0j] + [0j] * (order - 1))[:order + 1]
    coeffs = np.zeros((order + 1,) + np.shape(z0), dtype=np.complex128)
    coeffs[0] = z0
    if order >= 1:
        coeffs[1] = 1.0
    return coeffs


def add_coeffs(a, b):
    if type(a) is list:
        return [x + y for x, y in zip(a, b)]
    return a + b


def sub_coeffs(a, b):
    if type(a) is list:
        return [x - y for x, y in zip(a, b)]
    return a - b


def neg_coeffs(a):
    if type(a) is list:
        return [-x for x in a]
    return -a


def mul_coeffs(a, b):
    out = _zeros_like(a)
    for k in range(len(a)):
        acc = 0j
        for j in range(k + 1):
            acc = acc + a[j] * b[k - j]
        out[k] = acc
    return out


def div_coeffs(a, b):
    b0 = b[0]
    zero = b0 == 0
    if _any(zero):
        exc = DivisionByZeroConstantTerm("jet division by zero constant term")
        exc.mask = zero  # where the divisor vanishes, for the caller to name
        raise exc
    out = _zeros_like(a)
    out[0] = _quotient(a[0], b0)
    for k in range(1, len(a)):
        acc = a[k]
        for j in range(1, k + 1):
            acc = acc - b[j] * out[k - j]
        out[k] = _quotient(acc, b0)
    return out


def pow_coeffs(a, exponent, center):
    """a^exponent for an integer exponent, by repeated multiplication."""
    if exponent < 0:
        power = pow_coeffs(a, -exponent, center)
        check_finite(power, center)  # 1/inf would read 0
        # base^n underflows to 0 where the base does not: 1/base^n overflows
        lost = (power[0] == 0) & (a[0] != 0)
        if _any(lost):
            at = first_point(center, lost)
            raise NonFinite(f"jet power {exponent} overflows at {at}", at=at)
        return div_coeffs(_one_like(a), power)
    if exponent == 0:
        return _one_like(a)
    if exponent == 1:
        # no power has a -0 coefficient (a jet product never yields one);
        # adding +0 turns -0 into +0 and changes nothing else
        return add_coeffs(a, _zeros_like(a))
    result, base, e = None, a, exponent
    while e:
        if e & 1:
            result = base if result is None else mul_coeffs(result, base)
        if e > 1:
            base = mul_coeffs(base, base)
        e >>= 1
    return result


def _require_nonzero_constant(a, what):
    zero = a[0] == 0
    if _any(zero):
        exc = BranchPointAtCenter(f"{what} of jet with zero constant term")
        exc.mask = zero  # where the argument vanishes, as for a division
        raise exc


def sqrt_coeffs(a):
    _require_nonzero_constant(a, "sqrt")
    out = _zeros_like(a)
    out[0] = _elementary(np.sqrt, a[0])
    for k in range(1, len(a)):
        acc = a[k]
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out[k] = _quotient(acc, (2 + 0j) * out[0])
    return out


def log_coeffs(a):
    _require_nonzero_constant(a, "log")
    n = len(a) - 1
    out = _zeros_like(a)
    out[0] = _elementary(np.log, a[0])
    if n >= 1:
        # (log a)' = a'/a, integrated coefficient-wise
        q = div_coeffs(derivative_coeffs(a), a[:n])
        for k in range(1, n + 1):
            out[k] = _quotient(q[k - 1], k)
    return out


def exp_coeffs(a):
    out = _zeros_like(a)
    out[0] = _elementary(np.exp, a[0])
    for k in range(1, len(a)):
        acc = 0j
        for j in range(1, k + 1):
            acc = acc + complex(j) * a[j] * out[k - j]
        out[k] = _quotient(acc, k)
    return out


def derivative_coeffs(a):
    """Coefficients of f' from those of f, one order lower."""
    out = _zeros_like(a[1:])
    for k in range(1, len(a)):
        out[k - 1] = a[k] * complex(k)
    return out


# ---------------------------------------------------------------------------
# Jet


class Jet:
    """Taylor coefficients of an analytic function at ``center``: a
    record, checked finite when built (``_checked`` skips the check)."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == 0:
            raise ValueError("jet coefficients must have a leading coefficient axis")
        check_finite(coeffs, center)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @classmethod
    def _checked(cls, center, coeffs):
        """Jet of coefficients known to be finite: they passed
        :func:`check_finite` (at one point, a finite sum of each slot
        of the tape counts), or finite inputs gave them while numpy
        raised on overflow, invalid operations and division by zero."""
        jet = object.__new__(cls)
        object.__setattr__(jet, "center", center)
        object.__setattr__(jet, "coeffs", coeffs)
        return jet

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative_value(self, k):
        """The plain derivative f^(k)(center) (coefficient times k!)."""
        return self.coeffs[k] * math.factorial(k)

    def __repr__(self):
        return f"Jet(center={self.center!r}, coeffs={self.coeffs!r})"


# ---------------------------------------------------------------------------
# bivariate (z, conj z) coefficient extraction


def bivariate_extract(F, degree=3, radii=(0.01, 0.02, 0.03), angles=32):
    """Recover c_{mn} (m+n <= degree) of F(t) = sum c_{mn} t^m conj(t)^n.

    Returns a dict mapping every (m, n) with m + n <= degree to c_{mn}.

    ``F`` is called once with a read-only complex ndarray of sample
    points and must return values of the same shape (ValueError
    otherwise).  Sampling happens on ``len(radii)`` circles around 0 with
    ``angles`` points each.  An FFT over the angle isolates each
    frequency m-n; a least-squares solve over the radii separates the
    powers rho^(m+n).  A few powers beyond ``degree`` are kept as
    nuisance terms so that higher-order content of F does not leak into
    the reported coefficients.  Only the bins |m-n| <= degree are read,
    so the nearest alias of a kept bin is a term of total order m+n at
    least ``angles - degree`` (29 at the default 32 angles), which the
    small radii make negligible.

    The sample points and the solves depend only on ``(radii, degree,
    angles)``: they are built once per key (:func:`_extraction_plan`, a
    bounded cache filled on first use), so a call is one FFT and one
    small matrix product per frequency.

    Raises ValueError for a degree or an angle count that is not a
    non-negative integer, for radii that are not finite and positive,
    and for too few radii or angles; IllConditioned when the
    (column-scaled) radial system has condition number above 1e8.
    """
    if not _is_int(degree) or degree < 0:
        raise ValueError(f"degree must be a non-negative integer, not {degree!r}")
    if not _is_int(angles):
        raise ValueError(f"angles must be an integer, not {angles!r}")
    radii = tuple(float(r) for r in radii)
    if not all(0.0 < r < math.inf for r in radii):  # False for a NaN too
        raise ValueError("radii must be finite and positive")
    if len(radii) < math.ceil((degree + 1) / 2):
        raise ValueError(f"need at least {math.ceil((degree + 1) / 2)} radii "
                         f"for degree {degree}")
    if angles < 2 * degree + 1:
        raise ValueError(f"need at least {2 * degree + 1} angles for degree {degree}")

    pts, solves = _extraction_plan(radii, int(degree), int(angles))
    vals = np.asarray(F(pts), dtype=np.complex128)
    if vals.shape != pts.shape:
        raise ValueError(f"F returned shape {vals.shape} for sample points "
                         f"of shape {pts.shape}")
    if not np.all(np.isfinite(vals)):
        raise NonFinite("non-finite sample in bivariate extraction")

    dft = np.fft.fft(vals, axis=1) / angles
    table = {}  # complete: the radii check leaves no frequency short of terms
    for b, pinv, keys in solves:
        table.update(zip(keys, (pinv @ dft[:, b]).tolist()))
    return table


def _is_int(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@functools.lru_cache(maxsize=32)
def _extraction_plan(radii, degree, angles):
    """The sample points and, per frequency k, the FFT bin, the rows of
    the pseudo-inverse of the radial system that give the kept powers,
    and their (m, n) keys.  A failure (IllConditioned) is not cached."""
    rho = np.asarray(radii)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    pts = rho[:, None] * np.exp(1j * theta)[None, :]
    pts.flags.writeable = False  # shared by every call with this key

    solves = []
    for k in range(-degree, degree + 1):
        needed = (degree - abs(k)) // 2 + 1
        nterms = min(len(radii), needed + 2)
        exps = [abs(k) + 2 * j for j in range(nterms)]
        # Python powers: numpy's real power rounds by SIMD level
        A = np.array([[r ** e for e in exps] for r in radii])
        colscale = np.linalg.norm(A, axis=0)
        As = A / colscale
        if np.linalg.cond(As) > 1e8:
            raise IllConditioned(
                f"radial solve for frequency {k} exceeds condition threshold"
            )
        pinv = np.linalg.pinv(As) / colscale[:, None]
        kept = [j for j, e in enumerate(exps) if e <= degree]
        keys = tuple(((exps[j] + k) // 2, (exps[j] - k) // 2) for j in kept)
        pinv = pinv[kept]
        pinv.flags.writeable = False
        solves.append((k % angles, pinv, keys))
    return pts, tuple(solves)
