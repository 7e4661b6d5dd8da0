"""Truncated complex Taylor-jet arithmetic.

A :class:`Jet` stores the coefficients ``c[k] = f^(k)(center)/k!`` of an
analytic function at a point, through a fixed order.  All composite
expressions propagate these coefficients exactly (to rounding), which is
how every derivative in the package is produced: no symbolic algebra, no
finite differences on the primary path.

Coefficients live in a numpy array whose leading axis indexes the
coefficient.  Trailing axes, if any, are broadcast point batches, so the
same recurrences evaluate one expansion point or a whole grid of them.
Jets are immutable by convention: no method mutates ``coeffs``.

Every Jet checks, when it is built, that its coefficients and then its
centre are finite (NonFinite otherwise), so an overflow raises at the
expression node where it happens.  Binary operations require equal
orders and equal centres.  The compiled Taylor tape planned in ROADMAP
item 3 would move the finiteness checks to the operator boundaries.

The module also hosts :func:`bivariate_extract`, which recovers the
coefficients ``c_{mn}`` of a smooth (not necessarily analytic) map
``F(z) = sum c_{mn} (z-z0)^m conj(z-z0)^n`` by sampling ``F`` on small
circles: an FFT in the angle separates the frequencies ``m - n``, and a
least-squares fit in the radius separates the orders ``m + n``.
"""

import math

import numpy as np

from .errors import (
    BranchPointAtCenter,
    CenterMismatch,
    DivisionByZeroConstantTerm,
    IllConditioned,
    NonFinite,
)

DEFAULT_ORDER = 4


def _as_coeff_array(coeffs):
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim == 0:
        raise ValueError("jet coefficients must have a leading coefficient axis")
    return arr


class Jet:
    """Taylor coefficients of an analytic function at ``center``."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs):
        coeffs = _as_coeff_array(coeffs)
        if not np.isfinite(coeffs).all():
            raise NonFinite("non-finite jet coefficient")
        if not np.isfinite(center).all():
            raise NonFinite("non-finite jet center")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, value, order, center=0.0, shape=None):
        """Jet of the constant function ``value`` (broadcast over shape)."""
        if shape is None:
            shape = np.shape(value)
        coeffs = np.zeros((order + 1,) + tuple(shape), dtype=np.complex128)
        coeffs[0] = value
        return cls(center, coeffs)

    @classmethod
    def variable(cls, z0, order):
        """Jet of the identity function z at center z0."""
        shape = np.shape(z0)
        coeffs = np.zeros((order + 1,) + shape, dtype=np.complex128)
        coeffs[0] = z0
        if order >= 1:
            coeffs[1] = 1.0
        return cls(z0, coeffs)

    # -- introspection -------------------------------------------------

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

    def _match(self, other):
        if self.order != other.order:
            raise CenterMismatch(
                f"jet orders differ: {self.order} vs {other.order}"
            )
        if not np.array_equal(np.asarray(self.center), np.asarray(other.center)):
            raise CenterMismatch("jet centers differ")

    def _lift(self, other):
        if isinstance(other, Jet):
            self._match(other)
            return other
        return Jet.constant(other, self.order, center=self.center,
                            shape=self.coeffs.shape[1:])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        return Jet(self.center, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return Jet(self.center, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return Jet(self.center, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.center,
                       self.coeffs * np.asarray(other, dtype=np.complex128))
        self._match(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = np.zeros_like(a)
        for k in range(n + 1):
            for j in range(k + 1):
                out[k] = out[k] + a[j] * b[k - j]
        return Jet(self.center, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        b0 = other.coeffs[0]
        zero = b0 == 0
        if zero.any():
            exc = DivisionByZeroConstantTerm("jet division by zero constant term")
            exc.mask = zero  # where the divisor vanishes, for the caller to name
            raise exc
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = np.zeros_like(a)
        out[0] = a[0] / b0
        for k in range(1, n + 1):
            acc = a[k]
            for j in range(1, k + 1):
                acc = acc - b[j] * out[k - j]
            out[k] = acc / b0
        return Jet(self.center, out)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, exponent):
        """Integer power by repeated multiplication (exact path)."""
        if not isinstance(exponent, int):
            raise TypeError("use cpow() for non-integer exponents")
        if exponent < 0:
            power = self.__pow__(-exponent)
            # base^n underflows to 0 where the base does not: 1/base^n overflows
            lost = (power.coeffs[0] == 0) & (self.coeffs[0] != 0)
            if lost.any():
                at = complex(np.broadcast_to(self.center, lost.shape)[lost][0])
                exc = NonFinite(f"jet power {exponent} overflows at {at}")
                exc.at = at  # the point, as a DomainError carries it
                raise exc
            return 1.0 / power
        if exponent == 0:
            return Jet.constant(1.0, self.order, center=self.center,
                                shape=self.coeffs.shape[1:])
        if exponent == 1:
            # no power has a -0 coefficient (a jet product never yields
            # one); adding +0 turns -0 into +0 and changes nothing else
            return self + 0.0
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- transcendental compositions ------------------------------------

    def _require_nonzero_constant(self, what):
        zero = self.coeffs[0] == 0
        if zero.any():
            exc = BranchPointAtCenter(f"{what} of jet with zero constant term")
            exc.mask = zero  # where the argument vanishes, as for a division
            raise exc

    def sqrt(self):
        self._require_nonzero_constant("sqrt")
        n = self.order
        a = self.coeffs
        out = np.zeros_like(a)
        out[0] = np.sqrt(a[0])
        for k in range(1, n + 1):
            acc = a[k]
            for j in range(1, k):
                acc = acc - out[j] * out[k - j]
            out[k] = acc / (2.0 * out[0])
        return Jet(self.center, out)

    def log(self):
        self._require_nonzero_constant("log")
        n = self.order
        a = self.coeffs
        out = np.zeros_like(a)
        out[0] = np.log(a[0])
        if n >= 1:
            # (log a)' = a'/a, integrated coefficient-wise
            q = self.derivative() / self.truncate(n - 1)
            for k in range(1, n + 1):
                out[k] = q.coeffs[k - 1] / k
        return Jet(self.center, out)

    def exp(self):
        n = self.order
        a = self.coeffs
        out = np.zeros_like(a)
        out[0] = np.exp(a[0])
        for k in range(1, n + 1):
            acc = np.zeros_like(out[0])
            for j in range(1, k + 1):
                acc = acc + j * a[j] * out[k - j]
            out[k] = acc / k
        return Jet(self.center, out)

    def cpow(self, exponent):
        """Principal-branch complex power a^e = exp(e*log a)."""
        return (self.log() * exponent).exp()

    # -- structure -------------------------------------------------------

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a jet by truncation")
        if order == self.order:
            return self
        return Jet(self.center, self.coeffs[: order + 1])

    def derivative(self):
        """Jet of f' at the same center, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        k = np.arange(1, self.order + 1).reshape(
            (-1,) + (1,) * (self.coeffs.ndim - 1)
        )
        return Jet(self.center, self.coeffs[1:] * k)

    def compose(self, inner):
        """Jet of outer(inner(.)) at inner.center.

        Requires ``self.center == inner.coeffs[0]`` (the outer expansion
        sits at the inner value) and equal orders.
        """
        if self.order != inner.order:
            raise CenterMismatch("compose requires equal jet orders")
        if not np.array_equal(np.asarray(self.center), np.asarray(inner.value)):
            raise CenterMismatch("outer center must equal inner constant term")
        n = self.order
        shifted = inner.coeffs.copy()
        shifted[0] = 0.0  # Horner in (inner - inner(center))
        w = Jet(inner.center, shifted)
        result = Jet.constant(self.coeffs[n], n, center=inner.center,
                              shape=inner.coeffs.shape[1:])
        for k in range(n - 1, -1, -1):
            result = result * w + self.coeffs[k]
        return result


# ---------------------------------------------------------------------------
# bivariate (z, conj z) coefficient extraction


def bivariate_extract(F, degree=3, radii=(0.01, 0.02, 0.03), angles=64):
    """Recover c_{mn} (m+n <= degree) of F(t) = sum c_{mn} t^m conj(t)^n.

    Returns a dict mapping every (m, n) with m + n <= degree to c_{mn}.

    ``F`` is called once with a complex ndarray of sample points and must
    return values of the same shape (ValueError otherwise).  Sampling
    happens on ``len(radii)`` circles around 0 with ``angles`` points
    each.  An FFT over the angle isolates each frequency m-n; a
    least-squares solve over the radii separates the powers rho^(m+n).
    A few powers beyond ``degree`` are kept as nuisance terms so that
    higher-order content of F does not leak into the reported
    coefficients.

    Raises IllConditioned when the (column-scaled) radial system has
    condition number above 1e8.
    """
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if len(radii) < math.ceil((degree + 1) / 2):
        raise ValueError(f"need at least {math.ceil((degree + 1) / 2)} radii "
                         f"for degree {degree}")
    if angles < 2 * degree + 1:
        raise ValueError(f"need at least {2 * degree + 1} angles for degree {degree}")

    rho = np.asarray(radii, dtype=float)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    pts = rho[:, None] * np.exp(1j * theta)[None, :]
    vals = np.asarray(F(pts), dtype=np.complex128)
    if vals.shape != pts.shape:
        raise ValueError(f"F returned shape {vals.shape} for sample points "
                         f"of shape {pts.shape}")
    if not np.all(np.isfinite(vals)):
        raise NonFinite("non-finite sample in bivariate extraction")

    dft = np.fft.fft(vals, axis=1) / angles

    table = {}  # complete: the radii check leaves no frequency short of terms
    for k in range(-degree, degree + 1):
        rhs = dft[:, k % angles]
        needed = (degree - abs(k)) // 2 + 1
        nterms = min(len(radii), needed + 2)
        exps = [abs(k) + 2 * j for j in range(nterms)]
        A = rho[:, None] ** np.asarray(exps)[None, :]
        colscale = np.linalg.norm(A, axis=0)
        As = A / colscale
        if np.linalg.cond(As) > 1e8:
            raise IllConditioned(
                f"radial solve for frequency {k} exceeds condition threshold"
            )
        sol, *_ = np.linalg.lstsq(As, rhs, rcond=None)
        sol = sol / colscale
        for e, c in zip(exps, sol):
            if e <= degree:
                m = (e + k) // 2
                n = (e - k) // 2
                table[(m, n)] = complex(c)
    return table
