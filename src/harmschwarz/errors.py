"""Exception hierarchy shared by all harmschwarz modules.

Every failure mode has its own class so callers can discriminate
without string matching.  Every error takes ``at``, the point in the
plane where it happens, which is None when there is no point (the CLI
writes it in the error record); parser errors also carry a byte
``offset`` into the source text.

Each class declares the CLI exit code it maps to in ``exit_code``:
1 usage (bad parameter or catalog name), 2 expression parse error,
3 domain error, 4 numerical failure (also the base class, so a new
subclass that declares nothing exits 4).
"""


class ToolkitError(Exception):
    """Base class for all harmschwarz errors."""
    exit_code = 4

    def __init__(self, message, at=None):
        super().__init__(message)
        self.at = at


# ---------------------------------------------------------------------------
# jet arithmetic


class DivisionByZeroConstantTerm(ToolkitError):
    """Jet division where the divisor's constant term vanishes."""
    exit_code = 3


class BranchPointAtCenter(ToolkitError):
    """sqrt/log/pow of a jet whose constant term is exactly 0."""
    exit_code = 3


class NonFinite(ToolkitError):
    """A NaN or infinity appeared where a finite value is required."""


class IllConditioned(ToolkitError):
    """Radial least-squares solve exceeded the condition threshold."""


# ---------------------------------------------------------------------------
# expression parsing


class ExprSyntaxError(ToolkitError):
    """Malformed expression text.  ``offset`` is the byte position."""
    exit_code = 2

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ToolkitError):
    """Identifier in an expression that is neither z, i nor a builtin."""
    exit_code = 2

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


# ---------------------------------------------------------------------------
# harmonic maps and operators


class UnknownCatalogName(ToolkitError):
    """Catalog lookup with an unrecognized map name."""
    exit_code = 1


class DomainError(ToolkitError):
    """Map not locally univalent (h' = 0, |omega| >= 1) or not evaluable."""
    exit_code = 3

    def __init__(self, message, at=None):
        super().__init__(message if at is None else f"{message} at {at}", at)


class ParameterOutOfRange(ToolkitError):
    """Group/affine parameter violates its constraint."""
    exit_code = 1


class CriticalPoint(ToolkitError):
    """Classical operator at a point where the derivative vanishes."""
    exit_code = 3


class DilatationZeroNeedsQ(ToolkitError):
    """CDO Schwarzian at a zero of omega without an explicit square root."""
    exit_code = 3


class QMismatch(ToolkitError):
    """Supplied q does not satisfy q^2 = omega at the evaluation point."""
    exit_code = 3


class StencilOutsideDomain(ToolkitError):
    """Finite-difference stencil would leave the map's domain."""
    exit_code = 3


class QuadratureFailure(ToolkitError):
    """Adaptive integration failed to reach tolerance at max depth."""
