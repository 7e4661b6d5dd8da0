"""Hyperbolic sup-norms over the unit disk and the Becker criterion.

``hyperbolic_sup`` estimates

    ||P_f|| = sup |P_f(z)| (1-|z|^2)      (op "P")
    ||S_f|| = sup |S_f(z)| (1-|z|^2)^2    (op "S")

``becker_check`` the worst Becker margin, ``omega_second_derivative_probe``
a dilatation bound.  All three are one search (``_search``) for the
maximum of a real field: a polar grid with hyperbolically clustered
radii (r = tanh(t), t uniform up to atanh(rmax)), then, for the norms
only, a batched local zoom in the same (t, theta) coordinates around
the best grid cells.  Ties (flat ridges such as the constant weighted
modulus of the half-plane map) go to smaller |z|, then smaller argument.

Every reported norm is the weighted modulus re-evaluated at the
reported argmax.  It is meant as a lower bound of the supremum, but
rounding near the rim can lift it above: ``norm --op S`` reads
1.5000000000044573 for L (supremum 1.5), 9.500000000131093 for K2 (9.5)
and 6.000000002305662 for q2 (6).  ROADMAP item 2 (an error bound on
every reported value) addresses this.  Maxima attained only in the
limit |z| -> 1 (e.g. the K2 example) surface as a near-boundary argmax
with the boundary flag set.

The search evaluates the grid in blocks of ``_BLOCK`` points, so the
jet and operator temporaries take about 1 MB whatever the grid size;
memory grows only by the grid, its values and their sort order, about
33 bytes per grid point.  The grid is built once per (rays, radial
samples, rmax) and kept, read-only, in a cache of four grids, so the 16
bytes per point of the last grids searched stay held.  An error in the
sweep names in ``at`` the first offending point of the first block that
fails.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, ParameterOutOfRange
from .expr import ExprFunction
from .jets import _is_int, first_point
from .maps import HarmonicMap
from .operators import (
    _one_minus_sq,
    _pre_schwarzian_from_jets,
    pre_schwarzian,
    schwarzian,
)

# relative window inside which field values count as tied;
# wide enough to absorb evaluation noise on flat ridges (measured at
# ~1e-14 relative on the catalog), far below any difference the
# acceptance tolerances care about
_TIE_REL = 1e-12

# half-width K of the (2K+1) x (2K+1) refinement patch, and the step
# below which refinement stops (both polar steps)
_ZOOM_HALF = 2
_ZOOM_STEP_MIN = 1e-14

# points per block of a grid sweep, about 1 MB of temporaries.  The S
# sweep of K over the 32,769-point default grid, its jets run under
# numpy's trap with constants folded (numpy 2.4, 2-vCPU VM, medians of
# 40 runs, two sessions), takes 4.2 to 5.7 ms in blocks of 4096, within
# 3 % of blocks of 3072, 6144 or 8192, 4.8 to 6.9 in blocks of 2048, 8.4
# to 11.2 in one and 10.0 to 16.0 in blocks of 512.  Block edges decide
# the ``at`` of a sweep error, so the size stays
_BLOCK = 4096


@dataclass
class SearchConfig:
    rays: int = 256
    radial_samples: int = 128
    rmax: float = 1.0 - 1e-6
    refine_iterations: int = 60

    def __post_init__(self):
        for name, n in (("rays", self.rays), ("radial samples", self.radial_samples),
                        ("refine iterations", self.refine_iterations)):
            if not _is_int(n):
                raise ParameterOutOfRange(f"{name} must be an integer, not {n!r}")
        if self.rays < 8:
            raise ParameterOutOfRange("rays must be >= 8")
        if self.radial_samples < 8:
            raise ParameterOutOfRange("radial samples must be >= 8")
        if not 0.0 < self.rmax < 1.0:
            raise ParameterOutOfRange("rmax must lie in (0, 1)")
        if self.refine_iterations < 0:
            raise ParameterOutOfRange("refine iterations must be >= 0")


@dataclass
class NormReport:
    value: float
    argmax: complex
    boundary_flag: bool
    samples_evaluated: int
    op: str

    def to_json(self):
        return {
            "value": float(self.value),
            "argmax": [float(self.argmax.real), float(self.argmax.imag)],
            "boundary": bool(self.boundary_flag),
            "samples": int(self.samples_evaluated),
            "op": self.op,
        }


@dataclass
class BeckerReport:
    holds: bool
    worst_margin: float
    witness: complex

    def to_json(self):
        return {
            "holds": bool(self.holds),
            "worst_margin": float(self.worst_margin),
            "witness": [float(self.witness.real), float(self.witness.imag)],
        }


def _grid(cfg):
    """Polar grid: z = 0 plus rays x hyperbolically clustered radii.

    The radii tanh(T*j/m), j = 1..m, are nested under doubling of m, and
    uniform angles are nested under doubling of rays, so enlarging the
    config never loses grid points (lower-bound monotonicity).  The grid
    is read-only: it is built once per (rays, radial samples, rmax).
    """
    return _polar_grid(cfg.rays, cfg.radial_samples, cfg.rmax)


@functools.lru_cache(maxsize=4)
def _polar_grid(rays, radial_samples, rmax):
    tmax = math.atanh(rmax)
    fracs = np.arange(1, radial_samples + 1) / radial_samples
    radii = np.tanh(tmax * fracs)
    radii[-1] = rmax
    angles = 2.0 * np.pi * np.arange(rays) / rays
    zs = (radii[:, None] * np.exp(1j * angles)[None, :]).reshape(-1)
    zs = np.concatenate(([0.0 + 0.0j], zs))
    zs.flags.writeable = False  # shared by every search with this key
    return zs


def _blocked(fn, zs):
    """fn over the 1-D point array zs, evaluated _BLOCK points at a time."""
    return np.concatenate([fn(zs[i:i + _BLOCK])
                           for i in range(0, zs.size, _BLOCK)])


def _weighted_modulus(f, op, zs):
    if op not in ("P", "S"):
        raise ParameterOutOfRange(f"unknown operator tag {op!r}; use 'P' or 'S'")
    vals = (pre_schwarzian if op == "P" else schwarzian)(f, zs)
    return np.abs(vals) * _one_minus_sq(np.abs(zs)) ** (1 if op == "P" else 2)


def _innermost(zs, tied):
    """The tied grid points (a mask) with the smallest |z|, the only ones
    ``_tie_break`` can pick, as indices.  np.hypot rounds as the abs() of
    ``_tie_break`` does (np.abs does not), so same-circle ties stay
    resolved by the same ulps.  A flat field ties the whole grid; only
    the tied points are measured."""
    tied = np.flatnonzero(tied)
    if not tied.size:
        return tied
    r = np.hypot(zs.real[tied], zs.imag[tied])
    return tied[r == r.min()]


def _tie_break(candidates):
    """Pick (value, z): max value; ties go to smaller |z|, then smaller arg."""
    best = max(v for v, _ in candidates)
    window = _TIE_REL * max(abs(best), 1.0)
    tied = [z for v, z in candidates if v >= best - window]
    return min(tied, key=lambda z: (abs(z), math.atan2(z.imag, z.real) % (2.0 * math.pi)))


def _zoom(field, cfg, levels, z0, w0):
    """Batched local zoom of field around the seed points z0 (values w0).

    Each seed carries a (2K+1) x (2K+1) patch in the coordinates of
    ``_grid``, (t = atanh|z|, theta), one grid cell per step at first;
    t is clamped to atanh(rmax) and |z| to rmax (the weights are not
    defined beyond it).  A level evaluates all patches in one batched
    call, moves each centre to its patch maximum on strict improvement
    and divides both steps by 3, until both steps are below
    _ZOOM_STEP_MIN or ``levels`` levels are done.  Returns the best
    value and point per seed and the number of patch points evaluated.
    """
    tmax = math.atanh(cfg.rmax)
    # math, not numpy: numpy's real atanh and atan2 round by SIMD level
    t = np.array([math.atanh(abs(z)) for z in z0.tolist()])
    theta = np.array([math.atan2(z.imag, z.real) for z in z0.tolist()])
    best, zbest = w0.copy(), z0.copy()
    dt, dtheta = tmax / cfg.radial_samples, 2.0 * math.pi / cfg.rays
    offsets = np.arange(-_ZOOM_HALF, _ZOOM_HALF + 1, dtype=float)
    rows = np.arange(z0.size)
    evals = 0
    for _ in range(levels):
        if dt < _ZOOM_STEP_MIN and dtheta < _ZOOM_STEP_MIN:
            break
        # np.minimum and np.maximum clamp as np.clip does, at less cost
        pt = np.minimum(np.maximum(t[:, None] + dt * offsets, -tmax), tmax)
        pa = theta[:, None] + dtheta * offsets
        radius = np.minimum(np.maximum(np.tanh(pt), -cfg.rmax), cfg.rmax)
        zp = (radius[:, :, None] * np.exp(1j * pa)[:, None, :]).reshape(z0.size, -1)
        wp = field(zp.reshape(-1)).reshape(zp.shape)
        evals += zp.size
        j = np.argmax(wp, axis=1)
        up = wp[rows, j] > best
        jt, ja = np.divmod(j, offsets.size)
        t = np.where(up, pt[rows, jt], t)
        theta = np.where(up, pa[rows, ja], theta)
        best = np.where(up, wp[rows, j], best)
        zbest = np.where(up, zp[rows, j], zbest)
        dt /= 3.0
        dtheta /= 3.0
    return best, zbest, evals


def _finite(fn, name):
    """fn, raising NonFinite that names the field and, in ``at``, the
    first point where a value is not finite."""
    def field(z):
        vals = fn(z)
        bad = ~np.isfinite(vals)
        if bad.any():
            at = first_point(z, bad)
            raise NonFinite(f"non-finite {name} at {at}", at=at)
        return vals
    return field


def _search(field, cfg, levels):
    """(max, canonical argmax, points evaluated) of the real field on the
    grid of cfg, zoomed ``levels`` levels around the five best distinct
    grid points."""
    zs = _grid(cfg)
    w = _blocked(field, zs)
    evals = zs.size
    best_val = float(w.max())
    candidates = []
    if levels:
        seeds = []
        for i in np.argsort(w)[::-1]:
            if all(abs(zs[i] - zs[j]) > 1e-12 for j in seeds):
                seeds.append(i)
            if len(seeds) == 5:
                break
        best, zbest, patch_evals = _zoom(field, cfg, levels, zs[seeds], w[seeds])
        evals += patch_evals
        # keep a zoomed point only when it genuinely improves on the grid;
        # within the tie window the grid point stands for it (keeps flat
        # ridges and rim maxima at their canonical points)
        window = _TIE_REL * max(abs(best_val), 1.0)
        candidates = [(float(v), complex(z)) for v, z in zip(best, zbest)
                      if v > best_val + window]
        best_val = max([best_val] + [v for v, _ in candidates])

    # the tied grid ridge joins the candidates, so flat maxima resolve to
    # the canonical (smallest |z|) point
    window = _TIE_REL * max(abs(best_val), 1.0)
    near = _innermost(zs, w >= best_val - window)
    candidates.extend((float(w[i]), complex(zs[i])) for i in near)
    return best_val, _tie_break(candidates), evals


def hyperbolic_sup(f, op, cfg=None):
    """Lower-bound estimate of the hyperbolic sup-norm of P_f or S_f."""
    cfg = cfg or SearchConfig()
    field = _finite(lambda z: _weighted_modulus(f, op, z), "weighted modulus")
    _, argmax, evals = _search(field, cfg, cfg.refine_iterations)
    return NormReport(
        value=float(field(np.asarray(argmax))),
        argmax=argmax,
        boundary_flag=abs(argmax) > 0.99 * cfg.rmax,
        samples_evaluated=evals,
        op=op,
    )


def becker_check(f, cfg=None):
    """Becker-type univalence test: does
    (|z P_f| + |z w'|/(1-|w|^2)) (1-|z|^2) stay <= 1 on the disk?

    Reports the worst margin 1 - LHS over the grid and where it occurs.
    Margin >= 0 on the whole disk would certify univalence (sharp
    constant 1), but the check samples the grid only, so ``holds`` is
    grid evidence, not a certificate: h' = exp(0.01/(p - z)) with p =
    1.0009246265409835+0.012283809824005645i holds with worst margin
    0.2587, yet its LHS reaches 4.99 at r = 0.999 on the ray through p,
    between grid points.  ROADMAP item 11 (interval bounds) addresses this.
    """
    cfg = cfg or SearchConfig()
    # the maximum of the negated margin; its tie window scales with |margin|
    neg_worst, witness, _ = _search(
        _finite(lambda z: -(1.0 - becker_lhs(f, z)), "Becker quantity"), cfg, 0)
    worst = -neg_worst
    return BeckerReport(holds=worst >= 0.0, worst_margin=worst, witness=witness)


def becker_lhs(f, z):
    """The scaled left-hand side of the Becker inequality at z."""
    hpj, wj = f.derivative_data(z, order_h=1, order_w=1)
    P, one_minus_w2 = _pre_schwarzian_from_jets(hpj, wj)
    return ((np.abs(z * P) + np.abs(z * wj.coeffs[1]) / one_minus_w2)
            * _one_minus_sq(np.abs(z)))


def finite_norm_compare(f, cfg=None):
    """(||S_f|| estimate, ||S_h|| estimate) on identical grids.

    The two are finite together (finiteness transfers between a
    harmonic map and its analytic part); comparing the estimates on the
    same grid makes that property observable numerically.
    """
    cfg = cfg or SearchConfig()
    rep = f.preserving()
    zero = ExprFunction("0")
    # h + conj(0), on the exact derivative path of h (no re-derived jets)
    analytic_part = HarmonicMap(rep.h, zero, rep.hp, zero, zero, rep.sense,
                                label=f"{f.label}.h")
    return hyperbolic_sup(f, "S", cfg), hyperbolic_sup(analytic_part, "S", cfg)


def omega_second_derivative_probe(f, cfg=None):
    """(max, argmax) over the grid of ``_omega_probe``.

    Finite for every analytic self-map of the disk; reported so callers
    can observe the bound (its sharp constant is not known).  Raises
    DomainError where f is not locally univalent, as the norms do.
    """
    field = _finite(lambda z: _omega_probe(f, z), "omega probe")
    return _search(field, cfg or SearchConfig(), 0)[:2]


def _omega_probe(f, z):
    """|w'' w| (1-|z|^2)^2 / (1-|w|^2) for the dilatation w of f at z."""
    _, wj = f.derivative_data(z, order_h=0, order_w=2)
    w, wpp = wj.coeffs[0], 2.0 * wj.coeffs[2]
    return (np.abs(wpp * w) * _one_minus_sq(np.abs(z)) ** 2
            / _one_minus_sq(np.abs(w)))
