"""Adaptive Gauss-Legendre integration along straight segments.

Integrands here are analytic functions sampled by value, so a 16-point
rule converges extremely fast.  Adaptivity is per segment: each level
doubles the pieces of every segment still in the batch, and a segment
leaves the batch once two consecutive levels agree, so its result is
the one it would get on its own.  The batch form integrates many
segments at once (one numpy call per refinement level), which is what
the harmonic-map evaluator and the Tamanoi oracle lean on.

An integrand may return several components per point, on leading axes
in front of the points' shape: the Tamanoi oracle integrates the pair
(h', g') over one set of nodes.  A segment then leaves the batch once
every component has converged, so a component that converged a level
earlier takes the finer level's value; a single component is the
scalar case, unchanged.
"""

import numpy as np

from .errors import QuadratureFailure

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_DEPTH = 12


def _composite(values_fn, z0, z1, pieces):
    """Composite 16-point Gauss-Legendre over each segment split in ``pieces``."""
    frac = (np.arange(pieces)[:, None] + (_GL_NODES[None, :] + 1.0) / 2.0) / pieces
    frac = frac.reshape(-1)  # (pieces*16,)
    w = np.tile(_GL_WEIGHTS, pieces) / (2.0 * pieces)
    span = z1 - z0
    pts = z0[..., None] + span[..., None] * frac
    vals = np.asarray(values_fn(pts), dtype=np.complex128)
    return span * np.sum(vals * w, axis=-1)


def integrate_segments(values_fn, z0, z1, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Integrate ``values_fn`` along each straight segment z0[i] -> z1[i].

    ``values_fn`` must accept a complex ndarray and return values of the
    same shape, or of that shape behind leading component axes, which the
    result keeps in front of the segments' shape.  Each segment's
    subdivision doubles until two consecutive levels agree to ``tol``
    (absolute) in every component; the segment then leaves the batch
    with the finer level's value, so every result equals the one
    :func:`integrate_segment` gives for that segment alone.  A segment
    still unconverged after ``max_depth`` raises QuadratureFailure, which
    names it.
    """
    z0, z1 = np.broadcast_arrays(np.asarray(z0, dtype=np.complex128),
                                 np.asarray(z1, dtype=np.complex128))
    active = np.arange(z0.size)
    a, b = z0.reshape(-1), z1.reshape(-1)
    prev = _composite(values_fn, a, b, 1)
    components = prev.shape[:-1]
    out = np.empty(components + (z0.size,), dtype=np.complex128)
    for depth in range(1, max_depth + 1):
        cur = _composite(values_fn, a, b, 2 ** depth)
        done = np.abs(cur - prev) <= tol
        if components:
            done = done.reshape(-1, done.shape[-1]).all(axis=0)
        out[..., active[done]] = cur[..., done]
        if np.all(done):
            return out.reshape(components + z0.shape)
        keep = ~done
        active, a, b, prev = active[keep], a[keep], b[keep], cur[..., keep]
    raise QuadratureFailure(
        f"integral did not reach tol={tol} within depth {max_depth} "
        f"on segment {a[0]} -> {b[0]}"
    )


def integrate_segment(values_fn, z0, z1, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Scalar convenience wrapper around :func:`integrate_segments`."""
    out = integrate_segments(values_fn, np.asarray([z0]), np.asarray([z1]),
                             tol=tol, max_depth=max_depth)
    return complex(out[0])
