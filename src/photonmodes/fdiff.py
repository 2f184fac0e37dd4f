"""Fourth-order central finite differences for callables and grids.

Callables take (t, x, y, z) with numpy broadcasting and return arrays whose
leading dimensions follow the coordinates.  partial() hands a callable the
whole stencil as one batch: the coordinates broadcast together, with the
stencil offsets on a new leading axis, so f is called once per partial.
value_and_partials() takes the value and the partials along several axes
from one call of f, the base point and each axis's offsets stacked on one
new leading axis, so a finite-difference Lie derivative is one call of its
field and nested ones (Lie derivatives of Lie derivatives) one call per
level.  gradient4() calls f once on the stencils of all four axes (two new
leading axes [mu, offset]).  All three use the offsets, weights and
summation order of partial().  The step h must be finite and nonzero
(ValueError otherwise); it may be negative, as a descending grid axis's
spacing is.

All stencils are the classic 5-point 4th-order central formulas; halving h
must shrink the truncation error by ~16x, which the test suite checks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StencilError

# offsets and weights for d/dx (4th order)
D1_OFFSETS = (-2, -1, 1, 2)
D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)

# offsets and weights for d^2/dx^2 (4th order)
D2_OFFSETS = (-2, -1, 0, 1, 2)
D2_WEIGHTS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)

DEFAULT_H = 0.01
BOUNDARY_RING = 2   # interior trim for grid stencils


def _check_step(h):
    if not (math.isfinite(h) and h != 0):
        raise ValueError(f"step h must be finite and nonzero, got {h!r}")


def partial(f, coords, axis, h=DEFAULT_H):
    """4th-order first partial derivative of callable f along one axis.

    coords is a (t, x, y, z) tuple of scalars/arrays; axis in 0..3.  f is
    called once, on the whole stencil: the broadcast coordinates with the
    offsets along axis stacked on a new leading axis.
    """
    _check_step(h)
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shift = np.array(D1_OFFSETS, dtype=float).reshape((-1,) + (1,) * coords[0].ndim) * h
    stencil = [np.broadcast_to(c, shift.shape[:1] + c.shape) for c in coords]
    stencil[axis] = coords[axis] + shift
    vals = f(*stencil)
    return sum(w * val for w, val in zip(D1_WEIGHTS, vals)) / h


def value_and_partials(f, coords, axes, h=DEFAULT_H):
    """(f(coords), [d f / d x^axis for axis in axes]) from one call of f.

    f sees the broadcast coordinates stacked 1 + 4 len(axes) deep on a new
    leading axis: the base point, then the four offsets of each axis in
    turn.  axes=() calls f on the base point alone (leading axis 1)."""
    _check_step(h)
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    n_off = len(D1_OFFSETS)
    shift = np.array(D1_OFFSETS, dtype=float).reshape((-1,) + (1,) * coords[0].ndim) * h
    stencil = [np.broadcast_to(c, (1 + n_off * len(axes),) + c.shape).copy() for c in coords]
    for i, axis in enumerate(axes):
        stencil[axis][1 + n_off * i:1 + n_off * (i + 1)] += shift
    vals = f(*stencil)
    partials = [sum(w * vals[1 + n_off * i + j] for j, w in enumerate(D1_WEIGHTS)) / h
                for i in range(len(axes))]
    return vals[0], partials


def gradient4(f, coords, h=DEFAULT_H):
    """All four first partials of f, stacked on a new leading axis [mu], from
    one call of f on the stencils of every axis."""
    _check_step(h)
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shift = np.array(D1_OFFSETS, dtype=float).reshape((-1,) + (1,) * coords[0].ndim) * h
    stencil = [np.broadcast_to(c, (4,) + shift.shape[:1] + c.shape).copy() for c in coords]
    for mu in range(4):
        stencil[mu][mu] += shift
    vals = f(*stencil)
    return sum(w * vals[:, i] for i, w in enumerate(D1_WEIGHTS)) / h


def grid_partial(values, axis, h, order=1):
    """Stencil derivative of order 1 or 2 (ValueError otherwise) along one axis.

    The returned array is trimmed by BOUNDARY_RING nodes at both ends of the
    differentiated axis only; callers must track the shrinking interior."""
    _check_step(h)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    n = values.shape[axis]
    if n < 5:
        raise StencilError(
            f"axis {axis} has {n} nodes; the 4th-order stencil needs >= 5 "
            f"(boundary ring width {BOUNDARY_RING})")
    offsets, weights = (D1_OFFSETS, D1_WEIGHTS) if order == 1 else (D2_OFFSETS, D2_WEIGHTS)
    core = [slice(None)] * values.ndim
    core[axis] = slice(BOUNDARY_RING, n - BOUNDARY_RING)
    out = np.zeros_like(values[tuple(core)])
    for off, w in zip(offsets, weights):
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(BOUNDARY_RING + off, n - BOUNDARY_RING + off or None)
        out = out + w * values[tuple(sl)]
    return out / h**order


def trim_interior(values, axes):
    """Cut BOUNDARY_RING nodes from both ends of each axis in axes."""
    sl = [slice(None)] * values.ndim
    for ax in axes:
        sl[ax] = slice(BOUNDARY_RING, values.shape[ax] - BOUNDARY_RING)
    return values[tuple(sl)]
