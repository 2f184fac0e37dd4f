"""Fourth-order central finite differences for callables and grids.

Callables take (t, x, y, z) with numpy broadcasting and return arrays whose
leading dimensions follow the coordinates.  partial(), value_and_partials()
and gradient4() each call f once, on a whole stencil: the broadcast
coordinates with the stencil points stacked on new leading axes, so a
finite-difference Lie derivative is one call of its field and nested ones
(Lie derivatives of Lie derivatives) one call per level.  All three are
cases of one private builder, _stencil, which lays out the stencil, calls f
and forms the weighted sums.  The step h must be finite and nonzero
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


def _stencil(f, coords, axes, h, base=False, lead=None):
    """(vals, partials) from one call of f: its values on one leading axis
    and the first partials along axes, stacked in their order.  The stencil
    stacks the base point (if base) and then each axis's four offsets on one
    new leading axis, which f sees reshaped to lead (if given)."""
    _check_step(h)
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shape = coords[0].shape
    n_off = len(D1_OFFSETS)
    shift = np.array(D1_OFFSETS, dtype=float).reshape((-1,) + (1,) * len(shape)) * h
    stencil = [np.broadcast_to(c, (base + n_off * len(axes),) + shape).copy() for c in coords]
    for i, axis in enumerate(axes):
        stencil[axis][base + n_off * i:base + n_off * (i + 1)] += shift
    lead = lead or stencil[0].shape[:1]
    vals = np.asarray(f(*(c.reshape(lead + shape) for c in stencil)))
    vals = vals.reshape((-1,) + vals.shape[len(lead):])
    offsets = vals[base:].reshape((len(axes), n_off) + vals.shape[1:])
    return vals, sum(w * offsets[:, j] for j, w in enumerate(D1_WEIGHTS)) / h


def partial(f, coords, axis, h=DEFAULT_H):
    """4th-order first partial derivative of callable f along one axis.

    coords is a (t, x, y, z) tuple of scalars/arrays; axis in 0..3.  f is
    called once, on the whole stencil: the broadcast coordinates with the
    offsets along axis stacked on a new leading axis.
    """
    return _stencil(f, coords, (axis,), h)[1][0]


def value_and_partials(f, coords, axes, h=DEFAULT_H):
    """(f(coords), [d f / d x^axis for axis in axes]) from one call of f.

    f sees the broadcast coordinates stacked 1 + 4 len(axes) deep on a new
    leading axis: the base point, then the four offsets of each axis in
    turn.  axes=() calls f on the base point alone (leading axis 1)."""
    vals, partials = _stencil(f, coords, axes, h, base=True)
    return vals[0], list(partials)


def gradient4(f, coords, h=DEFAULT_H):
    """All four first partials of f, stacked on a new leading axis [mu], from
    one call of f on the stencils of every axis (two new leading axes
    [mu, offset])."""
    return _stencil(f, coords, range(4), h, lead=(4, len(D1_OFFSETS)))[1]


def grid_partial(values, axis, h, order=1):
    """Stencil derivative of order 1 or 2 (ValueError otherwise) along one axis.

    The returned array is the interior only: trimmed by BOUNDARY_RING nodes
    at both ends of the differentiated axis, and nowhere else, so callers
    that keep a smaller interior trim the other axes of values first.  The
    weighted terms are accumulated in place in the stencil's order."""
    _check_step(h)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    n = values.shape[axis]
    if n < 5:
        raise StencilError(
            f"axis {axis} has {n} nodes; the 4th-order stencil needs >= 5 "
            f"(boundary ring width {BOUNDARY_RING})")
    offsets, weights = (D1_OFFSETS, D1_WEIGHTS) if order == 1 else (D2_OFFSETS, D2_WEIGHTS)
    sl = [slice(None)] * values.ndim
    out = term = None
    for off, w in zip(offsets, weights):
        sl[axis] = slice(BOUNDARY_RING + off, n - BOUNDARY_RING + off or None)
        if out is None:
            out = w * values[tuple(sl)]
            term = np.empty_like(out)
        else:
            out += np.multiply(w, values[tuple(sl)], out=term)
    out /= h**order
    return out


def trim_interior(values, axes):
    """Cut BOUNDARY_RING nodes from both ends of each axis in axes."""
    sl = [slice(None)] * values.ndim
    for ax in axes:
        sl[ax] = slice(BOUNDARY_RING, values.shape[ax] - BOUNDARY_RING)
    return values[tuple(sl)]
