"""Minkowski conventions, the spherical angle map and the null transverse
dyads with their covariant derivatives, vectorized over points.

Conventions used throughout the package:

- Metric signature (+, -, -, -); Lorentz coordinates x^mu = (t, x, y, z),
  natural units c = hbar = 1.
- Indices are raised/lowered with eta = diag(1, -1, -1, -1).
- The volume element is fixed by eps_{0123} = +1 (see ``LEVI_CIVITA``).  With
  this orientation the positive-helicity transverse covector for a wave
  moving along +z is (x_hat + i y_hat)/sqrt(2); the choice is forced by
  requiring the duality eigenvalue of every constructed mode to equal its
  helicity label.
- Covectors are Lorentz components on a trailing axis of length 4.

The dyads and their phases are defined here once; the mode evaluators and
the dyad checks both use them.  A dyad is stacked (axial, eps-, eps+) on a
leading axis of length 3, in the order of the spin weights ``SPINS``:

- cylindrical (dz, eps-, eps+) with eps-/+ = (drho +/- i rho dphi)/sqrt(2)
  = (Z_HAT, e^{-i phi} U_MINUS, e^{+i phi} U_PLUS);
- spherical (dr, eps-, eps+) with eps-/+ = (r/sqrt(2))(dtheta +/- i
  sin(theta) dphi).

eps- and eps+ are complex conjugates, null, and cross-normalized to
g(eps+, eps-) = -1.

The spherical dyads are defined by two maps that the multipole kernel
applies directly, with no dyad arrays: sph_dyad_to_frame takes dyad
coefficients to components on the orthonormal frame (dr, r dtheta,
r sin(theta) dphi), and sph_frame_to_lorentz takes those to Lorentz
components by elementwise multiply-adds; sph_dyads is the two applied to
unit coefficients.  sph_frame_gradient gives the Lorentz gradient of a
covector from the partials of its frame components; the spherical
dyad_derivatives are it on constant dyad coefficients, so the dyad checks
test the connection the multipole jet uses.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DegenerateAxisError

SQRT2 = math.sqrt(2.0)

#: Diagonal of eta as a vector, handy for raising single indices.
ETA_DIAG = np.array([1.0, -1.0, -1.0, -1.0])


def _permutation_sign(perm):
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def _build_levi_civita():
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = _permutation_sign(perm)
    return eps


#: Totally antisymmetric volume element with eps_{0123} = +1 (all indices down).
LEVI_CIVITA = _build_levi_civita()

#: constant covectors (x_hat + i y_hat)/sqrt2 and conjugate, and z_hat
U_MINUS = np.array([0.0, 1.0, 1.0j, 0.0]) / SQRT2
U_PLUS = np.array([0.0, 1.0, -1.0j, 0.0]) / SQRT2
Z_HAT = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)

#: spin weights of the dyad members, in the order (axial, eps-, eps+)
SPINS = (0, -1, 1)


def sph_angles(x, y, z):
    """(r, theta, phi) of Lorentz (x, y, z); theta = 0 at the origin."""
    r = np.sqrt(x * x + y * y + z * z)
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = np.arccos(np.clip(np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0), -1.0, 1.0))
    phi = np.arctan2(y, x)
    return r, theta, phi


def cyl_dyads(phi):
    """Lorentz components of the dyads (dz, eps-, eps+), shape (3,) + phi.shape
    + (4,)."""
    ph = np.exp(-1j * np.asarray(phi))[..., None]
    return np.stack(np.broadcast_arrays(Z_HAT, ph * U_MINUS, np.conj(ph) * U_PLUS))


def sph_frame(theta, phi):
    """(sin theta, cos theta, sin phi, cos phi): the factors of the
    orthonormal spherical frame (dr, r dtheta, r sin(theta) dphi) in
    Lorentz components, for sph_frame_to_lorentz."""
    return np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)


def sph_dyad_to_frame(c0, cm, cp):
    """Frame components (a_r, a_theta, a_phi) of c0 dr + cm eps- + cp eps+,
    eps-/+ = (r dtheta +/- i r sin(theta) dphi)/sqrt(2)."""
    return c0, (cm + cp) * (1.0 / SQRT2), (cm - cp) * (1j / SQRT2)


def sph_frame_to_lorentz(a_r, a_theta, a_phi, frame):
    """Spatial Lorentz components (A_x, A_y, A_z) of the covector
    a_r dr + a_theta r dtheta + a_phi r sin(theta) dphi, whose time
    component is 0, from the factors frame = sph_frame(theta, phi); by
    elementwise multiply-adds, so the components may be arrays of any shape
    that broadcasts against the frame."""
    st, ct, sp, cp = frame
    a_rho = a_r * st + a_theta * ct    # the component along drho
    return a_rho * cp - a_phi * sp, a_rho * sp + a_phi * cp, a_r * ct - a_theta * st


def sph_frame_gradient(a, d_r, d_theta, d_phi, r, frame, out):
    """Spatial Lorentz partials d_i A_j, written into out of shape (..., 3, 3)
    with i, j = x, y, z, of the covector whose frame components are a =
    (a_r, a_theta, a_phi) (see sph_frame_to_lorentz), from the partials d_r,
    d_theta, d_phi of those components at radius r.  Each column j is
    written as it is turned, so no stacked copy of the gradient is made.

    The frame gradient D_b A = e_b . grad A (b = r, theta, phi; grad =
    e_r d_r + e_theta d_theta / r + e_phi d_phi / (r sin(theta))) is turned
    to Lorentz components on both indices.  The frame turns as
    d_theta (e_r, e_theta) = (e_theta, -e_r) and d_phi (e_r, e_theta, e_phi)
    = (sin(theta) e_phi, cos(theta) e_phi, -sin(theta) e_r - cos(theta) e_theta)."""
    st, ct = frame[:2]
    a_r, a_th, a_ph = a
    inv_r = 1.0 / r
    inv_rst = inv_r / st
    rows = (sph_frame_to_lorentz(*d_r, frame),
            sph_frame_to_lorentz((d_theta[0] - a_th) * inv_r, (d_theta[1] + a_r) * inv_r,
                                 d_theta[2] * inv_r, frame),
            sph_frame_to_lorentz((d_phi[0] - st * a_ph) * inv_rst, (d_phi[1] - ct * a_ph) * inv_rst,
                                 (d_phi[2] + st * a_r + ct * a_th) * inv_rst, frame))
    for j, column in enumerate(zip(*rows)):
        out[..., 0, j], out[..., 1, j], out[..., 2, j] = sph_frame_to_lorentz(*column, frame)


def sph_dyads(theta, phi):
    """Lorentz components of the dyads (dr, eps-, eps+), shape (3,) + theta.shape
    + (4,): sph_frame_to_lorentz of their frame components sph_dyad_to_frame.
    Their angular derivatives are combinations of themselves:
    d_theta (dr, eps-, eps+) = (eps- + eps+, -dr, -dr) / sqrt2 and
    d_phi (dr, eps-, eps+) = -i (sin(theta) (eps- - eps+) / sqrt2,
    cos(theta) eps- + sin(theta) dr / sqrt2, -cos(theta) eps+ - sin(theta) dr / sqrt2)."""
    frame = sph_frame(theta, phi)
    zero = np.zeros(np.broadcast(theta, phi).shape)
    return np.stack([np.stack(np.broadcast_arrays(
        zero, *sph_frame_to_lorentz(*sph_dyad_to_frame(*unit), frame)), axis=-1)
        for unit in np.eye(3)])


def dyads(chart, t, x, y, z):
    """The dyad of chart ('cylindrical' or 'spherical') at Lorentz points,
    shape (3,) + the broadcast shape of (t, x, y, z) + (4,).  On the axis
    the members take their value at phi = 0 (and theta = 0 at r = 0)."""
    t, x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (t, x, y, z)))
    if chart == "cylindrical":
        return cyl_dyads(np.arctan2(y, x))
    if chart == "spherical":
        _, theta, phi = sph_angles(x, y, z)
        return sph_dyads(theta, phi)
    raise ValueError(f"no dyad on chart {chart!r}")


def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def dyad_derivatives(chart, t, x, y, z):
    """nabla_a X_b of each dyad member X at Lorentz points, shape (3,) + the
    broadcast shape + (4, 4), index order (a, b):

    Cylindrical, with k = 1 / (sqrt(2) rho):
        nabla dz      = 0
        nabla_a eps-_b = k [eps+_a - eps-_a] eps-_b
        nabla_a eps+_b = k [eps-_a - eps+_a] eps+_b
    Spherical: sph_frame_gradient of each member's constant dyad
    coefficients, the connection the multipole jet is assembled with.

    DegenerateAxisError on the z axis: rho = 0 (cylindrical), r = 0 or the
    polar axis (spherical)."""
    t, x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (t, x, y, z)))
    rho = np.hypot(x, y)
    if np.any(rho == 0.0):
        raise DegenerateAxisError(f"{chart} dyad derivatives undefined on the z axis")
    if chart == "spherical":
        r, theta, phi = sph_angles(x, y, z)
        frame, zero = sph_frame(theta, phi), (0.0, 0.0, 0.0)
        out = np.zeros((3,) + rho.shape + (4, 4), dtype=complex)
        for member, unit in zip(out, np.eye(3)):
            sph_frame_gradient(sph_dyad_to_frame(*unit), zero, zero, zero, r, frame,
                               member[..., 1:, 1:])
        return out
    _, em, ep = dyads(chart, t, x, y, z)
    k = (1.0 / (SQRT2 * rho))[..., None, None]
    return np.stack([np.zeros(em.shape + (4,), dtype=complex), k * _outer(ep - em, em),
                     k * _outer(em - ep, ep)])
