"""The three orthonormal photon mode families as evaluable vector potentials.

Every mode is a positive-energy solution of Box A_a = 0 in the Coulomb gauge
(A_0 = 0, div A = 0) and a simultaneous eigenfield of its family's complete
observable set:

- plane waves      |p, s>            of {P^1, P^2, P^3, S}
- Bessel beams     |p0, pz, m, s>    of {P^0, P^3, L_3, S}
- multipole modes  |p0, l, m, s>     of {P^0, L^2, L_3, S}

Labels store eigenvalues: ``pz`` is the eigenvalue of P^3 = -i d/dz, so the
cylindrical phase is exp(-i(p0 t - pz z)).  Helicity s = +-1 is the
eigenvalue of the field-strength duality operator.

Phase convention for the transverse polarization: for p along +z the
positive-helicity covector is (x_hat + i y_hat)/sqrt(2); for general p it is
(theta_hat(p) + i phi_hat(p))/sqrt(2).  Together with the orientation
eps_{0123} = +1 this makes dual(F) = s F hold for every family with the same
coefficient conventions as the transverse-dyad decompositions.  The dyads
and the spherical angle map come from charts, which the dyad checks in
validation evaluate too: Bessel beams use its constants Z_HAT, U_MINUS,
U_PLUS (the e^{-/+ i phi} of eps-/+ absorbed into J_k(alpha rho) e^{i k phi}),
multipoles the maps that define its sph_dyads.

Evaluators are vectorized over spacetime points: evaluate(t, x, y, z) takes
broadcastable arrays of finite Lorentz coordinates and returns Lorentz
covector components with a trailing axis of length 4.

The jet contract: jet(t, x, y, z) returns (A, dA), the value and
dA[..., mu, nu] = d_mu A_nu (two trailing axes, the d_t row included),
computed analytically in one kernel pass -- one phase for the plane wave,
one Bessel ladder w_k = J_k(alpha rho) e^{i k phi} (k = m-2..m+2) for the
Bessel beam, one radial pass and one angular pass a block for the multipole.
A from jet agrees with evaluate to rounding; gradient() is the jet's second
member, and evaluate keeps its own value-only path.  A consumer that needs
both the value and the gradient on one point set takes the jet.  No family
has a second derivative: validation takes Box A from the jet of any field.
The spherical jet requires off-axis points.  Multipole fields go through one
kernel: a radial factor summed over an energy spectrum times the harmonics,
assembled in the frame (dr, r dtheta, r sin(theta) dphi) and turned into
Lorentz components by elementwise multiply-adds (see SphericalMode).
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .charts import (SPINS, SQRT2, U_MINUS, U_PLUS, Z_HAT, sph_angles, sph_dyad_to_frame,
                     sph_frame, sph_frame_gradient, sph_frame_to_lorentz)
from .errors import DegenerateAxisError, InvalidLabelError
from .harmonics import (
    bessel_j_int_orders,
    _bessel_half_all,
    eth_factor_sph,
    ethbar_factor_sph,
    _integer,
    _set_integers,
    sph_harmonic_values,
)

# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

#: Largest accepted multipole order.  The half-angle form of the harmonics
#: (harmonics.sph_harmonic_values) sums alternating factorial-sized terms;
#: its maximum absolute error against scipy.special.sph_harm_y (n = 0, all m,
#: 2001 theta nodes) is 3.4e-11 at l = 20, 8.2e-10 at l = 25 and 3.4e-8 at
#: l = 30.  The bound can rise once a stable recurrence replaces that form.
SPH_L_MAX = 20


def _check_helicity(s):
    if s not in (+1, -1):
        raise InvalidLabelError("helicity s must be +1 or -1")


@dataclass(frozen=True)
class PlaneWaveLabel:
    """|p, s>: spatial momentum p (nonzero) and helicity s."""
    p: tuple
    s: int

    def __post_init__(self):
        _check_helicity(self.s)
        p = tuple(float(c) for c in self.p)
        if len(p) != 3 or not all(map(math.isfinite, p)) or math.hypot(*p) == 0.0:
            raise InvalidLabelError("plane-wave momentum must be a finite nonzero 3-vector")
        object.__setattr__(self, "p", p)

    @property
    def p0(self):
        return math.hypot(*self.p)


@dataclass(frozen=True)
class CylindricalLabel:
    """|p0, pz, m, s>: energy p0 > 0, longitudinal momentum |pz| <= p0,
    integer angular momentum m, helicity s.  alpha = sqrt(p0^2 - pz^2)."""
    p0: float
    pz: float
    m: int
    s: int

    def __post_init__(self):
        _check_helicity(self.s)
        if not 0 < self.p0 < math.inf:
            raise InvalidLabelError("p0 must be finite and > 0 (positive energy)")
        if not abs(self.pz) <= self.p0:
            raise InvalidLabelError("pz must be finite with |pz| <= p0 (alpha real)")
        _set_integers(self, "m")

    @property
    def alpha(self):
        return math.sqrt(max(self.p0**2 - self.pz**2, 0.0))


@dataclass(frozen=True)
class SphericalLabel:
    """|p0, l, m, s>: energy p0 > 0, total angular momentum
    1 <= l <= SPH_L_MAX, |m| <= l, helicity s.  l = 0 is rejected: the
    corresponding field is identically zero, so the photon's angular
    quantum number starts at 1."""
    p0: float
    l: int
    m: int
    s: int

    def __post_init__(self):
        _check_helicity(self.s)
        if not 0 < self.p0 < math.inf:
            raise InvalidLabelError("p0 must be finite and > 0 (positive energy)")
        _set_integers(self, "l", "m")
        if self.l < 1:
            raise InvalidLabelError("spherical modes require l >= 1; the l = 0 field vanishes identically")
        if self.l > SPH_L_MAX:
            raise InvalidLabelError(f"l must be <= {SPH_L_MAX}; the harmonics lose accuracy above it")
        if abs(self.m) > self.l:
            raise InvalidLabelError("|m| must be <= l")


# ---------------------------------------------------------------------------
# Mode fields
# ---------------------------------------------------------------------------

class ModeField:
    """Common interface of the families: label, energy, vectorized evaluate
    and jet (A, dA), dA[..., mu, nu] = d_mu A_nu from one kernel pass, with
    gradient the jet's second member.  d_t of the field is
    time_derivative(), another field with the same interface."""

    label = None

    @property
    def p0(self):
        """Energy of the label (for a WavePacket, its central energy)."""
        return self.label.p0

    @property
    def p_max(self):
        """Largest energy in the field (for a WavePacket, its top node)."""
        return self.p0

    def time_derivative(self):
        """d_t as a field: every mode is an energy eigenfield, so -i p0 times it."""
        return Superposition([(-1j * self.p0, self)])


def _broadcast(t, x, y, z):
    """Coordinates as broadcast float arrays; ValueError if any is NaN or
    infinite, which no branch of an evaluator could place."""
    t, x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (t, x, y, z)))
    if not all(np.all(np.isfinite(c)) for c in (t, x, y, z)):
        raise ValueError("spacetime coordinates must be finite")
    return t, x, y, z


class PlaneWaveMode(ModeField):
    def __init__(self, label: PlaneWaveLabel):
        self.label = label
        px, py, pz = label.p
        p0 = label.p0
        theta = math.acos(min(1.0, max(-1.0, pz / p0)))
        phi = math.atan2(py, px)
        st, ct = math.sin(theta), math.cos(theta)
        cp, sp = math.cos(phi), math.sin(phi)
        e_theta = np.array([0.0, ct * cp, ct * sp, -st])
        e_phi = np.array([0.0, -sp, cp, 0.0])
        self.polarization = (e_theta + 1j * label.s * e_phi) / SQRT2
        self.p_lower = np.array([p0, -px, -py, -pz])
        self.norm = (2.0 * math.pi) ** -1.5 / math.sqrt(2.0 * p0)

    def _value(self, t, x, y, z):
        t, x, y, z = _broadcast(t, x, y, z)
        px, py, pz = self.label.p
        return (self.norm * np.exp(-1j * (self.p0 * t - px * x - py * y - pz * z)))[..., None] \
            * self.polarization

    def evaluate(self, t, x, y, z):
        return self._value(t, x, y, z)

    def jet(self, t, x, y, z):
        """A from one phase; d_mu A_nu = -i p_mu A_nu."""
        a = self._value(t, x, y, z)
        return a, -1j * self.p_lower[:, None] * a[..., None, :]

    def gradient(self, t, x, y, z):
        return self.jet(t, x, y, z)[1]


def plane_wave(label: PlaneWaveLabel) -> PlaneWaveMode:
    return PlaneWaveMode(label)


class CylindricalMode(ModeField):
    """Bessel-beam mode.

    In terms of the entire cylinder functions w_k = J_k(alpha rho) e^{i k phi}
    the Lorentz components are

        A = e^{-i(p0 t - pz z)} [ cz w_m z_hat + cm w_{m-1} u^- + cp w_{m+1} u^+ ]

    with cz = alpha/(4 pi p0), cm = i (s p0 + pz)/(4 pi p0 sqrt2),
    cp = i (s p0 - pz)/(4 pi p0 sqrt2), kept as attributes; they satisfy the
    gauge and helicity constraint system identically (the longitudinal
    covariant component is p_3 = -pz).  This form is regular on the axis and
    reduces at alpha = 0 to a circularly polarized plane wave for m = +-1 and
    to zero otherwise.

    Both the value and the gradient are linear in the ladder: with the
    phase folded into w, A = w @ V and dA = w @ G for constant matrices over
    k = m-2..m+2 (V is nonzero on k = m-1..m+1, which is all evaluate
    builds), using d_x w_k = (alpha/2)(w_{k-1} - w_{k+1}),
    d_y w_k = (i alpha/2)(w_{k+1} + w_{k-1}), d_t = -i p0 and d_z = i pz.
    """

    def __init__(self, label: CylindricalLabel):
        self.label = label
        p0, pz, s = label.p0, label.pz, label.s
        al = self.alpha = label.alpha
        self.cz = al / (4.0 * math.pi * p0)
        self.cm = 1j * (s * p0 + pz) / (4.0 * math.pi * p0 * SQRT2)
        self.cp = 1j * (s * p0 - pz) / (4.0 * math.pi * p0 * SQRT2)
        value = np.zeros((5, 4), dtype=complex)
        grad = np.zeros((5, 4, 4), dtype=complex)
        for i, coef, pol in ((1, self.cm, U_MINUS), (2, self.cz, Z_HAT), (3, self.cp, U_PLUS)):
            value[i] = coef * pol
            grad[i - 1, 1] += 0.5 * al * coef * pol
            grad[i + 1, 1] -= 0.5 * al * coef * pol
            grad[i - 1, 2] += 0.5j * al * coef * pol
            grad[i + 1, 2] += 0.5j * al * coef * pol
        grad[:, 0] = -1j * p0 * value
        grad[:, 3] = 1j * pz * value
        self._value_matrix = value
        self._grad_matrix = grad.reshape(5, 16)

    @property
    def is_zero(self):
        """Exactly zero field: alpha = 0 with no surviving m = +-1 term."""
        if self.alpha > 0.0:
            return False
        return not ((self.label.m == 1 and self.cm != 0) or (self.label.m == -1 and self.cp != 0))

    def _ladder(self, t, x, y, z, reach):
        """The phased ladder e^{-i(p0 t - pz z)} J_k(alpha rho) e^{i k phi}
        for k = m-reach..m+reach, stacked on a trailing axis, from one
        bessel_j_int_orders call.  e^{i k phi} are powers of
        e^{i phi} = (x + i y)/rho, taken as 1 on the axis (where J_k(0) = 0
        for every k != 0)."""
        lo, hi = self.label.m - reach, self.label.m + reach
        rho = np.hypot(x, y)
        off = rho > 0
        r = np.where(off, rho, 1.0)
        e_phi = np.empty(rho.shape, dtype=complex)
        e_phi.real = np.where(off, x / r, 1.0)
        e_phi.imag = y / r
        js = bessel_j_int_orders(range(lo, hi + 1), self.alpha * rho)
        e_k = np.exp(-1j * (self.label.p0 * t - self.label.pz * z))
        e_k = e_k * (e_phi if lo >= 0 else np.conj(e_phi)) ** abs(lo)
        w = np.empty(rho.shape + (hi - lo + 1,), dtype=complex)
        for i, k in enumerate(range(lo, hi + 1)):
            if i:
                e_k = e_k * e_phi
            w[..., i] = js[k] * e_k
        return w

    def evaluate(self, t, x, y, z):
        t, x, y, z = _broadcast(t, x, y, z)
        return self._ladder(t, x, y, z, 1) @ self._value_matrix[1:4]

    def jet(self, t, x, y, z):
        """A and d_mu A_nu from one ladder over k = m-2..m+2."""
        t, x, y, z = _broadcast(t, x, y, z)
        w = self._ladder(t, x, y, z, 2)
        return w @ self._value_matrix, (w @ self._grad_matrix).reshape(t.shape + (4, 4))

    def gradient(self, t, x, y, z):
        return self.jet(t, x, y, z)[1]


def cylindrical_mode(label: CylindricalLabel) -> CylindricalMode:
    return CylindricalMode(label)


# -- spherical ---------------------------------------------------------------

def sph_radial_profiles(label: SphericalLabel, r, derivs=0):
    """Radial profiles (R0, Rm, Rp) of the multipole mode and, with
    derivs=1, their first r-derivatives, from Bessel recurrences; ValueError
    for any other derivs.

    R0 = (sqrt(L)/2) J_{l+1/2}(x) / (x sqrt(r)),  x = p0 r, L = l(l+1)
    Rm/Rp = g_-/+(x) / (2 sqrt(2 r)),
    g_- = ((i s x - l)/x) J_{l+1/2} + J_{l-1/2}
    g_+ = ((i s x + l)/x) J_{l+1/2} - J_{l-1/2}

    Rp = -conj(Rm) and dRp = -conj(dRm): both come from Re and Im of g_-.
    """
    if derivs not in (0, 1):
        raise ValueError(f"derivs must be 0 or 1, got {derivs!r}")
    r = np.asarray(r, dtype=float)
    p0, l, s = label.p0, label.l, label.s
    L = l * (l + 1)
    x = p0 * r
    half = _bessel_half_all(l + 1, x.ravel())
    shape = x.shape
    jm2 = half[l - 1].reshape(shape)   # J_{l-3/2}
    jm = half[l].reshape(shape)        # J_{l-1/2}
    jp = half[l + 1].reshape(shape)    # J_{l+1/2}
    jp2 = half[l + 2].reshape(shape)   # J_{l+3/2}

    sru = np.sqrt(r)
    scale = 1.0 / (2.0 * SQRT2 * sru)
    R0 = (math.sqrt(L) / 2.0) * jp / (x * sru)
    gm_re = jm - (l / x) * jp          # Im g_- = s J_{l+1/2}
    Rm = gm_re * scale + 1j * (s * jp * scale)
    if derivs == 0:
        return R0, Rm, -np.conj(Rm)

    # first derivatives of the Bessel factors: J'_nu = (J_{nu-1} - J_{nu+1})/2
    djp = 0.5 * (jm - jp2)
    djm = 0.5 * (jm2 - jp)
    dgm_re = (l / x**2) * jp - (l / x) * djp + djm
    dR0 = (math.sqrt(L) / 2.0) * (p0 * djp / (x * sru) - jp * (p0 / (x**2 * sru) + 0.5 / (x * r * sru)))
    dRm = (p0 * dgm_re - 0.5 * gm_re / r) * scale + 1j * ((p0 * djp - 0.5 * jp / r) * s * scale)
    return (R0, Rm, -np.conj(Rm)), (dR0, dRm, -np.conj(dRm))


_POLE_TOL = 1e-12
#: points per block of the multipole frame assembly, whose temporaries then
#: stay in cache (whole-batch ones would be fresh memory each time), and
#: nodes per block of sample_grid, so that a grid block is one frame block
_FRAME_BLOCK = 4096

#: Relative spread within which a packet's radii count as one radius.  A
#: radius recomputed from (x, y, z) carries a few units of roundoff: one
#: quadrature radius rounds to values at most 2.04 eps apart (relative).
_RADIUS_RTOL = 8.0 * np.finfo(float).eps


def _radius_groups(t, r):
    """Group the (t, r) pairs of a point set (flattened) that share t and
    whose radii agree to within _RADIUS_RTOL relative: maximal runs of the
    sorted pairs whose consecutive radii are that close, and a run whose
    radii spread wider is split at every change of value, so that each
    pair's radius is within _RADIUS_RTOL of its group's.  Returns each
    group's t and smallest radius and, per pair, its group."""
    t, r = (a.ravel() for a in np.broadcast_arrays(t, r))
    order = np.argsort(t + 1j * r)
    ts, rs = t[order], r[order]
    cut = np.empty(ts.size, dtype=bool)
    cut[:1] = True
    cut[1:] = (ts[1:] != ts[:-1]) | (rs[1:] - rs[:-1] > _RADIUS_RTOL * rs[1:])
    group = np.cumsum(cut) - 1
    starts = np.flatnonzero(cut)
    far = rs - rs[starts][group] > _RADIUS_RTOL * rs
    if far.any():
        wide = np.bincount(group, far)[group] > 0
        cut[1:] |= wide[1:] & (rs[1:] != rs[:-1])
        group = np.cumsum(cut) - 1
        starts = np.flatnonzero(cut)
    inverse = np.empty_like(group)
    inverse[order] = group
    return ts[starts], rs[starts], inverse


class SphericalMode(ModeField):
    """Multipole mode |p0, l, m, s>.

    A = e^{-i p0 t} [ R0 Y[0,l,m] dr + Rm Y[-1,l,m] eps- + Rp Y[1,l,m] eps+ ]

    Only the radial factor depends on the energy.  The mode carries an
    energy spectrum of pairs (p_k, w_k), here the single pair (p0, 1), and
    every field it returns is

        sum_n [ sum_k w_k (-i p_k)^order e^{-i p_k t} R_n(p_k, r) ] Y[n] dyad_n

    evaluate is order 0; jet takes the first r- and t-derivatives of the
    same radial sum (_radial).  The products radial factor x Y[n] are
    assembled in the spherical frame, _FRAME_BLOCK points at a time, by the
    maps that define the dyads (charts.sph_dyad_to_frame, sph_frame_to_lorentz).
    d_t A is the evaluate of time_derivative(), the weights w_k (-i p_k).
    A WavePacket is a SphericalMode with a many-term spectrum.

    Evaluation is regular everywhere: on the polar axis and at the origin
    the (finite) limit of the combined expression is used even though the
    dyad factors are separately singular there.  jet() and gradient()
    require off-axis points.
    """

    def __init__(self, label: SphericalLabel):
        self.label = label
        self._unit = replace(label, p0=1.0)
        self._spectrum = (np.array([label.p0]), np.array([1.0]))

    @property
    def p_max(self):
        return float(self._spectrum[0].max())

    def _radial(self, t, r, *terms):
        """Radial factors summed over the spectrum: for each (j, order) in
        terms, j = 0 or 1, sum_k w_k (-i p_k)^order e^{-i p_k t}
        d^j/dr^j (R0, Rm, Rp) at energy p_k, stacked to shape (3,) + r.shape.
        One sph_radial_profiles call at unit energy serves every p_k, since
        R(p, r) = sqrt(p) R(1, p r).

        With more than one energy the sum runs once per distinct radius of
        each t (_radius_groups: radii within a few units of roundoff of each
        other are one radius, the error r carries from its (x, y, z)) and is
        gathered back to the points: a quadrature slice has few distinct
        radii, and a packet's radial sum is most of its work.  A single
        energy keeps the per-point path, where the sort would cost more than
        the radial work it saves."""
        p, w = self._spectrum
        shape = np.shape(r)
        if p.size > 1:
            t, r, inverse = _radius_groups(t, r)
        derivs = max(j for j, _ in terms)
        prof = sph_radial_profiles(self._unit, np.multiply.outer(p, r), derivs)
        if derivs == 0:
            prof = (prof,)
        k = (slice(None),) + (None,) * np.ndim(r)
        phase = w[k] * np.exp(-1j * np.multiply.outer(p, t))
        out = [np.stack([np.sum(phase * ((-1j * p) ** order * p ** (j + 0.5))[k] * R, axis=0)
                         for R in prof[j]]) for j, order in terms]
        if p.size > 1:
            out = [rad[:, inverse].reshape((3,) + shape) for rad in out]
        return out

    def _harmonics(self, theta, phi, derivs=False):
        """Y[n, l, m] for n in SPINS, stacked; with derivs also their
        theta-derivatives -(eth + ethb) Y[n] / 2, from Y[-2..2].  One
        sph_harmonic_values call serves every spin weight."""
        l, m = self.label.l, self.label.m
        if not derivs:
            return sph_harmonic_values(SPINS, l, m, theta, phi)
        y = sph_harmonic_values(tuple(range(-2, 3)), l, m, theta, phi)
        return (y[[2 + n for n in SPINS]],
                np.stack([-0.5 * (eth_factor_sph(n, l) * y[n + 3]
                                  + ethbar_factor_sph(n, l) * y[n + 1]) for n in SPINS]))

    def time_derivative(self):
        """d_t of the field: a copy whose spectrum weights are w_k (-i p_k)."""
        dt, (p, w) = copy.copy(self), self._spectrum
        dt._spectrum = (p, w * (-1j * p))
        return dt

    def evaluate(self, t, x, y, z):
        shape = np.broadcast(t, x, y, z).shape
        t, x, y, z = (c.ravel() for c in _broadcast(t, x, y, z))
        r, theta, phi = sph_angles(x, y, z)
        # components scale as r^{l-1}: l >= 2 vanishes at the origin (those
        # rows are zeroed); l = 1 has a finite limit there and is evaluated
        # at least 1e-12 / max p_k off it, an O(p r) directional error below
        # the evaluation tolerance
        vanishing = (r < _POLE_TOL) & (self.label.l > 1)
        r = np.where(vanishing, 1.0, np.maximum(r, 1e-12 / self.p_max))
        # on the polar axis Y[n] dyad_n tends to a phi-independent limit
        # (only m = -n survives at the north pole, m = n at the south pole):
        # its value at theta = 0 or pi and phi = 0
        on_axis = np.sin(theta) < _POLE_TOL
        theta = np.where(on_axis, np.where(z > 0, 0.0, math.pi), theta)
        phi = np.where(on_axis, 0.0, phi)
        rad, = self._radial(t, r, (0, 0))
        out = np.zeros((t.size, 4), dtype=complex)
        for start in range(0, t.size, _FRAME_BLOCK):
            b = slice(start, start + _FRAME_BLOCK)
            out[b, 1], out[b, 2], out[b, 3] = sph_frame_to_lorentz(
                *sph_dyad_to_frame(*(rad[:, b] * self._harmonics(theta[b], phi[b]))),
                sph_frame(theta[b], phi[b]))
        out[vanishing] = 0.0
        return out.reshape(shape + (4,))

    def jet(self, t, x, y, z):
        """A and d_mu A_nu from one radial pass (values, r- and t-derivatives)
        and one angular pass (Y[-2..2]) a block; off-axis points only."""
        shape = np.broadcast(t, x, y, z).shape
        t, x, y, z = (c.ravel() for c in _broadcast(t, x, y, z))
        r, theta, phi = sph_angles(x, y, z)
        if np.any(r < _POLE_TOL) or np.any(np.sin(theta) < _POLE_TOL):
            raise DegenerateAxisError(
                "analytic spherical gradient requires off-axis points")
        radial = self._radial(t, r, (0, 0), (1, 0), (0, 1))
        value = np.zeros((t.size, 4), dtype=complex)
        grad = np.zeros((t.size, 4, 4), dtype=complex)
        for start in range(0, t.size, _FRAME_BLOCK):
            b = slice(start, start + _FRAME_BLOCK)
            rad, d_rad, dt_rad = (factor[:, b] for factor in radial)
            ys, d_ys = self._harmonics(theta[b], phi[b], derivs=True)
            frame = sph_frame(theta[b], phi[b])
            a = sph_dyad_to_frame(*(rad * ys))
            value[b, 1], value[b, 2], value[b, 3] = sph_frame_to_lorentz(*a, frame)
            grad[b, 0, 1], grad[b, 0, 2], grad[b, 0, 3] = sph_frame_to_lorentz(
                *sph_dyad_to_frame(*(dt_rad * ys)), frame)
            sph_frame_gradient(
                a, sph_dyad_to_frame(*(d_rad * ys)), sph_dyad_to_frame(*(rad * d_ys)),
                [1j * self.label.m * c for c in a], r[b], frame, grad[b, 1:, 1:])
        return value.reshape(shape + (4,)), grad.reshape(shape + (4, 4))

    def gradient(self, t, x, y, z):
        return self.jet(t, x, y, z)[1]


def spherical_mode(label: SphericalLabel) -> SphericalMode:
    return SphericalMode(label)


def make_mode(label) -> ModeField:
    """The mode of a plane-wave, cylindrical or spherical label."""
    if isinstance(label, PlaneWaveLabel):
        return plane_wave(label)
    if isinstance(label, CylindricalLabel):
        return cylindrical_mode(label)
    return spherical_mode(label)


class Superposition:
    """Finite linear combination sum_k c_k F_k of fields (same interface)."""

    def __init__(self, terms):
        self.terms = list(terms)

    def evaluate(self, t, x, y, z):
        return sum(c * f.evaluate(t, x, y, z) for c, f in self.terms)

    def time_derivative(self):
        return Superposition([(c, f.time_derivative()) for c, f in self.terms])

    def jet(self, t, x, y, z):
        """The sum of the terms' jets, accumulated in place: the first term
        makes the sum's arrays and each later one is added into them.  A
        term's jet is freed before the next term's is taken."""
        value = grad = 0.0
        for i, (c, f) in enumerate(self.terms):
            a, g = f.jet(t, x, y, z)
            if i:
                value += c * a
                grad += c * g
            else:
                value, grad = value + c * a, grad + c * g
            del a, g
        return value, grad


# ---------------------------------------------------------------------------
# Field strength and grids
# ---------------------------------------------------------------------------

def field_strength(mode: ModeField, t, x, y, z):
    """F_{mu nu} = d_mu A_nu - d_nu A_mu from the analytic gradient."""
    g = mode.gradient(t, x, y, z)
    return g - np.swapaxes(g, -1, -2)


@dataclass(frozen=True)
class GridSpec:
    """Axis ranges (min, max, n) for a Lorentz-chart tensor grid.
    ValueError naming the axis unless min and max are finite and n is an
    integer >= 1 (stored as int)."""
    t: tuple = (0.0, 0.0, 1)
    x: tuple = (-1.0, 1.0, 9)
    y: tuple = (-1.0, 1.0, 9)
    z: tuple = (-1.0, 1.0, 9)

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            lo, hi, n = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"grid axis {name}: min and max must be finite, "
                                 f"got {lo!r}, {hi!r}")
            object.__setattr__(self, name, (lo, hi, _integer(f"grid axis {name}: n", n, 1)))

    def axis(self, name):
        lo, hi, n = getattr(self, name)
        return np.linspace(lo, hi, n) if n > 1 else np.array([0.5 * (lo + hi)])


@dataclass
class FieldGrid:
    """Covector field sampled on a (t, x, y, z) tensor grid.

    values has shape (nt, nx, ny, nz, 4); spacing is per-axis (nan for
    singleton axes)."""
    axes: dict
    values: np.ndarray
    label: object = None

    def spacing(self, name):
        ax = self.axes[name]
        return float(ax[1] - ax[0]) if len(ax) > 1 else float("nan")

    @property
    def shape(self):
        return self.values.shape


def _index_blocks(shape, size=None):
    """Walk the flat indices of a row-major array of the given shape in
    contiguous blocks of size indices (the whole range as one block when
    size is None): yields (block, index), block the slice of flat indices
    and index the tuple of per-axis index arrays of its entries, so that
    1-d factors gathered by index give the block's nodes without any
    whole-array coordinate being built."""
    n = math.prod(shape)
    size = size or n
    for start in range(0, n, size):
        block = slice(start, min(start + size, n))
        yield block, np.unravel_index(np.arange(block.start, block.stop), shape)


def _grid_blocks(axes):
    """Walk the nodes of a (t, x, y, z) tensor grid in row-major order, in
    contiguous blocks of _FRAME_BLOCK nodes, the multipole kernel's own
    block: yields (block, (t, x, y, z)), block the slice of flat node
    indices and the coordinates 1-d arrays of its nodes.  No whole-grid
    coordinate array is built."""
    shape = tuple(len(ax) for ax in axes.values())
    for block, index in _index_blocks(shape, _FRAME_BLOCK):
        yield block, tuple(ax[i] for ax, i in zip(axes.values(), index))


def sample_grid(mode: ModeField, spec: GridSpec) -> FieldGrid:
    """Evaluate a mode on a tensor grid; warns when the spacing under-resolves
    the mode's largest wavenumber (|spacing| > 1/(8 p_max), p_max its largest
    energy; an axis may run in either direction).

    The nodes are evaluated in row-major blocks of _FRAME_BLOCK (4,096), so
    the working set is the values array plus one block's evaluation,
    whatever the grid size, and a multipole block is one pass of its frame
    assembly.  A grid of at most one block is one evaluate call.  On a
    larger one a Bessel-beam or multipole value can differ at rounding level
    from a whole-grid call: the downward Bessel recurrence starts from the
    largest argument of the batch, here of the block."""
    axes = {name: spec.axis(name) for name in ("t", "x", "y", "z")}
    kmax = getattr(mode, "p_max", mode.p0)   # a duck-typed field may carry p0 only
    for name, ax in axes.items():
        if len(ax) > 1 and abs(ax[1] - ax[0]) > 1.0 / (8.0 * kmax):
            warnings.warn(
                f"grid axis {name} spacing {abs(ax[1]-ax[0]):.3g} exceeds "
                f"1/(8 kmax) = {1.0/(8*kmax):.3g}; sampled field may be "
                "under-resolved", stacklevel=2)
    values = np.empty(tuple(len(ax) for ax in axes.values()) + (4,), dtype=complex)
    flat = values.reshape(-1, 4)
    for block, coords in _grid_blocks(axes):
        flat[block] = mode.evaluate(*coords)
    return FieldGrid(axes=axes, values=values, label=mode.label)
