"""Bessel functions, spin-weighted harmonics and the eth ladder operators.

Bessel functions of the first kind are evaluated in-package.  Integer
orders take one of three branches per point, by its own argument: the
series band for x <= 8, the Hankel asymptotic expansion (DLMF 10.17.3) for
x >= max(20, n_max^2/2), and in between the downward (Miller) three-term
recurrence, started from that band's largest argument and normalized with
the even-order sum rule.  The series band takes the ascending power series
at the two highest orders asked for and the downward recurrence
J_{k-1} = (2k/x) J_k - J_{k+1} below them; a point whose top-order value is
not well above underflow (below 1e-280, e.g. x = 0 or J_80(1e-4)) keeps the
series at every order instead.  Half-integer orders use the
closed trigonometric forms, the upward recurrence where x exceeds the
order, and the same downward recurrence kernel (_downward) anchored on
J_{+-1/2} elsewhere.

Spin-weighted cylindrical harmonics:

    Z[n, alpha, m](rho, phi) = J_{m+n}(alpha rho) e^{i m phi}

Spin-weighted spherical harmonics Y[n, l, m] use the Condon-Shortley
convention for n = 0 and the eth ladder

    eth  Y[n] = +sqrt((l-n)(l+n+1)) Y[n+1]
    ethb Y[n] = -sqrt((l+n)(l-n+1)) Y[n-1]

with the first-order operators (acting on a spin-n quantity)

    eth  f = -(d_theta + i csc(theta) d_phi - n cot(theta)) f      (spherical)
    eth  f = -(d_rho   + (i/rho) d_phi     - n/rho)          f      (cylindrical)

and the conjugate expressions for ethb.  Evaluation uses the equivalent
closed form as a polynomial in cos(theta/2), sin(theta/2), which is regular
at the poles and reproduces the ladder-generated functions exactly (the test
suite checks this against symbolic differentiation of Y_lm).  The
theta-derivative of Y[n] is the ladder sum -(eth + ethb) Y[n] / 2.

The grid form (eth_numeric, ethbar_numeric) differentiates spectrally in phi
and with the 4th-order stencil of fdiff.grid_partial in the radial variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fdiff
from .errors import InvalidLabelError, InvalidOrderError, ResolutionError

_SERIES_CUTOFF = 8.0   # series/recurrence switch; cancellation past here
_SERIES_TERMS = 36
_HANKEL_MIN = 20.0     # Hankel expansion from max(this, n^2/2) on (_hankel_edge)
_HANKEL_TERMS = 20     # terms in each of P and Q
_RECURRENCE_FLOOR = 1e-280   # smallest top-order value the series band recurs from
_RESCALE_AT = 1e250      # Miller columns past this are scaled by its inverse
_RESCALE_BOUND = 1e240   # growth bound from which _downward scans for them
_PHI_TAIL_TOL = 1e-8   # largest azimuthal spectral tail (relative) a grid resolves


# ---------------------------------------------------------------------------
# Bessel J of integer and half-integer order
# ---------------------------------------------------------------------------

def _series_int(n, x):
    """Ascending series for J_n(x), n >= 0, vectorized over x (x <= cutoff)."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * x
    with np.errstate(divide="ignore"):
        logt0 = n * np.log(np.where(half > 0, half, 1.0)) - math.lgamma(n + 1)
    term = np.where(half > 0, np.exp(logt0), 1.0 if n == 0 else 0.0)
    total = term.copy()
    q = half * half
    for k in range(1, _SERIES_TERMS):
        term = -term * q / (k * (n + k))
        total += term
    return total


def _hankel_edge(n):
    """Smallest x at which order n takes the Hankel expansion."""
    return max(_HANKEL_MIN, 0.5 * n * n)


@lru_cache(maxsize=None)
def _hankel_coeffs(n):
    """The edge s = _hankel_edge(n) and a_k(n) / s^k of DLMF 10.17.1, split
    into the even-k (P) and odd-k (Q) terms, each highest k first for
    Horner's rule.  Scaled by s^k the coefficients stay below 1 in
    magnitude for every order, where a_k(n) alone overflows for n ~ 5e4."""
    mu = 4.0 * n * n
    s = _hankel_edge(n)
    a = [1.0]
    for k in range(1, 2 * _HANKEL_TERMS):
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k * s))
    return s, a[-2::-2], a[::-2]


_SQRT_HALF = math.sqrt(0.5)
# (cos, sin) of phi = (n/2 + 1/4) pi, by n mod 4
_HANKEL_PHASE = ((_SQRT_HALF, _SQRT_HALF), (-_SQRT_HALF, _SQRT_HALF),
                 (-_SQRT_HALF, -_SQRT_HALF), (_SQRT_HALF, -_SQRT_HALF))


def _hankel_int(n, x):
    """J_n(x) from the Hankel expansion (DLMF 10.17.3), n >= 0, for
    x >= _hankel_edge(n): P and Q by Horner in -(s/x)^2, and cos(x - phi)
    expanded so that only x itself is reduced mod 2 pi."""
    s, p_coeffs, q_coeffs = _hankel_coeffs(n)
    u = s / x
    y = -u * u
    p = np.full_like(x, p_coeffs[0])
    for c in p_coeffs[1:]:
        p = p * y + c
    q = np.full_like(x, q_coeffs[0])
    for c in q_coeffs[1:]:
        q = q * y + c
    cphi, sphi = _HANKEL_PHASE[n % 4]
    cx, sx = np.cos(x), np.sin(x)
    cos_w = cx * cphi + sx * sphi
    sin_w = sx * cphi - cx * sphi
    return np.sqrt(2.0 / (math.pi * x)) * (p * cos_w - (q * u) * sin_w)


def _downward(x, keep, offset):
    """J~_{k + offset}(x) for every k in keep (integers >= -1), by the
    downward recurrence J_{nu-1} = (2 nu / x) J_nu - J_{nu+1} from a tiny
    seed to k = min(min(keep), 0); x > 0 vectorized.  The start index is set
    by max(x) and max(keep).

    The values share one unknown factor per point.  Returns the kept rows
    (in the order of keep) and, for offset 0, the even-order sum
    sum_{k>=1} J~_{2k}, which normalizes integer orders through
    J_0 + 2 sum_k J_{2k} = 1 (None for any other offset).

    Columns past _RESCALE_AT are rescaled on the way down to avoid overflow.
    The scan for them runs only once a scalar bound on max |J~|, grown by
    2 |k + offset| / min(x) + 1 a step, passes _RESCALE_BOUND (or is NaN);
    below it no column can be past _RESCALE_AT, so the rescale fires at the
    same steps and points as a scan at every step would."""
    xmax = np.max(x)
    start = int(np.ceil(max(xmax + 10.0 * xmax ** (1.0 / 3.0) + 24.0, max(keep) + 24)))
    slot = {k: i for i, k in enumerate(keep)}
    rows = np.zeros((len(keep), x.size))
    jp = np.zeros_like(x)          # J~_{k+1}
    jc = np.full_like(x, 1e-30)    # J~_k
    even_sum = np.zeros_like(x) if offset == 0 else None
    inv_xmin = 1.0 / float(np.min(x))   # inf for min(x) below 1 / DBL_MAX
    bound = 1e-30                  # >= max(|J~_k|, |J~_{k+1}|) over the points
    for k in range(start, min(min(keep), 0), -1):
        jm = (2.0 * (k + offset) / x) * jc - jp
        jp, jc = jc, jm
        bound *= 2.0 * abs(k + offset) * inv_xmin + 1.0
        km = k - 1
        if km in slot:
            rows[slot[km]] = jc
        if even_sum is not None and km > 0 and km % 2 == 0:
            even_sum += jc
        if not bound < _RESCALE_BOUND:
            big = np.abs(jc) > _RESCALE_AT
            if np.any(big):
                scale = np.where(big, 1.0 / _RESCALE_AT, 1.0)
                jp = jp * scale
                jc = jc * scale
                if even_sum is not None:
                    even_sum = even_sum * scale
                rows *= scale
            bound = float(np.maximum(np.abs(jc).max(), np.abs(jp).max()))   # NaN stays NaN
    return rows, even_sum


def _series_band(ns, x):
    """dict n -> J_n(x) for the sorted nonnegative orders ns on the series
    band (x <= 8): the series at the two highest orders, then the downward
    recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, in which J is the dominant
    solution.  A recurrence from an underflowed top value (J_n(0) = 0,
    J_80(1e-4) ~ 1e-463) would give zeros, so points whose top value is
    below _RECURRENCE_FLOOR take the series at every order instead."""
    top = ns[-1]
    if top - ns[0] < 2:
        return {n: _series_int(n, x) for n in ns}
    j_top, j_next = _series_int(top, x), _series_int(top - 1, x)
    ok = np.abs(j_top) >= _RECURRENCE_FLOOR
    out = {n: np.empty_like(x) for n in ns}
    xr, jp, jc = x[ok], j_top[ok], j_next[ok]
    out[top][ok] = jp
    if top - 1 in out:
        out[top - 1][ok] = jc
    for k in range(top - 1, ns[0], -1):
        jp, jc = jc, (2.0 * k / xr) * jc - jp
        if k - 1 in out:
            out[k - 1][ok] = jc
    if not np.all(ok):
        xs = x[~ok]
        for n in ns:
            out[n][~ok] = _series_int(n, xs)
    return out


def _bessel_int_orders(ns, x):
    """dict n -> J_n(x) for nonnegative integer orders, vectorized.

    Each point takes the branch its own argument calls for: the series band
    for x <= 8 (the series at the two highest orders and the downward
    recurrence below them, or the series at every order where the top one
    is not well above underflow; see _series_band), the Hankel expansion
    for x >= max(20, n_max^2/2), and the downward recurrence in between,
    started from that band's largest x."""
    x = np.asarray(x, dtype=float)
    ns = sorted(ns)
    out = {n: np.zeros_like(x) for n in ns}
    small = x <= _SERIES_CUTOFF
    large = x >= _hankel_edge(max(ns, default=0))
    middle = ~small & ~large
    if np.any(small) and ns:
        for n, v in _series_band(ns, x[small]).items():
            out[n][small] = v
    if np.any(large):
        xl = x[large]
        for n in ns:
            out[n][large] = _hankel_int(n, xl)
    if np.any(middle):
        xm = x[middle]
        keep = sorted(set(ns) | {0})
        rows, even_sum = _downward(xm, keep, 0.0)
        norm = rows[0] + 2.0 * even_sum
        for n in ns:
            out[n][middle] = rows[keep.index(n)] / norm
    return out


def _trig_half(x):
    """(J_{-1/2}, J_{1/2}) from the closed forms, safe at x = 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.sqrt(2.0 / (math.pi * x))
        jm = np.where(x > 0, amp * np.cos(x), np.inf)
        jp = np.where(x > 0, amp * np.sin(x), 0.0)
    return jm, jp


def _bessel_half_all(kmax, x):
    """J_{k+1/2}(x) for k = -1 .. kmax, shape (kmax+2, x.size).

    Upward recurrence where x >= order (stable), the downward recurrence
    anchored on the trigonometric J_{+-1/2} elsewhere.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((kmax + 2, x.size))
    jm, jp = _trig_half(x)
    out[0] = jm   # k = -1
    if kmax >= 0:
        out[1] = jp
    if kmax < 1:
        return out
    up = x >= (kmax + 1.5)
    if np.any(up):
        xu = x[up]
        a, b = jm[up], jp[up]
        for k in range(1, kmax + 1):
            nu = k - 0.5
            c = (2.0 * nu / xu) * b - a
            out[k + 1][up] = c
            a, b = b, c
    down = ~up & (x > 0)
    if np.any(down):
        xd = x[down]
        vals, _ = _downward(xd, range(-1, kmax + 1), 0.5)
        # anchor on whichever trig value is better conditioned
        anchor_half = np.abs(jp[down]) >= np.abs(jm[down])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(anchor_half, jp[down] / vals[1], jm[down] / vals[0])
        vals *= ratio
        out[:, down] = vals
    return out


def _finite_argument(x):
    """x as a float array; ValueError if any entry is NaN or infinite (one
    such entry would also set the Miller start index of its whole batch)."""
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("Bessel argument x must be finite")
    return xa


def _check_order(order):
    if not math.isfinite(float(order)):
        raise InvalidOrderError(f"order {order} is not finite")
    nu2 = round(2.0 * float(order))
    if abs(2.0 * float(order) - nu2) > 1e-12:
        raise InvalidOrderError(f"order {order} is not a multiple of 1/2")
    if nu2 % 2 == 1 and nu2 < -1:
        raise InvalidOrderError(
            f"half-integer order {order} < -1/2 is not supported")
    return nu2


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x), finite x >= 0.

    Supported orders: all integers (negative ones via J_{-n} = (-1)^n J_n)
    and half-integers >= -1/2.  Vectorized over x.

    Accuracy for x <= 1e3: relative error <= 1e-12 wherever |J| exceeds 1%
    of the oscillation envelope sqrt(2/(pi x)); near the zeros of J the
    error stays below 1e-12 of the envelope (a fixed-precision floor shared
    by any double-precision evaluation of an oscillatory function).  Integer
    orders 0-40 also stay within 1e-13 of the envelope out to x = 1e5, where
    the Hankel expansion serves x >= max(20, n^2/2) at a cost independent
    of x; half-integer orders above 1/2 run the upward recurrence there.
    """
    nu2 = _check_order(order)
    xa = _finite_argument(x)
    if np.any(xa < 0):
        raise ValueError("bessel_j requires x >= 0")
    scalar = np.isscalar(x) or xa.ndim == 0
    xa = np.atleast_1d(xa)
    if nu2 % 2 == 0:
        n = nu2 // 2
        sign = 1.0 if (n >= 0 or n % 2 == 0) else -1.0
        res = sign * _bessel_int_orders([abs(n)], xa)[abs(n)]
    else:
        k = (nu2 - 1) // 2   # order = k + 1/2, k >= -1
        res = _bessel_half_all(max(k, 0), xa.ravel())[k + 1].reshape(xa.shape)
    return res[0] if scalar and res.shape == (1,) else (res.item() if scalar else res)


def bessel_j_int_orders(orders, x):
    """dict order -> J_order(x) for a set of integer orders (negatives OK)
    and finite x >= 0; output arrays match the shape of x.  InvalidOrderError
    for a non-integral or non-finite order."""
    bad = [n for n in orders if not float(n).is_integer()]
    if bad:
        raise InvalidOrderError(f"orders {bad} are not integers")
    xa = _finite_argument(x)
    if np.any(xa < 0):
        raise ValueError("bessel_j_int_orders requires x >= 0")
    shape = xa.shape
    need = sorted({abs(int(n)) for n in orders})
    base = _bessel_int_orders(need, np.atleast_1d(xa).ravel())
    out = {}
    for n in orders:
        v = base[abs(int(n))].reshape(shape)
        out[n] = v if (n >= 0 or n % 2 == 0) else -v
    return out


# ---------------------------------------------------------------------------
# Harmonic labels
# ---------------------------------------------------------------------------

def _set_integers(label, *names):
    """Store the named fields of a frozen label as ints; InvalidLabelError
    unless each is integral (so neither NaN nor infinite)."""
    for name in names:
        value = getattr(label, name)
        if not float(value).is_integer():
            raise InvalidLabelError(f"{name} must be an integer")
        object.__setattr__(label, name, int(value))


@dataclass(frozen=True)
class CylHarmonicLabel:
    """Label of Z[n, alpha, m]; finite alpha >= 0, m integer, n integer spin
    weight."""
    n: int
    alpha: float
    m: int

    def __post_init__(self):
        _set_integers(self, "n", "m")
        if not 0 <= self.alpha < math.inf:
            raise InvalidLabelError("alpha must be finite and >= 0")


@dataclass(frozen=True)
class SphHarmonicLabel:
    """Label of Y[n, l, m]; integers with l >= 0, |m| <= l.  Y vanishes for
    l < |n|."""
    n: int
    l: int
    m: int

    def __post_init__(self):
        _set_integers(self, "n", "l", "m")
        if self.l < 0:
            raise InvalidLabelError("l must be >= 0")
        if abs(self.m) > self.l:
            raise InvalidLabelError("|m| must be <= l")


# ---------------------------------------------------------------------------
# Spin-weighted cylindrical harmonics
# ---------------------------------------------------------------------------

def cyl_harmonic_values(n, alpha, m, rho, phi):
    """Z[n, alpha, m] = J_{m+n}(alpha rho) e^{i m phi}, vectorized."""
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    order = m + n
    j = bessel_j_int_orders([order], alpha * rho)[order]
    return j * np.exp(1j * m * phi)


# ---------------------------------------------------------------------------
# Spin-weighted spherical harmonics (half-angle polynomial form)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sph_coeffs(n, l, m):
    """Coefficients c_r of Y[n,l,m] = e^{imphi} sum_r c_r C^{2r+n-m} S^{2(l-r)-(n-m)}
    with C = cos(theta/2), S = sin(theta/2); empty for l < |n|."""
    if l < abs(n) or l < abs(m):
        return ()
    k = (-1) ** m * math.sqrt(
        (2 * l + 1) / (4.0 * math.pi)
        * math.factorial(l + m) * math.factorial(l - m)
        / (math.factorial(l + n) * math.factorial(l - n)))
    terms = []
    for r in range(max(0, m - n), min(l - n, l + m) + 1):
        c = k * (-1) ** (l - r - n) * math.comb(l - n, r) * math.comb(l + n, r + n - m)
        terms.append((c, 2 * r + n - m, 2 * (l - r) - (n - m)))
    return tuple(terms)


def sph_harmonic_values(n, l, m, theta, phi):
    """Y[n, l, m](theta, phi), vectorized; exactly zero for l < |n|.

    n may also be a tuple of spin weights: the values are then stacked on a
    new leading axis.  Every term of every spin weight is a coefficient
    times C^k S^{2l-k} (C = cos(theta/2), S = sin(theta/2)), so the terms
    are taken in order of k, each power pair built once and shared by all
    spin weights, and e^{i m phi} is built once.

    At a pole the returned value is the limit along the ray of constant phi;
    it is direction independent unless (theta=0, m=-n) or (theta=pi, m=n)
    with n != 0.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    spins = n if isinstance(n, tuple) else (n,)
    by_power = {}
    for row, nw in enumerate(spins):
        for coeff, pc, _ in _sph_coeffs(nw, l, m):
            by_power.setdefault(pc, []).append((row, coeff))
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    tots = [None] * len(spins)
    for pc in sorted(by_power):
        c_pow, s_pow = c**pc, s**(2 * l - pc)
        for row, coeff in by_power[pc]:
            term = coeff * c_pow * s_pow
            tots[row] = term if tots[row] is None else tots[row] + term
    eimphi = np.exp(1j * m * phi)
    shape = np.broadcast(theta, phi).shape
    rows = [np.zeros(shape, dtype=complex) if tot is None else tot * eimphi for tot in tots]
    return np.stack(rows) if isinstance(n, tuple) else rows[0]


@lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only (every caller shares the arrays)."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def sph_harmonic_gram(n, lm, n_theta, n_phi):
    """Overlap matrix int conj(Y[n,l,m]) Y[n,l',m'] dOmega over the labels
    lm = [(l, m), ...] at one spin weight n: Gauss-Legendre in cos(theta)
    with n_theta nodes, the uniform rule in phi with n_phi nodes; exact when
    n_theta > max l and n_phi > 2 max l."""
    xu, wu = _gauss_legendre(n_theta)
    TH, PH = np.meshgrid(np.arccos(xu), np.arange(n_phi) * (2.0 * math.pi) / n_phi,
                         indexing="ij")
    wgt = np.broadcast_to(wu[:, None] * (2.0 * math.pi / n_phi), TH.shape).ravel()
    basis = np.stack([sph_harmonic_values(n, l, m, TH, PH).ravel() for l, m in lm])
    return np.einsum("ik,k,jk->ij", np.conj(basis), wgt, basis)


# ---------------------------------------------------------------------------
# eth / ethbar: analytic ladder form
# ---------------------------------------------------------------------------

def eth_factor_sph(n, l):
    prod = (l - n) * (l + n + 1)
    return math.sqrt(prod) if prod > 0 else 0.0


def ethbar_factor_sph(n, l):
    prod = (l + n) * (l - n + 1)
    return -math.sqrt(prod) if prod > 0 else 0.0


def _not_a_harmonic(label):
    return TypeError(f"expected a CylHarmonicLabel or SphHarmonicLabel, got {type(label).__name__}")


def _ladder(label, sign):
    """sign=+1: eth, sign=-1: ethb, in the geometry of the label's type."""
    if isinstance(label, CylHarmonicLabel):
        return CylHarmonicLabel(label.n + sign, label.alpha, label.m), sign * label.alpha
    if isinstance(label, SphHarmonicLabel):
        factor = eth_factor_sph if sign > 0 else ethbar_factor_sph
        return SphHarmonicLabel(label.n + sign, label.l, label.m), factor(label.n, label.l)
    raise _not_a_harmonic(label)


def eth_analytic(label):
    """Raised label and factor: eth maps label -> factor * label', in the
    geometry of the label's type; TypeError naming any other type."""
    return _ladder(label, +1)


def ethbar_analytic(label):
    """Lowered label and factor: ethb maps label -> factor * label', as eth_analytic."""
    return _ladder(label, -1)


# ---------------------------------------------------------------------------
# eth / ethbar: numeric grid form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarGridFunction:
    """Spin-weighted function sampled on a (radial x azimuthal) tensor grid.

    ``radial`` is rho (cylindrical) or theta (spherical), uniformly spaced;
    ``azimuthal`` must be the uniform grid 2*pi*k/n_phi, k = 0..n_phi-1.
    """

    kind: str
    spin: int
    radial: np.ndarray
    azimuthal: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.radial), len(self.azimuthal)):
            raise ValueError("values must have shape (n_radial, n_azimuthal)")


def sample_harmonic(label, radial, n_phi=32) -> PolarGridFunction:
    """The harmonic of label on the grid radial x (2 pi k / n_phi), of the geometry
    of the label's type; TypeError naming any other type, ValueError naming
    n_phi unless it is an integer >= 1."""
    if not float(n_phi).is_integer() or n_phi < 1:
        raise ValueError(f"n_phi must be an integer >= 1, got {n_phi!r}")
    radial = np.asarray(radial, dtype=float)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    rr, pp = np.meshgrid(radial, phi, indexing="ij")
    if isinstance(label, CylHarmonicLabel):
        kind, vals = "cylindrical", cyl_harmonic_values(label.n, label.alpha, label.m, rr, pp)
    elif isinstance(label, SphHarmonicLabel):
        kind, vals = "spherical", sph_harmonic_values(label.n, label.l, label.m, rr, pp)
    else:
        raise _not_a_harmonic(label)
    return PolarGridFunction(kind, label.n, radial, phi, vals)


def _spectral_phi_derivative(grid: PolarGridFunction):
    fhat = np.fft.fft(grid.values, axis=1)
    nphi = len(grid.azimuthal)
    k = np.fft.fftfreq(nphi, d=1.0 / nphi)
    peak = np.abs(fhat).max()
    if peak > 0:
        band = np.abs(k) >= nphi // 2 - 1
        if np.abs(fhat[:, band]).max() > _PHI_TAIL_TOL * peak:
            raise ResolutionError(
                "azimuthal grid does not resolve the sampled function "
                f"(spectral tail above {_PHI_TAIL_TOL:g})")
    return np.fft.ifft(1j * k[None, :] * fhat, axis=1)


def _eth_like(grid, sign):
    """sign=+1: eth, sign=-1: ethb, of grid.kind, on the interior sub-grid."""
    h = grid.radial[1] - grid.radial[0]
    if not np.allclose(np.diff(grid.radial), h):
        raise ValueError("radial axis must be uniform")
    dphi = _spectral_phi_derivative(grid)
    drad = fdiff.grid_partial(grid.values, 0, h)
    inner = slice(fdiff.BOUNDARY_RING, -fdiff.BOUNDARY_RING)
    rad = grid.radial[inner][:, None]
    f = grid.values[inner]
    dphi = dphi[inner]
    n = grid.spin
    if grid.kind == "cylindrical":
        out = -(drad + sign * (1j / rad) * dphi - sign * (n / rad) * f)
    elif grid.kind == "spherical":
        csc = 1.0 / np.sin(rad)
        cot = np.cos(rad) * csc
        out = -(drad + sign * 1j * csc * dphi - sign * n * cot * f)
    else:
        raise ValueError(f"unknown grid kind {grid.kind!r}")
    return PolarGridFunction(grid.kind, n + sign, grid.radial[inner], grid.azimuthal, out)


def eth_numeric(grid: PolarGridFunction) -> PolarGridFunction:
    """Apply the differential eth of the grid's geometry (grid.kind), spectral
    in phi and 4th-order radially; returns the radial interior, spin + 1."""
    return _eth_like(grid, +1)


def ethbar_numeric(grid: PolarGridFunction) -> PolarGridFunction:
    """The differential ethb, as eth_numeric; spin - 1."""
    return _eth_like(grid, -1)
