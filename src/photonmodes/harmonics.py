"""Bessel functions, spin-weighted harmonics and the eth ladder operators.

Bessel functions of the first kind are evaluated in-package, from one
downward three-term recurrence, J_{k-1} = (2k/x) J_k - J_{k+1} from given
seeds (_downward), and one branch dispatcher, which runs a batch wholly in
one branch in place and gathers and scatters a mixed one once by index
(_by_branch).  Integer orders take one of three branches per point, by its
own argument: the series band for x <= 8, the Hankel asymptotic expansion
(DLMF 10.17.3) for x >= max(20, n_max^2/2), and in between Miller's
algorithm (seeds 0 and 1e-30, normalized with the even-order sum rule),
started from that band's largest argument; only this band sums the even
orders.  The series band seeds the descent with the ascending power series
at the two highest orders asked for, its 36 terms summed by Horner's rule in
q = x^2/4 from coefficients cached per order; a point whose top-order value
is below 1e-280 (x = 0, J_80(1e-4)) keeps the series at every order.
Half-integer orders use the closed trigonometric forms, the upward
recurrence where x exceeds the order, and Miller's algorithm anchored on
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
from functools import lru_cache, partial

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

@lru_cache(maxsize=None)
def _series_coeffs(n):
    """c_k = (-1)^k / (k! (n+1)_k), k < _SERIES_TERMS, of the ascending
    series J_n(x) = (x/2)^n / n! sum_k c_k q^k, q = x^2/4; highest k first
    for Horner's rule."""
    c = [1.0]
    for k in range(1, _SERIES_TERMS):
        c.append(-c[-1] / (k * (n + k)))
    return tuple(c[::-1])


def _series_int(n, x):
    """Ascending series for J_n(x), n >= 0, vectorized over x (x <= cutoff):
    its _SERIES_TERMS terms by Horner's rule in q = x^2/4."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * x
    with np.errstate(divide="ignore"):
        logt0 = n * np.log(np.where(half > 0, half, 1.0)) - math.lgamma(n + 1)
    lead = np.where(half > 0, np.exp(logt0), 1.0 if n == 0 else 0.0)
    q = half * half
    coeffs = _series_coeffs(n)
    total = np.full_like(q, coeffs[0])
    for c in coeffs[1:]:
        total *= q
        total += c
    return lead * total


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


def _hankel_int(ns, x):
    """Rows J_n(x), one per order of ns >= 0, from the Hankel expansion
    (DLMF 10.17.3), each x >= _hankel_edge(max(ns)): P and Q by Horner in
    -(s/x)^2, run in place, and cos(x - phi) expanded so that only x itself
    is reduced mod 2 pi.  cos x, sin x and sqrt(2/(pi x)) are taken once for
    every order."""
    cx, sx = np.cos(x), np.sin(x)
    amp = np.sqrt(2.0 / (math.pi * x))
    out = np.empty((len(ns), x.size))
    for row, n in enumerate(ns):
        s, p_coeffs, q_coeffs = _hankel_coeffs(n)
        u = s / x
        y = -u * u
        p = np.full_like(x, p_coeffs[0])
        for c in p_coeffs[1:]:
            p *= y
            p += c
        q = np.full_like(x, q_coeffs[0])
        for c in q_coeffs[1:]:
            q *= y
            q += c
        cphi, sphi = _HANKEL_PHASE[n % 4]
        cos_w = cx * cphi + sx * sphi
        sin_w = sx * cphi - cx * sphi
        out[row] = amp * (p * cos_w - (q * u) * sin_w)
    return out


def _by_branch(n_rows, branches, *args):
    """(n_rows, n) rows over the n points of the 1-D args, each point from
    the branch (where, fn) whose mask holds there (the masks partition the
    points); fn maps its points' args to their rows.  A batch wholly in one
    branch runs in place; a mixed one is gathered and scattered once."""
    n = args[0].size
    if not n:
        return np.empty((n_rows, 0))
    out = None
    for where, fn in branches:
        at = np.flatnonzero(where)
        if at.size == n:
            return fn(*args)
        if at.size:
            if out is None:
                out = np.empty((n_rows, n))
            out[:, at] = fn(*(a.take(at) for a in args))
    return out


def _downward(x, keep, offset, start, j_above, j_start, sum_even=False):
    """J~_{k + offset}(x) for every k in keep (sorted integers <= start + 1)
    by the downward recurrence J_{nu-1} = (2 nu / x) J_nu - J_{nu+1} from
    the seeds j_above = J~_{start+1+offset} and j_start = J~_{start+offset};
    x > 0 vectorized.  Returns the kept rows (in the order of keep) and, if
    sum_even, the sum of the even orders 0 < 2k < start (else None).

    Columns past _RESCALE_AT are rescaled on the way down to avoid overflow.
    The scan for them runs only once a scalar bound on max |J~|, grown by
    2 |k + offset| / min(x) + 1 a step from the larger seed, passes
    _RESCALE_BOUND (or is NaN); below it no column can be past _RESCALE_AT,
    so the rescale fires at the same steps and points as a scan at every
    step would."""
    slot = {k: i for i, k in enumerate(keep)}
    rows = np.zeros((len(keep), x.size))
    for k, seed in ((start + 1, j_above), (start, j_start)):
        if k in slot:
            rows[slot[k]] = seed
    # three buffers of its own rotate through jp, jc and jm, so the steps
    # allocate nothing and the seeds are not written
    jp, jc, jm = np.array(j_above, dtype=float), np.array(j_start, dtype=float), np.empty_like(x)
    even_sum = np.zeros_like(x) if sum_even else None
    inv_xmin = 1.0 / float(np.min(x))   # inf for min(x) below 1 / DBL_MAX
    bound = float(np.maximum(np.abs(jc).max(), np.abs(jp).max()))
    for k in range(start, min(keep), -1):
        np.divide(2.0 * (k + offset), x, out=jm)
        jm *= jc
        jm -= jp
        jp, jc, jm = jc, jm, jp
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
                jp *= scale
                jc *= scale
                if even_sum is not None:
                    even_sum *= scale
                rows *= scale
            bound = float(np.maximum(np.abs(jc).max(), np.abs(jp).max()))   # NaN stays NaN
    return rows, even_sum


def _miller(x, keep, offset):
    """Miller's algorithm (DLMF 10.74(iv)): _downward from the seeds 0 and
    1e-30 at a start index set by max(x) and max(keep), so the rows share
    one unknown factor per point; for integer orders (offset 0) the
    even-order sum, returned with them (else None), normalizes them through
    J_0 + 2 sum_k J_{2k} = 1."""
    xmax = np.max(x)
    start = int(np.ceil(max(xmax + 10.0 * xmax ** (1.0 / 3.0) + 24.0, max(keep) + 24)))
    return _downward(x, keep, offset, start, np.zeros_like(x), np.full_like(x, 1e-30),
                     sum_even=offset == 0)


def _series_rows(ns, x):
    return np.stack([_series_int(n, x) for n in ns])


def _series_band(ns, x):
    """Rows J_n(x) for the sorted orders ns >= 0 on the series band (x <= 8):
    _downward, in which J is the dominant solution, from the series at the
    two highest orders; from an underflowed top value (J_n(0) = 0) it would
    give zeros, so points below _RECURRENCE_FLOOR keep the series."""
    top = ns[-1]
    if top - ns[0] < 2:
        return _series_rows(ns, x)
    j_top, j_next = _series_int(top, x), _series_int(top - 1, x)
    recur = np.abs(j_top) >= _RECURRENCE_FLOOR
    return _by_branch(len(ns), (
        (recur, lambda xs, jt, jn: _downward(xs, ns, 0.0, top - 1, jt, jn)[0]),
        (~recur, lambda xs, jt, jn: _series_rows(ns, xs))), x, j_top, j_next)


def _miller_int(ns, x):
    keep = sorted(set(ns) | {0})
    rows, even_sum = _miller(x, keep, 0.0)
    return rows[[keep.index(n) for n in ns]] / (rows[0] + 2.0 * even_sum)


def _bessel_int_orders(ns, x):
    """Rows J_n(x), one per order of the sorted orders ns >= 0, over the 1-D
    x: each point on the band its own argument calls for (series, Hankel or
    Miller; see the module docstring)."""
    if not ns:
        return np.empty((0, x.size))
    small = x <= _SERIES_CUTOFF
    large = x >= _hankel_edge(ns[-1])
    return _by_branch(len(ns), ((small, partial(_series_band, ns)),
                                (large, partial(_hankel_int, ns)),
                                (~(small | large), partial(_miller_int, ns))), x)


def _trig_half(x):
    """(J_{-1/2}, J_{1/2}) from the closed forms, safe at x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.sqrt(2.0 / (math.pi * x))
        jm = np.where(x > 0, amp * np.cos(x), np.inf)
        jp = np.where(x > 0, amp * np.sin(x), 0.0)
    return jm, jp


def _upward_half(kmax, x, jm, jp):
    """J_{k+1/2}(x) for k = -1 .. kmax by the upward recurrence from the
    trigonometric J_{-1/2} = jm and J_{1/2} = jp; stable for x >= order."""
    out = np.empty((kmax + 2, x.size))
    out[0], out[1] = jm, jp
    for k in range(1, kmax + 1):
        np.subtract((2.0 * (k - 0.5) / x) * out[k], out[k - 1], out=out[k + 1])
    return out


def _downward_half(kmax, x, jm, jp):
    """J_{k+1/2}(x) for k = -1 .. kmax, x > 0, by Miller's algorithm,
    scaled onto whichever trigonometric value is better conditioned."""
    vals, _ = _miller(x, range(-1, kmax + 1), 0.5)
    anchor_half = np.abs(jp) >= np.abs(jm)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals *= np.where(anchor_half, jp / vals[1], jm / vals[0])
    return vals


def _bessel_half_all(kmax, x):
    """J_{k+1/2}(x) for k = -1 .. kmax, shape (kmax+2, x.size).

    Upward recurrence where x >= kmax + 3/2 (stable), Miller's algorithm
    anchored on the trigonometric J_{+-1/2} at the other x > 0; at x = 0
    every order above -1/2 is 0 (and J_{-1/2} is inf).
    """
    x = np.asarray(x, dtype=float)
    jm, jp = _trig_half(x)
    if kmax < 1:
        return np.stack([jm, jp][:kmax + 2])
    up = x >= (kmax + 1.5)
    positive = x > 0
    return _by_branch(kmax + 2, (
        (up, partial(_upward_half, kmax)), (positive & ~up, partial(_downward_half, kmax)),
        (~positive, lambda xs, m, p: np.vstack([m, p, np.zeros((kmax, xs.size))]))), x, jm, jp)


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
    if nu2 % 2 == 0:
        n = nu2 // 2
        sign = 1.0 if (n >= 0 or n % 2 == 0) else -1.0
        res = sign * _bessel_int_orders([abs(n)], xa.ravel())[0].reshape(xa.shape)
    else:
        k = (nu2 - 1) // 2   # order = k + 1/2, k >= -1
        res = _bessel_half_all(max(k, 0), xa.ravel())[k + 1].reshape(xa.shape)
    return res[()]   # a float for a scalar x


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
    need = sorted({abs(int(n)) for n in orders})
    rows = _bessel_int_orders(need, xa.ravel())
    out = {}
    for n in orders:
        v = rows[need.index(abs(int(n)))].reshape(xa.shape)
        out[n] = v if (n >= 0 or n % 2 == 0) else -v
    return out


# ---------------------------------------------------------------------------
# Harmonic labels
# ---------------------------------------------------------------------------

def _integer(name, value, low):
    """value as an int; ValueError naming it unless an integer >= low."""
    if not float(value).is_integer() or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


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
    are taken in order of k, each power pair built by repeated
    multiplication and shared by all spin weights, and cos(m phi) and
    sin(m phi) are taken once.

    At a pole the returned value is the limit along the ray of constant phi;
    it is direction independent unless (theta=0, m=-n) or (theta=pi, m=n)
    with n != 0.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast(theta, phi).shape
    theta = theta.reshape((1,) * (len(shape) - theta.ndim) + theta.shape)
    spins = n if isinstance(n, tuple) else (n,)
    by_power = {}
    for row, nw in enumerate(spins):
        for coeff, pc, _ in _sph_coeffs(nw, l, m):
            by_power.setdefault(pc, []).append((row, coeff))
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    # the powers of S by repeated multiplication, kept where a term needs
    # them; those of C are built on the way up in k
    s_pow, kept = np.ones_like(s), {}
    for k in range(2 * l - min(by_power, default=2 * l) + 1):
        if 2 * l - k in by_power:
            kept[k] = s_pow
        s_pow = s_pow * s
    tots = np.zeros((len(spins),) + c.shape)
    c_pow, k_c = np.ones_like(c), 0
    for pc in sorted(by_power):
        for _ in range(pc - k_c):
            c_pow = c_pow * c
        k_c = pc
        pair = c_pow * kept.pop(2 * l - pc)
        for row, coeff in by_power[pc]:
            tots[row] += coeff * pair
    out = np.zeros((len(spins),) + shape, dtype=complex)
    if m:
        out.real[...] = tots * np.cos(m * phi)
        out.imag[...] = tots * np.sin(m * phi)
    else:
        out.real[...] = tots
    return out if isinstance(n, tuple) else out[0]


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
    basis = np.empty((len(lm), wgt.size), dtype=complex)
    for row, (l, m) in zip(basis, lm):
        row[:] = sph_harmonic_values(n, l, m, TH, PH).ravel()
    weighted = np.conj(basis)
    weighted *= wgt
    return weighted @ basis.T


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
    n_phi = _integer("n_phi", n_phi, 1)
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
