import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv, sph_harm_y

from photonmodes import harmonics
from photonmodes.harmonics import (bessel_j, bessel_j_int_orders,
                                   CylHarmonicLabel, SphHarmonicLabel,
                                   cyl_harmonic_values, sph_harmonic_values,
                                   eth_analytic, ethbar_analytic,
                                   eth_factor_sph, ethbar_factor_sph, eth_numeric,
                                   ethbar_numeric, sample_harmonic)
from photonmodes.errors import InvalidLabelError, InvalidOrderError, ResolutionError
from photonmodes.modes import SphericalLabel

from oracles import bessel_series, bessel_half_trig


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------

def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_bessel_half_integer_closed_form():
    # J_{1/2}(pi/2) = sqrt(2/(pi x)) sin(x) = 2/pi, cross-checked on the
    # 30-term series oracle
    got = bessel_j(0.5, math.pi / 2)
    assert got == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert got == pytest.approx(bessel_series(0.5, math.pi / 2), rel=1e-13)


def test_bessel_against_series_oracle():
    for nu, x in [(1, 2.0), (2, 1.0), (0, 5.5), (3, 7.0), (1.5, 2.0), (2.5, 6.0)]:
        assert bessel_j(nu, x) == pytest.approx(bessel_series(nu, x), rel=1e-12)
    # the two frozen values quoted elsewhere in the suite
    assert bessel_series(1, 2.0) == pytest.approx(0.5767248077568734, rel=1e-13)
    assert bessel_series(2, 1.0) == pytest.approx(0.1149034849319005, rel=1e-13)


def test_bessel_negative_order_reflection():
    x = 1.0
    assert bessel_j(-2, x) == pytest.approx(bessel_j(2, x), rel=1e-14)
    assert bessel_j(-3, x) == pytest.approx(-bessel_j(3, x), rel=1e-14)
    assert bessel_j(-0.5, 2.0) == pytest.approx(bessel_half_trig(-1, 2.0), rel=1e-14)


def test_bessel_invalid_orders():
    with pytest.raises(InvalidOrderError):
        bessel_j(0.3, 1.0)
    with pytest.raises(InvalidOrderError):
        bessel_j(-1.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(1, -1.0)


@pytest.mark.parametrize("order", [0, 1, 2, -3, 0.5, 2.5])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                               np.array([0.3, math.nan, 12.0]),
                               np.array([[1.0, math.inf], [2.0, 3.0]])])
def test_bessel_rejects_non_finite_arguments(order, x):
    # one non-finite entry fails the whole call loudly, scalar or array;
    # it would also set the Miller start index of the whole batch
    with pytest.raises(ValueError):
        bessel_j(order, x)
    if float(order).is_integer():
        with pytest.raises(ValueError):
            bessel_j_int_orders([order, order + 1], x)


@pytest.mark.parametrize("x", [-1.0, np.array([0.5, -1e-300, 3.0])])
def test_bessel_int_orders_rejects_negative_arguments(x):
    # J_1(-1) = -0.440: the in-package ladder covers x >= 0 only, and a
    # negative rho in cyl_harmonic_values reaches it as alpha * rho
    with pytest.raises(ValueError):
        bessel_j_int_orders([0, 1], x)
    with pytest.raises(ValueError):
        cyl_harmonic_values(0, 1.0, 1, -np.abs(x), 0.3)


@pytest.mark.parametrize("x", [1.0, np.array([0.5, 3.0, 40.0])])
def test_bessel_rejects_non_integral_and_non_finite_orders(x):
    # J_1.5 is not J_1: an order that is not an integer must not be
    # truncated, and a non-finite one must not die in an integer conversion
    for orders in ([1.5], [-1.5], [0, 2.5], [math.nan], [1, math.inf], np.array([0.0, 0.5])):
        with pytest.raises(InvalidOrderError):
            bessel_j_int_orders(orders, x)
    for order in (math.nan, math.inf, -math.inf, 0.3):
        with pytest.raises(InvalidOrderError):
            bessel_j(order, x)
    # integral floats are integers
    assert np.array_equal(bessel_j_int_orders([2.0], x)[2.0], bessel_j(2, x))


def test_bessel_accuracy_vs_scipy():
    # relative accuracy 1e-12 where |J| is at least 1% of the oscillation
    # envelope; near a zero the error is measured against the envelope
    x = np.concatenate([np.geomspace(1e-6, 8.0, 160), np.linspace(8.01, 1000.0, 500)])
    for nu in (0, 1, 2, 5, 9, 14, 20, 0.5, 1.5, 4.5, 10.5):
        mine = bessel_j(nu, x)
        ref = jv(nu, x)
        env = np.sqrt(2.0 / (math.pi * np.maximum(x, nu + 1.0)))
        denom = np.maximum(np.abs(ref), 1e-2 * env)
        ok = np.abs(ref) > 1e-270
        assert np.max(np.abs(mine - ref)[ok] / denom[ok]) < 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(nu2=st.integers(0, 40), x=st.floats(1e-3, 100.0))
def test_bessel_three_term_recurrence(nu2, x):
    # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu for integer and half-integer nu
    nu = nu2 / 2.0
    jm, j0, jp = (bessel_j(nu - 1.0, x) if nu >= 0.5 else bessel_j(abs(nu - 1.0), x) * (-1) ** round(nu - 1.0),
                  bessel_j(nu, x), bessel_j(nu + 1.0, x))
    lhs = jm + jp
    rhs = 2.0 * nu / x * j0
    scale = max(abs(lhs), abs(rhs), math.sqrt(2.0 / (math.pi * max(x, nu + 1))))
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_bessel_multi_order_consistency():
    x = np.linspace(0.1, 30.0, 77)
    many = bessel_j_int_orders([-2, -1, 0, 1, 3], x)
    for n in (-2, -1, 0, 1, 3):
        assert np.allclose(many[n], jv(n, x), atol=1e-13)
    assert np.allclose(bessel_j(2.5, x), jv(2.5, x), atol=1e-13)
    assert np.allclose(bessel_j(3.5, x), jv(3.5, x), atol=1e-13)



def test_bessel_int_orders_hankel_band_vs_mpmath():
    # integer orders on both sides of the Hankel threshold max(20, n^2/2)
    # and out to 1e5, against mpmath, to 1e-13 of the envelope
    mpmath.mp.dps = 30
    for n in range(0, 41):
        edge = max(20.0, 0.5 * n * n)
        x = np.concatenate([[edge * (1.0 - 1e-9), edge * (1.0 - 1e-3), edge,
                             edge * (1.0 + 1e-9)], np.geomspace(edge, 1e5, 6)[1:]])
        ref = np.array([float(mpmath.besselj(n, mpmath.mpf(float(v)))) for v in x])
        env = np.sqrt(2.0 / (math.pi * x))
        assert np.max(np.abs(bessel_j(n, x) - ref) / env) < 1e-13, n
    # orders far past the table above: the expansion's coefficients stay finite
    for n, x in ((5 * 10**4, 2e9), (10**5, 1e10)):
        ref = float(mpmath.besselj(n, mpmath.mpf(x)))
        assert abs(bessel_j(n, x) - ref) < 1e-13 * math.sqrt(2.0 / (math.pi * x)), n


def test_bessel_int_orders_batch_spanning_three_bands():
    # one batch with arguments on the series (x <= 8), recurrence and Hankel
    # (x >= 20 for |n| <= 6) branches, under the scipy accuracy rule above
    x = np.concatenate([np.geomspace(1e-6, 8.0, 60), np.linspace(8.01, 19.99, 120),
                        np.geomspace(20.0, 1e4, 200)])
    got = bessel_j_int_orders(range(-6, 7), x)
    for n in range(-6, 7):
        ref = jv(n, x)
        env = np.sqrt(2.0 / (math.pi * np.maximum(x, abs(n) + 1.0)))
        denom = np.maximum(np.abs(ref), 1e-2 * env)
        ok = np.abs(ref) > 1e-270
        assert np.max(np.abs(got[n] - ref)[ok] / denom[ok]) < 1e-12, n
    # a point's branch depends on its own argument: on the series and Hankel
    # bands each half of the band gives the same values on its own
    for band in (x <= 8.0, x >= 20.0):
        for part in np.array_split(np.flatnonzero(band), 2):
            alone = bessel_j_int_orders(range(-6, 7), x[part])
            for n in range(-6, 7):
                assert np.array_equal(got[n][part], alone[n]), n


def test_bessel_series_band_recurrence_where_the_top_order_underflows():
    # the series band takes the series at its two highest orders and the
    # downward recurrence below them; J_80 underflows at x = 1e-4
    # (~1e-463), and a recurrence from zeros would read J_0 = 0, so such
    # points must keep the series at every order (rule of the test above);
    # at x = 5.9e-3, J_80 ~ 5e-322 is subnormal, with about two digits
    x = np.array([0.0, 1e-8, 1e-6, 1e-4, 5.9e-3, 1e-2, 0.5, 3.0, 8.0])
    got = bessel_j_int_orders(range(0, 81), x)
    assert got[0][0] == 1.0
    for n in range(0, 81):
        ref = jv(n, x)
        env = np.sqrt(2.0 / (math.pi * np.maximum(x, abs(n) + 1.0)))
        denom = np.maximum(np.abs(ref), 1e-2 * env)
        ok = np.abs(ref) > 1e-270
        assert np.max(np.abs(got[n] - ref)[ok] / denom[ok]) < 1e-12, n


def _downward_scanning_every_step(x, keep, offset, rescales):
    """The Miller recurrence with an overflow scan at every step: the
    reference for _downward, whose scan waits for a bound on the growth.
    Appends the step of each rescale to rescales."""
    xmax = np.max(x)
    start = int(np.ceil(max(xmax + 10.0 * xmax ** (1.0 / 3.0) + 24.0, max(keep) + 24)))
    slot = {k: i for i, k in enumerate(keep)}
    rows = np.zeros((len(keep), x.size))
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    even_sum = np.zeros_like(x)
    for k in range(start, min(min(keep), 0), -1):
        jm = (2.0 * (k + offset) / x) * jc - jp
        jp, jc = jc, jm
        km = k - 1
        if km in slot:
            rows[slot[km]] = jc
        if km > 0 and km % 2 == 0:
            even_sum += jc
        big = np.abs(jc) > 1e250
        if np.any(big):
            rescales.append(k)
            scale = np.where(big, 1e-250, 1.0)
            jp = jp * scale
            jc = jc * scale
            even_sum = even_sum * scale
            rows *= scale
    return rows, even_sum


def _log_uniform(lo, hi, n, seed):
    return np.exp(np.random.default_rng(seed).uniform(math.log(lo), math.log(hi), n))


@pytest.mark.parametrize("kmax, x, rescaled", [
    (40, _log_uniform(1e-12, 30.0, 200, 1), True),
    (40, np.array([1e-300, 5e-324, 1e-3, 0.7, 12.0]), True),
    (3, np.array([5e-324]), True),
    (12, _log_uniform(0.05, 30.0, 200, 2), False),
    (2, np.linspace(0.1, 3.0, 7), False),
])
def test_half_integer_downward_recurrence_is_bit_identical_to_a_scan_every_step(
        monkeypatch, kmax, x, rescaled):
    # the overflow scan of _downward waits for its growth bound to pass
    # 1e240; it must rescale at the same steps and points as a scan at every
    # step, so every value is the same float, NaN and inf included
    with np.errstate(all="ignore"):
        got = harmonics._bessel_half_all(kmax, x)
        rescales = []
        monkeypatch.setattr(harmonics, "_downward", lambda xs, keep, offset:
                            _downward_scanning_every_step(xs, keep, offset, rescales))
        want = harmonics._bessel_half_all(kmax, x)
    assert bool(rescales) == rescaled
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("orders, x, rescaled", [
    (range(0, 81), np.linspace(8.01, 3000.0, 300), True),
    (range(0, 41, 5), _log_uniform(8.01, 800.0, 200, 3), True),
    (range(0, 5), np.linspace(8.01, 19.99, 50), False),
])
def test_integer_downward_recurrence_is_bit_identical_to_a_scan_every_step(
        monkeypatch, orders, x, rescaled):
    # the recurrence band of integer orders (8 < x < max(20, n^2/2)), with
    # the even-order sum that normalizes it
    xm = x[(x > 8.0) & (x < max(20.0, 0.5 * max(orders) ** 2))]
    keep = sorted(set(orders) | {0})
    rescales = []
    rows, even_sum = harmonics._downward(xm, keep, 0.0)
    want_rows, want_even = _downward_scanning_every_step(xm, keep, 0.0, rescales)
    assert bool(rescales) == rescaled
    assert np.array_equal(rows, want_rows) and np.array_equal(even_sum, want_even)
    got = harmonics._bessel_int_orders(orders, x)
    monkeypatch.setattr(harmonics, "_downward", lambda xs, keep, offset:
                        _downward_scanning_every_step(xs, keep, offset, []))
    want = harmonics._bessel_int_orders(orders, x)
    for n in orders:
        assert np.array_equal(got[n], want[n], equal_nan=True), n


# ---------------------------------------------------------------------------
# Cylindrical harmonics
# ---------------------------------------------------------------------------

def test_cyl_harmonic_examples():
    # Z[n, alpha, m](rho, phi) at (n, alpha, m) = (0, 1, 0), (1, 2, 0), (0, 1, -2)
    assert complex(cyl_harmonic_values(0, 1.0, 0, 0.0, 0.3)) == 1.0
    v = complex(cyl_harmonic_values(1, 2.0, 0, 1.0, math.pi))
    assert v == pytest.approx(bessel_series(1, 2.0), rel=1e-12)
    v = complex(cyl_harmonic_values(0, 1.0, -2, 1.0, 0.0))
    assert v == pytest.approx(bessel_series(2, 1.0), rel=1e-12)


def test_harmonic_label_validation():
    for bad in ((0, 2.5, 0), (0.5, 1, 0), (0, 2, 1.5), (0, math.nan, 0), (0, math.inf, 0)):
        with pytest.raises(InvalidLabelError):
            SphHarmonicLabel(*bad)
    for bad in ((0, 2, 3), (0, -1, 0)):
        with pytest.raises(InvalidLabelError):
            SphHarmonicLabel(*bad)
    for bad in ((0, math.nan, 1), (0, math.inf, 1), (0, -1.0, 1), (0.5, 1.0, 1),
                (0, 1.0, 1.5), (0, 1.0, math.nan)):
        with pytest.raises(InvalidLabelError):
            CylHarmonicLabel(*bad)
    # integral floats are kept as ints
    assert SphHarmonicLabel(1.0, 2.0, -1.0) == SphHarmonicLabel(1, 2, -1)
    assert type(CylHarmonicLabel(-1.0, 1.5, 2.0).m) is int


def test_cyl_ladder_factors():
    lab, fac = eth_analytic(CylHarmonicLabel(0, 3.0, 1))
    assert (lab.n, lab.alpha, lab.m, fac) == (1, 3.0, 1, 3.0)
    lab, fac = ethbar_analytic(CylHarmonicLabel(1, 2.0, 0))
    assert (lab.n, fac) == (0, -2.0)


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

def test_sph_harmonic_values_against_scipy():
    rng = np.random.default_rng(7)
    th = rng.uniform(0.05, math.pi - 0.05, 40)
    ph = rng.uniform(0, 2 * math.pi, 40)
    for l in range(0, 9):
        for m in range(-l, l + 1):
            assert np.allclose(sph_harmonic_values(0, l, m, th, ph),
                               sph_harm_y(l, m, th, ph), atol=1e-13)
    # the largest l a SphericalLabel accepts (modes.SPH_L_MAX)
    for m in range(-20, 21):
        assert np.abs(sph_harmonic_values(0, 20, m, th, ph)
                      - sph_harm_y(20, m, th, ph)).max() < 1e-10


def test_sph_harmonic_examples():
    assert complex(sph_harmonic_values(0, 0, 0, 0.7, 1.3)) == \
        pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-14)
    # vanishes identically for l < |n|
    assert complex(sph_harmonic_values(1, 0, 0, 0.7, 1.3)) == 0.0
    # Y[1,1,0] at the equator: +sqrt(3/(8 pi))
    got = complex(sph_harmonic_values(1, 1, 0, math.pi / 2, 0.0))
    assert got == pytest.approx(math.sqrt(3.0 / (8.0 * math.pi)), rel=1e-13)


def test_sph_ladder_factors():
    lab, fac = eth_analytic(SphHarmonicLabel(0, 1, 0))
    assert (lab.n, fac) == (1, pytest.approx(math.sqrt(2.0)))
    lab, fac = eth_analytic(SphHarmonicLabel(1, 1, 1))
    assert fac == 0.0
    lab, fac = ethbar_analytic(SphHarmonicLabel(0, 2, 1))
    assert (lab.n, fac) == (-1, pytest.approx(-math.sqrt(6.0)))


def test_sph_ladder_against_symbolic_differentiation():
    # build Y[n,l,m] by applying the first-order eth/ethb operators to the
    # closed-form Y_lm in sympy, then compare numerically
    import sympy as sp

    th_s, ph_s = sp.symbols("theta phi", positive=True)

    def eth_sym(expr, spin):
        return -(sp.diff(expr, th_s) + sp.I / sp.sin(th_s) * sp.diff(expr, ph_s)
                 - spin * sp.cos(th_s) / sp.sin(th_s) * expr)

    def ethbar_sym(expr, spin):
        return -(sp.diff(expr, th_s) - sp.I / sp.sin(th_s) * sp.diff(expr, ph_s)
                 + spin * sp.cos(th_s) / sp.sin(th_s) * expr)

    rng = np.random.default_rng(11)
    pts = [(rng.uniform(0.3, math.pi - 0.3), rng.uniform(0, 2 * math.pi))
           for _ in range(4)]
    for l in (1, 2, 3):
        for m in range(-l, l + 1):
            base = sp.simplify(sp.Ynm(l, m, th_s, ph_s).expand(func=True))
            up = eth_sym(base, 0) / math.sqrt(l * (l + 1))
            dn = ethbar_sym(base, 0) / (-math.sqrt(l * (l + 1)))
            f_up = sp.lambdify((th_s, ph_s), up, "numpy")
            f_dn = sp.lambdify((th_s, ph_s), dn, "numpy")
            for th, ph in pts:
                assert complex(f_up(th, ph)) == pytest.approx(
                    complex(sph_harmonic_values(1, l, m, th, ph)), abs=1e-10)
                assert complex(f_dn(th, ph)) == pytest.approx(
                    complex(sph_harmonic_values(-1, l, m, th, ph)), abs=1e-10)


def test_ladder_action_on_m():
    # (L_+- - n e^{+-i phi} csc(theta)) Y[n,l,m] = sqrt((l-+m)(l+-m+1)) Y[n,l,m+-1]
    th, ph = 1.1, 0.7
    for n, l, m in ((0, 2, 1), (1, 2, 0), (-1, 3, -2)):
        y = sph_harmonic_values(n, l, m, th, ph)
        # d_theta = -(eth + ethb) / 2 on a spin-n function
        dth = -0.5 * (eth_factor_sph(n, l) * sph_harmonic_values(n + 1, l, m, th, ph)
                      + ethbar_factor_sph(n, l) * sph_harmonic_values(n - 1, l, m, th, ph))
        dph = 1j * m * y
        for pm in (+1, -1):
            lpm = pm * np.exp(pm * 1j * ph) * (dth + pm * 1j / math.tan(th) * dph)
            lhs = lpm - n * np.exp(pm * 1j * ph) / math.sin(th) * y
            fac = math.sqrt(max((l - pm * m) * (l + pm * m + 1), 0))
            rhs = fac * sph_harmonic_values(n, l, m + pm, th, ph)
            assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# Numeric eth
# ---------------------------------------------------------------------------

def test_eth_numeric_cylindrical_matches_ladder():
    lab = CylHarmonicLabel(0, 1.0, 0)
    grid = sample_harmonic(lab, np.linspace(0.3, 3.0, 161), n_phi=16)
    up = eth_numeric(grid)
    ref = cyl_harmonic_values(1, 1.0, 0, up.radial[:, None], up.azimuthal[None, :])
    assert up.spin == 1
    assert np.abs(up.values - 1.0 * ref).max() < 1e-7


def test_eth_numeric_constant_zero():
    phi = np.arange(16) * 2 * math.pi / 16
    from photonmodes.harmonics import PolarGridFunction
    grid = PolarGridFunction("cylindrical", 0, np.linspace(0.5, 2.0, 31), phi,
                             np.ones((31, 16), dtype=complex))
    out = eth_numeric(grid)
    assert np.abs(out.values).max() < 1e-12


def test_eth_numeric_spherical_matches_ladder():
    lab = SphHarmonicLabel(0, 2, 1)
    grid = sample_harmonic(lab, np.linspace(0.3, math.pi - 0.3, 161), n_phi=16)
    up = eth_numeric(grid)
    ref = sph_harmonic_values(1, 2, 1, up.radial[:, None], up.azimuthal[None, :])
    assert np.abs(up.values - math.sqrt(6.0) * ref).max() < 1e-7
    dn = ethbar_numeric(grid)
    refd = sph_harmonic_values(-1, 2, 1, dn.radial[:, None], dn.azimuthal[None, :])
    assert np.abs(dn.values + math.sqrt(6.0) * refd).max() < 1e-7


def test_eth_numeric_takes_the_geometry_of_the_grid():
    # a SphHarmonicLabel samples a spherical grid, and eth of that grid is
    # the spherical operator: the cylindrical one on the same values is far
    # off the ladder
    lab = SphHarmonicLabel(0, 2, 1)
    grid = sample_harmonic(lab, np.linspace(0.3, math.pi - 0.3, 161), n_phi=16)
    assert grid.kind == "spherical"
    lab_up, fac = eth_analytic(lab)
    for geometry, near in (("spherical", True), ("cylindrical", False)):
        up = eth_numeric(replace(grid, kind=geometry))
        assert up.kind == geometry
        ref = sph_harmonic_values(lab_up.n, lab_up.l, lab_up.m,
                                  up.radial[:, None], up.azimuthal[None, :])
        assert (np.abs(up.values - fac * ref).max() < 1e-7) == near
    assert sample_harmonic(CylHarmonicLabel(0, 1.0, 1), [0.5, 1.0]).kind == "cylindrical"


@pytest.mark.parametrize("label", [SphericalLabel(1.0, 2, 1, +1), (0, 2, 1)],
                         ids=["mode_label", "tuple"])
def test_sample_harmonic_rejects_a_non_harmonic_label(label):
    # the geometry comes from the label's type: anything else is a TypeError
    # naming that type, not an AttributeError from a missing field
    name = type(label).__name__
    with pytest.raises(TypeError, match=name):
        sample_harmonic(label, np.linspace(0.3, 1.0, 9))
    for ladder in (eth_analytic, ethbar_analytic):
        with pytest.raises(TypeError, match=name):
            ladder(label)


@pytest.mark.parametrize("n_phi", [0, -4, 2.5, math.nan])
def test_sample_harmonic_rejects_a_bad_azimuthal_count(n_phi):
    # n_phi = 0 raised a bare ZeroDivisionError
    with pytest.raises(ValueError, match="n_phi"):
        sample_harmonic(CylHarmonicLabel(0, 1.0, 1), np.linspace(0.3, 1.0, 9), n_phi=n_phi)


def test_eth_numeric_resolution_error():
    # m = 3 content on a 7-point azimuthal grid sits at the Nyquist band
    lab = CylHarmonicLabel(0, 1.0, 3)
    grid = sample_harmonic(lab, np.linspace(0.5, 2.0, 31), n_phi=7)
    with pytest.raises(ResolutionError):
        eth_numeric(grid)


def test_l3_spectral_eigenvalue():
    phi = np.arange(32) * 2 * math.pi / 32
    k = np.fft.fftfreq(32, d=1.0 / 32)
    for vals, m in ((cyl_harmonic_values(0, 1.3, 3, 1.1, phi), 3),
                    (sph_harmonic_values(1, 3, -2, 0.9, phi), -2)):
        deriv = np.fft.ifft(1j * k * np.fft.fft(vals))
        assert np.abs(-1j * deriv - m * vals).max() < 1e-10 * np.abs(vals).max()
