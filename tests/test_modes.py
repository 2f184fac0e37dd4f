import math
import warnings

import numpy as np
import pytest

from photonmodes.modes import (PlaneWaveLabel, CylindricalLabel, SphericalLabel,
                               plane_wave, cylindrical_mode, spherical_mode,
                               field_strength, sample_grid, GridSpec,
                               sph_radial_profiles, SPH_L_MAX)
from photonmodes.operators import (helicity_dual, dalembertian_residual,
                                   divergence_residual, L3, LieField)
from photonmodes.errors import InvalidLabelError, DegenerateAxisError
from photonmodes.charts import U_MINUS, U_PLUS, Z_HAT
from photonmodes.inner_product import (WavePacket, Superposition, GaussianBumpScalar,
                                       gauge_shift)
from photonmodes import fdiff, harmonics, modes

from oracles import bessel_series, bessel_half_trig, multipole_jet

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

def test_label_validation():
    with pytest.raises(InvalidLabelError):
        PlaneWaveLabel((0.0, 0.0, 0.0), +1)
    with pytest.raises(InvalidLabelError):
        CylindricalLabel(1.0, 1.5, 0, +1)
    with pytest.raises(InvalidLabelError):
        CylindricalLabel(-1.0, 0.0, 0, +1)
    with pytest.raises(InvalidLabelError):
        SphericalLabel(1.0, 0, 0, +1)     # l = 0 field vanishes identically
    with pytest.raises(InvalidLabelError):
        SphericalLabel(1.0, 1, 2, +1)
    with pytest.raises(InvalidLabelError):
        SphericalLabel(1.0, 1, 0, 2)
    # non-finite continuous labels
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidLabelError):
            PlaneWaveLabel((bad, 0.0, 1.0), +1)
        with pytest.raises(InvalidLabelError):
            CylindricalLabel(bad, 0.0, 0, +1)
        with pytest.raises(InvalidLabelError):
            CylindricalLabel(1.0, bad, 0, +1)
        with pytest.raises(InvalidLabelError):
            SphericalLabel(bad, 1, 0, +1)
    # non-integral quantum numbers
    with pytest.raises(InvalidLabelError):
        SphericalLabel(1.0, 2.5, 0, +1)
    with pytest.raises(InvalidLabelError):
        SphericalLabel(1.0, 2, 0.5, +1)
    with pytest.raises(InvalidLabelError):
        CylindricalLabel(1.0, 0.1, 1.5, +1)
    assert SphericalLabel(1.0, 2.0, -1.0, +1) == SphericalLabel(1.0, 2, -1, +1)
    # l above the accuracy bound of the harmonics
    assert SphericalLabel(1.0, SPH_L_MAX, 0, +1).l == SPH_L_MAX
    with pytest.raises(InvalidLabelError):
        SphericalLabel(1.0, SPH_L_MAX + 1, 0, +1)


@pytest.mark.parametrize("mode", [plane_wave(PlaneWaveLabel((0.3, 0.5, -0.7), +1)),
                                  cylindrical_mode(CylindricalLabel(1.3, -0.4, 1, -1)),
                                  spherical_mode(SphericalLabel(1.1, 1, 0, +1))],
                         ids=["plane", "cylindrical", "spherical"])
def test_non_finite_coordinates_rejected(mode):
    # a NaN coordinate matches no evaluation branch: it must raise, not
    # come back as a row of zeros
    for pt in ((0.0, 0.3, 0.2, math.nan), (0.0, math.nan, math.nan, math.nan),
               (0.0, 0.3, math.nan, 0.0), (math.inf, 0.3, 0.2, 0.1)):
        with pytest.raises(ValueError):
            mode.evaluate(*pt)
        with pytest.raises(ValueError):
            mode.gradient(*pt)
    xs = np.array([0.4, math.nan])
    with pytest.raises(ValueError):
        mode.evaluate(0.0, xs, 0.2, 0.3)


# ---------------------------------------------------------------------------
# Plane waves
# ---------------------------------------------------------------------------

def test_plane_wave_at_origin():
    # p along +z, s = +1: the polarization covector is (x_hat + i y_hat)/sqrt2
    # (this, with the orientation eps_0123 = +1, is what dual(F) = +F forces;
    # the test below pins the convention)
    k = 2.0
    mode = plane_wave(PlaneWaveLabel((0.0, 0.0, k), +1))
    val = mode.evaluate(0.0, 0.0, 0.0, 0.0)
    norm = (2 * math.pi) ** -1.5 / math.sqrt(2 * k)
    assert np.allclose(val, norm * np.array([0, 1, 1j, 0]) / SQ2)
    f = field_strength(mode, 0.3, 0.1, -0.2, 0.5)
    assert np.abs(helicity_dual(f) - f).max() < 1e-10 * np.abs(f).max()


def test_plane_wave_transversality(rng):
    for _ in range(100):
        p = rng.uniform(-1.5, 1.5, 3)
        if np.hypot(*p[:2]) + abs(p[2]) < 0.1:
            continue
        s = int(rng.choice([-1, 1]))
        mode = plane_wave(PlaneWaveLabel(tuple(p), s))
        t, x, y, z = rng.uniform(-2, 2, 4)
        a = mode.evaluate(t, x, y, z)
        p_vec = np.array([mode.p0, *p])   # p^a, index up
        assert abs(np.sum(p_vec * a)) < 1e-14      # p^a A_a = 0
        assert a[0] == 0                           # temporal gauge


def test_plane_wave_field_strength_closed_form(rng):
    label = PlaneWaveLabel((0.4, -0.3, 0.8), -1)
    mode = plane_wave(label)
    t, x, y, z = 0.2, 0.5, -0.1, 0.9
    f = field_strength(mode, t, x, y, z)
    a = mode.evaluate(t, x, y, z)
    p_low = np.array([mode.p0, -0.4, 0.3, -0.8])
    expect = -1j * (np.einsum("a,b->ab", p_low, a) - np.einsum("b,a->ab", p_low, a))
    assert np.allclose(f, expect, atol=1e-15)


# ---------------------------------------------------------------------------
# Cylindrical modes
# ---------------------------------------------------------------------------

def test_cylindrical_axial_component_value():
    # A_z at (t=0, z=0, phi=0, rho=1) for (p0=1, pz=0, m=1, s=+1):
    # alpha = 1, prefactor alpha/(4 pi p0) = 1/(4 pi), J_1(1) by the series
    # oracle = 0.4400505857449335
    mode = cylindrical_mode(CylindricalLabel(1.0, 0.0, 1, +1))
    val = mode.evaluate(0.0, 1.0, 0.0, 0.0)
    expect = bessel_series(1, 1.0) / (4.0 * math.pi)
    assert val[3] == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.03501811296589505, rel=1e-12)


def test_cylindrical_gauge_identity(rng):
    # i p_3 a0 + (alpha/sqrt2)(a- - a+) = 0 with p_3 = -pz, for random labels
    for _ in range(50):
        p0 = rng.uniform(0.3, 2.5)
        label = CylindricalLabel(p0, rng.uniform(-0.95, 0.95) * p0,
                                 int(rng.integers(-4, 5)), int(rng.choice([-1, 1])))
        mode = cylindrical_mode(label)
        a0, am, ap = mode.cz, mode.cm, mode.cp
        p3 = -label.pz
        residual = 1j * p3 * a0 + label.alpha / SQ2 * (am - ap)
        assert abs(residual) < 1e-15 * max(abs(a0) * label.p0, 1e-3)


def test_cylindrical_coefficient_identities_symbolic():
    # the helicity/gauge linear system holds identically in exact arithmetic
    import sympy as sp
    p0, p3, al, a0 = sp.symbols("p0 p3 alpha a0", positive=True)
    for s in (1, -1):
        am = sp.I * s * a0 / (sp.sqrt(2) * al) * (p0 - s * p3)
        ap = sp.I * s * a0 / (sp.sqrt(2) * al) * (p0 + s * p3)
        gauge = sp.I * p3 * a0 + al / sp.sqrt(2) * (am - ap)
        h1 = sp.I * p0 * a0 - s * al / sp.sqrt(2) * (am + ap)
        h2 = sp.I * (p0 - s * p3) * ap + s * al / sp.sqrt(2) * a0
        h3 = sp.I * (p0 + s * p3) * am + s * al / sp.sqrt(2) * a0
        assert sp.simplify(gauge) == 0
        assert sp.simplify(h1) == 0
        # h2, h3 vanish on shell alpha^2 = p0^2 - p3^2
        on_shell = {al: sp.sqrt((p0 - p3) * (p0 + p3))}
        assert sp.simplify(h2.subs(on_shell)) == 0
        assert sp.simplify(h3.subs(on_shell)) == 0


def test_cylindrical_zero_modes():
    # alpha = 0 vanishes identically unless m = +-1 (and the helicity matches
    # the propagation direction)
    pts = (0.1, 0.7, -0.4, 1.1)
    for m in (-3, -2, 0, 2, 3):
        mode = cylindrical_mode(CylindricalLabel(1.0, 1.0, m, +1))
        assert mode.is_zero
        assert np.abs(mode.evaluate(*pts)).max() == 0.0
        assert np.abs(field_strength(mode, *pts)).max() == 0.0
    live = cylindrical_mode(CylindricalLabel(1.0, 1.0, 1, +1))
    assert not live.is_zero
    vals = live.evaluate(*pts)
    assert np.abs(vals).max() > 0
    f = field_strength(live, *pts)
    assert np.abs(helicity_dual(f) - f).max() < 1e-12 * np.abs(f).max()


def test_cylindrical_regular_on_axis():
    mode = cylindrical_mode(CylindricalLabel(1.2, 0.3, 1, +1))
    on_axis = mode.evaluate(0.0, 0.0, 0.0, 0.5)
    near = mode.evaluate(0.0, 1e-9, -1e-9, 0.5)
    assert np.all(np.isfinite(on_axis))
    assert np.abs(on_axis - near).max() < 1e-8


def test_gradient_matches_finite_differences(rng):
    for mode in (plane_wave(PlaneWaveLabel((0.3, 0.5, -0.7), +1)),
                 cylindrical_mode(CylindricalLabel(1.3, -0.4, 2, -1)),
                 spherical_mode(SphericalLabel(1.1, 2, -1, +1))):
        for _ in range(5):
            x, y = rng.uniform(0.5, 2.0, 2)
            t, z = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5)
            g_an = mode.gradient(t, x, y, z)
            g_fd = np.stack([fdiff.partial(mode.evaluate, (t, x, y, z), mu, 1e-2)
                             for mu in range(4)])
            f_an = g_an - g_an.T
            f_fd = g_fd - g_fd.T
            assert np.abs(f_an - f_fd).max() < 1e-6 * np.abs(f_an).max()


def _jet_batch(rng, on_axis):
    """24 points at radius 0.1-6, off the polar axis; with on_axis
    the first two lie on the cylinder axis (rho = 0)."""
    r = rng.uniform(0.1, 6.0, 24)
    ct = rng.uniform(-0.9, 0.9, 24)
    ph = rng.uniform(0.0, 2.0 * math.pi, 24)
    st = np.sqrt(1.0 - ct * ct)
    x, y, z = r * st * np.cos(ph), r * st * np.sin(ph), r * ct
    if on_axis:
        x[:2], y[:2] = 0.0, 0.0
    return rng.uniform(-1.0, 1.0, 24), x, y, z


JET_MODES = [plane_wave(PlaneWaveLabel((0.3, 0.5, -0.7), +1)),
             cylindrical_mode(CylindricalLabel(1.3, -0.4, -2, -1)),
             cylindrical_mode(CylindricalLabel(1.1, 0.6, -1, +1)),
             cylindrical_mode(CylindricalLabel(0.9, 0.2, 3, +1)),
             spherical_mode(SphericalLabel(1.1, 3, -2, +1)),
             WavePacket(l=2, m=-1, s=-1, center=1.0, width=0.2, n_nodes=12)]


@pytest.mark.parametrize("mode", JET_MODES, ids=["plane", "cyl-m-2", "cyl-m-1", "cyl-m3",
                                                  "sph-m-2", "packet"])
def test_jet_equals_evaluate_and_gradient(mode, rng):
    pts = _jet_batch(rng, on_axis=isinstance(mode, modes.CylindricalMode))
    a, g = mode.jet(*pts)
    ref_a, ref_g = mode.evaluate(*pts), mode.gradient(*pts)
    assert a.shape == ref_a.shape and g.shape == ref_g.shape == a.shape + (4,)
    assert np.abs(a - ref_a).max() <= 1e-14 * np.abs(ref_a).max()
    assert np.abs(g - ref_g).max() <= 1e-14 * np.abs(ref_g).max()


@pytest.mark.parametrize("field", [
    plane_wave(PlaneWaveLabel((0.3, 0.5, -0.7), +1)),
    cylindrical_mode(CylindricalLabel(1.3, -0.4, -2, -1)),
    spherical_mode(SphericalLabel(1.1, 3, -2, +1)),
    WavePacket(l=2, m=-1, s=-1, center=1.0, width=0.2, n_nodes=12),
    Superposition([(0.6, plane_wave(PlaneWaveLabel((0.0, 0.4, 0.9), -1))),
                   (1.5j, WavePacket(l=1, m=1, s=+1, center=1.1, width=0.2, n_nodes=12))]),
    LieField(L3(), Superposition([
        (1.0, WavePacket(l=1, m=0, s=+1, center=1.0, width=0.2, n_nodes=12)),
        (0.7, WavePacket(l=2, m=1, s=-1, center=1.1, width=0.2, n_nodes=12))])),
    gauge_shift(cylindrical_mode(CylindricalLabel(1.2, 0.5, 1, +1)),
                GaussianBumpScalar(center=(0.3, -0.2, 0.4), width=1.5, c0=0.8,
                                   linear=(0.2, 0.1, -0.3)))],
    ids=["plane", "cyl", "sph", "packet", "superposition", "lie", "gauge"])
def test_time_derivative_is_the_field_of_d_dt(field, rng):
    # d_t as a field (spectrum weights w_k (-i p_k) for a multipole or
    # packet, the mode scaled by -i p0 otherwise): its evaluate against an
    # independent oracle, the 4th-order centred difference of evaluate in t
    pts = _jet_batch(rng, on_axis=False)
    dt = field.time_derivative()
    got = dt.evaluate(*pts)
    want = fdiff.partial(field.evaluate, pts, 0, h=1e-3)
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
    # the d_t row of the jet, where the field has one
    if hasattr(field, "jet"):
        row = field.jet(*pts)[1][..., 0, :]
        assert np.abs(got - row).max() <= 1e-13 * np.abs(got).max()
    # a single mode is an energy eigenfield: applied twice, (-i p0)^2 A
    if isinstance(field, modes.ModeField) and not isinstance(field, WavePacket):
        second = dt.time_derivative().evaluate(*pts)
        want = (-1j * field.p0) ** 2 * field.evaluate(*pts)
        assert np.abs(second - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("m", [-3, -1, 0, 2])
def test_cylindrical_jet_against_the_ladder_in_arctan2_form(m, rng):
    # oracle: w_k = J_k(alpha rho) e^{i k arctan2(y, x)} with scipy's J,
    # the gradient from the ladder rules of the class docstring; on the
    # axis arctan2 gives phi = 0, where e^{i phi} is taken as 1
    from scipy.special import jv
    mode = cylindrical_mode(CylindricalLabel(1.2, -0.5, m, +1))
    t, x, y, z = _jet_batch(rng, on_axis=True)
    al, phi = mode.alpha, np.arctan2(y, x)
    ph = np.exp(-1j * (mode.label.p0 * t - mode.label.pz * z))
    w = {k: ph * jv(k, al * np.hypot(x, y)) * np.exp(1j * k * phi) for k in range(m - 2, m + 3)}
    terms = ((m, mode.cz, Z_HAT), (m - 1, mode.cm, U_MINUS), (m + 1, mode.cp, U_PLUS))
    ref_a = sum(c * w[k][:, None] * pol for k, c, pol in terms)
    ref_g = np.stack([-1j * mode.label.p0 * ref_a,
                      sum(c * (0.5 * al * (w[k - 1] - w[k + 1]))[:, None] * pol
                          for k, c, pol in terms),
                      sum(c * (0.5j * al * (w[k + 1] + w[k - 1]))[:, None] * pol
                          for k, c, pol in terms),
                      1j * mode.label.pz * ref_a], axis=1)
    a, g = mode.jet(t, x, y, z)
    assert np.abs(a - ref_a).max() <= 1e-13 * np.abs(ref_a).max()
    assert np.abs(g - ref_g).max() <= 1e-13 * np.abs(ref_g).max()
    assert np.abs(mode.evaluate(t, x, y, z) - ref_a).max() <= 1e-13 * np.abs(ref_a).max()


def test_cylindrical_evaluate_and_gradient_share_bessel_work(monkeypatch, rng):
    # series band (alpha rho <= 8): one ladder per call, each from the
    # series at its two highest orders and the recurrence below them
    mode = cylindrical_mode(CylindricalLabel(1.2, 0.5, 2, +1))
    pts = _jet_batch(rng, on_axis=False)
    assert np.all(mode.alpha * np.hypot(pts[1], pts[2]) <= 8.0)
    series, ladders = [], []
    series_int, int_orders = harmonics._series_int, modes.bessel_j_int_orders
    monkeypatch.setattr(harmonics, "_series_int",
                        lambda n, x: series.append(n) or series_int(n, x))
    monkeypatch.setattr(modes, "bessel_j_int_orders",
                        lambda orders, x: ladders.append(list(orders)) or int_orders(orders, x))
    mode.evaluate(*pts)
    mode.gradient(*pts)
    assert len(series) <= 4
    assert ladders == [[1, 2, 3], [0, 1, 2, 3, 4]]


# ---------------------------------------------------------------------------
# Spherical modes
# ---------------------------------------------------------------------------

def _sph_cloud(rng, n, p0):
    """n off-axis points with p0 r log-uniform on [1e-3, 1e3] and |cos(theta)|
    up to 1 - 1e-6 (the first points at the extremes of both)."""
    pr = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    ct = rng.uniform(-1.0, 1.0, n) * (1.0 - 1e-6)
    pr[:4] = 1e-3, 1e-3, 1e3, 1e3
    ct[:4] = 1.0 - 1e-6, -(1.0 - 1e-6), 1.0 - 1e-6, -(1.0 - 1e-6)
    st = np.sqrt((1.0 - ct) * (1.0 + ct))
    ph = rng.uniform(-math.pi, math.pi, n)
    r = pr / p0
    return rng.uniform(-3.0, 3.0, n), r * st * np.cos(ph), r * st * np.sin(ph), r * ct


def _assert_matches_multipole_oracle(mode, pts):
    """Values to 1e-13 of the batch max-norm.  A gradient entry sums chart
    terms of size |A| / rho (rho = r sin(theta)) that cancel near the origin
    and the polar axis, where either form loses rounding of that size (about
    1e-10 of the max-norm at p0 r = 1e-3, |cos(theta)| = 1 - 1e-6), so each
    point's gradient is held to 1e-13 of the larger of the max-norm and its
    |A| / rho."""
    want_a, want_g = multipole_jet(mode, *pts)
    got_a, got_g = mode.jet(*pts)
    for got in (mode.evaluate(*pts), got_a):
        assert np.abs(got - want_a).max() <= 1e-13 * np.abs(want_a).max()
    scale = np.maximum(np.abs(want_g).max(), np.abs(want_a).max(axis=-1) / np.hypot(*pts[1:3]))
    assert np.all(np.abs(got_g - want_g).max(axis=(-2, -1)) <= 1e-13 * scale)


@pytest.mark.parametrize("s", [1, -1])
def test_spherical_frame_assembly_matches_the_dyad_sum(s, rng):
    # evaluate and jet assemble the field in the (r, theta, phi) frame; the
    # oracle contracts the same radial and angular factors with the stacked
    # chart dyads and takes the gradient from the chart partials
    for l in range(1, SPH_L_MAX + 1):
        m = int(rng.integers(-l, l + 1))
        mode = spherical_mode(SphericalLabel(0.7 + 0.05 * l, l, m, s))
        _assert_matches_multipole_oracle(mode, _sph_cloud(rng, 64, mode.p0))


@pytest.mark.parametrize("field", [spherical_mode(SphericalLabel(1.3, 5, -3, -1)),
                                   WavePacket(l=3, m=2, s=1, center=1.0, width=0.2, n_nodes=2)],
                         ids=["mode", "two-energy-packet"])
def test_spherical_frame_assembly_over_several_blocks(field, rng):
    # more points than one block of the frame assembly, the last one ragged
    n = 2 * modes._FRAME_BLOCK + 123
    pts = _sph_cloud(rng, n, field.p0)
    _assert_matches_multipole_oracle(field, pts)
    grid_pts = tuple(c.reshape(5, -1) for c in pts)
    a, g = field.jet(*grid_pts)
    assert a.shape == (5, n // 5, 4) and g.shape == (5, n // 5, 4, 4)
    ref_a, ref_g = field.jet(*pts)
    assert np.array_equal(a.reshape(-1, 4), ref_a)
    assert np.array_equal(g.reshape(-1, 4, 4), ref_g)


def test_spherical_jet_memory_is_bounded_by_its_outputs():
    # 40,000 off-axis points at l = 6: the value and gradient are 12.8 MB;
    # whole-batch dyad arrays and contractions peaked at 3.5 times that
    import tracemalloc
    mode = spherical_mode(SphericalLabel(1.0, 6, 2, 1))
    pts = _sph_cloud(np.random.default_rng(5), 40_000, mode.p0)
    tracemalloc.start()
    try:
        a, g = mode.jet(*pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.nbytes + g.nbytes == 40_000 * 20 * 16
    assert peak < 2.5 * (a.nbytes + g.nbytes)


def test_radius_groups_merge_roundoff_only(rng):
    # radii a unit of roundoff apart share a group, and so does t only when
    # equal; a run of radii whose consecutive gaps are each one unit but
    # that spreads wider than _RADIUS_RTOL keeps its distinct values apart
    eps = np.finfo(float).eps
    base = rng.uniform(0.1, 40.0, 50)
    r = np.concatenate([base, base * (1.0 + eps), base * (1.0 - eps), base])
    t = np.concatenate([np.zeros(150), np.full(50, 0.5)])
    ts, rs, inverse = modes._radius_groups(t, r)
    assert rs.size == 100 and np.array_equal(ts[inverse], t)
    assert np.all(np.abs(rs[inverse] - r) <= modes._RADIUS_RTOL * r)
    chain = 1.0 + np.arange(40) * eps
    ts, rs, inverse = modes._radius_groups(0.0, chain)
    assert np.all(np.abs(rs[inverse] - chain) <= modes._RADIUS_RTOL * chain)
    assert rs.size == chain.size
    empty = np.zeros(0)
    packet = WavePacket(l=1, m=0, s=+1, n_nodes=4)
    assert packet.evaluate(empty, empty, empty, empty).shape == (0, 4)
    assert packet.jet(empty, empty, empty, empty)[1].shape == (0, 4, 4)


def test_spherical_radial_identity():
    # R- + R+ = b J_{l+1/2}(p0 r) / sqrt(p0 r) with b = i s b0 sqrt2/sqrt(L)
    # and b0 = sqrt(L p0)/2 in the normalization used here
    r, l, p0, s = 2.0, 1, 1.0, +1
    label = SphericalLabel(p0, l, 0, s)
    R0, Rm, Rp = sph_radial_profiles(label, np.array([r]))
    L = l * (l + 1)
    b0 = math.sqrt(L * p0) / 2.0
    b = 1j * s * b0 * SQ2 / math.sqrt(L)
    expect = b * bessel_half_trig(1, p0 * r) / math.sqrt(p0 * r)
    assert complex(Rm[0] + Rp[0]) == pytest.approx(expect, rel=1e-12)
    # frozen value of the Bessel factor itself
    assert bessel_half_trig(1, 2.0) == pytest.approx(0.4912937786871624, rel=1e-13)


def test_radial_profiles_reject_a_second_derivative():
    label = SphericalLabel(1.1, 2, 1, -1)
    for bad in (2, -1, 0.5):
        with pytest.raises(ValueError, match="derivs"):
            sph_radial_profiles(label, np.array([1.0]), bad)


def test_spherical_maxwell_residual_grid():
    mode = spherical_mode(SphericalLabel(1.0, 1, 0, +1))
    h = 0.01
    n = 10
    gs = GridSpec(t=(-h * (n - 1) / 2, h * (n - 1) / 2, n),
                  x=(1.0, 1.0 + h * (n - 1), n),
                  y=(0.6, 0.6 + h * (n - 1), n),
                  z=(0.8, 0.8 + h * (n - 1), n))
    grid = sample_grid(mode, gs)
    assert dalembertian_residual(grid) < 1e-6
    div, a0_max = divergence_residual(grid)
    assert div < 1e-6
    assert a0_max == 0.0


def test_spherical_origin_and_pole_limits():
    mode = spherical_mode(SphericalLabel(1.0, 1, 0, +1))
    v0 = mode.evaluate(0.0, 0.0, 0.0, 0.0)
    assert np.all(np.isfinite(v0)) and np.abs(v0).max() > 0
    v_near = mode.evaluate(0.0, 1e-8, 1e-8, 1e-8)
    assert np.abs(v0 - v_near).max() < 1e-7
    # l >= 2 vanishes at the origin
    mode2 = spherical_mode(SphericalLabel(1.0, 2, 1, +1))
    assert np.abs(mode2.evaluate(0.0, 0.0, 0.0, 0.0)).max() == 0.0
    # poles: the limit is direction independent and matches nearby values
    for zs in (1.0, -1.0):
        vp = mode2.evaluate(0.0, 0.0, 0.0, zs * 1.7)
        vn = mode2.evaluate(0.0, 1e-10, -3e-11, zs * 1.7)
        assert np.abs(vp - vn).max() < 1e-8
    with pytest.raises(DegenerateAxisError):
        mode.gradient(0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_sample_grid_shape_and_gauge():
    mode = plane_wave(PlaneWaveLabel((0.0, 0.0, 1.0), +1))
    spec = GridSpec(t=(0.0, 0.0, 1), x=(-1, 1, 16), y=(-1, 1, 16), z=(-1, 1, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # spacing 0.133 > 1/8: must warn
        with pytest.raises(UserWarning):
            sample_grid(mode, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = sample_grid(mode, spec)
    assert grid.values.shape == (1, 16, 16, 16, 4)
    assert np.abs(grid.values[..., 0]).max() == 0.0


def test_sample_grid_warns_on_a_coarse_descending_axis():
    # |p| = 5 needs |spacing| <= 1/40; x runs 1 -> -1 in steps of -1
    mode = plane_wave(PlaneWaveLabel((3.0, 4.0, 0.0), +1))
    with pytest.warns(UserWarning) as record:
        sample_grid(mode, GridSpec(x=(1.0, -1.0, 3)))
    assert sorted(str(w.message).split()[2] for w in record) == ["x", "y", "z"]
    assert "spacing 1 exceeds" in str(record[0].message)


def test_sample_grid_resolves_the_largest_energy_of_a_packet():
    from photonmodes.inner_product import WavePacket
    packet = WavePacket(1, 0, 1, center=1.0, width=0.2)
    # spacing 0.125 resolves p = 1 but not the packet's top energy (~2.2)
    spec = GridSpec(t=(0.0, 0.0, 1), x=(-0.5, 0.5, 9), y=(0.1, 0.6, 5), z=(0.2, 0.2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_grid(spherical_mode(SphericalLabel(1.0, 1, 0, 1)), spec)
        with pytest.raises(UserWarning, match="under-resolved"):
            sample_grid(packet, spec)
    assert packet.p0 == 1.0 and packet.p_max == packet.p_nodes.max() > 2.1

def test_grid_time_slices_differ_by_phase():
    mode = cylindrical_mode(CylindricalLabel(1.0, 0.2, 1, -1))
    dt = 0.3
    g0 = sample_grid(mode, GridSpec(t=(0, 0, 1), x=(0.2, 1, 8), y=(0.2, 1, 8), z=(0, 0.8, 8)))
    g1 = sample_grid(mode, GridSpec(t=(dt, dt, 1), x=(0.2, 1, 8), y=(0.2, 1, 8), z=(0, 0.8, 8)))
    assert np.allclose(g1.values, np.exp(-1j * mode.p0 * dt) * g0.values, atol=1e-14)


def test_grid_determinism():
    mode = spherical_mode(SphericalLabel(1.0, 1, 1, +1))
    spec = GridSpec(t=(0, 0, 1), x=(0.3, 0.8, 6), y=(0.3, 0.8, 6), z=(0.3, 0.8, 6))
    a = sample_grid(mode, spec)
    b = sample_grid(mode, spec)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("axis, bad", [
    ("x", (-1.0, 1.0, 2.5)), ("y", (-1.0, 1.0, 0)), ("z", (-1.0, 1.0, float("nan"))),
    ("t", (float("nan"), 0.0, 1)), ("x", (-1.0, math.inf, 3))])
def test_grid_spec_validates_every_axis(axis, bad):
    with pytest.raises(ValueError, match=f"grid axis {axis}"):
        GridSpec(**{axis: bad})


def test_grid_spec_stores_an_integral_count_as_int():
    spec = GridSpec(x=(-1, 1, 9.0))
    assert spec.x == (-1, 1, 9) and type(spec.x[2]) is int
    assert np.array_equal(spec.axis("x"), np.linspace(-1.0, 1.0, 9))


# a grid of 2 * 7 * 11 * 13 = 2002 nodes: with blocks of 300 nodes, six full
# blocks and a partial one of 202; spacing 0.05 resolves energies up to 2.5
_BLOCKED_SPEC = GridSpec(t=(0.0, 0.05, 2), x=(0.1, 0.4, 7), y=(-0.25, 0.25, 11),
                         z=(-0.3, 0.3, 13))


@pytest.mark.parametrize("field, exact", [
    (plane_wave(PlaneWaveLabel((0.3, -0.5, 0.7), +1)), True),
    (cylindrical_mode(CylindricalLabel(1.2, 0.4, 2, -1)), False),
    (spherical_mode(SphericalLabel(0.9, 4, -3, 1)), False),
    (WavePacket(l=2, m=1, s=-1, center=1.0, width=0.2, n_nodes=24), False),
], ids=["plane", "cylindrical", "spherical", "packet"])
def test_blocked_sample_grid_equals_a_whole_grid_evaluate(monkeypatch, field, exact):
    monkeypatch.setattr(modes, "_FRAME_BLOCK", 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = sample_grid(field, _BLOCKED_SPEC)
    sizes = [b.stop - b.start for b, _ in modes._grid_blocks(grid.axes)]
    assert sizes == [300] * 6 + [202]
    whole = field.evaluate(*np.meshgrid(*grid.axes.values(), indexing="ij"))
    assert grid.values.shape == whole.shape == (2, 7, 11, 13, 4)
    if exact:
        assert np.array_equal(grid.values, whole)
    else:
        assert np.abs(grid.values - whole).max() <= 1e-14 * np.abs(whole).max()


def test_sample_grid_memory_is_bounded_by_the_values_and_one_block():
    # 64^3 multipole: the values are 16.8 MB; a whole-grid evaluation
    # peaked at 143 MB, blocks of 16,384 nodes added 4.2 MB to the values,
    # one block of 4,096 nodes (one frame block) adds 1.7 MB
    import tracemalloc
    mode = spherical_mode(SphericalLabel(1.0, 4, 2, 1))
    axis = (-3.5, 3.5, 64)
    tracemalloc.start()
    try:
        grid = sample_grid(mode, GridSpec(t=(0.0, 0.0, 1), x=axis, y=axis, z=axis))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.values.nbytes == 64 ** 3 * 64
    assert peak < grid.values.nbytes + 3e6
