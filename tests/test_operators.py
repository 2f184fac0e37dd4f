import json
import math

import numpy as np
import pytest

from photonmodes.modes import (PlaneWaveLabel, CylindricalLabel, SphericalLabel,
                               plane_wave, cylindrical_mode, spherical_mode,
                               field_strength, sample_grid, GridSpec)
from photonmodes.operators import (P_lower, P_upper, M_lower, L1, L2, L3, L_plus,
                                   L_minus, lie_derivative, angular_momentum_squared,
                                   helicity_dual, dalembertian_residual,
                                   divergence_residual, bracket, expected_bracket,
                                   check_all_brackets, pauli_lubanski_residual,
                                   DualField, LieField, KillingField, GENERATORS,
                                   generator)
from photonmodes.inner_product import (SliceSpec, WavePacket, Superposition, inner,
                                       slice_nodes)
from photonmodes.errors import AsymmetryError, DegenerateAxisError, StencilError
from photonmodes import fdiff
from photonmodes.charts import ETA_DIAG, LEVI_CIVITA, dyads

from oracles import dalembertian_full_grid, divergence_full_grid


# ---------------------------------------------------------------------------
# Lie derivatives
# ---------------------------------------------------------------------------

def _stencil_loop(mode, pts, axis, h, offsets, weights):
    """sum_k w_k A(pts + offset_k h e_axis), one evaluate call per offset."""
    want = None
    for off, w in zip(offsets, weights):
        shifted = list(pts)
        shifted[axis] = np.asarray(shifted[axis], dtype=float) + off * h
        val = w * mode.evaluate(*shifted)
        want = val if want is None else want + val
    return want


def test_partial_calls_the_field_once_per_stencil():
    mode = spherical_mode(SphericalLabel(1.3, 2, 1, +1))
    pts = (np.array([0.0, 0.4]), np.array([0.9, -0.3]), np.array([0.5, 1.2]), 0.7)
    calls = []

    def counted(*coords):
        calls.append(np.broadcast(*coords).shape)
        return mode.evaluate(*coords)

    for axis in range(4):
        calls.clear()
        got = fdiff.partial(counted, pts, axis, 0.01)
        assert calls == [(len(fdiff.D1_OFFSETS), 2)]
        want = _stencil_loop(mode, pts, axis, 0.01, fdiff.D1_OFFSETS, fdiff.D1_WEIGHTS) / 0.01
        # numpy's vectorised kernels can round a point differently in a
        # larger batch: equal to rounding
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # a finite-difference Lie derivative is one call of its field: L3 moves x
    # and y, so Lie_L3 f is one call of f on the base point and the two
    # axes' offsets (1 + 2 * 4 = 9 deep), and Lie_L3 Lie_L3 f is one call of
    # Lie_L3 f, which makes one call of f on 9 x 9 stencil points
    calls.clear()
    lie_derivative(L3(), LieField(L3(), counted), *pts, h=0.01, method="fd")
    assert calls == [(9, 9, 2)]


def test_grid_partial_second_derivative_is_the_d2_stencil():
    # the field sampled on five nodes along each axis: the one interior node
    # of grid_partial(order=2) is the loop over the D2 offsets and weights
    mode = spherical_mode(SphericalLabel(1.3, 2, 1, +1))
    pts = (np.array([0.0, 0.4]), np.array([0.9, -0.3]), np.array([0.5, 1.2]), 0.7)
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in pts))
    for axis in range(4):
        line = [np.broadcast_to(c, (5,) + c.shape) for c in coords]
        line[axis] = coords[axis] + np.arange(-2, 3)[:, None] * 0.01
        got = fdiff.grid_partial(mode.evaluate(*line), 0, 0.01, order=2)
        want = _stencil_loop(mode, pts, axis, 0.01, fdiff.D2_OFFSETS,
                             fdiff.D2_WEIGHTS) / 0.01**2
        assert got.shape == (1,) + want.shape
        assert np.abs(got[0] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("order", [0, 3, 1.5])
def test_grid_partial_rejects_an_order_other_than_1_or_2(order):
    # the third derivative used to come back as the second one over h
    with pytest.raises(ValueError, match="order"):
        fdiff.grid_partial(np.arange(8.0) ** 3, 0, 1.0, order=order)


def test_gradient4_calls_the_field_once_with_the_stencils_of_partial():
    # a polynomial field: every stencil value is the same float whatever the
    # batch, so one call over all four axes must reproduce the four partials
    # bit for bit (same offsets, weights and summation order)
    pts = (np.array([0.1, -0.3]), np.array([0.9, 0.2]), np.array([0.5, 1.2]), 0.7)
    calls = []

    def poly(t, x, y, z):
        calls.append(np.broadcast(t, x, y, z).shape)
        return np.stack([t * x * x + y * z, z * z * z - t * y], axis=-1)

    got = fdiff.gradient4(poly, pts, 0.01)
    assert calls == [(4, len(fdiff.D1_OFFSETS), 2)]
    want = np.stack([fdiff.partial(poly, pts, mu, 0.01) for mu in range(4)])
    assert np.array_equal(got, want)
    # a descending axis has a negative spacing: a negative step is allowed
    assert np.allclose(fdiff.gradient4(poly, pts, -0.01), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("axes", [(0,), (1, 2), (3, 0, 2), (0, 1, 2, 3)])
def test_value_and_partials_calls_the_field_once(axes):
    # the base point and each axis's four offsets in one call of the field;
    # a multipole's batch can round a point differently: equal to rounding
    mode = spherical_mode(SphericalLabel(1.3, 2, 1, +1))
    pts = (np.array([0.0, 0.4]), np.array([0.9, -0.3]), np.array([0.5, 1.2]), 0.7)
    calls = []

    def counted(*coords):
        calls.append(np.broadcast(*coords).shape)
        return mode.evaluate(*coords)

    value, partials = fdiff.value_and_partials(counted, pts, axes, 0.01)
    assert calls == [(1 + len(fdiff.D1_OFFSETS) * len(axes), 2)]
    want = mode.evaluate(*pts)
    assert value.shape == want.shape
    assert np.abs(value - want).max() <= 1e-13 * np.abs(want).max()
    assert len(partials) == len(axes)
    for axis, got in zip(axes, partials):
        want = fdiff.partial(mode.evaluate, pts, axis, 0.01)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_value_and_partials_without_axes_is_the_value_alone():
    pts = (np.array([0.1, -0.3]), np.array([0.9, 0.2]), np.array([0.5, 1.2]), 0.7)
    calls = []

    def poly(t, x, y, z):
        calls.append(np.broadcast(t, x, y, z).shape)
        return np.stack([t * x * x + y * z, z * z * z - t * y], axis=-1)

    value, partials = fdiff.value_and_partials(poly, pts, (), 0.01)
    assert calls == [(1, 2)]
    assert partials == []
    assert np.array_equal(value, poly(*pts))


@pytest.mark.parametrize("h", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_fdiff_rejects_a_zero_or_non_finite_step(h):
    mode = plane_wave(PlaneWaveLabel((0.0, 0.3, 0.9), +1))
    pts = (0.1, 0.4, -0.2, 0.6)
    with pytest.raises(ValueError, match="step h"):
        fdiff.partial(mode.evaluate, pts, 1, h)
    with pytest.raises(ValueError, match="step h"):
        fdiff.gradient4(mode.evaluate, pts, h)
    with pytest.raises(ValueError, match="step h"):
        fdiff.value_and_partials(mode.evaluate, pts, (1,), h)
    with pytest.raises(ValueError, match="step h"):
        fdiff.grid_partial(np.zeros(8), 0, h)
    # and through the finite-difference Lie derivative, where h = 0 would
    # divide by zero and h = nan would put NaN into the stencil coordinates
    with pytest.raises(ValueError, match="step h"):
        lie_derivative(L3(), mode.evaluate, *pts, h=h, method="fd")


def test_analytic_lie_derivative_takes_one_jet():
    # one jet per field, equal bit for bit to the explicit formula over
    # evaluate and gradient
    calls = []

    class Counted:
        def __init__(self, mode):
            self.mode = mode

        def evaluate(self, *coords):
            calls.append("evaluate")
            return self.mode.evaluate(*coords)

        def jet(self, *coords):
            calls.append("jet")
            return self.mode.jet(*coords)

    pts = (np.array([0.0, 0.4]), np.array([0.9, -0.3]), np.array([0.5, 1.2]), np.array([0.7, -0.2]))
    for mode in (plane_wave(PlaneWaveLabel((0.3, 0.5, -0.7), +1)),
                 spherical_mode(SphericalLabel(1.3, 2, 1, +1))):
        for xi in (L3(), P_lower(0), L_plus()):
            calls.clear()
            got = lie_derivative(xi, Counted(mode), *pts)
            assert calls == ["jet"]
            a, grad = mode.evaluate(*pts), mode.gradient(*pts)
            want = (np.einsum("...b,...ba->...a", xi.value(*pts), grad)
                    + np.einsum("...b,ab->...a", a, xi.d_xi()))
            assert np.array_equal(got, want)


def test_p0_eigenvalue_plane_wave():
    mode = plane_wave(PlaneWaveLabel((0.0, 0.0, 2.0), +1))
    pts = (0.1, 0.4, -0.2, 0.7)
    a = mode.evaluate(*pts)
    for method in ("auto", "fd"):
        lv = lie_derivative(P_upper(0), mode, *pts, method=method)
        tol = 1e-12 if method == "auto" else 1e-7
        assert np.abs(lv - 2.0 * a).max() < tol * np.abs(a).max()


@pytest.mark.parametrize("method", ["analytc", "FD", None, "analytic"])
def test_lie_derivative_rejects_an_unknown_method(method):
    # a misspelt method is an error naming it, not a silent fall back to
    # finite differences (whose result would pass an analytic tolerance)
    mode = cylindrical_mode(CylindricalLabel(1.2, 0.4, 2, +1))
    with pytest.raises(ValueError, match=rf"{method!r}.*'auto' or 'fd'"):
        lie_derivative(L3(), mode, 0.1, 0.4, -0.2, 0.7, method=method)


def test_l3_annihilates_cylindrical_dyads():
    f = lambda *c: dyads("cylindrical", *c)[1]
    fz = lambda *c: dyads("cylindrical", *c)[0]
    pts = (0.0, 1.1, 0.6, 0.4)
    for field in (f, fz):
        lv = lie_derivative(L3(), field, *pts, h=0.004, method="fd")
        assert np.abs(lv).max() < 1e-8
    # and P0, P3 trivially
    for xi in (P_upper(0), P_upper(3)):
        assert np.abs(lie_derivative(xi, f, *pts, h=0.004, method="fd")).max() < 1e-8


def test_ladder_action_on_spherical_dyads():
    # Lie_{L+-} eps-(spherical) = csc(theta) e^{+-i phi} eps-; the csc factor
    # is required by the composite action on A_a (it produces the
    # e^{+-i phi} csc(theta) A_-+ terms of the component decomposition)
    pts = (0.0, 0.9, 0.5, 1.2)
    r = math.sqrt(sum(c * c for c in pts[1:]))
    csc = r / math.hypot(pts[1], pts[2])
    phi = math.atan2(pts[2], pts[1])
    for pm, xi in ((+1, L_plus()), (-1, L_minus())):
        factor = csc * np.exp(1j * pm * phi)
        f = lambda *c: dyads("spherical", *c)[1]
        ref = f(*pts)
        lv = lie_derivative(xi, f, *pts, h=0.004, method="fd")
        assert np.abs(lv - factor * ref).max() < 1e-7
        g = lambda *c: dyads("spherical", *c)[2]
        refg = g(*pts)
        lvg = lie_derivative(xi, g, *pts, h=0.004, method="fd")
        assert np.abs(lvg + factor * refg).max() < 1e-7
        fr = lambda *c: dyads("spherical", *c)[0]
        assert np.abs(lie_derivative(xi, fr, *pts, h=0.004, method="fd")).max() < 1e-8


def test_angular_momentum_squared_eigenvalues():
    pts = (np.array([0.1]), np.array([0.8]), np.array([-0.5]), np.array([0.9]))
    for l in (1, 2):
        mode = spherical_mode(SphericalLabel(1.0, l, 0, +1))
        a = mode.evaluate(*pts)
        l2 = angular_momentum_squared(mode, *pts, h=0.008)
        assert np.abs(l2 - l * (l + 1) * a).max() < 1e-6 * np.abs(a).max()


def test_angular_momentum_squared_takes_no_jet(monkeypatch):
    # L^2 is a finite-difference check at both levels, so it must not reach
    # the analytic jet that LieField takes
    mode = spherical_mode(SphericalLabel(1.0, 2, 1, +1))
    pts = (np.array([0.1]), np.array([0.8]), np.array([-0.5]), np.array([0.9]))
    jets = []
    jet = mode.jet
    monkeypatch.setattr(mode, "jet", lambda *c: jets.append(c) or jet(*c))
    l2 = angular_momentum_squared(mode, *pts, h=0.008)
    assert jets == []
    a = mode.evaluate(*pts)
    assert np.abs(l2 - 6.0 * a).max() < 1e-6 * np.abs(a).max()
    LieField(L3(), mode).evaluate(*pts)
    assert len(jets) == 1    # the wrapper does see the analytic path


PACKET_QUAD = SliceSpec()


def _packet_superpositions():
    """The two packet superpositions of the hermiticity_p0_l3 check."""
    pk = WavePacket(l=1, m=0, s=+1, center=1.0, width=0.2, n_nodes=48)
    pk2 = WavePacket(l=1, m=1, s=-1, center=1.1, width=0.2, n_nodes=48)
    pk3 = WavePacket(l=2, m=0, s=+1, center=0.9, width=0.18, n_nodes=48)
    return (Superposition([(1.0, pk), (0.7, pk2)]), Superposition([(1.0, pk2), (0.5j, pk3)]),
            pk.norm_expected())


def test_lie_field_matches_finite_differences_on_the_packet_slice():
    # the analytic LieField and its time derivative (one jet of the base, or
    # of the base's time derivative) against 4th-order finite differences of
    # the base and of its time derivative at h = 1e-3
    f, _, _ = _packet_superpositions()
    nodes = slice_nodes(PACKET_QUAD)[:4]
    assert nodes[0].size == 8192
    lie = LieField(L3(), f)
    for got, base in ((lie.evaluate(*nodes), f),
                      (lie.time_derivative().evaluate(*nodes), f.time_derivative())):
        want = lie_derivative(L3(), base, *nodes, h=1e-3, method="fd")
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def _td_base(base):
    if base == "packet":
        return WavePacket(l=1, m=0, s=+1, center=1.0, width=0.2, n_nodes=48)
    return spherical_mode(SphericalLabel(1.2, 2, 1, -1))


@pytest.mark.parametrize("base, xi", [
    (base, xi) for base in ("packet", "mode") for xi in ((0, 1), (0, 3), (1, 2), (2,))
    # the l = 1, m = 0 packet's L3 field is zero: L3 is taken on the m = 1 mode
    if (base, xi) != ("packet", (1, 2))])
def test_lie_field_time_derivative_matches_finite_differences_in_t(base, xi):
    # d_t Lie_xi A = Lie_xi d_t A + Lie_[d_t, xi] A: the commutator term is
    # what the boosts M_01 and M_03 need (without it the relative error
    # reads 0.2-0.35); for L3 = M_12 and P_2 it is zero
    rng = np.random.default_rng(11)
    pts = (rng.uniform(-1.0, 1.0, 40),) + tuple(rng.uniform(-3.0, 3.0, (3, 40)))
    lie = LieField(generator(xi), _td_base(base))
    want = fdiff.partial(lie.evaluate, pts, 0, 1e-3)
    got = lie.time_derivative().evaluate(*pts)
    assert np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_lie_field_time_derivative_is_one_lie_field_when_xi_commutes_with_d_t():
    f = spherical_mode(SphericalLabel(1.2, 2, 1, -1))
    for xi in (L3(), P_lower(0), P_lower(3)):
        assert isinstance(LieField(xi, f).time_derivative(), LieField)
    assert not isinstance(LieField(M_lower(0, 1), f).time_derivative(), LieField)


def test_nested_lie_derivative_of_a_superposition_holding_a_lie_field():
    # a Superposition has a jet only when every term has one: one holding a
    # LieField, such as a boost's time_derivative(), is differenced
    mode = spherical_mode(SphericalLabel(1.0, 2, 1, +1))
    rng = np.random.default_rng(5)
    pts = tuple(rng.uniform(-2.0, 2.0, (4, 30)))
    wrapped = Superposition([(1.0, LieField(L3(), mode))])
    got = lie_derivative(L3(), wrapped, *pts)
    assert np.array_equal(got, lie_derivative(L3(), wrapped, *pts, method="fd"))
    a = mode.evaluate(*pts)
    assert np.abs(got - a).max() <= 1e-9 * np.abs(a).max()   # m^2 A, m = 1
    boosted = LieField(M_lower(0, 1), mode).time_derivative()
    assert isinstance(boosted, Superposition)
    got = lie_derivative(L3(), boosted, *pts)
    assert np.all(np.isfinite(got)) and np.abs(got).max() > 0
    assert np.array_equal(got, lie_derivative(L3(), boosted, *pts, method="fd"))


def test_hermiticity_check_fails_for_a_non_killing_field():
    # positive control for hermiticity_p0_l3: the same packet pair and rule
    # with L3 replaced by the dilation xi = i (x, y, z), which is not a
    # Killing field, so Lie_xi is not Hermitian under the inner product
    f1, f2, scale = _packet_superpositions()
    dilation = KillingField(np.zeros(4, dtype=complex), 1j * np.diag([0.0, 1.0, 1.0, 1.0]))

    def residual(xi):
        lhs = inner(LieField(xi, f1), f2, PACKET_QUAD)
        rhs = inner(f1, LieField(xi, f2), PACKET_QUAD)
        return abs(lhs - rhs) / max(abs(lhs), scale)

    assert residual(L3()) < 1e-6
    assert residual(dilation) > 0.1


def test_lie_field_of_a_multipole_needs_off_axis_points():
    lie = LieField(L3(), spherical_mode(SphericalLabel(1.0, 1, 0, +1)))
    for method in (lie.evaluate, lie.time_derivative().evaluate):
        with pytest.raises(DegenerateAxisError):
            method(0.0, 0.0, 0.0, 1.3)


def test_l3_twice_on_m3_mode():
    mode = cylindrical_mode(CylindricalLabel(1.1, 0.2, 3, +1))
    pts = (np.array([0.0]), np.array([1.2]), np.array([0.4]), np.array([0.3]))
    from photonmodes.operators import LieField
    once = LieField(L3(), mode)
    twice = lie_derivative(L3(), once, *pts, h=0.008, method="fd")
    a = mode.evaluate(*pts)
    assert np.abs(twice - 9.0 * a).max() < 1e-5 * np.abs(a).max()


# ---------------------------------------------------------------------------
# Helicity dual
# ---------------------------------------------------------------------------

def test_dual_involution(rng):
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        f = g - g.T
        assert np.abs(helicity_dual(helicity_dual(f)) - f).max() < 1e-12 * np.abs(f).max()


def test_dual_eigenvalue_and_zero():
    mode = plane_wave(PlaneWaveLabel((0.0, 0.0, 1.0), +1))
    f = field_strength(mode, 0.0, 0.2, 0.3, 0.4)
    assert np.abs(helicity_dual(f) - f).max() < 1e-10 * np.abs(f).max()
    assert np.abs(helicity_dual(np.zeros((4, 4)))).max() == 0.0


def test_dual_asymmetry_guard(rng):
    bad = rng.normal(size=(4, 4))
    with pytest.raises(AsymmetryError):
        helicity_dual(bad + bad.T + 0.1)


# ---------------------------------------------------------------------------
# Grid residual operators
# ---------------------------------------------------------------------------

class _Manufactured:
    """A = (x^1)^2 (dz)_a: Box A = -2 (dz)_a, not a Maxwell solution."""

    p0 = 1.0
    label = None

    def evaluate(self, t, x, y, z):
        t, x, y, z = np.broadcast_arrays(*(np.asarray(c, float) for c in (t, x, y, z)))
        out = np.zeros(t.shape + (4,), dtype=complex)
        out[..., 3] = x**2
        return out


class _ManufacturedDiv:
    """A = x^1 (dx^1)_a: div A = eta^{11} d_1 x = -1."""

    p0 = 1.0
    label = None

    def evaluate(self, t, x, y, z):
        t, x, y, z = np.broadcast_arrays(*(np.asarray(c, float) for c in (t, x, y, z)))
        out = np.zeros(t.shape + (4,), dtype=complex)
        out[..., 1] = x
        return out


def _small_grid(mode, h=0.02, n=8, center=(0.5, 0.4, 0.6)):
    ext = h * (n - 1)
    cx, cy, cz = center
    return sample_grid(mode, GridSpec(
        t=(-ext / 2, ext / 2, n), x=(cx, cx + ext, n),
        y=(cy, cy + ext, n), z=(cz, cz + ext, n)))


def test_dalembertian_detects_nonzero_box():
    grid = _small_grid(_Manufactured())
    # Box (x^2 dz) = -2 dz; amplitude |A| ~ max(x^2) on the grid
    expect = 2.0 / np.abs(grid.values).max()
    assert dalembertian_residual(grid) == pytest.approx(expect, rel=1e-8)


def test_dalembertian_zero_field():
    grid = _small_grid(_Manufactured())
    grid.values = np.zeros_like(grid.values)
    assert dalembertian_residual(grid) == 0.0


def test_divergence_detects_sign():
    grid = _small_grid(_ManufacturedDiv())
    expect = 1.0 / np.abs(grid.values).max()
    assert divergence_residual(grid)[0] == pytest.approx(expect, rel=1e-8)


def test_stencil_underflow_error():
    mode = plane_wave(PlaneWaveLabel((0.0, 0.0, 1.0), +1))
    grid = sample_grid(mode, GridSpec(t=(0, 0.03, 4), x=(0, 0.07, 8),
                                      y=(0, 0.07, 8), z=(0, 0.07, 8)))
    with pytest.raises(StencilError):
        dalembertian_residual(grid)


def test_mode_residuals_small():
    for mode in (plane_wave(PlaneWaveLabel((0.5, -0.3, 0.9), -1)),
                 cylindrical_mode(CylindricalLabel(1.2, 0.4, 1, +1))):
        grid = _small_grid(mode, h=0.01, n=10, center=(0.8, 0.6, 0.5))
        assert dalembertian_residual(grid) < 1e-6
        div, a0_max = divergence_residual(grid)
        assert div < 1e-6 and a0_max < 1e-12


@pytest.mark.parametrize("mode, axes", [
    (plane_wave(PlaneWaveLabel((0.5, -0.3, 0.9), -1)), {}),
    (cylindrical_mode(CylindricalLabel(1.2, 0.4, 1, +1)), {"y": (1.2, 1.09, 12)}),
    (spherical_mode(SphericalLabel(1.3, 2, 1, -1)), {}),
])
def test_grid_residuals_equal_the_full_grid_then_trim_form(mode, axes):
    # each stencil runs on the kept interior only: the same sums of the same
    # nodes as differentiating the whole grid and trimming afterwards (a
    # descending y axis, with its negative spacing, in the Bessel beam's)
    spec = dict(t=(-0.055, 0.055, 12), x=(0.9, 1.01, 12), y=(0.6, 0.71, 12),
                z=(0.5, 0.61, 12))
    grid = sample_grid(mode, GridSpec(**{**spec, **axes}))
    assert dalembertian_residual(grid) == dalembertian_full_grid(grid)
    assert divergence_residual(grid)[0] == divergence_full_grid(grid)
    # one time slice: the divergence drops d_t A_0
    grid = sample_grid(mode, GridSpec(**{**spec, **axes, "t": (0.0, 0.0, 1)}))
    assert divergence_residual(grid)[0] == divergence_full_grid(grid)


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------

def test_basic_brackets():
    want = expected_bracket((1,), (2,))
    assert np.abs(want.const).max() == 0 and np.abs(want.lin).max() == 0
    got = bracket(P_lower(1), P_lower(2))
    assert np.abs(got.const).max() == 0 and np.abs(got.lin).max() == 0
    # [L1, L2] = i L3 (specialization of the M-M relation)
    lhs = bracket(L1(), L2())
    l3 = L3()
    assert np.array_equal(lhs.lin, 1j * l3.lin)
    assert np.array_equal(lhs.const, 1j * l3.const)
    # [P0, L3] = 0: consistency of the cylindrical complete set
    got = bracket(P_lower(0), L3())
    assert np.abs(got.const).max() == 0 and np.abs(got.lin).max() == 0


def test_all_structure_constants():
    assert len(GENERATORS) == 10 and len(set(GENERATORS)) == 10
    assert check_all_brackets() == []


def test_expected_bracket_single():
    # [P_1, M_12] = i eta_11 P_2 = -i P_2, and [M_12, P_1] = +i P_2
    for a, b, sign in (((1,), (1, 2), 1.0), ((1, 2), (1,), -1.0)):
        want = expected_bracket(a, b)
        assert np.array_equal(want.const, sign * -1j * P_lower(2).const)
        assert np.array_equal(want.lin, np.zeros((4, 4)))
        got = bracket(generator(a), generator(b))
        assert np.array_equal(got.const, want.const) and np.array_equal(got.lin, want.lin)


def _flipped_boost(m_lower):
    """M_lower with the sign of lin[3, 0] of M_03 flipped: no longer a
    generator of the Poincare algebra."""
    def patched(mu, nu):
        field = m_lower(mu, nu)
        if (mu, nu) == (0, 3):
            lin = field.lin.copy()
            lin[3, 0] = -lin[3, 0]
            return KillingField(field.const, lin)
        return field
    return patched


def test_bracket_gate_reports_a_broken_generator(monkeypatch, tmp_path):
    # the algebra suite reports the mismatching pairs rather than raising:
    # a broken boost fails the check and the report is still written
    from photonmodes import cli, operators
    assert check_all_brackets() == []
    monkeypatch.setattr(operators, "M_lower", _flipped_boost(operators.M_lower))
    assert check_all_brackets() != []
    out = tmp_path / "algebra.json"
    assert cli.main(["validate", "algebra", "--out", str(out)]) == 1
    (report,) = json.loads(out.read_text())["reports"]
    assert report["name"] == "algebra" and not report["passed"]
    assert report["residuals"]["bracket_mismatches"] > 0


# ---------------------------------------------------------------------------
# Composite identities
# ---------------------------------------------------------------------------

def test_pauli_lubanski_identity():
    mode = spherical_mode(SphericalLabel(1.0, 1, 0, +1))
    res = pauli_lubanski_residual(mode, np.array([0.1]), np.array([0.9]),
                                  np.array([-0.4]), np.array([0.8]), h=0.01)
    assert res < 1e-6


def _ordered_pair_pauli_lubanski(mode, t, x, y, z, h):
    """Reference: S_mu F summed over every ordered (rho, sigma) pair with
    weight eps / 2."""
    def f_eval(tt, xx, yy, zz):
        return field_strength(mode, tt, xx, yy, zz)

    scale = np.abs(f_eval(t, x, y, z)).max()
    worst = 0.0
    for mu in range(4):
        lhs = 0.0
        for rho in range(4):
            for sigma in range(4):
                if rho == sigma:
                    continue
                m_up = ETA_DIAG[rho] * ETA_DIAG[sigma] * M_lower(rho, sigma)

                def g_eval(tt, xx, yy, zz, gen=m_up):
                    return lie_derivative(gen, f_eval, tt, xx, yy, zz, h=h)

                for nu in range(4):
                    w = LEVI_CIVITA[mu, nu, rho, sigma]
                    if w != 0.0:
                        lhs = lhs + 0.5 * w * 1j * ETA_DIAG[nu] * fdiff.partial(
                            g_eval, (t, x, y, z), nu, h)
        rhs = lie_derivative(P_lower(mu), DualField(mode), t, x, y, z, h=h)
        worst = max(worst, np.abs(lhs - rhs).max() / scale)
    return worst


@pytest.mark.parametrize("mode", [
    plane_wave(PlaneWaveLabel((0.3, -0.5, 0.8), -1)),
    spherical_mode(SphericalLabel(1.2, 2, -1, +1))], ids=["plane", "spherical"])
def test_pauli_lubanski_takes_each_pair_once(monkeypatch, mode):
    # the (sigma, rho) term equals the (rho, sigma) one: 12 partials, not 24
    pts = (np.array([0.1, -0.2]), np.array([0.9, 0.4]), np.array([-0.4, 0.7]),
           np.array([0.8, -0.5]))
    calls, partial = [], fdiff.partial
    monkeypatch.setattr(fdiff, "partial",
                        lambda *a, **kw: (calls.append(a[2]), partial(*a, **kw))[1])
    res = pauli_lubanski_residual(mode, *pts, h=0.01)
    monkeypatch.undo()
    assert len(calls) == 12
    # both residuals are relative to max |F|
    assert abs(res - _ordered_pair_pauli_lubanski(mode, *pts, h=0.01)) <= 1e-12


def test_dual_field_translation_eigenvalues():
    mode = cylindrical_mode(CylindricalLabel(1.3, 0.5, 2, +1))
    dual = DualField(mode)
    pts = (np.array([0.2]), np.array([1.0]), np.array([0.5]), np.array([0.7]))
    ref = dual.evaluate(*pts)
    lt = lie_derivative(P_upper(0), dual, *pts, h=0.01)
    assert np.abs(lt - 1.3 * ref).max() < 1e-6 * np.abs(ref).max()


def test_lie_derivative_of_a_rank_two_field():
    # (Lie_xi F)_ab = xi^c d_c F_ab + F_cb d_a xi^c + F_ac d_b xi^c, the rank
    # read from the value's shape, d_c F by the same stencils
    dual = DualField(spherical_mode(SphericalLabel(0.9, 1, 1, -1)))
    pts = (np.array([0.1, -0.2]), np.array([0.9, 1.1]), np.array([-0.4, 0.3]),
           np.array([0.8, 0.6]))
    f = dual.evaluate(*pts)
    grad = np.moveaxis(fdiff.gradient4(dual.evaluate, pts, 0.01), 0, -3)
    for xi in (P_upper(0), L3(), L_plus(), M_lower(0, 1)):
        d_xi = xi.d_xi()
        want = (np.einsum("...c,...cab->...ab", xi.value(*pts), grad)
                + d_xi @ f + f @ d_xi.T)
        got = lie_derivative(xi, dual, *pts, h=0.01)
        assert got.shape == f.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
