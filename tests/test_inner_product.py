import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from photonmodes.modes import (PlaneWaveLabel, CylindricalLabel, SphericalLabel,
                               plane_wave, cylindrical_mode, spherical_mode)
from photonmodes.inner_product import (SliceSpec, TailSpec, WavePacket, Superposition,
                                       inner, inner_field_strength_form, current,
                                       GaussianBumpScalar, gauge_shift, slice_gram,
                                       bessel_overlap, bessel_overlap_closed_form,
                                       smeared_radial_delta, discrete_orthonormality,
                                       averaged_oscillatory_integral,
                                       damped_oscillatory_integral, oscillatory_integral)
from photonmodes.operators import L3, LieField
from photonmodes import charts, fdiff, harmonics, modes, inner_product

from oracles import (bump_gradient_stacked, bump_hessian_stacked, slice_nodes_meshgrid,
                     superposition_jet_summed)


PACKET_QUAD = SliceSpec()


@pytest.fixture(scope="module")
def packet():
    return WavePacket(l=1, m=0, s=+1, center=1.0, width=0.2, n_nodes=48)


# ---------------------------------------------------------------------------
# Current
# ---------------------------------------------------------------------------

def test_current_positive_density_for_plane_wave():
    mode = plane_wave(PlaneWaveLabel((0.2, -0.4, 0.7), +1))
    t, x, y, z = np.array([0.1]), np.array([0.5]), np.array([0.3]), np.array([-0.2])
    j = current(mode, mode, t, x, y, z)
    assert np.abs(j[..., 0].imag).max() < 1e-18
    assert j[..., 0].real.min() > 0


def test_current_zero_field():
    mode = plane_wave(PlaneWaveLabel((0.0, 0.0, 1.0), +1))
    zero = Superposition([(0.0, mode)])
    j = current(mode, zero, 0.0, np.array([0.4]), np.array([0.1]), np.array([0.2]))
    assert np.abs(j).max() == 0.0


def test_current_takes_one_jet_per_distinct_field():
    # j' from each field's jet equals the explicit formula over evaluate and
    # gradient, bit for bit (plane-wave and multipole jets carry evaluate's
    # values exactly)
    pw = _Counted(plane_wave(PlaneWaveLabel((0.2, -0.4, 0.7), +1)))
    sph = _Counted(spherical_mode(SphericalLabel(1.0, 2, 1, -1)))
    pts = (np.array([0.1, -0.3]), np.array([1.0, -0.4]), np.array([0.6, 0.9]), np.array([0.8, 0.2]))
    up = charts.ETA_DIAG
    for a, b in ((pw, sph), (sph, sph)):
        pw.calls.clear()
        sph.calls.clear()
        j = current(a, b, *pts)
        assert a.calls == {"jet": 1} and b.calls == {"jet": 1}
        ga, gb = a.field.gradient(*pts), b.field.gradient(*pts)
        av, bv = a.field.evaluate(*pts), b.field.evaluate(*pts)
        ref = np.stack([1j * np.einsum("b,...b->...", up, np.conj(ga[..., c, :]) * bv
                                       - np.conj(av) * gb[..., c, :]) for c in range(4)],
                       axis=-1)
        assert np.array_equal(j, ref)


def test_wrapper_jets(rng):
    # a Superposition's jet is the sum of its terms' jets; a gauge shift's
    # adds (grad Lambda, Hessian of Lambda) to its base's, and a static
    # Lambda leaves F_{0b} bit for bit
    pw = plane_wave(PlaneWaveLabel((0.2, -0.4, 0.7), +1))
    cyl = cylindrical_mode(CylindricalLabel(1.2, 0.5, -1, +1))
    pts = tuple(rng.uniform(-1.5, 1.5, 8) for _ in range(4))
    a, g = Superposition([(0.5, pw), (2.0j, cyl)]).jet(*pts)
    (pa, pg), (ca, cg) = pw.jet(*pts), cyl.jet(*pts)
    assert np.array_equal(a, 0.5 * pa + 2.0j * ca)
    assert np.array_equal(g, 0.5 * pg + 2.0j * cg)
    lam = GaussianBumpScalar(center=(0.1, 0.0, 0.2), width=0.6, c0=0.9, linear=(0.2, 0.1, -0.3))
    sa, sg = gauge_shift(cyl, lam).jet(*pts)
    assert np.array_equal(sa, ca + lam.gradient(*pts))
    assert np.array_equal(sg, cg + lam.hessian(*pts))
    assert np.array_equal(sg[..., 0, :] - sg[..., :, 0], cg[..., 0, :] - cg[..., :, 0])


def test_current_conservation_fd():
    m1 = cylindrical_mode(CylindricalLabel(1.2, 0.5, 1, +1))
    m2 = spherical_mode(SphericalLabel(1.0, 1, 0, +1))
    pts = (np.array([0.1]), np.array([1.0]), np.array([0.6]), np.array([0.8]))

    def jf(t, x, y, z):
        return current(m1, m2, t, x, y, z)

    div = None
    for mu, sign in ((0, 1.0), (1, -1.0), (2, -1.0), (3, -1.0)):
        term = sign * fdiff.partial(jf, pts, mu, 0.01)[..., mu]
        div = term if div is None else div + term
    assert np.abs(div).max() < 1e-6 * np.abs(jf(*pts)).max()


# ---------------------------------------------------------------------------
# Packet norms and sesquilinearity
# ---------------------------------------------------------------------------

def test_packet_norm_matches_g_squared(packet):
    val = inner(packet, packet, PACKET_QUAD)
    expected = packet.norm_expected()
    assert abs(val.imag) < 1e-10
    assert abs(val.real - expected) < 1e-3 * expected


@pytest.mark.parametrize("kwargs, field", [
    ({"width": -0.2}, "width"), ({"width": math.nan}, "width"),
    ({"width": math.inf}, "width"), ({"width": 0.0}, "width"),
    ({"center": math.nan}, "center"), ({"center": math.inf}, "center"),
    ({"n_nodes": 0}, "n_nodes"), ({"n_nodes": 2.5}, "n_nodes"),
])
def test_wave_packet_rejects_a_bad_spectrum(kwargs, field):
    # a negative width ran the energy nodes downward and gave a norm of -1
    with pytest.raises(ValueError, match=field):
        WavePacket(1, 0, 1, **{"center": 1.0, "width": 0.2, **kwargs})


def test_packet_norm_slice_independent(packet):
    v0 = inner(packet, packet, PACKET_QUAD).real
    v1 = inner(packet, packet, SliceSpec(t_slice=1.0)).real
    assert abs(v1 - v0) < 1e-3 * v0


def test_inner_positivity_and_sesquilinearity(packet, rng):
    other = WavePacket(l=1, m=1, s=-1, center=1.1, width=0.2, n_nodes=48)
    a, b = 0.8 - 0.3j, -0.4 + 0.9j
    sup = Superposition([(a, packet), (b, other)])
    norm = inner(sup, sup, PACKET_QUAD)
    assert norm.real > 0
    third = WavePacket(l=2, m=0, s=+1, center=0.95, width=0.18, n_nodes=48)
    lhs = inner(sup, third, PACKET_QUAD)
    rhs = (np.conj(a) * inner(packet, third, PACKET_QUAD)
           + np.conj(b) * inner(other, third, PACKET_QUAD))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_kronecker_sector_orthogonality(packet):
    other_m = WavePacket(l=1, m=1, s=+1, center=1.0, width=0.2, n_nodes=48)
    other_s = WavePacket(l=1, m=0, s=-1, center=1.0, width=0.2, n_nodes=48)
    nrm = packet.norm_expected()
    assert abs(inner(packet, other_m, PACKET_QUAD)) < 1e-10 * nrm
    assert abs(inner(packet, other_s, PACKET_QUAD)) < 1e-10 * nrm


@pytest.mark.parametrize("l, m, s", [(1, 0, +1), (2, -1, -1), (3, 1, +1)])
def test_packet_matches_explicit_mode_sum(l, m, s, rng):
    # the packet's one-pass spectral kernel against the sum over its nodes,
    # sum_k a_k |p_k, l, m, s>, built from plain modes
    pk = WavePacket(l=l, m=m, s=s, center=1.1, width=0.2, n_nodes=24)
    terms = [(a, spherical_mode(SphericalLabel(p, l, m, s)))
             for a, p in zip(pk.amplitudes, pk.p_nodes)]

    def oracle(method, *args, **kwargs):
        return sum(a * getattr(md, method)(*args, **kwargs) for a, md in terms)

    def close(got, want, rel):
        assert np.abs(got - want).max() <= rel * np.abs(want).max()

    pts = tuple(rng.uniform(-2.0, 2.0, 64) for _ in range(4))
    close(pk.evaluate(*pts), oracle("evaluate", *pts), 1e-12)
    close(pk.gradient(*pts), oracle("gradient", *pts), 1e-12)
    # time_derivative() is d_t as a field; applied twice, the second derivative
    dt = pk.time_derivative()
    for order, got in ((1, dt.evaluate(*pts)), (2, dt.time_derivative().evaluate(*pts))):
        close(got, sum(a * (-1j * md.p0) ** order * md.evaluate(*pts) for a, md in terms), 1e-12)
    # polar axis, both poles: m = 0 and m = +-1 have nonzero limits
    axis = (np.array([0.0, 0.3, -0.2]), np.zeros(3), np.zeros(3), np.array([1.3, -0.7, 2.2]))
    close(pk.evaluate(*axis), oracle("evaluate", *axis), 1e-12)
    # the origin: l = 1 is evaluated just off it, at p r = 1e-12 per plain
    # mode but at r = 1e-12 / max(p_k) for the packet (an O(p r) offset);
    # l >= 2 vanishes there
    close(pk.evaluate(0.4, 0.0, 0.0, 0.0), oracle("evaluate", 0.4, 0.0, 0.0, 0.0), 1e-11)


def _counting_radial_points(monkeypatch):
    """Record the number of radial points of each sph_radial_profiles call."""
    seen = []
    profiles = modes.sph_radial_profiles

    def counted(label, r, derivs=0):
        seen.append(np.size(r))
        return profiles(label, r, derivs)

    monkeypatch.setattr(modes, "sph_radial_profiles", counted)
    return seen


def test_packet_batch_shares_radial_work_per_distinct_t_r(monkeypatch, rng):
    # points repeating (t, r) at different angles, with mixed t: the packet
    # runs its radial sum once per distinct pair (radii recomputed from
    # (x, y, z) count as the radius they round from) and gathers it back,
    # and every result equals the same call made point by point
    pk = WavePacket(l=2, m=1, s=-1, center=1.0, width=0.2, n_nodes=16)
    radii = np.repeat([0.7, 1.9, 3.4], 6)
    times = np.tile([0.0, 0.0, 0.6], 6)
    theta = np.arccos(rng.uniform(-0.9, 0.9, radii.size))
    phi = rng.uniform(0.0, 2.0 * math.pi, radii.size)
    pts = (times, radii * np.sin(theta) * np.cos(phi), radii * np.sin(theta) * np.sin(phi),
           radii * np.cos(theta))
    n_pairs = np.unique(times + 1j * radii).size
    assert n_pairs < radii.size

    seen = _counting_radial_points(monkeypatch)
    for method in (pk.evaluate, pk.time_derivative().evaluate, pk.gradient):
        seen.clear()
        batch = method(*pts)
        assert seen == [pk.p_nodes.size * n_pairs]
        single = np.stack([method(*(c[i] for c in pts)) for i in range(radii.size)])
        assert np.abs(batch - single).max() <= 1e-13 * np.abs(single).max()


def test_packet_on_the_ball_takes_its_radial_sum_once_per_radius(monkeypatch, packet):
    # the packet ball's 128 radii, recomputed from (x, y, z), round to 332
    # distinct values; the radial sum runs once per radius, and evaluate
    # and jet equal the point-by-point calls on every 61st node
    t, x, y, z, _ = inner_product.slice_nodes(PACKET_QUAD)
    assert np.unique(charts.sph_angles(x, y, z)[0]).size > PACKET_QUAD.n_r
    seen = _counting_radial_points(monkeypatch)
    d_dt = packet.time_derivative()
    for method in (lambda *c: (packet.evaluate(*c),), lambda *c: (d_dt.evaluate(*c),),
                   packet.jet):
        seen.clear()
        batch = method(t, x, y, z)
        assert seen == [packet.p_nodes.size * PACKET_QUAD.n_r]
        singles = [method(t[i], x[i], y[i], z[i]) for i in range(0, t.size, 61)]
        for got, want in zip(batch, zip(*singles)):
            want = np.stack(want)
            assert np.abs(got[::61] - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# Gauge transformations
# ---------------------------------------------------------------------------

def test_gauge_shift_constant_lambda_is_identity():
    mode = plane_wave(PlaneWaveLabel((0.0, 0.3, 0.9), +1))
    lam = GaussianBumpScalar(center=(0, 0, 0), width=math.inf, c0=3.0)
    shifted = gauge_shift(mode, lam)
    pts = (0.1, 0.4, -0.2, 0.6)
    assert np.allclose(shifted.evaluate(*pts), mode.evaluate(*pts))
    assert np.abs(lam.gradient(*pts)).max() == 0.0


def test_inner_of_a_wrapped_gauge_shift():
    # a wrapper whose d_t reaches a gauge shift: Lambda is static, so the
    # shift's time_derivative() is its base's
    mode = cylindrical_mode(CylindricalLabel(1.2, 0.5, 1, +1))
    lam = GaussianBumpScalar(center=(0.2, -0.3, 0.1), width=0.8, c0=1.1,
                             linear=(0.3, -0.2, 0.4))
    shifted = gauge_shift(mode, lam)
    box = SliceSpec(chart="cartesian", box_half=3.0, n_box=12)
    got = inner(LieField(L3(), shifted), mode, box)
    assert np.isfinite(got)
    assert got == pytest.approx(_current_form_reference(LieField(L3(), shifted), mode, box),
                                rel=1e-12)


def test_gauge_invariance_of_field_strength_form(rng):
    box = SliceSpec(chart="cartesian", box_half=6.5, n_box=64)
    la = PlaneWaveLabel((0.0, 0.0, 1.2), +1)
    lb = PlaneWaveLabel((0.0, 0.3, 0.9), +1)
    base = inner_field_strength_form(plane_wave(la), plane_wave(lb), box)
    lam = GaussianBumpScalar(center=(0.2, -0.3, 0.1), width=0.8, c0=1.1,
                             linear=(0.3, -0.2, 0.4))
    shifted = gauge_shift(plane_wave(lb), lam)
    val = inner_field_strength_form(plane_wave(la), shifted, box)
    assert abs(val - base) < 1e-8 * abs(base)
    # while the Coulomb gauge is violated: div(A + grad L) = laplacian(L) != 0
    hess = lam.hessian(0.0, 0.2, -0.3, 0.1)
    lap = hess[1, 1] + hess[2, 2] + hess[3, 3]
    assert abs(lap) > 1e-3


def test_gauge_shift_that_does_not_decay_in_the_box_changes_the_form():
    # positive control: Stokes needs Lambda to vanish on the box faces, so a
    # bump as wide as the box changes the form, and a jet that dropped
    # grad(Lambda) would leave it unchanged
    box = SliceSpec(chart="cartesian", box_half=4.0, n_box=24)
    pw_b = plane_wave(PlaneWaveLabel((0.0, 0.3, 0.9), +1))
    shifts = [gauge_shift(pw_b, GaussianBumpScalar(center=(0.2, -0.3, 0.1), width=width,
                                                   c0=1.1, linear=(0.3, -0.2, 0.4)))
              for width in (0.8, 4.0)]
    base, narrow, wide = slice_gram([plane_wave(PlaneWaveLabel((0.0, 0.0, 1.2), +1))],
                                    [pw_b, *shifts], box, "field_strength")[0]
    assert abs(narrow - base) < 1e-8 * abs(base)
    assert abs(wide - base) > 1e-2 * abs(base)


@pytest.mark.parametrize("bad", [
    {"width": 0.0}, {"width": -0.5}, {"width": math.nan},
    {"center": (0.0, math.nan, 0.0)}, {"center": (0.0, 0.0)}, {"c0": math.inf},
    {"c0": math.nan}, {"linear": (0.0, 0.0, -math.inf)}, {"linear": (1.0, 0.0, 0.0, 0.0)},
])
def test_gaussian_bump_rejects_invalid_parameters(bad):
    kwargs = {"center": (0.0, 0.0, 0.0), "width": 1.0, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        GaussianBumpScalar(**kwargs)


def test_gaussian_bump_broadcasts_coordinates_like_the_modes():
    lam = GaussianBumpScalar(center=(0.1, 0.0, -0.2), width=0.7, c0=0.4, linear=(1.0, 0.5, 0.0))
    xs = np.array([0.0, 0.5])
    val = lam.value(0.0, xs, 0.0, 0.0)
    assert val.shape == (2,)
    assert val[1] == lam.value(0.0, 0.5, 0.0, 0.0)
    assert lam.gradient(np.zeros((3, 1)), xs, 0.0, 0.0).shape == (3, 2, 4)
    assert lam.hessian(0.0, xs, 0.0, 0.0).shape == (2, 4, 4)
    with pytest.raises(ValueError, match="finite"):
        lam.value(0.0, math.nan, 0.0, 0.0)


@pytest.mark.parametrize("width", [0.7, math.inf])
def test_gaussian_bump_derivatives_match_the_stacked_form_and_finite_differences(width, rng):
    lam = GaussianBumpScalar(center=(0.1, -0.2, 0.3), width=width, c0=0.8,
                             linear=(0.4, -0.3, 0.2))
    pts = (0.3, *rng.uniform(-1.5, 1.5, (3, 64)))
    grad, hess = lam.gradient(*pts), lam.hessian(*pts)
    # from three coordinate offsets, as from the stacked (n, 3) ones
    for got, want in ((grad, bump_gradient_stacked(lam, *pts)),
                      (hess, bump_hessian_stacked(lam, *pts))):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    # d_mu of the value is the gradient, d_mu of the gradient the Hessian
    # (zero for width = inf: Lambda is then affine)
    fd_grad = np.moveaxis(fdiff.gradient4(lam.value, pts, 1e-3), 0, -1)
    assert np.abs(fd_grad - grad).max() <= 1e-9 * np.abs(grad).max()
    fd_hess = np.moveaxis(fdiff.gradient4(lam.gradient, pts, 1e-3), 0, -2)
    assert np.abs(fd_hess - hess).max() <= 1e-9 * np.abs(grad).max() / min(width, 1.0)


class _Counted:
    """A field that counts the calls of each of its methods."""

    def __init__(self, field):
        self.field, self.calls = field, {}

    def __getattr__(self, name):
        method = getattr(self.field, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted


def _dt_values(field, t, x, y, z):
    """d_t A, the evaluate of time_derivative()."""
    return field.time_derivative().evaluate(t, x, y, z)


def _entry(av, da, bv, db, w):
    """One slice_gram entry as slice_gram reduces it: the node sum of
    i [ conj(dA)_b A'^b - conj(A)^b dA'_b ] as the two conjugated dot
    products i [ vdot(dA, w eta A') - vdot(A, w eta dA') ]."""
    w_eta = w[:, None] * charts.ETA_DIAG
    return complex(1j * (np.vdot(da, w_eta * bv) - np.vdot(av, w_eta * db)))


def _current_form_reference(a_field, b_field, spec):
    """inner from j'_0 over d_t A and evaluate of each field on the whole
    slice, reduced as slice_gram reduces an entry."""
    t, x, y, z, w = inner_product.slice_nodes(spec)
    return _entry(a_field.evaluate(t, x, y, z), _dt_values(a_field, t, x, y, z),
                  b_field.evaluate(t, x, y, z), _dt_values(b_field, t, x, y, z), w)


@pytest.mark.parametrize("form, derivative", [("current", "d_dt"),
                                              ("field_strength", "jet")])
def test_slice_gram_evaluates_each_field_once(form, derivative):
    box = SliceSpec(chart="cartesian", box_half=3.0, n_box=12)
    shared = _Counted(cylindrical_mode(CylindricalLabel(1.2, 0.5, 1, +1)))
    other = plane_wave(PlaneWaveLabel((0.2, -0.4, 0.7), -1))
    shifts = [gauge_shift(shared, GaussianBumpScalar(center=c, width=0.6, c0=0.9,
                                                     linear=(0.2, 0.1, -0.3)))
              for c in ((0.1, 0.0, 0.2), (-0.3, 0.2, 0.0))]
    reference = {"current": _current_form_reference,
                 "field_strength": _field_strength_form_reference}[form]
    # shared both in left and right; then only in right, a base needed again
    # two columns after its first use
    for left, right in (([shared, other], [shifts[0], other, shared, shifts[1]]),
                        ([other], [shifts[0], other, shifts[1], shared])):
        shared.calls.clear()
        gram = slice_gram(left, right, box, form)
        # the current pairs evaluate with the evaluate of time_derivative();
        # the field-strength form takes value and gradient from one jet
        assert shared.calls == ({"evaluate": 1, "time_derivative": 1} if derivative == "d_dt"
                                else {"jet": 1})
        assert gram.shape == (len(left), len(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                assert gram[i, j] == reference(a, b, box)
    with pytest.raises(ValueError, match="form"):
        slice_gram(left, right, box, "j-form")


@pytest.mark.parametrize("form", ["current", "field_strength"])
def test_slice_gram_frees_its_arrays_on_return(form):
    # with the cycle collector off, every array a field returned to
    # slice_gram is freed when the call returns: no reference cycle holds
    # the pairs or the nodes until a later collection
    refs = []

    class Tracked:
        def __init__(self, field):
            self.field = field

        def __getattr__(self, name):
            method = getattr(self.field, name)

            def tracked(*args, **kwargs):
                out = method(*args, **kwargs)
                refs.extend(weakref.ref(a) for a in (out if isinstance(out, tuple) else (out,)))
                return out
            return tracked

    box = SliceSpec(chart="cartesian", box_half=3.0, n_box=8)
    left = Tracked(plane_wave(PlaneWaveLabel((0.2, -0.4, 0.7), -1)))
    right = gauge_shift(Tracked(cylindrical_mode(CylindricalLabel(1.2, 0.5, 1, +1))),
                        GaussianBumpScalar(center=(0.1, 0.0, 0.2), width=0.6))
    gc.disable()
    try:
        slice_gram([left], [right, left], box, form)
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("form, derivative", [("current", "d_dt"),
                                              ("field_strength", "jet")])
def test_slice_gram_in_blocks_matches_the_full_node_sum(monkeypatch, form, derivative):
    # 12^3 = 1728 nodes in blocks of 300: five full blocks and one of 228
    monkeypatch.setattr(inner_product, "_BLOCK", 300)
    box = SliceSpec(chart="cartesian", box_half=3.0, n_box=12)
    shared = _Counted(cylindrical_mode(CylindricalLabel(1.2, 0.5, 1, +1)))
    other = plane_wave(PlaneWaveLabel((0.2, -0.4, 0.7), -1))
    shift = gauge_shift(shared, GaussianBumpScalar(center=(0.1, 0.0, 0.2), width=0.6,
                                                   c0=0.9, linear=(0.2, 0.1, -0.3)))
    reference = {"current": _current_form_reference,
                 "field_strength": _field_strength_form_reference}[form]
    left, right = [shared, other], [shift, other, shared]
    gram = slice_gram(left, right, box, form)
    # each field once per block, the shift through its base's pair
    assert shared.calls == ({"evaluate": 6, "time_derivative": 6} if derivative == "d_dt"
                            else {"jet": 6})
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            want = reference(a, b, box)
            assert abs(gram[i, j] - want) <= 1e-14 * abs(want)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _gauge_box_gram(n_box):
    """The field-strength Gram of a plane wave against another and three
    gauge shifts of it on a box of n_box^3 nodes."""
    gbox = SliceSpec(chart="cartesian", box_half=6.5, n_box=n_box)
    pw_b = plane_wave(PlaneWaveLabel((0.0, 0.3, 0.9), +1))
    shifted = [gauge_shift(pw_b, GaussianBumpScalar(center=(0.1 * k, -0.2, 0.3), width=0.7,
                                                    c0=1.0, linear=(0.2, -0.1, 0.3)))
               for k in range(3)]
    return slice_gram([plane_wave(PlaneWaveLabel((0.0, 0.0, 1.2), +1))],
                      [pw_b, *shifted], gbox, "field_strength")


def test_slice_gram_working_set_is_bounded_on_a_large_box():
    # 64^3 field-strength gauge box: one full-slice 4x4 complex jet alone
    # would be 67 MB, and whole-slice nodes and weights 10 MB; per-block
    # nodes and pairs keep the whole call to one block's working set (about
    # 2 MB with the one-time allocations of a first call, 9.9 MB in blocks
    # of 16,384 nodes)
    assert _traced_peak_mb(lambda: _gauge_box_gram(64)) < 3.0


def test_slice_gram_working_set_does_not_grow_with_the_slice():
    # each block's nodes are gathered from the 1-d rule, so the traced peak
    # is one block's nodes and pairs (about 1.3 MB) at any box size, where
    # whole-slice nodes would make it 13 MB at 48^3 and 29 MB at 80^3.  A
    # first small call keeps one-time allocations out of the measurement.
    _gauge_box_gram(8)
    small, large = (_traced_peak_mb(lambda: _gauge_box_gram(n)) for n in (48, 80))
    assert large <= 1.1 * small and large < 3.0, (small, large)


def test_packet_inner_of_a_lie_field_stays_within_a_block_working_set(packet):
    # the hermiticity check's L_3 inner products: the 4x4 jets of two
    # 48-energy packets are taken a block of the ball at a time (11.6 and
    # 12.6 MB traced with the ball as one block)
    near = WavePacket(l=1, m=1, s=-1, center=1.1, width=0.2, n_nodes=48)
    low = WavePacket(l=2, m=0, s=+1, center=0.9, width=0.18, n_nodes=48)
    f1, f2 = Superposition([(1.0, packet), (0.7, near)]), Superposition([(1.0, near), (0.5j, low)])
    for a, b in ((LieField(L3(), f1), f2), (f1, LieField(L3(), f2))):
        inner(a, b, PACKET_QUAD)
        peak = _traced_peak_mb(lambda: inner(a, b, PACKET_QUAD))
        assert peak < 5.0, peak


def test_slice_nodes_equal_the_meshgrid_form():
    # the packet ball of four full blocks, and a box of ten full blocks and
    # a ragged block of 1,472 nodes: slice_nodes and slice_gram's blocks,
    # concatenated, are the whole-slice meshgrid nodes bit for bit
    box = SliceSpec(chart="cartesian", box_half=6.5, n_box=28, t_slice=0.4)
    for spec, sizes in ((PACKET_QUAD, [inner_product._BLOCK] * 4),
                        (box, [inner_product._BLOCK] * 10 + [1472])):
        want = slice_nodes_meshgrid(spec)
        got = inner_product.slice_nodes(spec)
        blocks = list(inner_product._slice_blocks(spec, inner_product._BLOCK))
        assert [len(w) for _, w in blocks] == sizes
        walked = [np.concatenate([nodes[k] for nodes, _ in blocks]) for k in range(4)]
        walked.append(np.concatenate([w for _, w in blocks]))
        for g, k, v in zip(got, walked, want):
            assert g.shape == v.shape and np.array_equal(g, v) and np.array_equal(k, v)


def test_superposition_jet_equals_the_per_term_sum(packet, rng):
    # summed in place, the jet of a packet superposition is the sum taken
    # into a new array per term, bit for bit
    near = WavePacket(l=1, m=0, s=+1, center=1.1, width=0.2, n_nodes=48)
    other = WavePacket(l=2, m=1, s=-1, center=0.9, width=0.18, n_nodes=48)
    terms = [(1.0, packet), (0.7 - 0.2j, near), (0.5j, other)]
    pts = (np.zeros(500),) + tuple(rng.uniform(-4.0, 4.0, 500) for _ in range(3))
    a, g = Superposition(terms).jet(*pts)
    want_a, want_g = superposition_jet_summed(terms, *pts)
    assert np.array_equal(a, want_a) and np.array_equal(g, want_g)


def _field_strength_entry(a_field, b_field, nodes, w):
    """One block's field-strength entry from the full 4x4 field strength of
    each field's jet (a gauge shift's jet carries the Hessian of Lambda),
    reduced as slice_gram reduces an entry."""
    (av, ga), (bv, gb) = a_field.jet(*nodes), b_field.jet(*nodes)
    return _entry(av, (ga - np.swapaxes(ga, -1, -2))[..., 0, :],
                  bv, (gb - np.swapaxes(gb, -1, -2))[..., 0, :], w)


def _field_strength_form_reference(a_field, b_field, spec):
    """inner_field_strength_form on the whole slice as one block."""
    t, x, y, z, w = inner_product.slice_nodes(spec)
    return _field_strength_entry(a_field, b_field, (t, x, y, z), w)


def test_field_strength_form_equals_full_field_strength(packet):
    # the reference is reduced block by block as slice_gram reduces it: the
    # ball of 1,152 nodes is one block, the box of 4,096 nodes two
    quad = SliceSpec(r_max=30.0, n_r=32, n_theta=6, n_phi=6)
    box = SliceSpec(chart="cartesian", box_half=4.0, n_box=16)
    la = PlaneWaveLabel((0.0, 0.0, 1.2), +1)
    shifted = gauge_shift(plane_wave(PlaneWaveLabel((0.0, 0.3, 0.9), +1)),
                          GaussianBumpScalar(center=(0.2, -0.3, 0.1), width=0.8, c0=1.1,
                                             linear=(0.3, -0.2, 0.4)))
    for a, b, spec, n_blocks in ((packet, packet, quad, 1), (plane_wave(la), shifted, box, 2)):
        blocks = list(inner_product._slice_blocks(spec, inner_product._BLOCK))
        assert len(blocks) == n_blocks
        want = np.zeros((1, 1), dtype=complex)
        for nodes, w in blocks:
            want += _field_strength_entry(a, b, nodes, w)
        assert inner_field_strength_form(a, b, spec) == complex(want[0, 0])


def _density_node_terms(a_field, b_field, spec, form):
    """The slice integral's node terms w _density, the elementwise form
    slice_gram reduced before it took conjugated dot products, and the sum
    of the magnitudes of the 8 products per node that its two dot products
    accumulate."""
    nodes = inner_product.slice_nodes(spec)
    pair = inner_product._FORM_JETS[form]
    (av, da), (bv, db) = pair(a_field, *nodes[:4]), pair(b_field, *nodes[:4])
    w = nodes[4]
    magnitudes = w[:, None] * (np.abs(da) * np.abs(bv) + np.abs(av) * np.abs(db))
    return w * inner_product._density(da, av, db, bv), float(magnitudes.sum())


def _gamma(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff: the relative bound
    on the rounding of an n-term floating-point sum."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


@pytest.mark.parametrize("form", ["current", "field_strength"])
def test_slice_gram_equals_the_elementwise_density_node_sum(packet, form):
    # the dot products only reorder the sum over nodes and Lorentz index:
    # on the packet ball (four blocks) and on a gauge box of one block and a
    # ragged one, each
    # entry is within the rounding of its sum of the exact (fsum) sum of the
    # node terms.  Each dot product sums 4 products a node; a few more
    # roundings form each product, each reference term and the final sums.
    near = WavePacket(l=1, m=0, s=+1, center=1.1, width=0.2, n_nodes=48)
    pw_b = plane_wave(PlaneWaveLabel((0.0, 0.3, 0.9), +1))
    shifts = [gauge_shift(pw_b, GaussianBumpScalar(center=(0.1 * k, -0.2, 0.3), width=0.7,
                                                   c0=1.0, linear=(0.2, -0.1, 0.3)))
              for k in range(2)]
    gbox = SliceSpec(chart="cartesian", box_half=6.5, n_box=13)
    assert inner_product._BLOCK < 13**3 <= 2 * inner_product._BLOCK
    for left, right, spec in (([packet], [packet, near], PACKET_QUAD),
                              ([plane_wave(PlaneWaveLabel((0.0, 0.0, 1.2), +1))],
                               [pw_b, *shifts], gbox)):
        gram = slice_gram(left, right, spec, form)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                terms, magnitudes = _density_node_terms(a, b, spec, form)
                exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
                bound = _gamma(4 * len(terms) + 16) * magnitudes
                assert abs(gram[i, j] - exact) <= bound, (i, j)


# ---------------------------------------------------------------------------
# Bessel overlap tables (both regularizations)
# ---------------------------------------------------------------------------

# the tail rule of the Bessel-table check
TABLE_QUAD = TailSpec(tail_r0=150.0, tail_rounds=3)


def test_overlap_equal_argument_cross():
    # int_0^inf J_{1/2}(r) J_{3/2}(r) dr = 1/2
    got = bessel_overlap("sph_cross", 1, 1.0, 1.0, TABLE_QUAD)
    assert abs(got - 0.5) < 1e-3


def test_overlap_ordered_cross_zero():
    # J_{l-1/2} with the larger momentum: the integral vanishes
    got = bessel_overlap("sph_cross", 1, 2.0, 1.0, TABLE_QUAD)
    assert abs(got) < 1e-3


def test_overlap_tables_both_methods():
    ospec = TABLE_QUAD
    dspec = TailSpec(tail="damped")
    for kind, order, k1, k2 in (("sph_inv_r", 1, 1.0, 2.0), ("sph_inv_r", 2, 1.0, 1.0),
                                ("sph_cross", 1, 1.0, 2.0), ("sph_cross", 2, 0.7, 0.7)):
        cf = bessel_overlap_closed_form(kind, order, k1, k2)
        va = bessel_overlap(kind, order, k1, k2, ospec)
        vd = bessel_overlap(kind, order, k1, k2, dspec)
        scale = max(k1, k2)
        assert abs(va - cf) * scale < 1e-3
        assert abs(vd - cf) * scale < 1e-3
        assert abs(va - vd) * scale < 5e-4


def test_smeared_delta_rows():
    num, want = smeared_radial_delta("cyl_rho", 2, 1.0, 1.05, 0.05)
    assert abs(num - want) < 0.02 * abs(want)
    num, want = smeared_radial_delta("sph_r", 1, 1.0, 1.05, 0.05)
    assert abs(num - want) < 0.02 * abs(want)


@pytest.mark.parametrize("kind, order", [("cyl_rho", 2), ("sph_r", 1)])
def test_smeared_delta_kernel_stays_within_a_chunk_working_set(kind, order):
    # the k' kernel's Bessel values come _SMEAR_ROWS k' nodes at a time into
    # one (SMEAR_NODES, n) array (11.4 MB traced in one 98,304-point call)
    smeared_radial_delta(kind, order, 1.0, 1.05, 0.05)
    peak = _traced_peak_mb(lambda: smeared_radial_delta(kind, order, 1.0, 1.05, 0.05))
    assert peak < 4.0, peak


@pytest.mark.parametrize("kind, sigma, field", [("cyl", 0.05, "kind"), ("sph", 0.05, "kind"),
                                                ("sph_r", -0.05, "sigma"), ("sph_r", 0.0, "sigma"),
                                                ("cyl_rho", math.nan, "sigma"),
                                                ("cyl_rho", math.inf, "sigma")])
def test_smeared_delta_rejects_an_unknown_kind_or_a_bad_sigma(kind, sigma, field):
    with pytest.raises(ValueError, match=field):
        smeared_radial_delta(kind, 1, 1.0, 1.05, sigma)


@pytest.mark.parametrize("k_fixed", [0.0, -1.0, math.nan, math.inf])
def test_smeared_delta_rejects_a_bad_k_fixed(k_fixed):
    # k_fixed = 0 gave (0.0, inf) with a divide-by-zero warning
    with pytest.raises(ValueError, match="k_fixed"):
        smeared_radial_delta("sph_r", 1, k_fixed, 1.05, 0.05)



@pytest.mark.parametrize("field, value", [("center", math.nan), ("center", math.inf),
                                          ("k1", math.nan), ("k1", math.inf), ("k1", -1.0),
                                          ("k2", math.nan), ("k2", math.inf), ("k2", -1.0)])
def test_bessel_overlaps_name_a_bad_wavenumber(field, value):
    # these died in an integer conversion, a ZeroDivisionError or a
    # complaint about the Bessel argument; k = 0 keeps its answer, 0.0
    with pytest.raises(ValueError, match=field):
        if field == "center":
            smeared_radial_delta("sph_r", 1, 1.0, value, 0.05)
        else:
            ks = {"k1": 1.0, "k2": 1.0, field: value}
            bessel_overlap("sph_inv_r", 1, ks["k1"], ks["k2"], TailSpec())
    assert bessel_overlap("sph_inv_r", 1, 0.0, 1.0, TailSpec()) == 0.0


@pytest.mark.parametrize("kind", ["sph_inv_r", "sph_cross"])
@pytest.mark.parametrize("order", [-1, -0.5, 1.5, math.nan, math.inf])
def test_bessel_overlaps_name_an_order_that_is_not_a_multipole_order(kind, order):
    # order = l: sph_inv_r at order -1 diverges at r = 0, where the
    # regularized integral returned 467.18 against a closed form of -1.414,
    # and the closed form at order -0.5 raised a bare ZeroDivisionError
    with pytest.raises(ValueError, match="order"):
        bessel_overlap(kind, order, 1.0, 2.0, TailSpec())
    with pytest.raises(ValueError, match="order"):
        bessel_overlap_closed_form(kind, order, 1.0, 2.0)
    assert bessel_overlap_closed_form(kind, 0, 1.0, 2.0) > 0.0


def test_composite_rule_computes_each_gauss_legendre_rule_once(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    inner_product._gauss_legendre.cache_clear()
    ball = SliceSpec(r_max=2.0, n_r=16, n_theta=8, n_phi=4)
    box = SliceSpec(chart="cartesian", box_half=1.5, n_box=8)
    for _ in range(5):
        val = inner_product._composite_gl(np.cos, 0.0, 10.0, 1.0)
        assert val == pytest.approx(math.sin(10.0), abs=1e-13)
        # slice rules come from the same cache: n_r = 16 is the rule above
        w_ball = inner_product.slice_nodes(ball)[-1]
        w_box = inner_product.slice_nodes(box)[-1]
        # (the radial nodes start 1e-9 off the origin)
        assert w_ball.sum() == pytest.approx(4.0 / 3.0 * math.pi * 2.0**3, rel=1e-8)
        assert w_box.sum() == pytest.approx(3.0**3, rel=1e-13)
        # the harmonic Grams share the cache: one rule for both calls
        for n in (0, 1):
            harmonics.sph_harmonic_gram(n, [(1, 0), (2, 1)], 12, 10)
    assert calls == [16, 8, 12]
    xg, wg = inner_product._gauss_legendre(16)
    assert not xg.flags.writeable and not wg.flags.writeable
    with pytest.raises(ValueError):
        wg[0] = 0.0


def test_slice_spec_validates_every_field():
    for field, value in (("chart", "polar"), ("t_slice", math.nan),
                         ("r_max", -1.0), ("r_max", math.nan), ("box_half", 0.0),
                         ("n_r", 8.5), ("n_theta", 3), ("n_phi", math.nan),
                         ("n_box", math.inf)):
        with pytest.raises(ValueError, match=field):
            SliceSpec(**{field: value})
    # integral counts are stored as int (a rule order must be one)
    spec = SliceSpec(n_r=32.0)
    assert type(spec.n_r) is int and spec.n_r == 32


def test_tail_spec_validates_every_field():
    for field, value in (("tail", "exact"), ("tail", "none"), ("tail_r0", math.nan),
                         ("tail_r0", 0.0), ("tail_rounds", -1), ("tail_rounds", 2.5)):
        with pytest.raises(ValueError, match=field):
            TailSpec(**{field: value})
    spec = TailSpec(tail_rounds=0.0)
    assert type(spec.tail_rounds) is int and spec.tail_rounds == 0


def test_regularization_consistency_simple_integrand():
    # both tail handlers reproduce int_0^inf e^{-r/20} cos(r) dr exactly enough
    spec = TailSpec()
    f = lambda r: np.exp(-r / 20.0) * np.cos(r)
    want = (1.0 / 20.0) / ((1.0 / 20.0) ** 2 + 1.0)
    assert abs(averaged_oscillatory_integral(f, [1.0], spec) - want) < 1e-6
    assert abs(damped_oscillatory_integral(f, [1.0]) - want) < 1e-5


# four integrands on shared beat frequencies, three of them complex: the
# sph_inv_r and sph_cross rows of bessel_overlap and a damped cosine
_STACK_ROWS = (lambda r: harmonics.bessel_j(1.5, r) * harmonics.bessel_j(1.5, 2.0 * r) / r,
               lambda r: (1.0 + 0.5j) * harmonics.bessel_j(0.5, r) * harmonics.bessel_j(1.5, 2.0 * r),
               lambda r: (1.0 - 1.0j) * np.exp(-r / 4.0) * np.cos(r),
               lambda r: 1.0j * harmonics.bessel_j(2.5, 0.7 * r) ** 2 / r)


@pytest.mark.parametrize("tail", ["averaged", "damped"])
def test_stacked_integrand_equals_one_scalar_integral_per_row(tail):
    spec = TailSpec(tail=tail)
    freqs = [3.0, 1.0]
    stacked = oscillatory_integral(lambda r: np.stack([g(r) for g in _STACK_ROWS]), freqs, spec)
    assert stacked.shape == (len(_STACK_ROWS),)
    for k, g in enumerate(_STACK_ROWS):
        scalar = oscillatory_integral(g, freqs, spec)
        assert abs(stacked[k] - scalar) <= 1e-14 * abs(scalar), k


def test_composite_rule_in_blocks_matches_the_single_block_sum(monkeypatch):
    # 37 segments of 16 nodes = 592 nodes in blocks of 100: five full blocks and one of 92
    seen = []

    def f(r):
        seen.append(r.copy())
        return np.stack([np.cos(r), (1.0 + 1.0j) * r * np.exp(-0.1 * r)])

    monkeypatch.setattr(inner_product, "_BLOCK", 10**6)
    whole = inner_product._composite_gl(f, 0.0, 37.0, 1.0)
    (nodes,) = seen
    seen.clear()
    monkeypatch.setattr(inner_product, "_BLOCK", 100)
    blocked = inner_product._composite_gl(f, 0.0, 37.0, 1.0)
    assert [len(r) for r in seen] == [100] * 5 + [92]
    assert np.array_equal(np.concatenate(seen), nodes)
    assert blocked.shape == (2,)
    assert np.all(np.abs(blocked - whole) <= 1e-14 * np.abs(whole))
    assert blocked[0] == pytest.approx(math.sin(37.0), abs=1e-13)


def _averaged_taking_the_head_twice(f, freqs, spec):
    """2 S(2R) - S(R) with the head int_0^{2R} f of S(2R) taken on its own,
    int_0^R f included: the reference for averaged_oscillatory_integral."""
    seg = inner_product._segment(freqs)
    lattice = inner_product._averaging_lattice(sorted(freqs), spec.tail_rounds)

    def s_at(r0):
        head = inner_product._composite_gl(f, 0.0, r0, seg)
        return inner_product._averaged_at(f, head, r0, lattice, seg)
    return 2.0 * s_at(2.0 * spec.tail_r0) - s_at(spec.tail_r0)


def test_averaged_tail_takes_the_head_once():
    # beat frequencies below pi/4 give 2-long segments, so the head [0, R]
    # is 75 segments and [0, 2R] 150: S(2R) from the head plus [R, 2R]
    # leaves out 75 * GL_ORDER nodes, and no node below R is taken twice
    spec = TailSpec(tail_r0=150.0, tail_rounds=3)
    freqs = [0.7, 0.2]
    seen = []

    def f(r):
        seen.append(r.copy())
        return harmonics.bessel_j(1.5, 0.35 * r) * harmonics.bessel_j(2.5, 0.35 * r) / (1.0 + r)

    got = averaged_oscillatory_integral(f, freqs, spec)
    nodes = np.concatenate(seen)
    seen.clear()
    want = _averaged_taking_the_head_twice(f, freqs, spec)
    head = 75 * inner_product.GL_ORDER
    assert len(np.concatenate(seen)) - len(nodes) == head
    assert np.count_nonzero(nodes < spec.tail_r0) == head
    assert abs(got - want) <= 1e-13 * abs(want)


def test_averaged_tail_gram_matches_the_head_taken_twice(monkeypatch):
    # the Grams overlap reports, with the head of S(2R) taken on its own
    spec = TailSpec()
    cases = (("spherical", {"p0": 1.0}, {"l_max": 5}),
             ("cylindrical", {"p0": 1.0, "pz": 0.3}, {"m_max": 8}))
    def raw_gram(case):
        g = discrete_orthonormality(*case, spec)
        return g.matrix * np.sqrt(np.outer(g.diagonal, g.diagonal))

    got = [raw_gram(case) for case in cases]
    monkeypatch.setattr(inner_product, "averaged_oscillatory_integral",
                        _averaged_taking_the_head_twice)
    for case, g in zip(cases, got):
        want = raw_gram(case)
        assert np.abs(g - want).max() <= 1e-13 * np.abs(np.diag(want)).max(), case[0]


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

GRAM_QUAD = TailSpec()


def test_gram_spherical_sector():
    g = discrete_orthonormality("spherical", {"p0": 1.0}, {"l_max": 2}, GRAM_QUAD)
    assert len(g.labels) == 16          # (2l+1) summed over l=1,2, times two helicities
    assert np.allclose(np.diag(g.matrix), 1.0)
    assert g.max_offdiag < 1e-8


def test_gram_cylindrical_sector_and_helicity_blocks():
    g = discrete_orthonormality("cylindrical", {"p0": 1.0, "pz": 0.3},
                                {"m_max": 2}, GRAM_QUAD)
    assert g.max_offdiag < 1e-8
    for i, (m, s) in enumerate(g.labels):
        for j, (mp, sp_) in enumerate(g.labels):
            if s != sp_ and m == mp:
                assert abs(g.matrix[i, j]) < 1e-8


@pytest.mark.parametrize("family, fixed, ranges, field", [
    ("spherical", {"p0": 1.0}, {"l_max": 0}, "l_max"),
    ("spherical", {"p0": 1.0}, {"l_max": -2}, "l_max"),
    ("spherical", {"p0": 1.0}, {"l_max": 1.5}, "l_max"),
    ("spherical", {"p0": 1.0}, {"l_max": math.nan}, "l_max"),
    ("cylindrical", {"p0": 1.0, "pz": 0.3}, {"m_max": -1}, "m_max"),
    ("cylindrical", {"p0": 1.0, "pz": 0.3}, {"m_max": 0.5}, "m_max")])
def test_gram_rejects_an_invalid_label_range(family, fixed, ranges, field):
    with pytest.raises(ValueError, match=field):
        discrete_orthonormality(family, fixed, ranges, GRAM_QUAD)


@pytest.mark.parametrize("family, fixed, field", [
    ("spherical", {"p0": math.nan}, "p0"),
    ("spherical", {"p0": math.inf}, "p0"),
    ("spherical", {"p0": 0.0}, "p0"),
    ("cylindrical", {"p0": -math.inf, "pz": 0.0}, "p0"),
    ("cylindrical", {"p0": 1.0, "pz": math.nan}, "pz"),
    ("cylindrical", {"p0": 1.0, "pz": -math.inf}, "pz"),
    ("cylindrical", {"p0": 1.0, "pz": 1.0}, "pz"),
    ("cylindrical", {"p0": 1.0, "pz": -1.0}, "pz")])
def test_gram_rejects_a_bad_energy_before_any_quadrature(monkeypatch, family, fixed, field):
    # rejected by name before any radial rule runs: a non-finite p0 would
    # otherwise reach the rule's segment count, and |pz| = p0 (alpha = 0,
    # every label but m = +-1 the zero field) gave a NaN Gram
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on a bad energy")

    monkeypatch.setattr(inner_product, "oscillatory_integral", no_quadrature)
    ranges = {"l_max": 1} if family == "spherical" else {"m_max": 1}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        discrete_orthonormality(family, fixed, ranges, GRAM_QUAD)


def test_gram_single_label():
    g = discrete_orthonormality("cylindrical", {"p0": 1.0, "pz": 0.0},
                                {"m_max": 0}, GRAM_QUAD)
    # a single m with two helicities: 2x2, unit diagonal
    assert g.matrix.shape == (2, 2)
    assert np.allclose(np.diag(g.matrix), 1.0)


def _spherical_gram_reference(p0, l_max, spec):
    """The unnormalized multipole Gram entry by entry: one scalar radial
    integral per (sector, l, s, l', s') with a nonzero angular overlap."""
    lm = [(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]
    labels = [(l, m, s) for l, m in lm for s in (+1, -1)]
    angular = [harmonics.sph_harmonic_gram(n, lm, 2 * l_max + 6, 4 * l_max + 8)
               for n in (0, -1, 1)]

    @functools.cache
    def radial(sector, l, s, lp, sp_):
        def f(r):
            fa = modes.sph_radial_profiles(SphericalLabel(p0, l, 0, s), r)[sector]
            fb = modes.sph_radial_profiles(SphericalLabel(p0, lp, 0, sp_), r)[sector]
            return np.conj(fa) * fb * r**2
        return oscillatory_integral(f, [2.0 * p0], spec)

    gram = np.zeros((len(labels), len(labels)), dtype=complex)
    for i, j in zip(*np.triu_indices(len(labels))):
        (l, _, s), (lp, _, sp_) = labels[i], labels[j]
        gram[i, j] = 2.0 * p0 * sum(radial(sector, l, s, lp, sp_) * ang[i // 2, j // 2]
                                    for sector, ang in enumerate(angular)
                                    if abs(ang[i // 2, j // 2]) >= 1e-14)
        gram[j, i] = np.conj(gram[i, j])
    return gram


def _cylindrical_gram_reference(p0, pz, m_max, spec):
    """The unnormalized Bessel-beam Gram entry by entry: one scalar radial
    integral of rho J_|k|(alpha rho)^2 per signed k."""
    labels = [(m, s) for m in range(-m_max, m_max + 1) for s in (+1, -1)]
    alpha = math.sqrt(p0**2 - pz**2)
    phi = np.arange(8 * m_max + 8) * 2.0 * math.pi / (8 * m_max + 8)

    @functools.cache
    def radial(k):
        def f(rho):
            jk = harmonics.bessel_j(abs(k), alpha * rho)
            return rho * jk * jk
        return oscillatory_integral(f, [2.0 * alpha], spec)

    beams = [cylindrical_mode(CylindricalLabel(p0, pz, m, s)) for m, s in labels]
    gram = np.zeros((len(labels), len(labels)), dtype=complex)
    for i, j in zip(*np.triu_indices(len(labels))):
        (m, _), (mp, _), ca, cb = labels[i], labels[j], beams[i], beams[j]
        ang = np.sum(np.exp(1j * (mp - m) * phi)) * (phi[1] - phi[0])
        if abs(ang) >= 1e-13:
            gram[i, j] = 2.0 * p0 * ang * (np.conj(ca.cz) * cb.cz * radial(m)
                                           + np.conj(ca.cm) * cb.cm * radial(m - 1)
                                           + np.conj(ca.cp) * cb.cp * radial(m + 1))
            gram[j, i] = np.conj(gram[i, j])
    return gram


@pytest.mark.parametrize("tail", ["averaged", "damped"])
def test_gram_takes_its_radial_integrals_in_one_pass(monkeypatch, tail):
    spec = TailSpec(tail=tail)
    calls = {"integral": 0, "integrand": 0, "profiles": 0, "orders": []}

    def counted_integral(f, freqs, spec):
        calls["integral"] += 1

        def counted_f(r):
            calls["integrand"] += 1
            return f(r)
        return oscillatory_integral(counted_f, freqs, spec)

    def counted_profiles(label, r):
        calls["profiles"] += 1
        return modes.sph_radial_profiles(label, r)

    def counted_bessel(order, x):
        calls["orders"].append(order)
        return harmonics.bessel_j(order, x)

    monkeypatch.setattr(inner_product, "oscillatory_integral", counted_integral)
    monkeypatch.setattr(inner_product, "sph_radial_profiles", counted_profiles)
    monkeypatch.setattr(inner_product, "bessel_j", counted_bessel)

    # one stacked integral per l, one profile pass per (l, s) and node block
    g = discrete_orthonormality("spherical", {"p0": 1.0}, {"l_max": 3}, spec)
    assert calls["integral"] == 3
    assert calls["profiles"] == 2 * calls["integrand"] and calls["orders"] == []
    raw = g.matrix * np.sqrt(np.outer(g.diagonal, g.diagonal))
    want = _spherical_gram_reference(1.0, 3, spec)
    assert np.abs(raw - want).max() <= 1e-13 * np.abs(np.diag(want)).max()

    # one stacked integral, one bessel_j call per order 0..m_max+1 and node block
    calls.update(integral=0, integrand=0, profiles=0)
    g = discrete_orthonormality("cylindrical", {"p0": 1.0, "pz": 0.3}, {"m_max": 3}, spec)
    assert calls["integral"] == 1 and calls["profiles"] == 0
    assert calls["orders"] == list(range(5)) * calls["integrand"]
    raw = g.matrix * np.sqrt(np.outer(g.diagonal, g.diagonal))
    want = _cylindrical_gram_reference(1.0, 0.3, 3, spec)
    assert np.abs(raw - want).max() <= 1e-13 * np.abs(np.diag(want)).max()
