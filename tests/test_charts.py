import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonmodes.charts import (ETA_DIAG, LEVI_CIVITA, dyads, dyad_derivatives,
                                sph_angles)
from photonmodes.errors import DegenerateAxisError
from photonmodes import fdiff

SQ2 = math.sqrt(2.0)


def _dot(u, v):
    """g(u, v) = eta^{ab} u_a v_b over the trailing axis, bilinear."""
    return np.sum(ETA_DIAG * u * v, axis=-1)


def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def test_sph_angles_on_the_axes():
    r, theta, phi = sph_angles(np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
                               np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
                               np.array([0.0, 0.0, 2.0, -2.0, 0.0]))
    assert np.array_equal(r, [1.0, 1.0, 2.0, 2.0, 0.0])
    assert np.allclose(theta, [math.pi / 2, math.pi / 2, 0.0, math.pi, 0.0], atol=1e-15)
    assert np.allclose(phi[:2], [0.0, math.pi / 2], atol=1e-15)


def test_sph_angles_generic_point():
    # the inverse of the direct coordinate map
    r, theta, phi = sph_angles(5.0 * math.sin(0.3) * math.cos(1.1),
                               5.0 * math.sin(0.3) * math.sin(1.1), 5.0 * math.cos(0.3))
    assert r == pytest.approx(5.0, rel=1e-15)
    assert theta == pytest.approx(0.3, rel=1e-14)
    assert phi == pytest.approx(1.1, rel=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pts=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=1, max_size=8))
def test_chart_round_trips(pts):
    x, y, z = np.array(pts).T
    r, theta, phi = sph_angles(x, y, z)
    back = np.stack([r * np.sin(theta) * np.cos(phi), r * np.sin(theta) * np.sin(phi),
                     r * np.cos(theta)])
    scale = np.maximum(1.0, np.abs(np.stack([x, y, z])).max(axis=0))
    assert np.all(np.abs(back - np.stack([x, y, z])) <= 1e-12 * scale)


def test_cylindrical_dyad_at_phi0():
    axial, em, _ = dyads("cylindrical", 0.0, 1.0, 0.0, 0.0)
    assert np.allclose(em, np.array([0, 1, 1j, 0]) / SQ2)
    assert np.allclose(axial, [0, 0, 0, 1])


def test_spherical_dyad_equator():
    axial, em, _ = dyads("spherical", 0.0, 1.0, 0.0, 0.0)
    assert np.allclose(axial, [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(em, np.array([0, 0, 1j, -1]) / SQ2, atol=1e-15)


def _check_dyad_invariants(d):
    axial, em, ep = d
    assert np.abs(_dot(em, em)).max() < 1e-12
    assert np.abs(_dot(ep, ep)).max() < 1e-12
    assert np.abs(_dot(ep, em) + 1.0).max() < 1e-12
    assert np.abs(_dot(axial, axial) + 1.0).max() < 1e-12
    assert np.allclose(np.conj(em), ep)
    # annihilates (d/dt)^a: vanishing time component
    assert np.all(d[..., 0] == 0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(pts=st.lists(st.tuples(st.floats(0.05, 10), st.floats(0, 6.2), st.floats(-5, 5)),
                    min_size=1, max_size=8))
def test_cylindrical_dyad_invariants(pts):
    rho, phi, z = np.array(pts).T
    _check_dyad_invariants(dyads("cylindrical", 0.0, rho * np.cos(phi), rho * np.sin(phi), z))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(pts=st.lists(st.tuples(st.floats(0.05, 10), st.floats(0.05, 3.09), st.floats(0, 6.2)),
                    min_size=1, max_size=8))
def test_spherical_dyad_invariants(pts):
    r, theta, phi = np.array(pts).T
    _check_dyad_invariants(dyads("spherical", 0.0, r * np.sin(theta) * np.cos(phi),
                                 r * np.sin(theta) * np.sin(phi), r * np.cos(theta)))


def test_dyad_degenerate_axis_errors():
    for chart, point in (("cylindrical", (0.0, 0.0, 0.0, 1.0)),
                         ("spherical", (0.0, 0.0, 0.0, 1.0)),
                         ("spherical", (0.0, 0.0, 0.0, -1.0)),
                         ("spherical", (0.0, 0.0, 0.0, 0.0))):
        with pytest.raises(DegenerateAxisError):
            dyad_derivatives(chart, *point)
        # one axis point spoils the batch
        with pytest.raises(DegenerateAxisError):
            dyad_derivatives(chart, 0.0, np.array([1.0, point[1]]),
                             np.array([0.5, point[2]]), np.array([0.2, point[3]]))


def test_dyad_derivative_tables():
    d_ax, d_em, d_ep = dyad_derivatives("cylindrical", 0.0, 2.0 * math.cos(0.3),
                                        2.0 * math.sin(0.3), 0.0)
    _, em, ep = dyads("cylindrical", 0.0, 2.0 * math.cos(0.3), 2.0 * math.sin(0.3), 0.0)
    assert np.array_equal(d_ax, np.zeros((4, 4)))
    k = 1.0 / (SQ2 * 2.0)
    assert np.allclose(d_em, k * _outer(ep - em, em), atol=1e-15)
    assert np.allclose(d_ep, k * _outer(em - ep, ep), atol=1e-15)
    pt = (0.0, 2.0 * math.sin(1.0) * math.cos(0.5), 2.0 * math.sin(1.0) * math.sin(0.5),
          2.0 * math.cos(1.0))
    _, em, ep = dyads("spherical", *pt)
    assert np.allclose(dyad_derivatives("spherical", *pt)[0],
                       0.5 * (_outer(em, ep) + _outer(ep, em)), atol=1e-15)


@pytest.mark.parametrize("chart,point", [
    ("cylindrical", (0.0, 2.0 * math.cos(0.5), 2.0 * math.sin(0.5), 0.3)),
    ("spherical", (0.0, 2.0 * math.sin(1.0) * math.cos(0.5),
                   2.0 * math.sin(1.0) * math.sin(0.5), 2.0 * math.cos(1.0))),
])
def test_dyad_derivatives_match_finite_differences(chart, point):
    predicted = dyad_derivatives(chart, *point)
    for n in range(3):
        errs = {}
        for h in (0.02, 0.01):
            fd = np.stack([fdiff.partial(lambda *c: dyads(chart, *c)[n], point, mu, h)
                           for mu in range(4)])
            errs[h] = np.abs(fd - predicted[n]).max()
        assert errs[0.01] < 1e-6
        # 4th order: halving h must cut the error by at least 15x
        if errs[0.01] > 1e-11:
            assert errs[0.02] / errs[0.01] > 15.0


def test_dyad_derivatives_vectorized_over_points():
    rng = np.random.default_rng(5)
    pts = (rng.uniform(-1, 1, (3, 4)),) + tuple(rng.uniform(-3, 3, (3, 4)) for _ in range(3))
    for chart in ("cylindrical", "spherical"):
        batch = dyad_derivatives(chart, *pts)
        assert batch.shape == (3, 3, 4, 4, 4)
        for i, j in np.ndindex(3, 4):
            single = dyad_derivatives(chart, *(c[i, j] for c in pts))
            assert np.allclose(batch[:, i, j], single, rtol=0, atol=1e-15)


def test_levi_civita_orientation():
    assert LEVI_CIVITA[0, 1, 2, 3] == 1.0
    assert LEVI_CIVITA[1, 0, 2, 3] == -1.0
    assert LEVI_CIVITA[0, 0, 2, 3] == 0.0
