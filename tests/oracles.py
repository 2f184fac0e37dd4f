"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's own evaluation paths: the Bessel
oracle is a direct ascending power series in exact-ish float arithmetic via
math.fsum, and the half-integer forms come straight from the closed
trigonometric expressions.  The multipole oracle contracts a mode's radial
and angular factors with the stacked chart dyads, the defining form of the
field, where the package assembles it in the spherical frame.  The Bessel
layout references (bessel_int_rows, bessel_half_rows) keep an earlier
arrangement of the package's own branches, to pin a rearrangement bit for
bit.  The frozen forms (series_int_forward, bump_gradient_stacked,
bump_hessian_stacked, dalembertian_full_grid, divergence_full_grid,
slice_nodes_meshgrid, superposition_jet_summed) keep earlier evaluations of
package quantities that were rearranged for speed or memory: the series
summed term by term, the gauge scalar's derivatives from stacked coordinate
offsets, the grid residuals differentiated on the whole grid before the
interior was cut, the slice nodes built as whole-slice meshgrids, and a
superposition's jet summed into a new array per term.
"""

import math


def bessel_series(nu, x, terms=30):
    """J_nu(x) by the ascending power series, summed with fsum.

    Intended for modest x (the 30-term default is ample for x <= 10)."""
    contributions = []
    for k in range(terms):
        sign = -1.0 if k % 2 else 1.0
        log_num = (nu + 2 * k) * math.log(x / 2.0) if x > 0 else (0.0 if nu + 2 * k == 0 else -math.inf)
        log_den = math.lgamma(k + 1) + math.lgamma(nu + k + 1)
        contributions.append(sign * math.exp(log_num - log_den))
    return math.fsum(contributions)


def bessel_half_trig(k, x):
    """J_{k+1/2}(x) for k in {-1, 0, 1} from the closed forms."""
    amp = math.sqrt(2.0 / (math.pi * x))
    if k == -1:
        return amp * math.cos(x)
    if k == 0:
        return amp * math.sin(x)
    if k == 1:
        return amp * (math.sin(x) / x - math.cos(x))
    raise ValueError(k)


def multipole_jet(mode, t, x, y, z):
    """(A, dA) of a SphericalMode or WavePacket at off-axis points, in the
    defining form: A = sum_n R_n Y[n] dyad_n contracted over the stacked
    dyads of charts.sph_dyads, and d_mu A_nu from the chart partials d_r,
    d_theta, d_phi of those Lorentz components (the angular derivatives of
    the dyads expanded in the dyads), turned to Lorentz partials by the
    Jacobian dq/dx.  The radial sums and harmonics are the mode's own, so
    this checks how the kernel assembles them."""
    import numpy as np
    from photonmodes.charts import sph_angles, sph_dyads

    def contract(coef, dyads):
        return np.einsum("n...,n...c->...c", coef, dyads)

    r, theta, phi = sph_angles(x, y, z)
    rad, d_rad, dt_rad = mode._radial(t, r, (0, 0), (1, 0), (0, 1))
    ys, d_ys = mode._harmonics(theta, phi, derivs=True)
    dyads = sph_dyads(theta, phi)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    f0, fm, fp = f = rad * ys
    d_r = contract(d_rad * ys, dyads)
    sq2 = math.sqrt(2.0)
    d_th = contract(rad * d_ys + np.stack([-(fm + fp), f0, f0]) / sq2, dyads)
    d_ph = contract(1j * mode.label.m * f - 1j * np.stack(
        [st * (fm - fp) / sq2, ct * fm + st * f0 / sq2, -ct * fp - st * f0 / sq2]), dyads)
    grad = np.empty(np.shape(t) + (4, 4), dtype=complex)
    grad[..., 0, :] = contract(dt_rad * ys, dyads)
    for row, (jr, jth, jph) in enumerate(((st * cp, ct * cp / r, -sp / (r * st)),
                                          (st * sp, ct * sp / r, cp / (r * st)),
                                          (ct, -st / r, 0.0 * r)), start=1):
        grad[..., row, :] = jr[..., None] * d_r + jth[..., None] * d_th + jph[..., None] * d_ph
    return contract(f, dyads), grad


def bessel_int_rows(ns, x):
    """Rows J_n(x) for the sorted orders ns >= 0 over the 1-D x, in the
    earlier layout of the integer-order ladder: a boolean mask per band, a
    dict per order, and the series band's own descent loop.  The branch
    primitives are the package's (_series_int, _hankel_int, _miller), so
    this pins how the bands are split, recurred and put back together."""
    import numpy as np
    from photonmodes import harmonics as hm

    out = {n: np.zeros_like(x) for n in ns}
    small = x <= 8.0
    large = x >= max(20.0, 0.5 * ns[-1] ** 2)
    middle = ~small & ~large
    if np.any(small):
        xs, top = x[small], ns[-1]
        if top - ns[0] < 2:
            band = {n: hm._series_int(n, xs) for n in ns}
        else:
            j_top, j_next = hm._series_int(top, xs), hm._series_int(top - 1, xs)
            ok = np.abs(j_top) >= 1e-280
            band = {n: np.empty_like(xs) for n in ns}
            xr, jp, jc = xs[ok], j_top[ok], j_next[ok]
            band[top][ok] = jp
            if top - 1 in band:
                band[top - 1][ok] = jc
            for k in range(top - 1, ns[0], -1):
                jp, jc = jc, (2.0 * k / xr) * jc - jp
                if k - 1 in band:
                    band[k - 1][ok] = jc
            for n in ns:
                band[n][~ok] = hm._series_int(n, xs[~ok])
        for n in ns:
            out[n][small] = band[n]
    if np.any(large):
        for n, v in zip(ns, hm._hankel_int(ns, x[large])):
            out[n][large] = v
    if np.any(middle):
        keep = sorted(set(ns) | {0})
        rows, even_sum = hm._miller(x[middle], keep, 0.0)
        for n in ns:
            out[n][middle] = rows[keep.index(n)] / (rows[0] + 2.0 * even_sum)
    return np.stack([out[n] for n in ns]) if ns else np.zeros((0, x.size))


def bessel_half_rows(kmax, x):
    """J_{k+1/2}(x) for k = -1 .. kmax in the earlier layout of the
    half-integer ladder: a batch wholly above or below the order computed
    in place, a mixed one scattered into a zero array whose first rows are
    the trigonometric values; branch primitives are the package's."""
    import numpy as np
    from photonmodes import harmonics as hm

    jm, jp = hm._trig_half(x)
    if kmax < 1:
        return np.stack([jm, jp][:kmax + 2])
    up = x >= (kmax + 1.5)
    if np.all(up):
        return hm._upward_half(kmax, x, jm, jp)
    down = ~up & (x > 0)
    if np.all(down):
        return hm._downward_half(kmax, x, jm, jp)
    out = np.zeros((kmax + 2, x.size))
    out[0], out[1] = jm, jp
    for branch, where in ((hm._upward_half, up), (hm._downward_half, down)):
        at = np.flatnonzero(where)
        if at.size:
            out[:, at] = branch(kmax, x.take(at), jm.take(at), jp.take(at))
    return out


def series_int_forward(n, x):
    """J_n(x) by the ascending series summed forward, each of its 36 terms
    from the one before: the earlier form of harmonics._series_int."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    half = 0.5 * x
    with np.errstate(divide="ignore"):
        logt0 = n * np.log(np.where(half > 0, half, 1.0)) - math.lgamma(n + 1)
    term = np.where(half > 0, np.exp(logt0), 1.0 if n == 0 else 0.0)
    total = term.copy()
    q = half * half
    for k in range(1, 36):
        term = -term * q / (k * (n + k))
        total += term
    return total


def _bump_stack(lam, t, x, y, z):
    import numpy as np

    _, x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (t, x, y, z)))
    dx = np.stack([x - lam.center[0], y - lam.center[1], z - lam.center[2]], axis=-1)
    return dx, lam.c0 + dx @ lam.linear, np.exp(-np.sum(dx * dx, axis=-1) / lam.width**2)


def bump_gradient_stacked(lam, t, x, y, z):
    """The spacetime gradient of a GaussianBumpScalar from the (n, 3) stack
    of coordinate offsets, the earlier form of its gradient."""
    import numpy as np

    dx, poly, env = _bump_stack(lam, t, x, y, z)
    spatial = (np.broadcast_to(lam.linear, dx.shape)
               + poly[..., None] * (-2.0 * dx / lam.width**2)) * env[..., None]
    out = np.zeros(spatial.shape[:-1] + (4,), dtype=complex)
    out[..., 1:] = spatial
    return out


def bump_hessian_stacked(lam, t, x, y, z):
    """The spatial Hessian of a GaussianBumpScalar from the (n, 3) stack of
    coordinate offsets, the earlier form of its hessian."""
    import numpy as np

    dx, poly, env = _bump_stack(lam, t, x, y, z)
    w2 = lam.width**2
    dpoly = np.broadcast_to(lam.linear, dx.shape)
    g = -2.0 * dx / w2
    spatial = (dpoly[..., :, None] * g[..., None, :] + dpoly[..., None, :] * g[..., :, None]
               + poly[..., None, None] * (g[..., :, None] * g[..., None, :]
                                          - (2.0 / w2) * np.eye(3)))
    out = np.zeros(spatial.shape[:-2] + (4, 4), dtype=complex)
    out[..., 1:, 1:] = spatial * env[..., None, None]
    return out


def _full_axis_stencil(values, axis, h, order):
    """The 4th-order stencil along one axis on every cross-section of the
    grid, summed from zeros into a new array per term."""
    import numpy as np

    offsets, weights = ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12)) if order == 1 \
        else ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12))
    n = values.shape[axis]
    core = [slice(None)] * values.ndim
    core[axis] = slice(2, n - 2)
    out = np.zeros_like(values[tuple(core)])
    for off, w in zip(offsets, weights):
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(2 + off, n - 2 + off or None)
        out = out + w * values[tuple(sl)]
    return out / h**order


def _trim(values, axes):
    sl = [slice(None)] * values.ndim
    for ax in axes:
        sl[ax] = slice(2, values.shape[ax] - 2)
    return values[tuple(sl)]


def dalembertian_full_grid(grid):
    """max |Box A| / max |A| with each axis differentiated on the whole grid
    and the other axes trimmed afterwards: the earlier form of
    operators.dalembertian_residual's residual."""
    import numpy as np

    vals, box = grid.values, None
    for ax, (name, sign) in enumerate((("t", 1.0), ("x", -1.0), ("y", -1.0), ("z", -1.0))):
        d2 = _full_axis_stencil(vals, ax, grid.spacing(name), 2)
        d2 = _trim(d2, [a for a in range(4) if a != ax])
        box = sign * d2 if box is None else box + sign * d2
    denom = np.abs(vals).max()
    return float(np.abs(box).max() / denom) if denom > 0 else 0.0


def divergence_full_grid(grid):
    """max |div A| / max |A| over the axes with at least 5 nodes (the time
    axis only then), each differentiated on the whole grid and the others
    trimmed afterwards: the earlier form of operators.divergence_residual's
    residual."""
    import numpy as np

    from photonmodes.charts import ETA_DIAG

    vals, div = grid.values, None
    axes = [0, 1, 2, 3] if vals.shape[0] >= 5 else [1, 2, 3]
    for ax in axes:
        d = _full_axis_stencil(vals[..., ax], ax, grid.spacing("txyz"[ax]), 1)
        d = _trim(d, [a for a in axes if a != ax])
        term = ETA_DIAG[ax] * d
        div = term if div is None else div + term
    denom = np.abs(vals).max()
    return float(np.abs(div).max() / denom) if denom > 0 else 0.0


def slice_nodes_meshgrid(spec):
    """Quadrature nodes (t, x, y, z) and weights of a SliceSpec from
    whole-slice meshgrids of the 1-d rules, flattened: the whole slice rule
    as one array each, which inner_product walks in blocks
    (_slice_blocks) and never builds whole.  The tests take a slice's
    nodes from here."""
    import numpy as np

    two_pi = 2.0 * math.pi
    leggauss = np.polynomial.legendre.leggauss
    if spec.chart == "spherical":
        xr, wr = leggauss(spec.n_r)
        r = 0.5 * (xr + 1.0) * (spec.r_max - 1e-9) + 1e-9
        wr = wr * 0.5 * spec.r_max
        xu, wu = leggauss(spec.n_theta)
        theta = np.arccos(xu)
        phi = np.arange(spec.n_phi) * two_pi / spec.n_phi
        R, TH, PH = np.meshgrid(r, theta, phi, indexing="ij")
        W = np.broadcast_to((wr * r**2)[:, None, None] * wu[None, :, None]
                            * (two_pi / spec.n_phi), R.shape)
        x = R * np.sin(TH) * np.cos(PH)
        y = R * np.sin(TH) * np.sin(PH)
        z = R * np.cos(TH)
    else:
        xg, wg = leggauss(spec.n_box)
        ax = xg * spec.box_half
        wax = wg * spec.box_half
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        W = wax[:, None, None] * wax[None, :, None] * wax[None, None, :]
    x, y, z = x.ravel(), y.ravel(), z.ravel()
    return np.full(x.shape, spec.t_slice), x, y, z, W.ravel()


def superposition_jet_summed(terms, t, x, y, z):
    """The jet of sum_k c_k F_k as a new array per term, value + c a and
    grad + c g from zero: the earlier form of Superposition.jet."""
    value = grad = 0.0
    for c, f in terms:
        a, g = f.jet(t, x, y, z)
        value, grad = value + c * a, grad + c * g
    return value, grad
