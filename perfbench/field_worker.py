"""The `field` workload: sample evaluate and gradient of seeded modes of all
three families on two seeded point clouds, in one process.

    python perfbench/field_worker.py SEED SECONDS RESULT_JSON [SPANS_DIR]

Each pass runs every label on both clouds; passes repeat until SECONDS are
spent.  Only the evaluate + gradient calls are timed.  With SPANS_DIR every
pass is traced and its spans written to SPANS_DIR/field-<pass>.json.

After the timed passes the process records its peak RSS, then checks every
batch of every pass:
  (a) a seeded subsample evaluated on its own matches the batched values to
      1e-12 of the batch max-norm, for evaluate and for gradient;
  (b) gradient agrees with fdiff.gradient4 of evaluate to 1e-6 of the
      subsample's max-norm;
  (c) bessel_j at the subsample's own Bessel arguments, and for cylindrical
      modes bessel_j_int_orders on the whole batch's arguments, agree with
      scipy.special.jv on the subsample to 1e-10 of the envelope
      sqrt(2/(pi x)).
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import photonmodes as pm
from photonmodes import fdiff, harmonics
from tracer import Tracer

LABELS_PER_FAMILY = 6          # spherical labels take l = 1..6 once each
CLOUD_POINTS = 40_000
SUBSAMPLE = 32
CLOUDS = {
    # p0 * r ranges: `near` keeps integer-order Bessel on its series branch,
    # `wide` mixes small and large arguments in one batch
    "near": ("uniform", 0.05, 8.0),
    "wide": ("loguniform", 0.1, 500.0),
}
MAX_ABS_COS_THETA = 0.9        # off the polar axis: SphericalMode.gradient raises there
REL_BATCH_TOL = 1e-12
REL_FD_TOL = 1e-6
BESSEL_ENVELOPE_TOL = 1e-10
FD_STEP = 2e-3                 # in units of 1/p0


def make_labels(rng):
    """Seeded labels: plane, cylindrical with |m| <= 4, spherical with l <= 6.
    The cost-setting parameters are stratified so that the work per pass stays
    comparable across seeds."""
    n = LABELS_PER_FAMILY
    p0 = rng.uniform(0.6, 1.6, size=(3, n))
    s = rng.choice([-1, 1], size=(3, n))
    costh = rng.uniform(-1.0, 1.0, n)
    azim = rng.uniform(0.0, 2.0 * math.pi, n)
    plane = [pm.PlaneWaveLabel((p * math.sqrt(1.0 - c * c) * math.cos(a),
                                p * math.sqrt(1.0 - c * c) * math.sin(a), p * c), int(h))
             for p, c, a, h in zip(p0[0], costh, azim, s[0])]
    # pz/p0 stratified over (-0.85, 0.85): alpha = sqrt(p0^2 - pz^2) sets the
    # largest Bessel argument of the wide cloud, hence the cylindrical cost
    strata = (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
    pz = (-0.85 + 1.7 * strata) * p0[1]
    cyl = [pm.CylindricalLabel(float(p), float(q), int(m), int(h))
           for p, q, m, h in zip(p0[1], pz, rng.integers(-4, 5, n), s[1])]
    ls = rng.permutation(np.arange(1, n + 1))
    sph = [pm.SphericalLabel(float(p), int(l), int(rng.integers(-l, l + 1)), int(h))
           for p, l, h in zip(p0[2], ls, s[2])]
    return {"plane": [pm.plane_wave(lb) for lb in plane],
            "cyl": [pm.cylindrical_mode(lb) for lb in cyl],
            "sph": [pm.spherical_mode(lb) for lb in sph]}


def make_clouds(rng):
    """Dimensionless clouds (p0 t, p0 x, p0 y, p0 z) plus subsample indices."""
    clouds = {}
    for name, (dist, lo, hi) in CLOUDS.items():
        if dist == "uniform":
            u = rng.uniform(lo, hi, CLOUD_POINTS)
        else:
            u = np.exp(rng.uniform(math.log(lo), math.log(hi), CLOUD_POINTS))
        ct = rng.uniform(-MAX_ABS_COS_THETA, MAX_ABS_COS_THETA, CLOUD_POINTS)
        st = np.sqrt(1.0 - ct * ct)
        ph = rng.uniform(0.0, 2.0 * math.pi, CLOUD_POINTS)
        tau = rng.uniform(-5.0, 5.0, CLOUD_POINTS)
        coords = np.stack([tau, u * st * np.cos(ph), u * st * np.sin(ph), u * ct])
        clouds[name] = (coords, rng.choice(CLOUD_POINTS, SUBSAMPLE, replace=False))
    return clouds


def run_pass(modes, clouds, keep):
    """One pass over every label and cloud; returns time and points per batch
    kind "<family>_<cloud>".  keep(family, index, cloud, a, g) stores what the
    checks need."""
    batch_s, batch_points = {}, {}
    for fam, fam_modes in modes.items():
        for i, mode in enumerate(fam_modes):
            for name, (coords, _) in clouds.items():
                t, x, y, z = coords / mode.p0
                t0 = time.perf_counter()
                a = mode.evaluate(t, x, y, z)
                g = mode.gradient(t, x, y, z)
                kind = f"{fam}_{name}"
                batch_s[kind] = batch_s.get(kind, 0.0) + time.perf_counter() - t0
                batch_points[kind] = batch_points.get(kind, 0) + t.size
                keep(fam, i, name, a, g)
    return batch_s, batch_points


def bessel_arguments(mode, t, x, y, z):
    """(orders, arguments) of the Bessel functions mode.gradient needs, or None."""
    lab = mode.label
    if isinstance(lab, pm.CylindricalLabel):
        return list(range(lab.m - 2, lab.m + 3)), mode.alpha * np.hypot(x, y)
    if isinstance(lab, pm.SphericalLabel):
        return ([lab.l + k + 0.5 for k in (-2, -1, 0, 1)],
                lab.p0 * np.sqrt(x * x + y * y + z * z))
    return None


def bessel_error(mode, coords, sub):
    """Largest |J - scipy jv| / sqrt(2/(pi x)) over the subsample, for bessel_j
    at the subsample's own arguments and, for cylindrical modes, for
    bessel_j_int_orders on the whole batch (the path the timed calls take,
    whose Miller start index the batch maximum sets)."""
    from scipy.special import jv

    t, x, y, z = coords / mode.p0
    args = bessel_arguments(mode, t, x, y, z)
    if args is None:
        return 0.0
    orders, xb = args
    xs = xb[sub]
    env = np.sqrt(2.0 / (math.pi * xs))
    pairs = [(nu, pm.bessel_j(nu, xs)) for nu in orders]
    if isinstance(mode.label, pm.CylindricalLabel):
        batch = harmonics.bessel_j_int_orders(orders, xb)
        pairs += [(n, batch[n][sub]) for n in orders]
    return max(float(np.max(np.abs(j - jv(nu, xs)) / env)) for nu, j in pairs)


def check_batches(modes, clouds, kept):
    """Checks (a)-(c) on every kept batch; the references do not depend on
    the pass, so they are computed once per batch."""
    failures = []
    for (fam, i, name), records in kept.items():
        mode = modes[fam][i]
        coords, sub = clouds[name]
        t, x, y, z = coords[:, sub] / mode.p0
        ref_a = mode.evaluate(t, x, y, z)
        ref_g = mode.gradient(t, x, y, z)
        fd_g = np.moveaxis(fdiff.gradient4(mode.evaluate, (t, x, y, z),
                                           h=FD_STEP / mode.p0), 0, -2)
        fd_err = np.max(np.abs(fd_g - ref_g)) / np.max(np.abs(ref_g))
        bessel_err = bessel_error(mode, coords, sub)
        for rep, (a_sub, g_sub, a_max, g_max) in enumerate(records):
            batch_err = max(np.max(np.abs(a_sub - ref_a)) / a_max,
                            np.max(np.abs(g_sub - ref_g)) / g_max)
            bad = [f"{what} {err:.3g}" for what, err, tol in (
                ("subsample-vs-batch", batch_err, REL_BATCH_TOL),
                ("gradient-vs-fdiff", fd_err, REL_FD_TOL),
                ("bessel-vs-scipy", bessel_err, BESSEL_ENVELOPE_TOL)) if not err <= tol]
            if bad:
                failures.append(f"pass {rep} {fam}[{i}] {mode.label} {name}: {', '.join(bad)}")
    return failures


def main(argv):
    seed, seconds, result_path = int(argv[0]), float(argv[1]), Path(argv[2])
    spans_dir = Path(argv[3]) if len(argv) > 3 else None
    rng = np.random.default_rng([seed, 0xF1E1D])
    modes = make_labels(rng)
    clouds = make_clouds(rng)

    # warm-up: first call of each family on a small batch (first-call set-up)
    t0 = time.perf_counter()
    for fam_modes in modes.values():
        t, x, y, z = clouds["near"][0][:, :64] / fam_modes[0].p0
        fam_modes[0].evaluate(t, x, y, z)
        fam_modes[0].gradient(t, x, y, z)
    warmup_s = time.perf_counter() - t0

    kept = {}

    def keep(fam, i, name, a, g):
        sub = clouds[name][1]
        kept.setdefault((fam, i, name), []).append(
            (a[sub], g[sub], np.max(np.abs(a)), np.max(np.abs(g))))

    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer().install() if spans_dir else None
        try:
            batch_s, batch_points = run_pass(modes, clouds, keep)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            tracer.dump(spans_dir / f"field-{len(passes)}.json", "field", len(passes))
        passes.append({"wall_s": sum(batch_s.values()), "batch_s": batch_s,
                       "batch_points": batch_points})
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 1.0 / len(passes)) > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_batches(modes, clouds, kept)
    result = {"warmup_s": warmup_s, "rss_mb": rss_mb, "passes": passes,
              "attempted": sum(len(v) for v in kept.values()),
              "failed": len(failures), "failures": failures[:20]}
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
