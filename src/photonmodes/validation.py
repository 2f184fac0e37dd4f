"""Seeded, tolerance-gated checks of every claimed property of the three
mode families.

`REGISTRY` is the single place a check is declared: its report name, the
suite that runs it, the claims it covers, its gates (residual key ->
tolerance) and its informational residual keys, which are reported but never
gate.  Each entry's ``measure(spec) -> (residuals, labels)`` holds only the
physics.  `run_check` times it, rejects any residual key the entry does not
declare, and applies the one pass rule: every gate has residual <= tolerance.

CLAIM_LIST is written by hand and is the coverage lock: the claims the
registry declares must equal it, each exactly once.  All label sampling is
seeded, so reports are deterministic; runtimes are recorded but excluded
from the canonical serialization used for reproducibility comparisons.

Suites: eigen, field_equations, degeneracy, crosscheck, algebra,
inner_product.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fdiff
from .charts import ETA_DIAG, dyad_derivatives, dyads
from .errors import InvalidLabelError
from .harmonics import (CylHarmonicLabel, SphHarmonicLabel, bessel_j_int_orders,
                        eth_analytic, ethbar_analytic, eth_numeric, ethbar_numeric,
                        sample_harmonic, cyl_harmonic_values, sph_harmonic_values,
                        sph_harmonic_gram)
from .modes import (PlaneWaveLabel, CylindricalLabel, SphericalLabel,
                    plane_wave, cylindrical_mode, spherical_mode, make_mode,
                    field_strength, sample_grid, GridSpec, sph_radial_profiles)
from .operators import (P_upper, L3, L_plus, L_minus, LieField, lie_derivative,
                        angular_momentum_squared,
                        helicity_dual, DualField, pauli_lubanski_residual,
                        dalembertian_residual, divergence_residual,
                        check_all_brackets)
from .inner_product import (SliceSpec, TailSpec, WavePacket, inner,
                            inner_field_strength_form, Superposition,
                            GaussianBumpScalar, gauge_shift, current, slice_gram,
                            bessel_overlap, bessel_overlap_closed_form,
                            smeared_radial_delta, discrete_orthonormality)

FAMILIES = ("plane", "cylindrical", "spherical")

#: Hand-written list of the verified claims (coverage lock).  Each maps to
#: exactly one named check.
CLAIM_LIST = [
    "maxwell_wave_equation",
    "coulomb_gauge_divergence",
    "coulomb_gauge_temporal",
    "fd_convergence_order",
    "reduced_cylindrical_helmholtz",
    "cylindrical_gauge_constraint",
    "cylindrical_helicity_coefficients",
    "spherical_radial_system",
    "spherical_divergence_constraint",
    "spherical_helicity_coefficient",
    "eigenbasis_plane",
    "eigenbasis_cylindrical",
    "eigenbasis_spherical",
    "null_four_momentum",
    "helicity_eigenvalue",
    "helicity_involution",
    "pauli_lubanski_identity",
    "helicity_commutes_translations",
    "poincare_structure_constants",
    "hermiticity_p0_l3",
    "dyad_derivative_tables",
    "dyad_symmetry_invariance",
    "ladder_action_on_dyads",
    "eth_ladder_cylindrical",
    "eth_ladder_spherical",
    "harmonic_l3_eigenvalue",
    "harmonic_vanishing_low_l",
    "harmonic_closure",
    "degeneracy_cylindrical_alpha0",
    "degeneracy_spherical_l0",
    "smallest_multipole_l1",
    "jacobi_anger_reconstruction",
    "plane_wave_normalization",
    "orthonormality_spherical_sector",
    "orthonormality_cylindrical_sector",
    "continuous_normalization_packet",
    "cauchy_surface_independence",
    "current_conservation",
    "inner_product_positivity",
    "inner_product_sesquilinearity",
    "gauge_invariance",
    "inner_product_form_equivalence",
    "bessel_overlap_tables",
    "bessel_delta_smearing",
]


#: Finite-difference steps (plain, nested and Box A's stencil on the analytic
#: jet) and the tolerances of finite-difference and analytic residuals.
FD_H = 0.01
FD_H_NESTED = 0.008
FD_H_BOX = 1e-3
TOL_FD = 1e-6
TOL_ANALYTIC = 1e-10


@dataclass(frozen=True)
class CheckSpec:
    """Deterministic description of one check run.  ValueError unless
    n_labels is an integer >= 1 (stored as int)."""
    seed: int = 20240801
    n_labels: int = 20

    def __post_init__(self):
        if not float(self.n_labels).is_integer() or self.n_labels < 1:
            raise ValueError(f"n_labels must be an integer >= 1, got {self.n_labels!r}")
        object.__setattr__(self, "n_labels", int(self.n_labels))


@dataclass
class CheckReport:
    name: str
    claims: list
    labels: list
    residuals: dict
    tolerance: dict
    passed: bool
    runtime: float = 0.0

    def to_dict(self, include_runtime=True):
        d = {
            "name": self.name,
            "claims": list(self.claims),
            "labels": [repr(lb) for lb in self.labels],
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerance": {k: float(v) for k, v in self.tolerance.items()},
            "passed": bool(self.passed),
        }
        if include_runtime:
            d["runtime"] = self.runtime
        return d

    def canonical_json(self):
        """Runtime-free serialization; byte-identical across runs at a fixed seed."""
        return json.dumps(self.to_dict(include_runtime=False), sort_keys=True,
                          separators=(",", ":"))

    def worst_margin(self):
        """Largest residual / tolerance over the gates.  A zero-tolerance gate
        counts 0 when its residual is exactly 0 and inf otherwise."""
        def margin(key, tol):
            if tol == 0.0:
                return 0.0 if self.residuals[key] == 0.0 else math.inf
            return self.residuals[key] / tol
        return max((margin(k, t) for k, t in self.tolerance.items()), default=0.0)


# ---------------------------------------------------------------------------
# Label and point sampling
# ---------------------------------------------------------------------------

def sample_labels(family, n, rng):
    labels = []
    for _ in range(n):
        p0 = rng.uniform(0.6, 1.6)
        s = int(rng.choice([-1, 1]))
        if family == "plane":
            costh = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            st = math.sqrt(1.0 - costh**2)
            labels.append(PlaneWaveLabel(
                (p0 * st * math.cos(phi), p0 * st * math.sin(phi), p0 * costh), s))
        elif family == "cylindrical":
            pz = rng.uniform(-0.85, 0.85) * p0   # alpha >= 0.53 p0: never a zero mode
            m = int(rng.integers(-3, 4))
            labels.append(CylindricalLabel(p0, pz, m, s))
        else:
            l = int(rng.integers(1, 4))
            m = int(rng.integers(-l, l + 1))
            labels.append(SphericalLabel(p0, l, m, s))
    # pin one axis-aligned plane wave (exercises the p || z branch)
    if family == "plane" and labels:
        labels[0] = PlaneWaveLabel((0.0, 0.0, 1.0), +1)
    return labels


def sample_points(rng, n=4):
    """Generic off-axis points, FD-stencil safe (rho > 0.5, |z| moderate)."""
    rho = rng.uniform(0.7, 2.2, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    z = rng.uniform(-1.2, 1.2, n)
    zsign = np.where(np.abs(z) < 0.4, np.sign(z) + (z == 0), 1.0)
    z = np.where(np.abs(z) < 0.4, 0.4 * zsign, z)
    t = rng.uniform(-0.5, 0.5, n)
    return t, rho * np.cos(phi), rho * np.sin(phi), z


def observable_set(label):
    """(name, killing-or-op, eigenvalue) triples of the family's complete set
    (the helicity entry is handled separately)."""
    if isinstance(label, PlaneWaveLabel):
        return [(f"P{i+1}", P_upper(i + 1), label.p[i]) for i in range(3)]
    if isinstance(label, CylindricalLabel):
        return [("P0", P_upper(0), label.p0), ("P3", P_upper(3), label.pz),
                ("L3", L3(), label.m)]
    return [("P0", P_upper(0), label.p0), ("L3", L3(), label.m)]


# ---------------------------------------------------------------------------
# Eigen suite
# ---------------------------------------------------------------------------

def _rel(err, ref):
    return float(np.linalg.norm(np.asarray(err).ravel())
                 / np.linalg.norm(np.asarray(ref).ravel()))


def _box(field, pts):
    """Box A = sum_mu eta^{mu mu} d_mu (d_mu A): d_mu A from the analytic
    jet, differentiated once more along mu by the 4th-order stencil of step
    FD_H_BOX.  One operator for every family, so the wave equation is a
    property of the field and not of a hand-derived second derivative."""
    g = fdiff.gradient4(lambda *c: field.jet(*c)[1], pts, FD_H_BOX)
    return np.einsum("m,m...mb->...b", ETA_DIAG, g)


def _eigen(family, spec):
    """Simultaneous-eigenbasis check of the family's complete observable set,
    finite-difference and analytic paths; null_momentum_analytic is Box A
    (_box, from the analytic jet) relative to A."""
    rng = np.random.default_rng(spec.seed)
    labels = sample_labels(family, spec.n_labels, rng)
    pts = sample_points(rng, n=4)
    worst_fd = worst_an = worst_hel_fd = worst_hel_an = 0.0
    worst_l2 = worst_null = 0.0
    for label in labels:
        mode = make_mode(label)
        a = mode.evaluate(*pts)
        for name, xi, lam in observable_set(label):
            fd = lie_derivative(xi, mode, *pts, h=FD_H, method="fd")
            worst_fd = max(worst_fd, _rel(fd - lam * a, a))
            an = lie_derivative(xi, mode, *pts)
            worst_an = max(worst_an, _rel(an - lam * a, a))
        # helicity: dual(F) = s F, analytic F and FD F
        f_an = field_strength(mode, *pts)
        worst_hel_an = max(worst_hel_an, _rel(helicity_dual(f_an) - label.s * f_an, f_an))
        g_fd = np.moveaxis(fdiff.gradient4(mode.evaluate, pts, FD_H), 0, -2)
        f_fd = g_fd - np.swapaxes(g_fd, -1, -2)
        worst_hel_fd = max(worst_hel_fd, _rel(helicity_dual(f_fd) - label.s * f_fd, f_fd))
        if isinstance(label, SphericalLabel):
            l2 = angular_momentum_squared(mode, *pts, h=FD_H_NESTED)
            worst_l2 = max(worst_l2, _rel(l2 - label.l * (label.l + 1) * a, a))
        # null four-momentum: P_mu P^mu = -Box, Box from the analytic jet
        worst_null = max(worst_null, _rel(_box(mode, pts), a))
    # Pauli-Lubanski identity on a subset
    worst_pl = 0.0
    for label in labels[:2]:
        mode = make_mode(label)
        pl_pts = tuple(c[:2] for c in pts)
        worst_pl = max(worst_pl, pauli_lubanski_residual(mode, *pl_pts, h=FD_H))
    residuals = {
        "eigen_fd": worst_fd, "eigen_analytic": worst_an,
        "helicity_fd": worst_hel_fd, "helicity_analytic": worst_hel_an,
        "null_momentum_analytic": worst_null,
        "pauli_lubanski_fd": worst_pl,
    }
    if family == "spherical":
        residuals["l_squared_fd"] = worst_l2
    return residuals, labels


# ---------------------------------------------------------------------------
# Field-equation suite
# ---------------------------------------------------------------------------

def _box_div_residuals(mode, center, h, n=12):
    ext = h * (n - 1)
    cx, cy, cz_ = center
    gs = GridSpec(t=(-ext / 2, ext / 2, n), x=(cx - ext / 2, cx + ext / 2, n),
                  y=(cy - ext / 2, cy + ext / 2, n), z=(cz_ - ext / 2, cz_ + ext / 2, n))
    grid = sample_grid(mode, gs)
    box = dalembertian_residual(grid)
    div = divergence_residual(grid)
    return box.residual, div.residual, div.extra["a0_max"]


def _field_equations(family, spec):
    """Box A = 0 and the Coulomb gauge by 4th-order finite differences, the
    FD convergence order by grid halving, and the family's reduced component
    equations by analytic differentiation; radial_system_analytic is Box A
    (_box, from the analytic jet) on a radial line, relative to max |A|."""
    rng = np.random.default_rng(spec.seed + 1)
    labels = sample_labels(family, max(4, spec.n_labels // 3), rng)
    worst_box = worst_div = worst_a0 = 0.0
    for label in labels:
        mode = make_mode(label)
        center = (rng.uniform(0.8, 1.6), rng.uniform(0.5, 1.2), rng.uniform(0.5, 1.2))
        b1, d1, a0 = _box_div_residuals(mode, center, FD_H)
        worst_box, worst_div = max(worst_box, b1), max(worst_div, d1)
        worst_a0 = max(worst_a0, a0)
    # convergence order on a generic (non-axis-aligned, mid-energy) label, at
    # spacings where truncation safely dominates rounding
    order_label = {"plane": PlaneWaveLabel((0.6, 0.8, 0.9), +1),
                   "cylindrical": CylindricalLabel(1.4, 0.5, 2, +1),
                   "spherical": SphericalLabel(1.3, 2, 1, -1)}[family]
    order_mode = make_mode(order_label)
    bh, _, _ = _box_div_residuals(order_mode, (1.1, 0.9, 0.8), 0.04)
    bh2, _, _ = _box_div_residuals(order_mode, (1.1, 0.9, 0.8), 0.02)
    order = math.log2(bh / bh2)
    residuals = {"box_fd": worst_box, "divergence_fd": worst_div,
                 "a0_max": worst_a0, "convergence_order_deficit": max(0.0, 3.5 - order)}

    if family == "cylindrical":
        # reduced 2-D Helmholtz per dyad component via the numeric eth pair
        worst_helm = 0.0
        lab = CylindricalLabel(1.2, 0.4, 2, +1)
        al = lab.alpha
        for n_sw, m_eff in ((0, lab.m), (-1, lab.m), (1, lab.m)):
            zlab = CylHarmonicLabel(n_sw, al, lab.m)
            radial = np.linspace(0.4, 3.0, 121)
            g = sample_harmonic(zlab, radial, n_phi=32)
            gg = ethbar_numeric(eth_numeric(g))
            ref = cyl_harmonic_values(n_sw, al, lab.m, gg.radial[:, None], g.azimuthal[None, :])
            worst_helm = max(worst_helm, float(np.abs(gg.values + al**2 * ref).max()
                                               / np.abs(ref).max()))
        # gauge and helicity coefficient identities (algebra on the label)
        coef = cylindrical_mode(lab)
        a0_c, am, ap = coef.cz, coef.cm, coef.cp
        p3 = -lab.pz   # covariant longitudinal component
        gauge = abs(1j * p3 * a0_c + (al / math.sqrt(2)) * (am - ap))
        h1 = abs(1j * lab.p0 * a0_c - lab.s * (al / math.sqrt(2)) * (am + ap))
        h2 = abs(1j * (lab.p0 - lab.s * p3) * ap + lab.s * (al / math.sqrt(2)) * a0_c)
        h3 = abs(1j * (lab.p0 + lab.s * p3) * am + lab.s * (al / math.sqrt(2)) * a0_c)
        scale = abs(a0_c) * lab.p0
        residuals.update({"helmholtz_eth_numeric": worst_helm,
                          "gauge_constraint": gauge / scale,
                          "helicity_coefficients": max(h1, h2, h3) / scale})

    if family == "spherical":
        # radial system (Box A = 0 from the jet of the closed-form profiles),
        # divergence constraint and helicity relations by analytic
        # (recurrence) differentiation of the profiles
        worst_sys = worst_divc = worst_hel = 0.0
        r = np.linspace(0.3, 6.0, 200)
        line = (np.zeros_like(r), r, np.zeros_like(r), np.zeros_like(r))
        for label in labels[:6]:
            mode = make_mode(label)
            box = _box(mode, line)
            aval = mode.evaluate(*line)
            worst_sys = max(worst_sys, float(np.abs(box).max() / np.abs(aval).max()))
            (R0, Rm, Rp), (dR0, dRm, dRp) = sph_radial_profiles(label, r, derivs=1)
            L = label.l * (label.l + 1)
            s = label.s
            p0 = label.p0
            scale = float(np.abs(R0).max() + np.abs(Rm).max()) * p0
            cdiv = -(dR0 + 2.0 / r * R0) + math.sqrt(L) / (math.sqrt(2) * r) * (Rm - Rp)
            worst_divc = max(worst_divc, float(np.abs(cdiv).max() / scale))
            e1 = 1j * p0 * R0 - s * math.sqrt(L) / (math.sqrt(2) * r) * (Rm + Rp)
            e2 = 1j * p0 * Rm + s * math.sqrt(L) / (math.sqrt(2) * r) * R0 \
                - s * (dRm + Rm / r)
            e3 = 1j * p0 * Rp + s * math.sqrt(L) / (math.sqrt(2) * r) * R0 \
                + s * (dRp + Rp / r)
            worst_hel = max(worst_hel, float(max(np.abs(e1).max(), np.abs(e2).max(),
                                                 np.abs(e3).max()) / scale))
        residuals.update({"radial_system_analytic": worst_sys,
                          "divergence_constraint_analytic": worst_divc,
                          "helicity_radial_identities": worst_hel})
    return residuals, labels


# ---------------------------------------------------------------------------
# Degeneracy suite
# ---------------------------------------------------------------------------

def _degeneracy(spec):
    """alpha = 0 Bessel beams vanish except m = +-1; l = 0 multipoles are
    rejected; l = 1 modes exist for both helicities and pass the core checks."""
    rng = np.random.default_rng(spec.seed + 2)
    pts = sample_points(rng, n=6)
    worst_zero = 0.0
    nonzero_ok = True
    worst_hel = 0.0
    for pz_sign in (+1, -1):
        for m in range(-3, 4):
            for s in (+1, -1):
                label = CylindricalLabel(1.0, pz_sign * 1.0, m, s)
                mode = cylindrical_mode(label)
                vals = mode.evaluate(*pts)
                if abs(m) != 1:
                    worst_zero = max(worst_zero, float(np.abs(vals).max()))
                    if not mode.is_zero:
                        nonzero_ok = False
                elif m == s * pz_sign:
                    # the surviving circular polarization
                    if np.abs(vals).max() == 0.0 or mode.is_zero:
                        nonzero_ok = False
                    f = field_strength(mode, *pts)
                    worst_hel = max(worst_hel, _rel(helicity_dual(f) - s * f, f))
    try:
        SphericalLabel(1.0, 0, 0, 1)
        l0_rejected = False
    except InvalidLabelError:
        l0_rejected = True
    l1_ok = True
    for s in (+1, -1):
        mode = spherical_mode(SphericalLabel(1.0, 1, 0, s))
        vals = mode.evaluate(*pts)
        if np.abs(vals).max() == 0.0:
            l1_ok = False
        f = field_strength(mode, *pts)
        worst_hel = max(worst_hel, _rel(helicity_dual(f) - s * f, f))
    residuals = {"alpha0_forbidden_max": worst_zero,
                 "alpha0_allowed_nonzero": 0.0 if nonzero_ok else 1.0,
                 "l0_rejected": 0.0 if l0_rejected else 1.0,
                 "l1_exists_both_helicities": 0.0 if l1_ok else 1.0,
                 "limit_mode_helicity": worst_hel}
    return residuals, []


# ---------------------------------------------------------------------------
# Cross-representation suite (Jacobi-Anger)
# ---------------------------------------------------------------------------

_JA_ORDERS = (0, 4, 6, 8, 10, 12, 14, 16, 20)   # truncation orders M


def _crosscheck(spec):
    """Reconstruct a pz = 0 plane wave from Bessel beams: component-wise the
    scalar identity e^{i alpha x} = sum_m i^m J_m(alpha rho) e^{i m phi},
    truncated at |m| <= M, must converge super-exponentially once M exceeds
    the largest alpha*rho in the window."""
    alpha = 1.0
    rho = np.linspace(0.0, 5.0, 41)
    phi = np.linspace(0.0, 2.0 * math.pi, 37)
    RR, PP = np.meshgrid(rho, phi, indexing="ij")
    target = np.exp(1j * alpha * RR * np.cos(PP))
    ms = list(range(-20, 21))
    js = bessel_j_int_orders(ms, alpha * RR)
    errors = {}
    for M in _JA_ORDERS:
        acc = sum((1j) ** m * js[m] * np.exp(1j * m * PP) for m in range(-M, M + 1))
        errors[M] = float(np.abs(acc - target).max())
    tail = [errors[M] for M in (6, 8, 10, 12, 14, 16, 20)]
    monotone = all(a > b for a, b in zip(tail, tail[1:]))
    residuals = {"reconstruction_error_M20": errors[20],
                 "reconstruction_error_M0": errors[0],
                 "monotone_tail": 0.0 if monotone else 1.0,
                 # M = 0 must visibly fail, or the convergence shown is vacuous
                 "truncation_M0_visible": 0.0 if errors[0] > 0.1 else 1.0}
    residuals.update({f"error_M{M}": e for M, e in errors.items()})
    return residuals, []


# ---------------------------------------------------------------------------
# Algebra suite: brackets, involution, dyad tables, ladders
# ---------------------------------------------------------------------------

def _algebra(spec):
    """Poincare brackets, the helicity involution, dyad derivative tables and
    symmetries, and the eth ladders and closure of the harmonics."""
    rng = np.random.default_rng(spec.seed + 3)
    residuals = {}

    n_brackets = check_all_brackets()
    residuals["bracket_mismatches"] = 0.0 if n_brackets == 45 else 1.0

    # involution S^2 = 1 on random antisymmetric tensors
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        f = g - g.T
        dd = helicity_dual(helicity_dual(f))
        worst = max(worst, float(np.abs(dd - f).max() / np.abs(f).max()))
    residuals["involution"] = worst

    # dual of an eigenmode is again a translation eigenmode, same eigenvalues
    worst = 0.0
    pts = sample_points(rng, n=3)
    for label in (CylindricalLabel(1.1, 0.3, 1, +1), SphericalLabel(0.9, 1, 1, -1)):
        mode = make_mode(label)
        dual = DualField(mode)
        ref = dual.evaluate(*pts)
        for name, xi, lam in observable_set(label):
            if not name.startswith("P"):
                continue
            lt = lie_derivative(xi, dual, *pts, h=FD_H)
            worst = max(worst, _rel(lt - lam * ref, ref))
    residuals["dual_translation_eigen_fd"] = worst

    # dyad covariant-derivative tables against finite differences
    worst = 0.0
    for chart, point in (("cylindrical", (0.0, 1.3, 0.7, -0.4)),
                         ("spherical", (0.0, 1.1, 0.9, 1.2))):
        predicted = dyad_derivatives(chart, *point)
        for n in range(3):
            fd = fdiff.gradient4(lambda *c: dyads(chart, *c)[n], point, 0.005)
            worst = max(worst, float(np.abs(fd - predicted[n]).max()))
    residuals["dyad_derivative_fd"] = worst

    # Lie invariance of the dyads under the family's symmetry generators,
    # and the ladder action L_+- on the spherical dyad
    worst_inv = 0.0
    worst_ladder = 0.0
    pts1 = tuple(c[:2] for c in pts)
    cyl_gens = (P_upper(0), P_upper(3), L3())
    sph_gens = (P_upper(0), L3())
    for chart, gens in (("cylindrical", cyl_gens), ("spherical", sph_gens)):
        ref = dyads(chart, *pts1)
        for n in range(3):
            for xi in gens:
                lv = lie_derivative(xi, lambda *c: dyads(chart, *c)[n], *pts1,
                                    h=0.005, method="fd")
                worst_inv = max(worst_inv, float(np.abs(lv).max() / np.abs(ref[n]).max()))
    # ladder action on the spherical dyad: Lie_{L+-} eps-/+ = -/+ csc(theta)
    # e^{+-i phi} eps-/+ and Lie_{L+-} dr = 0 (the csc factor is what makes
    # the composite action on A_a produce the e^{+-i phi} csc(theta) A_-/+
    # terms of the component decomposition)
    ref = dyads("spherical", *pts1)
    r_val = np.sqrt(pts1[1]**2 + pts1[2]**2 + pts1[3]**2)
    csc = r_val / np.hypot(pts1[1], pts1[2])
    phi_val = np.arctan2(pts1[2], pts1[1])
    for pm, xi in ((+1, L_plus()), (-1, L_minus())):
        phase = csc * np.exp(1j * pm * phi_val)
        lv = [lie_derivative(xi, lambda *c: dyads("spherical", *c)[n], *pts1,
                             h=0.005, method="fd") for n in range(3)]
        worst_ladder = max(worst_ladder, float(np.abs(lv[0]).max()))
        for n, expect in ((1, phase), (2, -phase)):
            worst_ladder = max(worst_ladder, float(
                np.abs(lv[n] - expect[..., None] * ref[n]).max() / np.abs(ref[n]).max()))
    residuals["dyad_symmetry_invariance_fd"] = worst_inv
    residuals["dyad_ladder_action_fd"] = worst_ladder

    # numeric eth against the analytic ladder, both geometries
    worst_cyl = worst_sph = 0.0
    radial = np.linspace(0.5, 3.0, 141)
    for n_sw, m in ((0, 1), (1, -2), (-1, 0)):
        lab = CylHarmonicLabel(n_sw, 1.3, m)
        g = sample_harmonic(lab, radial, n_phi=32)
        up = eth_numeric(g)
        lab_up, fac = eth_analytic(lab)
        ref = cyl_harmonic_values(lab_up.n, lab_up.alpha, lab_up.m,
                                  up.radial[:, None], up.azimuthal[None, :])
        scale = max(np.abs(ref).max(), 1.0)
        worst_cyl = max(worst_cyl, float(np.abs(up.values - fac * ref).max() / scale))
    thetas = np.linspace(0.4, math.pi - 0.4, 141)
    for n_sw, l, m in ((0, 2, 1), (1, 2, -1), (-1, 3, 2), (0, 1, 0)):
        lab = SphHarmonicLabel(n_sw, l, m)
        g = sample_harmonic(lab, thetas, n_phi=32)
        up = eth_numeric(g)
        lab_up, fac = eth_analytic(lab)
        ref = sph_harmonic_values(lab_up.n, lab_up.l, lab_up.m,
                                  up.radial[:, None], up.azimuthal[None, :])
        dn = ethbar_numeric(g)
        lab_dn, fac_dn = ethbar_analytic(lab)
        ref_dn = sph_harmonic_values(lab_dn.n, lab_dn.l, lab_dn.m,
                                     dn.radial[:, None], dn.azimuthal[None, :])
        scale = max(np.abs(g.values).max(), 1.0)
        worst_sph = max(worst_sph,
                        float(np.abs(up.values - fac * ref).max() / scale),
                        float(np.abs(dn.values - fac_dn * ref_dn).max() / scale))
    residuals["eth_ladder_cylindrical"] = worst_cyl
    residuals["eth_ladder_spherical"] = worst_sph

    # L3 on the harmonics by spectral differentiation
    worst = 0.0
    phi = np.arange(64) * 2.0 * math.pi / 64
    k = np.fft.fftfreq(64, d=1.0 / 64)
    for vals, m in ((cyl_harmonic_values(1, 1.2, 2, 1.4, phi), 2),
                    (sph_harmonic_values(-1, 3, -2, 1.1, phi), -2)):
        fhat = np.fft.fft(vals)
        deriv = np.fft.ifft(1j * k * fhat)
        worst = max(worst, float(np.abs(-1j * deriv - m * vals).max() / np.abs(vals).max()))
    residuals["harmonic_l3_spectral"] = worst

    # Y[n,l,m] = 0 for l < |n|, exactly
    vanish = max(abs(complex(sph_harmonic_values(1, 0, 0, 0.7, 0.3))),
                 abs(complex(sph_harmonic_values(-2, 1, 1, 1.1, 2.0))),
                 abs(complex(sph_harmonic_values(2, 1, 0, 0.5, 0.0))))
    residuals["harmonic_low_l_vanishing"] = vanish

    # harmonic closure: int conj(Y[n,l,m]) Y[n,l',m'] = delta_ll' delta_mm',
    # the full Gram over l, l' <= 8, all m, per spin weight |n| <= 2
    worst = 0.0
    for n_sw in (-2, -1, 0, 1, 2):
        lm = [(l, m) for l in range(abs(n_sw), 9) for m in range(-l, l + 1)]
        gram_h = sph_harmonic_gram(n_sw, lm, 24, 32)
        worst = max(worst, float(np.abs(gram_h - np.eye(len(lm))).max()))
    residuals["harmonic_closure"] = worst

    return residuals, []


# ---------------------------------------------------------------------------
# Inner-product suite
# ---------------------------------------------------------------------------

def _inner_product(spec):
    """Normalization, orthonormality, conservation, positivity,
    sesquilinearity, hermiticity and gauge invariance of the inner product,
    and the regularized Bessel overlaps it rests on."""
    rng = np.random.default_rng(spec.seed + 4)
    residuals = {}

    packet_quad = SliceSpec()
    pk = WavePacket(l=1, m=0, s=+1, center=1.0, width=0.2, n_nodes=48)
    expected = pk.norm_expected()
    n0 = inner(pk, pk, packet_quad).real
    n1 = inner(pk, pk, SliceSpec(t_slice=1.0)).real
    residuals["packet_norm"] = abs(n0 - expected) / expected
    residuals["cauchy_slice_agreement"] = abs(n1 - n0) / expected

    # j-form (field strength) equals the j'-form on Coulomb packets
    jf = inner_field_strength_form(pk, pk, packet_quad).real
    residuals["form_equivalence"] = abs(jf - n0) / expected

    # plane-wave normalization: box inner product against the closed form
    box = SliceSpec(chart="cartesian", box_half=5.0, n_box=40)
    la = PlaneWaveLabel((0.0, 0.0, 1.2), +1)
    lb = PlaneWaveLabel((0.0, 0.3, 0.9), +1)
    worst = 0.0
    for l2 in (la, lb):
        m1, m2 = plane_wave(la), plane_wave(l2)
        got = inner(m1, m2, box)
        pol = np.sum(np.conj(m1.polarization) * m2.polarization
                     * (-(np.array([1.0, -1, -1, -1]))))  # eps-bar . eps' (3d dot)
        dp = np.array(l2.p) - np.array(la.p)
        sincs = np.prod([2.0 * box.box_half if abs(d) < 1e-15
                         else 2.0 * math.sin(d * box.box_half) / d for d in dp])
        want = (la.p0 + l2.p0) * m1.norm * m2.norm * pol * sincs
        scale = (2.0 * box.box_half) ** 3 * m1.norm ** 2 * 2.0 * la.p0
        worst = max(worst, abs(got - want) / scale)
    # opposite helicity: pointwise orthogonal polarizations
    mo = plane_wave(PlaneWaveLabel(la.p, -1))
    worst_s = abs(np.sum(np.conj(plane_wave(la).polarization) * mo.polarization
                         * (-(np.array([1.0, -1, -1, -1])))))
    residuals["plane_box_normalization"] = worst
    residuals["plane_helicity_orthogonality"] = float(worst_s)

    # discrete-sector Gram matrices
    gram_quad = TailSpec()
    gs = discrete_orthonormality("spherical", {"p0": 1.0}, {"l_max": 3}, gram_quad)
    gc = discrete_orthonormality("cylindrical", {"p0": 1.0, "pz": 0.3},
                                 {"m_max": 3}, gram_quad)
    residuals["gram_spherical_offdiag"] = gs.max_offdiag
    residuals["gram_cylindrical_offdiag"] = gc.max_offdiag

    # positivity and sesquilinearity on packet superpositions
    pk2 = WavePacket(l=1, m=1, s=-1, center=1.1, width=0.2, n_nodes=48)
    pk3 = WavePacket(l=2, m=0, s=+1, center=0.9, width=0.18, n_nodes=48)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    sup = Superposition([(amps[0], pk), (amps[1], pk2)])
    norm_sup = inner(sup, sup, packet_quad).real
    residuals["positivity_violation"] = max(0.0, -norm_sup)
    a_c, b_c = amps[2], amps[3]
    lhs = inner(Superposition([(a_c, pk), (b_c, pk2)]), pk3, packet_quad)
    rhs = np.conj(a_c) * inner(pk, pk3, packet_quad) + np.conj(b_c) * inner(pk2, pk3, packet_quad)
    residuals["sesquilinearity"] = abs(lhs - rhs) / max(abs(rhs), expected)
    # Kronecker sectors at the quadrature level
    residuals["kronecker_m_sector"] = abs(inner(pk, pk2, packet_quad)) / expected

    # hermiticity of P^0 = i d_t and L_3 on packets, both applied analytically
    worst = 0.0
    for op in (lambda f: Superposition([(1j, f.time_derivative())]), lambda f: LieField(L3(), f)):
        f1, f2 = Superposition([(1.0, pk), (0.7, pk2)]), Superposition([(1.0, pk2), (0.5j, pk3)])
        lhs = inner(op(f1), f2, packet_quad)
        rhs = inner(f1, op(f2), packet_quad)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), expected))
    residuals["hermiticity_p0_l3"] = worst

    # current conservation for a mode pair (4-divergence of j')
    m1 = cylindrical_mode(CylindricalLabel(1.2, 0.5, 1, +1))
    m2 = spherical_mode(SphericalLabel(1.0, 1, 0, +1))
    pts = sample_points(rng, n=3)

    def jfield(t, x, y, z):
        return current(m1, m2, t, x, y, z)

    grad = fdiff.gradient4(jfield, pts, FD_H)
    div = sum(ETA_DIAG[mu] * grad[mu, ..., mu] for mu in range(4))
    jref = jfield(*pts)
    residuals["current_conservation_fd"] = float(np.abs(div).max() / np.abs(jref).max())

    # gauge invariance of the field-strength-form inner product; Lambda must
    # decay inside the box for the Stokes argument, hence the width cap
    gbox = SliceSpec(chart="cartesian", box_half=6.5, n_box=64)
    worst_inv = 0.0
    min_coulomb_violation = float("inf")
    pw_b = plane_wave(lb)
    lams = [GaussianBumpScalar(center=rng.uniform(-0.5, 0.5, 3),
                               width=rng.uniform(0.6, 0.9),
                               c0=rng.normal(), linear=rng.normal(size=3) * 0.5)
            for _ in range(10)]
    # one slice: each plane wave is evaluated once, each shift adds grad(Lambda)
    shifted = [gauge_shift(pw_b, lam) for lam in lams]
    base, *vals = map(complex, slice_gram([plane_wave(la)], [pw_b, *shifted], gbox,
                                          "field_strength")[0])
    for lam, val in zip(lams, vals):
        worst_inv = max(worst_inv, abs(val - base) / abs(base))
        # the shift leaves Coulomb gauge: div A = laplacian(Lambda) != 0
        hess = lam.hessian(0.0, 0.3, -0.2, 0.1)
        lap = -float(np.real(hess[1, 1] + hess[2, 2] + hess[3, 3]))
        min_coulomb_violation = min(min_coulomb_violation, abs(lap))
    residuals["gauge_invariance"] = worst_inv
    residuals["gauge_shift_div_nonzero"] = 0.0 if min_coulomb_violation > 1e-6 else 1.0

    # Bessel overlap tables, both regularizations
    ospec = TailSpec(tail_r0=150.0, tail_rounds=3)
    dspec = TailSpec(tail="damped")
    worst_table = worst_agree = 0.0
    for kind, order, k1, k2 in (("sph_inv_r", 1, 1.0, 2.0), ("sph_inv_r", 2, 1.0, 1.0),
                                ("sph_cross", 1, 1.0, 1.0), ("sph_cross", 1, 1.0, 2.0),
                                ("sph_cross", 2, 2.0, 1.0), ("sph_cross", 3, 0.8, 1.7)):
        va = bessel_overlap(kind, order, k1, k2, ospec)
        vd = bessel_overlap(kind, order, k1, k2, dspec)
        cf = bessel_overlap_closed_form(kind, order, k1, k2)
        scale = max(k1, k2)
        worst_table = max(worst_table, abs(va - cf) * scale, abs(vd - cf) * scale)
        worst_agree = max(worst_agree, abs(va - vd) * scale)
    residuals["bessel_tables"] = worst_table
    residuals["bessel_tables_method_agreement"] = worst_agree

    worst_smear = 0.0
    for kind, order in (("cyl_rho", 2), ("sph_r", 1)):
        num, want = smeared_radial_delta(kind, order, 1.0, 1.05, 0.05)
        worst_smear = max(worst_smear, abs(num - want) / abs(want))
    residuals["delta_smearing"] = worst_smear

    return residuals, []


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One registered check: the report it produces and how it is judged."""
    name: str
    suite: str
    claims: tuple
    gates: dict      # residual key -> tolerance; passed iff every residual <= tol
    info: tuple      # residual keys reported but never gated
    measure: Callable   # spec -> (residuals, labels)


_EIGEN_GATES = {"eigen_fd": TOL_FD, "eigen_analytic": TOL_ANALYTIC,
                "helicity_fd": TOL_FD, "helicity_analytic": TOL_ANALYTIC,
                "null_momentum_analytic": TOL_ANALYTIC, "pauli_lubanski_fd": TOL_FD}
_FIELD_GATES = {"box_fd": TOL_FD, "divergence_fd": TOL_FD, "a0_max": 1e-12,
                "convergence_order_deficit": 0.0}

REGISTRY = {c.name: c for c in (
    Check("eigen_plane", "eigen",
          ("eigenbasis_plane", "helicity_eigenvalue", "null_four_momentum",
           "pauli_lubanski_identity"),
          _EIGEN_GATES, (), lambda spec: _eigen("plane", spec)),
    Check("eigen_cylindrical", "eigen", ("eigenbasis_cylindrical",),
          _EIGEN_GATES, (), lambda spec: _eigen("cylindrical", spec)),
    Check("eigen_spherical", "eigen", ("eigenbasis_spherical",),
          {**_EIGEN_GATES, "l_squared_fd": TOL_FD}, (),
          lambda spec: _eigen("spherical", spec)),
    Check("field_equations_plane", "field_equations",
          ("maxwell_wave_equation", "coulomb_gauge_divergence",
           "coulomb_gauge_temporal", "fd_convergence_order"),
          _FIELD_GATES, (), lambda spec: _field_equations("plane", spec)),
    Check("field_equations_cylindrical", "field_equations",
          ("reduced_cylindrical_helmholtz", "cylindrical_gauge_constraint",
           "cylindrical_helicity_coefficients"),
          {**_FIELD_GATES, "helmholtz_eth_numeric": 1e-5, "gauge_constraint": 1e-14,
           "helicity_coefficients": 1e-14},
          (), lambda spec: _field_equations("cylindrical", spec)),
    Check("field_equations_spherical", "field_equations",
          ("spherical_radial_system", "spherical_divergence_constraint",
           "spherical_helicity_coefficient"),
          {**_FIELD_GATES, "radial_system_analytic": 1e-9,
           "divergence_constraint_analytic": 1e-9, "helicity_radial_identities": 1e-9},
          (), lambda spec: _field_equations("spherical", spec)),
    Check("degeneracy", "degeneracy",
          ("degeneracy_cylindrical_alpha0", "degeneracy_spherical_l0",
           "smallest_multipole_l1"),
          {"alpha0_forbidden_max": 0.0, "alpha0_allowed_nonzero": 0.0,
           "l0_rejected": 0.0, "l1_exists_both_helicities": 0.0,
           "limit_mode_helicity": TOL_ANALYTIC},
          (), _degeneracy),
    Check("crosscheck_jacobi_anger", "crosscheck", ("jacobi_anger_reconstruction",),
          {"reconstruction_error_M20": 1e-8, "monotone_tail": 0.0,
           "truncation_M0_visible": 0.0},
          ("reconstruction_error_M0",) + tuple(f"error_M{M}" for M in _JA_ORDERS),
          _crosscheck),
    Check("algebra", "algebra",
          ("poincare_structure_constants", "helicity_involution",
           "helicity_commutes_translations", "dyad_derivative_tables",
           "dyad_symmetry_invariance", "ladder_action_on_dyads",
           "eth_ladder_cylindrical", "eth_ladder_spherical", "harmonic_l3_eigenvalue",
           "harmonic_vanishing_low_l", "harmonic_closure"),
          {"bracket_mismatches": 0.0, "involution": 1e-12,
           "dual_translation_eigen_fd": TOL_FD, "dyad_derivative_fd": 1e-6,
           "dyad_symmetry_invariance_fd": 1e-6, "dyad_ladder_action_fd": 1e-6,
           "eth_ladder_cylindrical": 1e-6, "eth_ladder_spherical": 1e-6,
           "harmonic_l3_spectral": 1e-10, "harmonic_low_l_vanishing": 0.0,
           "harmonic_closure": 1e-10},
          (), _algebra),
    Check("inner_product", "inner_product",
          ("plane_wave_normalization", "orthonormality_spherical_sector",
           "orthonormality_cylindrical_sector", "continuous_normalization_packet",
           "cauchy_surface_independence", "current_conservation",
           "inner_product_positivity", "inner_product_sesquilinearity",
           "gauge_invariance", "inner_product_form_equivalence",
           "bessel_overlap_tables", "bessel_delta_smearing", "hermiticity_p0_l3"),
          {"packet_norm": 1e-3, "cauchy_slice_agreement": 1e-3,
           "form_equivalence": 1e-3, "plane_box_normalization": 1e-8,
           "plane_helicity_orthogonality": 1e-14, "gram_spherical_offdiag": 1e-8,
           "gram_cylindrical_offdiag": 1e-8, "positivity_violation": 0.0,
           "sesquilinearity": 1e-10, "kronecker_m_sector": 1e-10,
           "hermiticity_p0_l3": 1e-6, "current_conservation_fd": 1e-6,
           "gauge_invariance": 1e-8, "gauge_shift_div_nonzero": 0.0,
           "bessel_tables": 1e-3, "bessel_tables_method_agreement": 5e-4,
           "delta_smearing": 2e-2},
          (), _inner_product),
)}

SUITES = tuple(dict.fromkeys(c.suite for c in REGISTRY.values()))


def run_check(check: Check, spec: CheckSpec):
    """Run one registered check and judge it by its declared gates."""
    t0 = time.perf_counter()
    residuals, labels = check.measure(spec)
    runtime = time.perf_counter() - t0
    declared = set(check.gates) | set(check.info)
    if set(residuals) != declared:
        raise RuntimeError(
            f"check {check.name!r}: residuals not declared "
            f"{sorted(set(residuals) - declared)}, declared but missing "
            f"{sorted(declared - set(residuals))}")
    passed = all(residuals[k] <= tol for k, tol in check.gates.items())
    return CheckReport(check.name, list(check.claims), labels, residuals,
                       dict(check.gates), passed, runtime)


def run_suite(name, seed=20240801, n_labels=20):
    checks = [c for c in REGISTRY.values() if c.suite == name]
    if not checks:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    spec = CheckSpec(seed=seed, n_labels=n_labels)
    return [run_check(c, spec) for c in checks]


def run_all(seed=20240801, n_labels=20):
    reports = []
    for name in SUITES:
        reports.extend(run_suite(name, seed=seed, n_labels=n_labels))
    return reports


def claims_manifest(reports=None):
    """Claims covered by the given reports, or declared by the registry."""
    entries = REGISTRY.values() if reports is None else reports
    return sorted(claim for entry in entries for claim in entry.claims)
