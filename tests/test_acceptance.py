"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime:

 1. eigenbasis residuals, >= 20 seeded labels per family:
    < 1e-6 (finite differences), < 1e-10 (analytic); runtime < 3 min
 2. field equations: |Box A|/|A| < 1e-6, |div A|/|A| < 1e-6,
    max |A_0| < 1e-12, FD convergence order >= 3.5 under grid halving
 3. helicity algebra: dual o dual = 1 to 1e-12 on 100 random antisymmetric
    tensors; dual(F) = s F to 1e-10 (analytic F); Pauli-Lubanski < 1e-6
 4. all 45 Killing brackets match the structure constants exactly
 5. Gram matrices (spherical l <= 3, cylindrical |m| <= 3, both helicities):
    off-diagonals < 1e-8 of the diagonal; runtime < 1 min
 6. Gaussian packet norm = int |g|^2 to 1e-3, equal on two time slices
 7. closed-form Bessel overlap rows to 1e-3 (scaled) by two independent
    regularizations agreeing to 5e-4
 8. alpha = 0 degeneracies exact, l = 0 rejected, l = 1 modes pass 1-3
 9. field-strength-form inner product gauge invariant to 1e-8 (10 random
    compact scalars)
10. Jacobi-Anger reconstruction of a pz = 0 plane wave, M = 20: < 1e-8 on
    alpha rho <= 5
"""

import time

import pytest

from photonmodes.validation import CheckSpec, REGISTRY, run_check, FAMILIES

SEED = 20240801


def _line(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status}  {detail}")
    return passed


@pytest.fixture(scope="module")
def eigen_reports():
    t0 = time.perf_counter()
    spec = CheckSpec(seed=SEED, n_labels=20)
    reports = {f: run_check(REGISTRY[f"eigen_{f}"], spec) for f in FAMILIES}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def field_reports():
    spec = CheckSpec(seed=SEED, n_labels=20)
    return {f: run_check(REGISTRY[f"field_equations_{f}"], spec) for f in FAMILIES}


@pytest.fixture(scope="module")
def algebra_report():
    return run_check(REGISTRY["algebra"], CheckSpec(seed=SEED))


@pytest.fixture(scope="module")
def inner_report():
    return run_check(REGISTRY["inner_product"], CheckSpec(seed=SEED))


def test_criterion_1_eigenbasis(eigen_reports):
    reports, elapsed = eigen_reports
    worst_fd = max(r.residuals["eigen_fd"] for r in reports.values())
    worst_an = max(r.residuals["eigen_analytic"] for r in reports.values())
    worst_l2 = reports["spherical"].residuals["l_squared_fd"]
    worst_hel = max(r.residuals["helicity_analytic"] for r in reports.values())
    ok = (worst_fd < 1e-6 and worst_l2 < 1e-6 and worst_an < 1e-10
          and worst_hel < 1e-10 and elapsed < 180.0)
    assert _line(1, "eigenbasis", ok,
                 f"fd={worst_fd:.2e} analytic={worst_an:.2e} "
                 f"L2={worst_l2:.2e} t={elapsed:.0f}s")


def test_criterion_2_field_equations(field_reports):
    worst_box = max(r.residuals["box_fd"] for r in field_reports.values())
    worst_div = max(r.residuals["divergence_fd"] for r in field_reports.values())
    worst_a0 = max(r.residuals["a0_max"] for r in field_reports.values())
    worst_deficit = max(r.residuals["convergence_order_deficit"]
                        for r in field_reports.values())
    ok = worst_box < 1e-6 and worst_div < 1e-6 and worst_a0 < 1e-12 and worst_deficit == 0.0
    assert _line(2, "field equations", ok,
                 f"box={worst_box:.2e} div={worst_div:.2e} "
                 f"a0={worst_a0:.1e} order>=3.5: {worst_deficit == 0.0}")


def test_criterion_3_helicity_algebra(eigen_reports, algebra_report):
    reports, _ = eigen_reports
    involution = algebra_report.residuals["involution"]
    worst_dual = max(r.residuals["helicity_analytic"] for r in reports.values())
    worst_pl = max(r.residuals["pauli_lubanski_fd"] for r in reports.values())
    ok = involution < 1e-12 and worst_dual < 1e-10 and worst_pl < 1e-6
    assert _line(3, "helicity algebra", ok,
                 f"S^2={involution:.1e} dual-s={worst_dual:.2e} PL={worst_pl:.2e}")


def test_criterion_4_structure_constants(algebra_report):
    ok = algebra_report.residuals["bracket_mismatches"] == 0.0
    assert _line(4, "Poincare brackets", ok, "45/45 exact")


def test_criterion_5_discrete_orthonormality():
    from photonmodes.inner_product import QuadratureSpec, discrete_orthonormality
    t0 = time.perf_counter()
    quad = QuadratureSpec(tail_r0=300.0, tail_rounds=4)
    gs = discrete_orthonormality("spherical", {"p0": 1.0}, {"l_max": 3}, quad)
    gc = discrete_orthonormality("cylindrical", {"p0": 1.0, "pz": 0.3},
                                 {"m_max": 3}, quad)
    elapsed = time.perf_counter() - t0
    ok = gs.max_offdiag < 1e-8 and gc.max_offdiag < 1e-8 and elapsed < 60.0
    assert _line(5, "orthonormality", ok,
                 f"sph={gs.max_offdiag:.2e} cyl={gc.max_offdiag:.2e} t={elapsed:.1f}s")


def test_criterion_6_continuous_normalization(inner_report):
    norm = inner_report.residuals["packet_norm"]
    slices = inner_report.residuals["cauchy_slice_agreement"]
    ok = norm < 1e-3 and slices < 1e-3
    assert _line(6, "packet normalization", ok,
                 f"norm={norm:.2e} slice-agreement={slices:.2e}")


def test_criterion_7_bessel_tables(inner_report):
    table = inner_report.residuals["bessel_tables"]
    agree = inner_report.residuals["bessel_tables_method_agreement"]
    smear = inner_report.residuals["delta_smearing"]
    ok = table < 1e-3 and agree < 5e-4 and smear < 2e-2
    assert _line(7, "Bessel overlap tables", ok,
                 f"closed-form={table:.2e} agreement={agree:.2e} smear={smear:.2e}")


def test_criterion_8_degeneracies():
    rep = run_check(REGISTRY["degeneracy"], CheckSpec(seed=SEED))
    ok = rep.passed
    assert _line(8, "degeneracies", ok,
                 f"alpha0-zeros exact, l0 rejected, l1 helicity "
                 f"{rep.residuals['limit_mode_helicity']:.2e}")


def test_criterion_9_gauge_invariance(inner_report):
    inv = inner_report.residuals["gauge_invariance"]
    broke_coulomb = inner_report.residuals["gauge_shift_div_nonzero"] == 0.0
    ok = inv < 1e-8 and broke_coulomb
    assert _line(9, "gauge invariance", ok, f"max rel change={inv:.2e}")


def test_criterion_10_jacobi_anger():
    rep = run_check(REGISTRY["crosscheck_jacobi_anger"], CheckSpec(seed=SEED))
    err = rep.residuals["reconstruction_error_M20"]
    ok = rep.passed and err < 1e-8
    assert _line(10, "Jacobi-Anger crosscheck", ok, f"M=20 error={err:.2e}")
