import collections
import json

import pytest

from photonmodes import modes
from photonmodes.cli import main
from photonmodes.validation import (Check, CheckReport, CheckSpec, REGISTRY,
                                    TOL_ANALYTIC, run_check, run_suite,
                                    claims_manifest, CLAIM_LIST, SUITES)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_degeneracy_suite_passes():
    rep = run_check(REGISTRY["degeneracy"], CheckSpec())
    assert rep.passed
    assert rep.residuals["alpha0_forbidden_max"] == 0.0


def test_crosscheck_suite():
    rep = run_check(REGISTRY["crosscheck_jacobi_anger"], CheckSpec())
    assert rep.passed
    assert rep.residuals["reconstruction_error_M20"] < 1e-8
    assert rep.residuals["reconstruction_error_M0"] > 0.1
    # super-exponential decay of the truncation tail past m > alpha rho
    errs = [rep.residuals[f"error_M{M}"] for M in (6, 10, 14, 20)]
    assert errs == sorted(errs, reverse=True)


def test_small_eigen_suite_each_family():
    spec = CheckSpec(n_labels=4)
    for family in ("plane", "cylindrical", "spherical"):
        rep = run_check(REGISTRY[f"eigen_{family}"], spec)
        assert rep.passed, rep.residuals


def test_null_momentum_gate_fails_on_a_mutated_bessel_ladder(monkeypatch):
    # Box A is taken from the jet, so it sees the field: a Bessel beam whose
    # ladder reads J_k(1.01 alpha rho) is no longer a solution of the wave
    # equation, and the gate must say so
    exact = modes.bessel_j_int_orders
    monkeypatch.setattr(modes, "bessel_j_int_orders",
                        lambda orders, x: exact(orders, 1.01 * x))
    rep = run_check(REGISTRY["eigen_cylindrical"], CheckSpec(n_labels=4))
    assert rep.residuals["null_momentum_analytic"] > TOL_ANALYTIC
    assert not rep.passed


def test_reports_deterministic_at_fixed_seed():
    a = run_check(REGISTRY["degeneracy"], CheckSpec(seed=7))
    b = run_check(REGISTRY["degeneracy"], CheckSpec(seed=7))
    assert a.canonical_json() == b.canonical_json()
    eigen = REGISTRY["eigen_cylindrical"]
    r1 = run_check(eigen, CheckSpec(seed=7, n_labels=3))
    r2 = run_check(eigen, CheckSpec(seed=7, n_labels=3))
    assert r1.canonical_json() == r2.canonical_json()
    r3 = run_check(eigen, CheckSpec(seed=8, n_labels=3))
    assert r1.labels != r3.labels


def test_coverage_lock():
    # every claim is covered by exactly one named check, and the generated
    # manifest equals the hand-written claim list
    manifest = claims_manifest()
    counts = collections.Counter(manifest)
    assert all(v == 1 for v in counts.values())
    assert sorted(CLAIM_LIST) == manifest


def test_manifest_matches_executed_reports():
    # static manifest vs the claims actually attached to executed reports,
    # for the suites cheap enough to run here
    reports = []
    reports.extend(run_suite("degeneracy"))
    reports.extend(run_suite("crosscheck"))
    got = claims_manifest(reports)
    want = [c for c in CLAIM_LIST if c in got]
    assert sorted(want) == sorted(got)


def test_report_file_is_strict_json_and_round_trips(tmp_path):
    # no Infinity/NaN in the file; every entry rebuilds a CheckReport that
    # serializes back to it; each report carries its registry entry's claims
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for suite in ("degeneracy", "crosscheck"):
        out = tmp_path / f"{suite}.json"
        assert main(["validate", suite, "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=reject)
        for d in payload["reports"]:
            assert CheckReport(**d).to_dict() == d
            assert d["claims"] == list(REGISTRY[d["name"]].claims)


def test_check_spec_rejects_a_bad_label_count():
    for bad in (0, -1, 2.5, float("nan")):
        with pytest.raises(ValueError, match="n_labels"):
            CheckSpec(n_labels=bad)
    assert type(CheckSpec(n_labels=3.0).n_labels) is int


def test_undeclared_residual_rejected():
    check = Check("t", "t", (), {"a": 1.0}, (),
                  lambda spec: ({"a": 0.0, "b": 0.0}, []))
    with pytest.raises(RuntimeError, match="'b'"):
        run_check(check, CheckSpec())


def test_suite_names_stable():
    assert SUITES == ("eigen", "field_equations", "degeneracy", "crosscheck",
                      "algebra", "inner_product")
