"""The public surface: the names the package exports, written out by hand
as CLAIM_LIST is for the claims, and the names the benchmark harness under
perfbench/ binds and the work its tracer sees.  The perfbench files are
read, never imported as modules or written to, so no bytecode lands beside
them."""

import importlib
import json
import re
import types
from pathlib import Path

import numpy as np

import photonmodes
from photonmodes import cli, fdiff, harmonics, inner_product, modes, operators

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Hand-written list of the package's public names (the coverage lock of the
#: API: adding or deleting a name means editing this list).
PUBLIC = [
    # charts
    "dyads", "dyad_derivatives", "LEVI_CIVITA",
    # harmonics
    "bessel_j", "CylHarmonicLabel", "SphHarmonicLabel", "eth_analytic",
    "ethbar_analytic", "eth_numeric", "ethbar_numeric", "sample_harmonic",
    # modes
    "PlaneWaveLabel", "CylindricalLabel", "SphericalLabel", "plane_wave",
    "cylindrical_mode", "spherical_mode", "field_strength",
    "sample_grid", "GridSpec", "FieldGrid", "sph_radial_profiles",
    # operators
    "KillingField", "P_lower", "P_upper", "M_lower", "L1", "L2", "L3", "L_plus",
    "L_minus", "lie_derivative", "angular_momentum_squared", "helicity_dual",
    "dalembertian_residual", "divergence_residual", "check_all_brackets",
    "pauli_lubanski_residual",
    # inner_product
    "SliceSpec", "TailSpec", "WavePacket", "Superposition", "inner",
    "inner_field_strength_form", "current", "gauge_shift", "GaussianBumpScalar",
    "discrete_orthonormality", "bessel_overlap", "bessel_overlap_closed_form",
    "smeared_radial_delta",
    # validation
    "CheckSpec", "CheckReport", "run_suite", "run_all", "claims_manifest",
    "CLAIM_LIST", "SUITES",
]


def _perfbench_namespace(name):
    """Module-level names of a perfbench file, executed from its source."""
    path = PERFBENCH / name
    namespace = {"__name__": f"perfbench_{path.stem}"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(photonmodes).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == len(set(PUBLIC))
    assert exported == set(PUBLIC)


def test_names_the_tracer_binds_resolve():
    tracer = _perfbench_namespace("tracer.py")
    for module, attr, _, _ in tracer["FUNCTIONS"]:
        owner = importlib.import_module(f"photonmodes.{module}")
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
    # the tracer wraps each family's own evaluate and gradient, read from the
    # class __dict__, so an inherited method would escape it
    for cls_name, _ in tracer["MODE_CLASSES"]:
        cls = getattr(modes, cls_name)
        for meth in ("evaluate", "gradient"):
            assert callable(cls.__dict__.get(meth)), f"{cls_name}.{meth}"
    assert callable(fdiff.gradient4)


def _field_calls():
    rng = np.random.default_rng(7)
    t, z = rng.uniform(-1.0, 1.0, (2, 16))
    rho, phi = rng.uniform(0.3, 2.0, 16), rng.uniform(0.0, 2.0 * np.pi, 16)
    x, y = rho * np.cos(phi), rho * np.sin(phi)
    for label in (modes.PlaneWaveLabel((0.3, -0.4, 0.5), 1),
                  modes.CylindricalLabel(1.0, 0.3, 2, 1), modes.SphericalLabel(1.0, 2, 1, 1)):
        mode = modes.make_mode(label)
        mode.evaluate(t, x, y, z)
        mode.gradient(t, x, y, z)


def _gram_calls():
    harmonics._gauss_legendre.cache_clear()   # so leggauss runs again
    for label in (["--family", "spherical", "--label", "p0=1.0,lmax=1"],
                  ["--family", "cylindrical", "--label", "p0=1.0,pz=0.3,mmax=1"]):
        assert cli.main(["overlap", *label]) == 0


def _export_calls(out):
    assert cli.main(["eval", "--family", "spherical", "--label", "p0=1.0,l=2,m=1,s=1",
                     "--grid", "x:-0.4:0.4:9,y:-0.4:0.4:9,z:-0.4:0.4:9",
                     "--out", str(out)]) == 0


def _traced_values(tracer_ns, calls):
    """The tracer's per-layer values and leggauss orders of what calls() runs."""
    tracer = tracer_ns["Tracer"]().install()
    try:
        calls()
    finally:
        tracer.uninstall()
    return tracer_ns["aggregate"]({
        "spans": tracer.spans, "leggauss_calls": tracer.leggauss_calls,
        "leggauss_orders": sorted(tracer.leggauss_orders)})


def test_every_traced_layer_of_the_field_gram_and_export_workloads_sees_work(tmp_path):
    # perfbench/run.py exits 3 when a layer that design.json assigns to a
    # workload records no work: a refactor that calls a copy of a measured
    # function, which the tracer cannot rebind, or an eval that routes
    # around sample_grid would do that.  The calls reach the package through
    # module attributes, as the workloads do, and each workload's calls are
    # traced on their own
    tracer_ns = _perfbench_namespace("tracer.py")
    design = json.loads((PERFBENCH / "design.json").read_text())
    out = tmp_path / "export"
    idle = []
    for workload, calls in (("field", _field_calls), ("gram", _gram_calls),
                            ("export", lambda: _export_calls(out))):
        values, orders = _traced_values(tracer_ns, calls)
        # as perfbench/run.py's layer_metrics derives them; the workload
        # counts the header and CSV bytes it receives
        n_calls = values["inner_product.leggauss.calls"]
        values["inner_product.leggauss.distinct"] = len(orders)
        values["inner_product.leggauss.reuse_frac"] = len(orders) / n_calls if n_calls else 0.0
        if "cli.eval.self_s" in values:
            values["cli.eval.write_s"] = values["cli.eval.self_s"]
            values["cli.eval.bytes"] = sum(path.stat().st_size for path in tmp_path.iterdir())
            values["cli.eval.write_mb_s"] = (values["cli.eval.bytes"] / 1e6
                                             / values["cli.eval.self_s"])
        idle += [f"{workload}: {metric}" for row in design["layers"]
                 if workload in row["workloads"] for metric in row["metrics"]
                 if not metric.endswith(".errors") and not values.get(metric, 0) > 0]
    assert idle == []


def test_the_traced_inner_product_layers_of_validate_see_work():
    # the tracer counts inner's points from the slice rule, reading the
    # packet ball's constants (n_r, n_theta, n_phi) off the spec; one packet
    # inner on the ball, one box inner and one field-strength form, called
    # through module attributes as validate's are
    box = inner_product.SliceSpec(chart="cartesian", box_half=3.0, n_box=8)
    packet = inner_product.WavePacket(l=1, m=0, s=1, center=1.0, width=0.2, n_nodes=8)
    wave = modes.plane_wave(modes.PlaneWaveLabel((0.0, 0.3, 0.9), 1))

    def calls():
        inner_product.inner(packet, packet, inner_product.SliceSpec())
        inner_product.inner(wave, wave, box)
        inner_product.inner_field_strength_form(wave, wave, box)

    values, _ = _traced_values(_perfbench_namespace("tracer.py"), calls)
    assert values["inner_product.inner.calls"] == 2
    assert values["inner_product.inner.points"] == 8192 + box.n_box**3
    assert values["inner_product.inner_field_strength_form.calls"] == 1
    # as perfbench/run.py's layer_metrics derives it
    evals_per_inner = (values["inner_product.sph_evals_under_inner"]
                       / values["inner_product.inner.calls"])
    assert evals_per_inner > 0


def test_names_the_workloads_bind_resolve():
    # field_worker.py and workloads.py reach the package as `pm`
    names = set()
    for name in ("field_worker.py", "workloads.py"):
        names |= set(re.findall(r"\bpm\.(\w+)", (PERFBENCH / name).read_text()))
    assert {"plane_wave", "cylindrical_mode", "spherical_mode"} <= names
    for name in sorted(names):
        assert hasattr(photonmodes, name), name


def test_fields_take_d_t_only_through_time_derivative():
    # d_t of a field is its time_derivative(), another field; no field class
    # keeps a second method for the same values
    fields = {name: cls for module in (modes, operators, inner_product)
              for name, cls in vars(module).items()
              if isinstance(cls, type) and cls.__module__ == module.__name__
              and (hasattr(cls, "evaluate") or hasattr(cls, "time_derivative"))}
    assert {"ModeField", "PlaneWaveMode", "CylindricalMode", "SphericalMode",
            "Superposition", "LieField", "WavePacket", "GaugeShiftedField"} <= set(fields)
    for name, cls in fields.items():
        assert not hasattr(cls, "d_dt"), name
