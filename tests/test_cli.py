import io
import json
import platform
import tracemalloc

import numpy as np
import pytest

from photonmodes import cli, modes
from photonmodes.cli import FMT, main
from photonmodes.modes import (CylindricalLabel, FieldGrid, GridSpec, PlaneWaveLabel,
                               SphericalLabel, make_mode, sample_grid)


def test_eval_polar_slice(tmp_path):
    out = tmp_path / "field"
    rc = main(["eval", "--family", "spherical", "--label", "p0=1.0,l=1,m=0,s=1",
               "--grid", "x:0.1:2:32,z:0.1:2:32,y:0.5:0.5:1",
               "--out", str(out)])
    assert rc == 0
    header = json.loads((tmp_path / "field.header.json").read_text())
    assert header["columns"][:4] == ["t", "x", "y", "z"]
    lines = (tmp_path / "field.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 32 * 32   # header row + one row per node
    # 17-significant-digit lowercase scientific
    assert "e" in lines[1] and "E" not in lines[1]


def test_eval_rejects_l0(tmp_path, capsys):
    rc = main(["eval", "--family", "spherical", "--label", "p0=1.0,l=0,m=0,s=1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "l >= 1" in err


def test_eval_deterministic(tmp_path):
    args = ["eval", "--family", "cylindrical", "--label", "p0=1.0,pz=0.3,m=1,s=1",
            "--grid", "x:0.2:0.8:6,y:0.2:0.8:6,z:0:0.5:6"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# 2 * 7 * 11 * 13 = 2002 nodes: with blocks of 300 nodes, six full blocks and
# a partial one of 202
_BLOCKED_GRID = "t:0:0.05:2,x:0.1:0.4:7,y:-0.25:0.25:11,z:-0.3:0.3:13"
_BLOCKED_SPEC = GridSpec(t=(0.0, 0.05, 2), x=(0.1, 0.4, 7), y=(-0.25, 0.25, 11),
                         z=(-0.3, 0.3, 13))
_BLOCKED_LABEL = "p0=0.9,l=4,m=-3,s=1"


def _whole_body_writer(grid, header, base, fmt):
    """Reference writer: the whole body built at once, as one np.savetxt or
    one json.dump of every row."""
    tt, xx, yy, zz = np.meshgrid(*grid.axes.values(), indexing="ij")
    coords = np.stack([tt.ravel(), xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    vals = grid.values.reshape(-1, 4)
    body = np.concatenate([coords, np.stack(
        [vals.real[:, 0], vals.imag[:, 0], vals.real[:, 1], vals.imag[:, 1],
         vals.real[:, 2], vals.imag[:, 2], vals.real[:, 3], vals.imag[:, 3]], axis=1)],
        axis=1)
    if fmt == "csv":
        np.savetxt(f"{base}.csv", body, fmt=FMT, delimiter=",",
                   header=",".join(header["columns"]), comments="")
        return
    rows = [{"coords": [float(FMT % c) for c in row[:4]],
             "A": [[float(FMT % row[4 + 2 * k]), float(FMT % row[5 + 2 * k])]
                   for k in range(4)]}
            for row in body]
    with open(f"{base}.json", "w") as fh:
        json.dump({"header": header, "rows": rows}, fh)
        fh.write("\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_streams_the_bytes_of_the_whole_body_writer(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(modes, "_GRID_BLOCK", 300)
    assert main(["eval", "--family", "spherical", "--label", _BLOCKED_LABEL,
                 "--grid", _BLOCKED_GRID, "--format", fmt,
                 "--out", str(tmp_path / "blocked")]) == 0
    grid = sample_grid(make_mode(SphericalLabel(0.9, 4, -3, 1)), _BLOCKED_SPEC)
    if fmt == "csv":
        header = json.loads((tmp_path / "blocked.header.json").read_text())
    else:   # the header as embedded, in its key order
        header = json.loads((tmp_path / "blocked.json").read_text())["header"]
    _whole_body_writer(grid, header, tmp_path / "whole", fmt)
    assert ((tmp_path / f"blocked.{fmt}").read_bytes()
            == (tmp_path / f"whole.{fmt}").read_bytes())
    if fmt == "json":
        assert len(json.loads((tmp_path / "blocked.json").read_text())["rows"]) == 2002


@pytest.mark.parametrize("family, text, grid, label, spec", [
    # the A_0 columns of a plane wave are all zero
    pytest.param("plane", "px=0.3,py=-0.4,pz=0.5,s=-1",
                 "x:-1.5:1.5:32,y:-1.5:1.5:32,z:-1.5:1.5:32",
                 PlaneWaveLabel((0.3, -0.4, 0.5), -1),
                 GridSpec(x=(-1.5, 1.5, 32), y=(-1.5, 1.5, 32), z=(-1.5, 1.5, 32)), id="plane"),
    # 3 * 17 * 5 * 23 = 5865 rows, not a whole number of blocks or chunks
    pytest.param("cylindrical", "p0=0.9,pz=0.3,m=2,s=-1",
                 "t:0:0.2:3,x:-1:1:17,y:-0.25:0.25:5,z:-1:1:23",
                 CylindricalLabel(0.9, 0.3, 2, -1),
                 GridSpec(t=(0.0, 0.2, 3), x=(-1.0, 1.0, 17), y=(-0.25, 0.25, 5),
                          z=(-1.0, 1.0, 23)), id="bessel-4d")])
def test_eval_csv_body_is_savetxt_for_plane_and_bessel_grids(tmp_path, monkeypatch, family,
                                                            text, grid, label, spec):
    monkeypatch.setattr(modes, "_GRID_BLOCK", 2000)
    monkeypatch.setattr(cli, "_CSV_ROWS", 700)
    assert main(["eval", "--family", family, "--label", text, "--grid", grid,
                 "--out", str(tmp_path / "blocked")]) == 0
    header = json.loads((tmp_path / "blocked.header.json").read_text())
    _whole_body_writer(sample_grid(make_mode(label), spec), header, tmp_path / "whole", "csv")
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_eval_writes_at_most_one_chunk_of_rows_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_ROWS", 300)
    rows = []

    def recording_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if str(path).endswith(".csv"):
            write = fh.write
            fh.write = lambda text: (rows.append(text.count("\n")), write(text))[1]
        return fh

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert main(["eval", "--family", "spherical", "--label", _BLOCKED_LABEL,
                 "--grid", _BLOCKED_GRID, "--out", str(tmp_path / "f")]) == 0
    header, *body = rows
    assert header == 1 and len(body) > 1
    assert max(body) <= 300 and sum(body) == 2002
    assert len((tmp_path / "f.csv").read_text().splitlines()) == 1 + 2002


def test_csv_writer_matches_savetxt_on_special_values(tmp_path, monkeypatch):
    # 2 * 3 * 1 * 3 = 18 nodes: four chunks of 5 rows, the last one of 3
    monkeypatch.setattr(cli, "_CSV_ROWS", 5)
    axes = {"t": np.array([-0.0, 1e300]), "x": np.array([5e-324, -1e-300, 3.0]),
            "y": np.array([0.0]), "z": np.array([-2.0, 1.0, 0.1])}
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                        -7.0, 12.0, 1.0, -0.1, 1 / 3, np.inf, -np.inf, np.nan, 2.0 ** 60])
    values = np.resize(special, 18 * 8).view(complex).reshape(2, 3, 1, 3, 4)
    grid = FieldGrid(axes=axes, values=values)
    header = {"columns": ["t", "x", "y", "z", "re_A0", "im_A0", "re_A1", "im_A1",
                          "re_A2", "im_A2", "re_A3", "im_A3"]}
    _whole_body_writer(grid, header, tmp_path / "whole", "csv")
    buf = io.StringIO()
    buf.write(",".join(header["columns"]) + "\n")
    cli._write_csv_body(buf, grid)
    assert buf.getvalue().encode() == (tmp_path / "whole.csv").read_bytes()


def _csv_body(grid):
    buf = io.StringIO()
    cli._write_csv_body(buf, grid)
    return buf.getvalue()


def test_csv_fields_are_the_bytes_of_percent_formatting():
    # the writer's digits come from integer arithmetic on a long double
    # product; each field must still be FMT % v exactly
    rng = np.random.default_rng(20240801)
    with np.errstate(over="ignore"):
        tens = 10.0 ** np.arange(-324, 310)    # 0 and inf at the ends
    odd = 2 * rng.integers(2 * 10 ** 15, 9 * 10 ** 15 // 2, 500) + 1
    edges = np.concatenate([
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        [9.999999999999999e-2, 1e16, np.nextafter(1e16, 0), 1e17, np.nextafter(1e17, 0),
         1e-11, np.nextafter(1e-11, 0), np.nextafter(1e-10, 0),   # k = 0 and k = 27 edges
         5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
         1e300, 1e-300, 0.0, np.inf, np.nan, 1000000000000000.25],
        odd / 4])                                # exact ties of the 17th digit
    edges = np.concatenate([edges, -edges])
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    # three in four in a binade of [1e-11, 1e17), where the digits are not
    # taken from %: biased exponents 1023 - 37 to 1023 + 56
    exponent_field = np.uint64(0x7FF) << np.uint64(52)
    bits[:150_000] = (bits[:150_000] & ~exponent_field) | (
        rng.integers(986, 1080, 150_000, dtype=np.uint64) << np.uint64(52))
    bits = bits.view(float)
    # 160 * 160 rows of eight values; the y and z axes are values too
    values = np.resize(np.concatenate([edges, bits]), 8 * 160 * 160)
    axes = {"t": np.array([-0.0]), "x": np.array([np.nan]),
            "y": values[:-161:-1].copy(), "z": values[:160].copy()}
    grid = FieldGrid(axes=axes, values=values.view(complex).reshape(1, 1, 160, 160, 4))
    fields = [FMT % v for v in values.tolist()]
    tx = f"{FMT % -0.0},{FMT % np.nan}"
    prefixes = [f"{tx},{y},{z}" for y in [FMT % v for v in axes["y"].tolist()]
                for z in [FMT % v for v in axes["z"].tolist()]]
    want = "".join(f"{prefix},{','.join(fields[8 * i:8 * i + 8])}\n"
                   for i, prefix in enumerate(prefixes))
    assert _csv_body(grid) == want


class _CountingFormat(str):
    """FMT that counts the values formatted one at a time by %."""
    calls = 0

    def __mod__(self, value):
        self.calls += 1
        return str.__mod__(self, value)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is no wider than double: every field takes %")
def test_csv_writer_formats_few_values_one_at_a_time(monkeypatch):
    # the % path is the exact fallback, not the route of every value: with
    # a 64-bit long double only exact rounding ties and misjudged exponents
    # take it (1.6% of this grid's fields went there under a 1e17 eps bound)
    ax = (-0.75, 0.75, 16)
    grid = sample_grid(make_mode(SphericalLabel(1.0, 2, 1, 1)),
                       GridSpec(t=(0.0, 0.0, 1), x=ax, y=ax, z=ax))
    want = _csv_body(grid)
    counting = _CountingFormat(FMT)
    monkeypatch.setattr(cli, "FMT", counting)
    assert _csv_body(grid) == want
    assert counting.calls < 0.01 * (grid.values.size * 2 + 3 * 16 + 1)


def test_csv_writer_memory_does_not_grow_with_the_grid():
    # the body is streamed: the writer's own allocations are one chunk's
    class Discard:
        def write(self, text):
            pass

    peaks = []
    for n in (16, 32):
        ax = (-0.75, 0.75, n)
        grid = sample_grid(make_mode(SphericalLabel(1.0, 2, 1, 1)),
                           GridSpec(t=(0.0, 0.0, 1), x=ax, y=ax, z=ax))
        tracemalloc.start()
        try:
            cli._write_csv_body(Discard(), grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1e6
    assert max(peaks) < 1.1 * min(peaks)


@pytest.mark.parametrize("argv, named", [
    (["overlap", "--family", "cylindrical", "--label", "p0=1,lmax=1,mmax=1"], "'lmax'"),
    (["overlap", "--family", "spherical", "--label", "p0=1,lmax=1,pz=0.2"], "'pz'"),
    (["eval", "--family", "spherical", "--label", "p0=1,l=1,m=0,s=1,pz=7,bogus=3"],
     "'pz', 'bogus'"),
    (["eval", "--family", "plane", "--label", "px=0,py=0,pz=1,m=2"], "'m'"),
    (["eval", "--family", "plane", "--label", "px=0,py=0,pz=1",
      "--grid", "x:-1:1:4,x:0:1:3"], "grid axis 'x'"),
    (["eval", "--family", "plane", "--label", "px=0,py=0,pz=1",
      "--grid", "x:-1:1:4", "--grid", "y:0:1:3,x:0:1:3"], "grid axis 'x'"),
    (["eval", "--family", "plane", "--label", "px=0,py=0,pz=1", "--label", "pz=2"], "'pz'"),
    (["eval", "--family", "plane", "--label", "px=0,py=0,pz=1",
      "--grid", "x:-1:1:2.5"], "grid axis x"),
    # a value that does not convert names its key or axis, not just the text
    (["overlap", "--family", "spherical", "--label", "p0=1,lmax=2.5"], "'lmax'"),
    (["overlap", "--family", "spherical", "--label", "p0=1,lmax=1",
      "--quad", "tail_r0=abc"], "'tail_r0'"),
    (["eval", "--family", "plane", "--label", "px=abc,py=0,pz=1"], "'px'"),
    (["eval", "--family", "plane", "--label", "px=0,py=0,pz=1",
      "--grid", "x:a:1:4"], "grid axis 'x'"),
    (["eval", "--family", "spherical", "--label", "p0=1,l=2.5,m=0,s=1"], "'l'"),
], ids=["overlap-cyl-lmax", "overlap-sph-pz", "eval-sph-pz-bogus", "eval-plane-m",
        "eval-grid-x-twice", "eval-grid-x-twice-across-flags", "eval-label-pz-twice",
        "eval-grid-count-not-integer", "overlap-sph-lmax-not-integer",
        "overlap-quad-tail-r0-not-a-number", "eval-plane-px-not-a-number",
        "eval-grid-x-min-not-a-number", "eval-sph-l-not-integer"])
def test_a_key_or_axis_that_would_be_ignored_is_a_usage_error(tmp_path, capsys, argv, named):
    if argv[0] == "eval":
        argv = argv + ["--out", str(tmp_path / "f")]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_validate_degeneracy_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["validate", "degeneracy", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["passed"] is True
    assert "provenance" in payload and "config_hash" in payload["provenance"]


def test_validate_prints_worst_gate_margin(capsys):
    # informational residuals (the large M = 0 error) stay out of the column
    assert main(["validate", "crosscheck"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("crosscheck_jacobi_anger"))
    assert float(row.split()[1]) < 1.0


def test_validate_rejects_a_label_count_below_one(capsys):
    # zero labels would check nothing and still print pass rows
    for bad in ("0", "-2"):
        assert main(["validate", "eigen", "--n-labels", bad]) == 2
        captured = capsys.readouterr()
        assert "n_labels" in captured.err and "pass" not in captured.out


def test_validate_unknown_suite(capsys):
    rc = main(["validate", "nonsense"])
    assert rc == 2
    assert "available" in capsys.readouterr().err


def test_overlap_single_label(tmp_path):
    out = tmp_path / "gram.json"
    rc = main(["overlap", "--family", "cylindrical",
               "--label", "p0=1.0,pz=0.0,mmax=0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    mat = payload["matrix_real"]
    assert len(mat) == 2               # one m, two helicities
    assert abs(mat[0][0] - 1.0) < 1e-12
    assert abs(mat[0][1]) < 1e-8       # opposite-helicity block vanishes


@pytest.mark.parametrize("family, label, field", [
    ("cylindrical", "p0=1,pz=0.3,mmax=-1", "m_max"),
    ("spherical", "p0=1,lmax=0", "l_max"),
    # alpha = 0: all but m = +-1 are the zero field, and the Gram was NaN
    ("cylindrical", "p0=1.0,pz=1.0,mmax=2", "pz")])
def test_overlap_rejects_an_invalid_label_range(capsys, family, label, field):
    assert main(["overlap", "--family", family, "--label", label]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("label", ["p0=nan,lmax=1", "p0=inf,lmax=1"])
def test_overlap_rejects_a_non_finite_energy(capsys, label):
    assert main(["overlap", "--family", "spherical", "--label", label]) == 2
    assert "p0 must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overlap_rejects_an_energy_whose_gram_diagonal_is_not_finite(tmp_path, capsys):
    # at p0 = 1e-300 the radial integrals overflow; writing that Gram would
    # give "max_offdiag": NaN and a matrix of nulls
    out = tmp_path / "gram.json"
    assert main(["overlap", "--family", "spherical", "--label", "p0=1e-300,lmax=1",
                 "--out", str(out)]) == 2
    assert "p0" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_record_python_and_numpy_versions(tmp_path):
    assert main(["eval", "--family", "plane", "--label", "px=0,py=0,pz=1,s=1",
                 "--grid", "x:0:0.1:2,y:0:0:1,z:0:0:1", "--out", str(tmp_path / "field")]) == 0
    assert main(["validate", "degeneracy", "--out", str(tmp_path / "report.json")]) == 0
    assert main(["overlap", "--family", "cylindrical", "--label", "p0=1.0,pz=0.0,mmax=0",
                 "--out", str(tmp_path / "gram.json")]) == 0
    for name in ("field.header.json", "report.json", "gram.json"):
        provenance = json.loads((tmp_path / name).read_text())["provenance"]
        assert provenance["python"] == platform.python_version()
        assert provenance["numpy"] == np.__version__


def test_overlap_rejects_invalid_quadrature(capsys):
    # a bad value is named, and so is a key that is no longer a setting (the
    # composite rule order and the damping rate are constants) or a tail
    # rule that does not exist
    for quad, named in (("r_max=-5", "r_max"), ("gl_order=8", "gl_order"),
                        ("tail_eta=0.01", "tail_eta"), ("tail=none", "'none'")):
        rc = main(["overlap", "--family", "spherical", "--label", "p0=1.0,lmax=1",
                   "--quad", quad])
        assert rc == 2, quad
        assert named in capsys.readouterr().err, quad


@pytest.mark.parametrize("key", ["chart=cartesian", "t_slice=0.5", "r_max=30", "n_r=4",
                                 "n_theta=8", "n_phi=8", "box_half=2", "n_box=8", "tol=0.5"])
def test_overlap_quad_takes_only_the_tail_keys(capsys, key):
    # the Gram reads no slice setting, so a slice key is a usage error, not a no-op
    rc = main(["overlap", "--family", "spherical", "--label", "p0=1.0,lmax=1",
               "--quad", f"tail_r0=300,{key}"])
    assert rc == 2
    assert repr(key.split("=")[0]) in capsys.readouterr().err


def test_overlap_config_hash_covers_the_quadrature(tmp_path):
    def config_hash(*quad):
        out = tmp_path / "gram.json"
        argv = ["overlap", "--family", "spherical", "--label", "p0=1.0,lmax=1",
                "--out", str(out)]
        assert main(argv + [arg for q in quad for arg in ("--quad", q)]) == 0
        return json.loads(out.read_text())["provenance"]["config_hash"]

    default = config_hash()
    # the default quadrature spelt out is the same configuration
    assert config_hash("tail=averaged,tail_r0=300,tail_rounds=4") == default
    damped = config_hash("tail=damped")
    assert damped != default and config_hash("tail=damped") == damped
    assert config_hash("tail_r0=300,tail_rounds=3") != default


def test_overlap_quad_keys_left_out_keep_the_overlap_default(tmp_path):
    # naming one tail key keeps the others at the overlap rule (with
    # tail_r0=150, tail_rounds=3 the off-diagonal is 3.9e-8 here)
    def gram(*quad):
        out = tmp_path / "gram.json"
        argv = ["overlap", "--family", "cylindrical", "--label", "p0=1.0,pz=0.3,mmax=3",
                "--out", str(out)]
        assert main(argv + [arg for q in quad for arg in ("--quad", q)]) == 0
        return json.loads(out.read_text())

    default, named = gram(), gram("tail_rounds=4")
    assert named["provenance"]["config_hash"] == default["provenance"]["config_hash"]
    assert named["matrix_real"] == default["matrix_real"]
    assert named["max_offdiag"] < 1e-8


def test_usage_error_exit_code():
    assert main(["eval"]) == 2
