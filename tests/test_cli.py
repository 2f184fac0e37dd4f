import json

from photonmodes.cli import main


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


def test_overlap_rejects_invalid_quadrature(capsys):
    rc = main(["overlap", "--family", "spherical", "--label", "p0=1.0,lmax=1",
               "--quad", "r_max=-5"])
    assert rc == 2
    assert "r_max" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["eval"]) == 2
