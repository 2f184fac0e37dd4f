"""The package at run time needs nothing but numpy.

One child interpreter, with RuntimeWarning an error and the test extras
(scipy, sympy, mpmath) and the test runner blocked from import, runs through
cli.main every suite of `validate all` at a second seed, a 32^3 multipole
grid of two sample_grid blocks in both output formats, and one Gram per
family and tail rule.  Each command must exit 0, every JSON file must load
with NaN and Infinity rejected, and the runs must import no top-level module
beyond the standard library, numpy and photonmodes.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCKED = ("scipy", "sympy", "mpmath", "hypothesis", "pytest")

GRID32 = ["--family", "spherical", "--label", "p0=1.0,l=2,m=1,s=1",
          "--grid", "x:-1.5:1.5:32,y:-1.5:1.5:32,z:-1.5:1.5:32"]
GRAMS = {"sph": ["--family", "spherical", "--label", "p0=1.0,lmax=3"],
         "cyl": ["--family", "cylindrical", "--label", "p0=1.0,pz=0.3,mmax=3"]}


def _commands(out):
    yield ["--seed", "7", "validate", "all", "--out", str(out / "report.json")]
    for fmt in ("csv", "json"):
        yield ["eval", *GRID32, "--format", fmt, "--out", str(out / "grid32")]
    for family, args in GRAMS.items():
        for tail in ("averaged", "damped"):
            yield ["overlap", *args, "--quad", f"tail={tail}",
                   "--out", str(out / f"gram_{family}_{tail}.json")]


# The child blocks the modules, notes what site loaded before it, runs each
# command and writes the exit codes and the top-level modules loaded since
_CHILD = """
import json, sys
for name in json.loads(sys.argv[1]):
    sys.modules[name] = None
preloaded = {name.partition(".")[0] for name in sys.modules}
from photonmodes import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
loaded = {name.partition(".")[0] for name, mod in sys.modules.items() if mod is not None}
with open(sys.argv[3], "w") as fh:
    json.dump({"codes": codes, "modules": sorted(loaded - preloaded)}, fh)
"""


def _strict_load(path):
    def reject(constant):
        raise ValueError(f"{path.name}: non-finite {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_cli_runs_on_numpy_alone(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    commands = list(_commands(out))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _CHILD,
         json.dumps(BLOCKED), json.dumps(commands), str(result)],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    run = json.loads(result.read_text())
    assert run["codes"] == [0] * len(commands), (run["codes"], child.stderr)
    # numpy's Cython extensions register cython_runtime and _cython_<version>
    foreign = [name for name in run["modules"]
               if name not in sys.stdlib_module_names
               and name not in ("numpy", "photonmodes", "cython_runtime")
               and not re.fullmatch(r"_cython_[0-9_]+", name)]
    assert foreign == [], foreign

    written = sorted(p.name for p in out.glob("*.json"))
    assert written == ["gram_cyl_averaged.json", "gram_cyl_damped.json",
                       "gram_sph_averaged.json", "gram_sph_damped.json",
                       "grid32.header.json", "grid32.json", "report.json"]
    loaded = {name: _strict_load(out / name) for name in written}
    assert loaded["report.json"]["provenance"]["seed"] == 7
    assert len(loaded["grid32.json"]["rows"]) == 32 ** 3
    with open(out / "grid32.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 32 ** 3
