"""The benchmark's four workloads, their repetitions and correctness checks.

Every measured child is spawned through a `launcher.Launcher`, one at a
time, with BLAS/OpenMP threads pinned to 1 (launcher.THREAD_ENV).  A
workload's `session` repeats it for a time budget and collects wall times,
peak RSS, the workload's named metrics, check outcomes and, when traced,
span files.
"""

from __future__ import annotations

import errno
import io
import json
import math
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PY = sys.executable
SETUP_SAMPLES = 7
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import photonmodes; "
                "print(time.perf_counter() - t0)")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_child(launcher, argv, tag):
    """Run argv to completion through the launcher: wall time from spawn to
    exit, peak RSS of this child alone, exit code and output."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    res = launcher.run(argv, str(out_path), str(err_path))
    child = Child(res["seconds"], res["rss_mb"], res["code"],
                  out_path.read_text(), err_path.read_text())
    out_path.unlink()
    err_path.unlink()
    return child


def cli_argv(args, traced, workload, rep, spans):
    if traced:
        return [PY, str(HERE / "trace_cli.py"), str(spans), workload, str(rep), "--", *args]
    return [PY, "-m", "photonmodes.cli", *args]


def measure_setup(launcher):
    """Median fresh-interpreter `import photonmodes` time."""
    samples = []
    for i in range(SETUP_SAMPLES):
        child = run_child(launcher, [PY, "-c", IMPORT_PROBE], f"setup-{i}")
        if child.code != 0:
            raise RuntimeError(f"import photonmodes failed:\n{child.stderr}")
        samples.append(float(child.stdout.strip()))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Sessions: repetitions of one workload for a time budget
# ---------------------------------------------------------------------------

@dataclass
class Session:
    wall: list = field(default_factory=list)       # headline seconds per rep (export: per grid)
    parts: dict = field(default_factory=dict)      # named metric -> values
    rss: list = field(default_factory=list)        # MB per rep
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)      # rep -> span files
    extra: dict = field(default_factory=dict)      # rep -> layer values measured outside spans
    warmup_s: float = 0.0

    def part(self, name, value):
        self.parts.setdefault(name, []).append(value)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)


def repeat(rep_fn, session, seconds, traced):
    """Call rep_fn(session, rep, traced) until the budget would be exceeded
    by one more repetition (at least one)."""
    start = time.perf_counter()
    rep = 0
    while True:
        rep_fn(session, rep, traced)
        rep += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 1.0 / rep) > seconds:
            return session


class Workload:
    name = ""

    def __init__(self, seed, launcher):
        self.seed = seed
        self.launcher = launcher

    def session(self, seconds, traced):
        return repeat(self.rep, Session(), seconds, traced)

    def spans_path(self, session, rep, tag=""):
        path = OUT / "spans" / f"{self.name}-{rep}{tag and '-' + tag}.json"
        session.spans.setdefault(rep, []).append(path)
        return path


class Validate(Workload):
    """`photonmodes validate all --seed S` (default --n-labels 20)."""
    name = "validate"

    def rep(self, session, rep, traced):
        report_path = OUT / "validate-report.json"
        args = ["--seed", str(self.seed), "validate", "all", "--out", str(report_path)]
        spans = self.spans_path(session, rep) if traced else None
        argv = cli_argv(args, traced, self.name, rep, spans)
        child = run_child(self.launcher, argv, "validate")
        session.wall.append(child.seconds)
        session.rss.append(child.rss_mb)
        session.part("validate_s", child.seconds)
        ok, why = child.code == 0, f"exit code {child.code}: {child.stderr[-500:]}"
        if ok:
            ok, why, suites = self.check_reports(json.loads(report_path.read_text()))
            if not traced:
                session.extra[rep] = suites
        report_path.unlink(missing_ok=True)
        session.check(ok, f"validate rep {rep}: {why}")

    @staticmethod
    def check_reports(payload):
        from photonmodes import validation
        reports = [validation.CheckReport(**d) for d in payload["reports"]]
        failed = [r.name for r in reports if not r.passed]
        if failed:
            return False, f"reports failed: {failed}", {}
        claims = validation.claims_manifest(reports)
        if claims != sorted(validation.CLAIM_LIST):
            return False, "claim set differs from validation.CLAIM_LIST", {}
        suites = {f"validation.suite.{s}_s": sum(r.runtime for r in reports
                                                   if r.name == s or r.name.startswith(s + "_"))
                  for s in validation.SUITES}
        return True, "", suites


class Gram(Workload):
    """Two `overlap` commands at seeded energies in a narrow band."""
    name = "gram"
    BAND = 0.01     # relative half-width; cost scales with p0, so keep it narrow

    def __init__(self, seed, launcher):
        super().__init__(seed, launcher)
        u = [float(v) for v in np.random.default_rng([seed, 0x6A4]).uniform(-1.0, 1.0, 3)]
        p_sph = 1.0 + self.BAND * u[0]
        p_cyl = 1.0 + self.BAND * u[1]
        q_cyl = 0.3 * p_cyl * (1.0 + self.BAND * u[2])
        self.commands = {
            "gram_sph_s": ["overlap", "--family", "spherical",
                           "--label", f"p0={p_sph!r},lmax=5"],
            "gram_cyl_s": ["overlap", "--family", "cylindrical",
                           "--label", f"p0={p_cyl!r},pz={q_cyl!r},mmax=8"],
        }

    def rep(self, session, rep, traced):
        total, rss = 0.0, 0.0
        for metric, args in self.commands.items():
            out = OUT / "gram.json"
            spans = self.spans_path(session, rep, metric) if traced else None
            argv = cli_argv(args + ["--out", str(out)], traced, self.name, rep, spans)
            child = run_child(self.launcher, argv, "gram")
            total += child.seconds
            rss = max(rss, child.rss_mb)
            session.part(metric, child.seconds)
            ok, why = self.check_gram(child, out)
            out.unlink(missing_ok=True)
            session.check(ok, f"gram rep {rep} {' '.join(args)}: {why}")
        session.wall.append(total)
        session.rss.append(rss)

    @staticmethod
    def check_gram(child, out):
        if child.code != 0:     # cmd_overlap exits 1 on NonConvergenceError
            return False, f"exit code {child.code}: {child.stderr[-500:]}"
        payload = json.loads(out.read_text())
        diag = [row[i] for i, row in enumerate(payload["matrix_real"])]
        if not all(v is not None and math.isfinite(v) and v > 0 for v in diag):
            return False, f"diagonal not finite and positive: {diag}"
        if not payload["max_offdiag"] < 1e-8:
            return False, f"max_offdiag {payload['max_offdiag']:.3g} >= 1e-8"
        return True, ""


class Export(Workload):
    """`photonmodes eval` of one 64^3 grid per family, CSV, through a FIFO."""
    name = "export"
    N = 64
    HALF_WIDTH = 3.5    # in units of 1/p0: spacing 7/(63 p0) < 1/(8 p0), no warning

    def __init__(self, seed, launcher):
        super().__init__(seed, launcher)
        rng = np.random.default_rng([seed, 0xE4])
        p0 = rng.uniform(0.6, 1.6, 3)
        c, a = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
        st = np.sqrt(1.0 - c * c)
        s = [int(v) for v in rng.choice([-1, 1], 3)]
        # l <= 4: the spherical grid's evaluation then stays below the CSV
        # writer's memory peak, so peak_rss_mb measures the writer on every seed
        l_sph = int(rng.integers(1, 5))
        self.labels = {
            "plane": {"px": float(p0[0] * st * np.cos(a)), "py": float(p0[0] * st * np.sin(a)),
                      "pz": float(p0[0] * c), "s": s[0]},
            "cylindrical": {"p0": float(p0[1]), "pz": float(rng.uniform(-0.85, 0.85) * p0[1]),
                            "m": int(rng.integers(-4, 5)), "s": s[1]},
            "spherical": {"p0": float(p0[2]), "l": l_sph,
                          "m": int(rng.integers(-l_sph, l_sph + 1)), "s": s[2]},
        }
        self.expected = {}

    def _mode(self, family):
        import photonmodes as pm
        lb = self.labels[family]
        if family == "plane":
            return pm.plane_wave(pm.PlaneWaveLabel((lb["px"], lb["py"], lb["pz"]), lb["s"]))
        if family == "cylindrical":
            return pm.cylindrical_mode(pm.CylindricalLabel(lb["p0"], lb["pz"], lb["m"], lb["s"]))
        return pm.spherical_mode(pm.SphericalLabel(lb["p0"], lb["l"], lb["m"], lb["s"]))

    def _expected_body(self, family, half):
        """The CSV body the command should write, from in-process sample_grid."""
        if family not in self.expected:
            import photonmodes as pm
            axis = (-half, half, self.N)
            grid = pm.sample_grid(self._mode(family),
                                  pm.GridSpec(t=(0.0, 0.0, 1), x=axis, y=axis, z=axis))
            coords = np.stack([c.ravel() for c in np.meshgrid(*grid.axes.values(),
                                                              indexing="ij")], axis=1)
            vals = grid.values.reshape(-1, 4)
            parts = [coords] + [f(vals[:, k:k + 1]) for k in range(4)
                                for f in (np.real, np.imag)]
            self.expected[family] = np.concatenate(parts, axis=1)
        return self.expected[family]

    def rep(self, session, rep, traced):
        grid_s, rss = [], 0.0
        for family in self.labels:
            mode_p0 = self._mode(family).p0
            half = self.HALF_WIDTH / mode_p0
            axis = f"{-half!r}:{half!r}:{self.N}"
            base = OUT / f"export-{family}"
            csv_path, header_path = Path(f"{base}.csv"), Path(f"{base}.header.json")
            label = ",".join(f"{k}={v!r}" for k, v in self.labels[family].items())
            args = ["eval", "--family", family, "--label", label,
                    "--grid", f"x:{axis},y:{axis},z:{axis}", "--out", str(base)]
            spans = self.spans_path(session, rep, family) if traced else None
            csv_path.unlink(missing_ok=True)
            os.mkfifo(csv_path)
            try:
                with FifoReader(csv_path) as reader:
                    argv = cli_argv(args, traced, self.name, rep, spans)
                    child = run_child(self.launcher, argv, "export")
                data = reader.data
                ok, why = self.check_export(child, family, half, header_path, data)
                nbytes = len(data) + (header_path.stat().st_size if header_path.exists() else 0)
            finally:
                csv_path.unlink(missing_ok=True)
                header_path.unlink(missing_ok=True)
            session.check(ok, f"export rep {rep} {family}: {why}")
            grid_s.append(child.seconds)
            rss = max(rss, child.rss_mb)
            session.part("export_s", child.seconds)
            if traced:
                extra = session.extra.setdefault(rep, {"cli.eval.bytes": 0})
                extra["cli.eval.bytes"] += nbytes
        session.wall.extend(grid_s)
        session.rss.append(rss)

    def check_export(self, child, family, half, header_path, data):
        if child.code != 0:
            return False, f"exit code {child.code}: {child.stderr[-500:]}"
        if "under-resolved" in child.stderr:
            return False, "sample_grid warned that the grid is under-resolved"
        header = json.loads(header_path.read_text())
        rows = int(np.prod([ax[2] for ax in header["axes"].values()]))
        first, _, body = data.partition(b"\n")
        if first.decode().split(",") != header["columns"]:
            return False, f"CSV header {first[:200]!r} differs from the declared columns"
        parsed = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        declared = (rows, len(header["columns"]))
        if parsed.shape != declared:
            return False, f"CSV shape {parsed.shape}, header declares {declared}"
        expected = self._expected_body(family, half)
        if not np.array_equal(parsed, expected):
            bad = int(np.count_nonzero(parsed != expected))
            return False, f"{bad} CSV values differ from in-process sample_grid"
        return True, ""


class FifoReader:
    """Collects what a child writes to a FIFO, in a thread, so that the
    exported CSV never touches the disk.  numpy.savetxt opens its file twice
    (create, then write), so the reader reopens after each end of file until
    the child has exited."""

    def __init__(self, path):
        self.path = path
        self.chunks = []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._drain, daemon=True)

    def _drain(self):
        while True:
            with open(self.path, "rb") as fh:      # blocks until a writer opens
                data = fh.read()
            if data:
                self.chunks.append(data)
            elif self.done.is_set():
                return

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        # release a reader blocked in open(): connect and close a writer
        self.done.set()
        while self.thread.is_alive():
            try:
                os.close(os.open(self.path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError as err:
                if err.errno != errno.ENXIO:    # no reader waiting yet
                    raise
            self.thread.join(0.01)
        return False

    @property
    def data(self):
        return b"".join(self.chunks)


class Field(Workload):
    """In-process sampling; the worker runs its own passes."""
    name = "field"

    def session(self, seconds, traced):
        result_path = OUT / "field-result.json"
        argv = [PY, str(HERE / "field_worker.py"), str(self.seed), repr(seconds),
                str(result_path)]
        if traced:
            argv.append(str(OUT / "spans"))
        child = run_child(self.launcher, argv, "field")
        if child.code != 0:
            raise RuntimeError(f"field worker failed ({child.code}):\n{child.stderr}")
        res = json.loads(result_path.read_text())
        result_path.unlink()
        session = Session(rss=[res["rss_mb"]], attempted=res["attempted"],
                          failed=res["failed"], failures=res["failures"],
                          warmup_s=res["warmup_s"])
        for rep, p in enumerate(res["passes"]):
            session.wall.append(p["wall_s"])
            fam_s, fam_points = {}, {}
            for kind, secs in p["batch_s"].items():
                points = p["batch_points"][kind]
                session.part(f"{kind}_mpts_s", points / secs / 1e6)
                fam = kind.split("_")[0]
                fam_s[fam] = fam_s.get(fam, 0.0) + secs
                fam_points[fam] = fam_points.get(fam, 0) + points
            for fam, secs in fam_s.items():
                session.part(f"{fam}_mpts_s", fam_points[fam] / secs / 1e6)
            if traced:
                session.spans[rep] = [OUT / "spans" / f"field-{rep}.json"]
        return session


WORKLOADS = {w.name: w for w in (Validate, Field, Gram, Export)}


