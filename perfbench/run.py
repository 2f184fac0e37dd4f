"""photonmodes benchmark: four workloads, end-to-end metrics untraced and
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload {validate,field,gram,export,all} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout (the directory holding `src/`).
Every workload process runs with BLAS/OpenMP threads pinned to 1, one at a
time; the CLI workloads run as `python -m photonmodes.cli` with `src` on
PYTHONPATH, in a fresh interpreter per command, and their peak RSS is read
from that child alone (os.wait4, through perfbench/launcher.py, which is
started before this process imports numpy).  Scratch files live in
`.perfbench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with --trace 0, its `per_layer` metrics with --trace 1.  The
line before it holds provenance and the workload's own named metrics.  The
exit code is 0 only when every correctness check passed.  `--workload all`
runs the four workloads in turn, each printing its own two lines.
perfbench/design.json records why each workload exists and which layer
metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from launcher import THREAD_ENV, Launcher

WORKLOADS = ("validate", "field", "gram", "export")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(session):
    """Median over traced repetitions of each per-repetition layer value;
    ratios are taken of the repetition's sums."""
    from tracer import aggregate

    per_rep = []
    for rep, paths in session.spans.items():
        totals, orders = dict(session.extra.get(rep, {})), set()
        for path in paths:
            values, file_orders = aggregate(json.loads(path.read_text()))
            for k, v in values.items():
                totals[k] = totals.get(k, 0) + v
            orders |= file_orders
        calls = totals.get("inner_product.leggauss.calls", 0)
        totals["inner_product.leggauss.distinct"] = len(orders)
        totals["inner_product.leggauss.reuse_frac"] = len(orders) / calls if calls else 0.0
        inner_calls = totals.get("inner_product.inner.calls", 0)
        totals["inner_product.sph_evals_per_inner"] = (
            totals.get("inner_product.sph_evals_under_inner", 0) / inner_calls
            if inner_calls else 0.0)
        if "cli.eval.self_s" in totals:
            totals["cli.eval.write_s"] = totals["cli.eval.self_s"]
            totals["cli.eval.write_mb_s"] = (
                totals.get("cli.eval.bytes", 0) / 1e6 / totals["cli.eval.self_s"])
        per_rep.append(totals)
    names = set().union(*per_rep) if per_rep else set()
    return {k: statistics.median(r.get(k, 0) for r in per_rep) for k in names}


def check_layers(workload, values, design):
    """Every layer metric assigned to this workload must have seen work."""
    missing = []
    for row in design["layers"]:
        if workload in row["workloads"]:
            missing += [m for m in row["metrics"]
                        if not m.endswith(".errors") and not values.get(m, 0) > 0]
    return missing


def provenance(seed, workload):
    import numpy as np
    from workloads import ROOT, SRC

    def git_sha():
        if not (ROOT / ".git").exists():
            return None
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "photonmodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha(), "src_sha256": digest.hexdigest(),
            "threads": THREAD_ENV}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "photonmodes" / "__init__.py").is_file():
        print(f"no photonmodes sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)   # this process's own checks, too
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    with Launcher() as launcher:    # before numpy is imported: see launcher.py
        return max(run(args, name, launcher) for name in names)


def run(args, name, launcher):
    import workloads as wl

    sys.path.insert(0, str(wl.SRC))    # the checks import photonmodes in this process
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    design = json.loads((wl.HERE / "design.json").read_text())
    (wl.OUT / "spans").mkdir(parents=True, exist_ok=True)

    workload = wl.WORKLOADS[name](args.seed, launcher)
    setup_s = wl.measure_setup(launcher)
    plain = workload.session(args.seconds, traced=False)
    named = {k: statistics.median(v) for k, v in plain.parts.items()}
    e2e = {"wall_s": statistics.median(plain.wall),
           "setup_s": setup_s + plain.warmup_s,
           "peak_rss_mb": statistics.median(plain.rss)}
    attempted, failed, failures = plain.attempted, plain.failed, list(plain.failures)

    if args.trace:
        traced = workload.session(args.seconds, traced=True)
        attempted += traced.attempted
        failed += traced.failed
        failures += traced.failures
        values = layer_metrics(traced)
        values.update(named)
        for suites in plain.extra.values():
            values.update(suites)
        values["fail_frac"] = failed / attempted
        values["trace.overhead_s"] = statistics.median(traced.wall) - e2e["wall_s"]
        values["trace.overhead_frac"] = values["trace.overhead_s"] / e2e["wall_s"]
        missing = check_layers(name, values, design)
        if missing:
            print(f"traced run recorded no work for: {', '.join(sorted(missing))}",
                  file=sys.stderr)
            return 3
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(e2e[m["name"]]), "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    named["fail_frac"] = failed / attempted
    report = {"provenance": provenance(args.seed, name),
              "workload_metrics": {k: {"value": v, "unit": units.get(k, "")}
                                   for k, v in named.items()},
              "failures": failures[:20]}
    for msg in failures[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
