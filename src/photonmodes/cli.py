"""Command-line interface: evaluate modes to files, run validation suites,
compute overlap/Gram matrices.

Exit codes: 0 success (and all checks passed), 1 runtime failure or failed
checks, 2 usage error (bad flags, unknown suite, invalid label).

Output formats: field grids are written as a JSON header plus a CSV body
(one row per node: t, x, y, z then Re/Im of the four covector components,
17 significant digits, row-major over the axes as declared); reports and
Gram matrices are JSON with a provenance block (tool, python and numpy
versions, seed, config hash).  eval streams the body, so its memory is the
sampled values plus one chunk of formatted rows: a CSV chunk is _CSV_ROWS
rows formatted into one string (each axis value formatted once), a JSON
chunk one node block of sample_grid.

A label key the family does not take, or a key or grid axis given twice, is
a usage error: it is never ignored, nor copied into the provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys

import numpy as np

from . import __version__
from .errors import InvalidLabelError
from .modes import (PlaneWaveLabel, CylindricalLabel, SphericalLabel,
                    GridSpec, make_mode, sample_grid, _grid_blocks)
from .inner_product import TailSpec, discrete_orthonormality
from . import validation

FMT = "%.16e"   # 17 significant digits, lowercase scientific
_CSV_ROWS = 1024   # CSV rows formatted and written per chunk


def _provenance(seed, config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "tool": "photonmodes",
        "version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "seed": seed,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
    }


def _parse_kv(pairs):
    out = {}
    for item in pairs or []:
        for chunk in item.split(","):
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(f"expected key=value, got {chunk!r}")
            k, v = (part.strip() for part in chunk.split("=", 1))
            if k in out:
                raise ValueError(f"key {k!r} given twice")
            out[k] = v
    return out


LABEL_KEYS = {"plane": ("px", "py", "pz", "s"), "cylindrical": ("p0", "pz", "m", "s"),
              "spherical": ("p0", "l", "m", "s")}
OVERLAP_KEYS = {"cylindrical": ("p0", "pz", "mmax"), "spherical": ("p0", "lmax")}


def _check_keys(kv, allowed, what):
    """Reject a key the request does not take, naming it: an ignored key
    would be a silent no-op, and eval would copy it into the provenance."""
    unknown = [k for k in kv if k not in allowed]
    if unknown:
        raise ValueError(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                         f"it takes {', '.join(allowed)}")


def _build_label(family, kv):
    if family not in LABEL_KEYS:
        raise ValueError(f"unknown family {family!r}")
    _check_keys(kv, LABEL_KEYS[family], f"{family} label")
    try:
        if family == "plane":
            return PlaneWaveLabel((float(kv["px"]), float(kv["py"]), float(kv["pz"])),
                                  int(kv.get("s", 1)))
        if family == "cylindrical":
            return CylindricalLabel(float(kv["p0"]), float(kv.get("pz", 0.0)),
                                    int(kv.get("m", 0)), int(kv.get("s", 1)))
        return SphericalLabel(float(kv["p0"]), int(kv["l"]),
                              int(kv.get("m", 0)), int(kv.get("s", 1)))
    except KeyError as exc:
        raise ValueError(f"missing label key {exc} for family {family!r}") from exc


def _parse_grid(items):
    axes = {}
    for item in items or []:
        for chunk in item.split(","):
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) != 4:
                raise ValueError(f"grid axis must be name:min:max:n, got {chunk!r}")
            name, lo, hi, n = parts
            if name not in ("t", "x", "y", "z"):
                raise ValueError(f"unknown grid axis {name!r}")
            if name in axes:
                raise ValueError(f"grid axis {name!r} given twice")
            # n as a float: GridSpec names the axis of a non-integral count
            axes[name] = (float(lo), float(hi), float(n))
    defaults = {"t": (0.0, 0.0, 1), "x": (-1.0, 1.0, 8), "y": (-1.0, 1.0, 8),
                "z": (-1.0, 1.0, 8)}
    defaults.update(axes)
    return GridSpec(**defaults)


def _parse_quad(items):
    """The Gram's TailSpec from --quad: its fields are the keys, and a key
    left out keeps its default."""
    kv = _parse_kv(items)
    _check_keys(kv, [f.name for f in dataclasses.fields(TailSpec)], "quadrature")
    # tail_rounds as a float too: TailSpec rejects a non-integral one by name
    # and stores an integral one as int
    return TailSpec(**{k: v if k == "tail" else float(v) for k, v in kv.items()})


def _write_csv_body(fh, grid):
    """Write the CSV rows of a FieldGrid to fh: the bytes of one
    np.savetxt(fh, rows, fmt=FMT, delimiter=",") of all of them.

    Every node's coordinate is an axis value, so each axis value is
    formatted once and the t,x,y,z prefixes are joined from those strings.
    The Re/Im columns go in chunks of _CSV_ROWS rows through one % of the
    repeated row format, and each chunk is one write."""
    prefixes = map("".join, itertools.product(
        *([FMT % v + "," for v in ax.tolist()] for ax in grid.axes.values())))
    values = grid.values.reshape(-1, 4).view(float)   # re_A0, im_A0, ..., im_A3
    row_fmt = "%s" + ",".join([FMT] * 8) + "\n"
    for start in range(0, len(values), _CSV_ROWS):
        chunk = values[start:start + _CSV_ROWS]
        n = len(chunk)
        args = [None] * (9 * n)
        args[0::9] = itertools.islice(prefixes, n)
        flat = chunk.ravel().tolist()
        for k in range(8):
            args[k + 1::9] = flat[k::8]
        fh.write((row_fmt * n) % tuple(args))


def _body_blocks(grid):
    """The output rows of a FieldGrid, in the blocks sample_grid evaluated:
    per block a (nodes, 12) array of t, x, y, z, re_A0, im_A0, ..., im_A3."""
    vals = grid.values.reshape(-1, 4)
    for block, coords in _grid_blocks(grid.axes):
        body = np.empty((block.stop - block.start, 12))
        body[:, :4] = np.stack(coords, axis=1)
        body[:, 4::2] = vals[block].real
        body[:, 5::2] = vals[block].imag
        yield body


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args):
    """Sample one mode on a grid; write the header JSON and the CSV or JSON
    body.  sample_grid is called once for the whole grid; the body is then
    formatted and written to one open file a chunk at a time (_CSV_ROWS rows
    for CSV, one node block of sample_grid for JSON), with the bytes of a
    single np.savetxt (CSV) or json.dump (JSON) of all rows.  So memory is
    the sampled values plus one chunk of formatted rows."""
    kv = _parse_kv(args.label)
    mode = make_mode(_build_label(args.family, kv))
    spec = _parse_grid(args.grid)
    grid = sample_grid(mode, spec)
    header = {
        "chart": "lorentz",
        "family": args.family,
        "label": kv,
        "axes": {k: [float(v[0]), float(v[-1]), len(v)] for k, v in grid.axes.items()},
        "columns": ["t", "x", "y", "z",
                    "re_A0", "im_A0", "re_A1", "im_A1",
                    "re_A2", "im_A2", "re_A3", "im_A3"],
        "ordering": "row-major over (t, x, y, z)",
        "provenance": _provenance(args.seed, {"label": kv, "grid": repr(spec)}),
    }
    base = args.out
    with open(base + ".header.json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(f"{base}.{args.format}", "w") as fh:
        if args.format == "csv":
            fh.write(",".join(header["columns"]) + "\n")
            _write_csv_body(fh, grid)
        else:
            # json.dump's bytes with its default separators, streamed;
            # covectors as JSON arrays of [re, im] pairs per component
            fh.write('{"header": ' + json.dumps(header) + ', "rows": [')
            sep = ""
            for body in _body_blocks(grid):
                rows = [{"coords": row[:4].tolist(), "A": row[4:].reshape(4, 2).tolist()}
                        for row in body]
                fh.write(sep + json.dumps(rows)[1:-1])
                sep = ", "
            fh.write("]}\n")
    print(f"wrote {base}.header.json and {base}.{args.format} "
          f"({grid.values.size // 4} rows)")
    return 0


def cmd_validate(args):
    names = list(validation.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in validation.SUITES:
            print(f"unknown suite {name!r}; available: "
                  f"{', '.join(validation.SUITES)}, all", file=sys.stderr)
            return 2
    reports = []
    for name in names:
        reports.extend(validation.run_suite(name, seed=args.seed,
                                            n_labels=args.n_labels))
    payload = {
        "provenance": _provenance(args.seed, {"suites": names, "n_labels": args.n_labels}),
        "reports": [rep.to_dict() for rep in reports],
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    width = max(len(rep.name) for rep in reports)
    print(f"{'check'.ljust(width)}  {'worst margin':>14}  {'time':>7}  status")
    all_pass = True
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        all_pass &= rep.passed
        print(f"{rep.name.ljust(width)}  {rep.worst_margin():14.3e}  "
              f"{rep.runtime:6.1f}s  {status}")
    print(f"overall: {'pass' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def cmd_overlap(args):
    kv = _parse_kv(args.label)
    spec = _parse_quad(args.quad)
    if args.family not in OVERLAP_KEYS:
        raise ValueError("overlap supports the cylindrical and spherical families")
    _check_keys(kv, OVERLAP_KEYS[args.family], f"{args.family} overlap label")
    if args.family == "spherical":
        fixed = {"p0": float(kv.get("p0", 1.0))}
        ranges = {"l_max": int(kv.get("lmax", 3))}
    else:
        fixed = {"p0": float(kv.get("p0", 1.0)), "pz": float(kv.get("pz", 0.0))}
        ranges = {"m_max": int(kv.get("mmax", 3))}
    gram = discrete_orthonormality(args.family, fixed, ranges, spec)
    entries = [[None if not np.isfinite(v) else v
                for v in row] for row in np.real(gram.matrix).tolist()]
    payload = {
        "provenance": _provenance(args.seed, {
            "family": args.family, "fixed": fixed, "ranges": ranges,
            "quad": dataclasses.asdict(spec)}),
        "family": args.family,
        "fixed": fixed,
        "labels": [list(lb) for lb in gram.labels],
        "matrix_real": entries,
        "max_offdiag": gram.max_offdiag,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"{len(gram.labels)}x{len(gram.labels)} Gram matrix, "
          f"max off-diagonal {gram.max_offdiag:.3e}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="photonmodes",
                                 description="photon mode bases and their checks")
    ap.add_argument("--seed", type=int, default=20240801)
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="sample a mode on a grid and write it out")
    p_eval.add_argument("--family", required=True,
                        choices=("plane", "cylindrical", "spherical"))
    p_eval.add_argument("--label", action="append", required=True,
                        help="key=value list, e.g. p0=1.0,l=1,m=0,s=1")
    p_eval.add_argument("--grid", action="append",
                        help="axis:min:max:n, e.g. x:-2:2:32")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_val = sub.add_parser("validate", help="run verification suites")
    p_val.add_argument("suite", nargs="?", default="all",
                       help=f"one of {', '.join(validation.SUITES)}, or all")
    p_val.add_argument("--n-labels", type=int, default=20)
    p_val.add_argument("--out")
    p_val.set_defaults(func=cmd_validate)

    p_ov = sub.add_parser("overlap", help="discrete-sector Gram matrix")
    p_ov.add_argument("--family", required=True,
                      choices=("cylindrical", "spherical"))
    p_ov.add_argument("--label", action="append",
                      help="p0=...,pz=...,lmax=...,mmax=...")
    p_ov.add_argument("--quad", action="append",
                      help="tail=averaged|damped,tail_r0=...,tail_rounds=...")
    p_ov.add_argument("--out")
    p_ov.set_defaults(func=cmd_overlap)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (InvalidLabelError, ValueError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
