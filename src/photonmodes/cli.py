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
rows written as one string, a JSON chunk one node block of sample_grid.
The CSV fields are the bytes of FMT % v, but their digits come from integer
arithmetic on whole arrays (a long double product per value, digit tables
of 4-byte words); FMT % v itself formats only the values that arithmetic
cannot settle, such as exact decimal ties.  Each axis value is formatted
once.

A label key the family does not take, or a key or grid axis given twice, is
a usage error: it is never ignored, nor copied into the provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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
_CSV_ROWS = 512   # CSV rows formatted and written per chunk


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


def _convert(kind, text, name):
    """kind(text) for the value of name, a key or grid axis: a text that does
    not convert is a usage error naming it, where Python's message would not."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {text!r}") from None


def _build_label(family, kv):
    if family not in LABEL_KEYS:
        raise ValueError(f"unknown family {family!r}")
    _check_keys(kv, LABEL_KEYS[family], f"{family} label")

    def value(key, kind=float, default=None):
        return _convert(kind, kv[key] if default is None else kv.get(key, default),
                        f"label key {key!r}")

    try:
        if family == "plane":
            return PlaneWaveLabel((value("px"), value("py"), value("pz")), value("s", int, 1))
        if family == "cylindrical":
            return CylindricalLabel(value("p0"), value("pz", float, 0.0),
                                    value("m", int, 0), value("s", int, 1))
        return SphericalLabel(value("p0"), value("l", int), value("m", int, 0),
                              value("s", int, 1))
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
            axes[name] = tuple(_convert(float, text, f"grid axis {name!r} {part}")
                               for part, text in (("min", lo), ("max", hi), ("n", n)))
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
    return TailSpec(**{k: v if k == "tail" else _convert(float, v, f"quadrature key {k!r}")
                       for k, v in kv.items()})


def _ascii_words(codes):
    """The uint32 words of an (..., 4) array of byte values, in the machine's
    byte order, so that an array of them viewed as bytes reads in order."""
    return np.ascontiguousarray(codes, dtype=np.uint8).view(np.uint32)[..., 0]


# A FMT field is at most 24 characters, "-d.dddddddddddddddde-ddd", plus its
# separator.  _Fields lays it out in _FIELD_WORDS words with NUL padding:
# [sign, d, ".", NUL] [dddd] [dddd] [dddd] [dddd] ["e", sign, d or NUL, d]
# [d, separator, NUL, NUL]; a non-finite value is its text in the first word.
_FIELD_WORDS = 7
_EXP_MIN = -330   # FMT exponents span -324 (5e-324) to 308


class _Fields:
    """FMT % v for every v of a float64 array, from whole-array integer
    arithmetic.  Its tables are built with each instance, not on import: the
    numpy code they touch would otherwise add 0.4 MB to the peak RSS of every
    command, which for eval falls inside sample_grid."""

    def __init__(self):
        self.digits4 = _ascii_words(np.stack(np.meshgrid(
            *[48 + np.arange(10, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)).ravel()
        self.lead = np.frombuffer("".join(f"{sign}{d}.\0" for sign in "\0-"
                                          for d in range(10)).encode(), dtype=np.uint32)
        exponents = np.arange(_EXP_MIN, 1 - _EXP_MIN)
        e = abs(exponents)
        self.exp_high = _ascii_words(np.stack([
            np.full_like(e, ord("e")), np.where(exponents < 0, ord("-"), ord("+")),
            np.where(e >= 100, 48 + e // 100, 0), 48 + e // 10 % 10], axis=1))
        self.exp_low = _ascii_words(np.stack([48 + e % 10] + [np.zeros_like(e)] * 3, axis=1))
        self.inf, self.neg_inf, self.nan = np.frombuffer(b"\0inf-inf\0nan", dtype=np.uint32)
        # 10**k for 0 <= k <= 27, each exact in a 64-bit long double mantissa
        # (5**27 < 2**63): built by *10, never rounded
        self.pow10 = np.cumprod(np.full(28, 10, dtype=np.longdouble)) / 10
        # how far the long double product |x| * 10**k (below 10**17) must be
        # from a rounding tie q + 1/2 for its side of the tie to be certain.
        # Where the product's spacing is at most 1/2 there, every q + 1/2 is
        # representable and rounding is monotone, so only a product equal to
        # q + 1/2 is ambiguous: the bound is 0.  Elsewhere the rounding
        # error is at most half of 10**17 eps; where long double is a plain
        # double that exceeds 1/2, and every value takes the % path
        if np.spacing(np.longdouble(1e17)) <= 0.5:
            self.round_bound = np.longdouble(0.0)
        else:
            self.round_bound = np.longdouble(1e17) * np.finfo(np.longdouble).eps

    def __call__(self, x):
        """The FMT fields of the float64 array x, as (len(x), _FIELD_WORDS)
        uint32 words without separators: the bytes of FMT % v for each v once
        the NUL bytes are dropped.

        The 17 digits of a value |x| in [1e-11, 1e17) are
        N = round(|x| * 10**k) with k = 16 - floor(log10|x|), from one long
        double product.  That N is taken only where the product is more than
        round_bound away from a rounding tie (with a 64-bit long double: is
        not itself a tie) and N has 17 digits; every other nonzero finite
        value (a tie, a misjudged exponent next to a power of ten, a value
        outside the range) takes its digits and exponent from FMT % v."""
        a = np.abs(x)
        finite = np.isfinite(a)
        nonzero = finite & (a != 0)
        k = 16 - np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.int64)
        fast = nonzero & (k >= 0) & (k <= 27)
        k[~fast] = 16
        y = np.where(fast, a, 1.0).astype(np.longdouble) * self.pow10[k]
        digits = y.astype(np.int64)    # floor: y > 0
        above_half = y - digits - 0.5
        fast &= (np.abs(above_half) > self.round_bound) & (digits >= 10 ** 16)
        digits += above_half > 0
        fast &= digits < 10 ** 17
        exponent = 16 - k
        digits[~nonzero] = 0
        exponent[~nonzero] = 0
        slow = np.flatnonzero(nonzero & ~fast)
        if len(slow):
            texts = [(FMT % v).split("e") for v in x[slow].tolist()]
            digits[slow] = [abs(int(mantissa.replace(".", ""))) for mantissa, _ in texts]
            exponent[slow] = [int(exp) for _, exp in texts]
        words = np.empty((len(x), _FIELD_WORDS), dtype=np.uint32)
        for col in (4, 3, 2, 1):
            digits, group = np.divmod(digits, 10000)
            words[:, col] = self.digits4[group]
        words[:, 0] = self.lead[digits + 10 * np.signbit(x)]
        exponent -= _EXP_MIN
        words[:, 5] = self.exp_high[exponent]
        words[:, 6] = self.exp_low[exponent]
        special = np.flatnonzero(~finite)
        if len(special):
            v = x[special]
            words[special] = 0
            words[special, 0] = np.where(np.isnan(v), self.nan,
                                         np.where(v > 0, self.inf, self.neg_inf))
        return words


def _write_csv_body(fh, grid):
    """Write the CSV rows of a FieldGrid to fh: the bytes of one
    np.savetxt(fh, rows, fmt=FMT, delimiter=",") of all of them.

    Every node's coordinate is an axis value, so each axis value is
    formatted once and the rows gather those fields by node index.  The
    Re/Im columns are formatted in chunks of _CSV_ROWS rows, and each chunk,
    its NUL padding dropped, is one write."""
    fields = _Fields()
    separators = np.frombuffer(b"\0,\0\0" * 11 + b"\0\n\0\0", dtype=np.uint32)
    axes = list(grid.axes.values())
    axis_fields = [fields(ax) for ax in axes]
    shape = [len(ax) for ax in axes]
    values = grid.values.reshape(-1, 4).view(float)   # re_A0, im_A0, ..., im_A3
    for start in range(0, len(values), _CSV_ROWS):
        chunk = values[start:start + _CSV_ROWS]
        rows = np.empty((len(chunk), 12, _FIELD_WORDS), dtype=np.uint32)
        nodes = np.unravel_index(np.arange(start, start + len(chunk)), shape)
        for col, (words, node) in enumerate(zip(axis_fields, nodes)):
            rows[:, col] = words[node]
        rows[:, 4:] = fields(chunk.ravel()).reshape(-1, 8, _FIELD_WORDS)
        rows[:, :, 6] |= separators
        fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


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
    if args.suite == "all":
        names = list(validation.SUITES)
        reports = validation.run_all(seed=args.seed, n_labels=args.n_labels)
    else:   # run_suite rejects an unknown name, listing the suites
        names = [args.suite]
        reports = validation.run_suite(args.suite, seed=args.seed, n_labels=args.n_labels)
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
    fixed = {"p0": _convert(float, kv.get("p0", 1.0), "label key 'p0'")}
    if args.family == "spherical":
        ranges = {"l_max": _convert(int, kv.get("lmax", 3), "label key 'lmax'")}
    else:
        fixed["pz"] = _convert(float, kv.get("pz", 0.0), "label key 'pz'")
        ranges = {"m_max": _convert(int, kv.get("mmax", 3), "label key 'mmax'")}
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
