"""Span recorder for photonmodes, installed from outside the package.

Every public function the benchmark measures is replaced, at every module
attribute that refers to it, by a wrapper that records one span: name,
parent span, start, end, points handled and whether a package exception
escaped.  The package binds names at import (``from .harmonics import
bessel_j``), so patching the defining module alone would miss most calls;
`Tracer.install` therefore rebinds each function in every ``photonmodes``
module that holds it.  Mode methods are patched on their classes and
``leggauss`` on ``numpy.polynomial.legendre``, where the code looks them up
at call time.

Spans stay in memory until `Tracer.dump` writes them out; `aggregate` turns
one span file into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(*arrays):
    return int(np.broadcast(*arrays).size)


def _coords_points(args, kwargs):
    # (self, t, x, y, z) of a mode method
    return _size(*(_arg(args, kwargs, i, n) for i, n in enumerate("txyz", start=1)))


def _grid_points(args, kwargs):
    spec = _arg(args, kwargs, 1, "spec")
    return int(spec.t[2]) * int(spec.x[2]) * int(spec.y[2]) * int(spec.z[2])


def _slice_points(args, kwargs):
    """Slice-rule nodes of inner(); return_error adds the doubled rule."""
    spec = _arg(args, kwargs, 2, "spec")
    nodes = (spec.n_r * spec.n_theta * spec.n_phi if spec.chart == "spherical"
             else spec.n_box ** 3)
    doubled = args[3] if len(args) > 3 else kwargs.get("return_error", False)
    return 9 * nodes if doubled else nodes


def _partial_points(args, kwargs):
    return _size(*_arg(args, kwargs, 1, "coords"))


#: (module, attribute, span name, points counter or None)
FUNCTIONS = (
    ("harmonics", "bessel_j", "harmonics.bessel_j",
     lambda a, k: int(np.size(_arg(a, k, 1, "x")))),
    ("harmonics", "bessel_j_int_orders", "harmonics.bessel_j_int_orders",
     lambda a, k: int(np.size(_arg(a, k, 1, "x")))),
    ("harmonics", "sph_harmonic_values", "harmonics.sph_harmonic_values",
     lambda a, k: _size(_arg(a, k, 3, "theta"), _arg(a, k, 4, "phi"))),
    ("modes", "sph_radial_profiles", "modes.sph_radial_profiles",
     lambda a, k: int(np.size(_arg(a, k, 1, "r")))),
    ("modes", "sample_grid", "modes.sample_grid", _grid_points),
    ("inner_product", "inner", "inner_product.inner", _slice_points),
    ("inner_product", "inner_field_strength_form",
     "inner_product.inner_field_strength_form", None),
    ("inner_product", "discrete_orthonormality",
     "inner_product.discrete_orthonormality", None),   # counted from its result
    ("operators", "lie_derivative", "operators.lie_derivative", None),
    ("fdiff", "partial", "fdiff.partial", _partial_points),
    ("cli", "cmd_eval", "cli.eval", None),
)

#: span name -> count taken from the returned value
RESULT_COUNTS = {
    "inner_product.discrete_orthonormality": lambda gram: len(gram.labels),
}

#: (class in photonmodes.modes, family tag)
MODE_CLASSES = (("PlaneWaveMode", "plane"), ("CylindricalMode", "cyl"),
                ("SphericalMode", "sph"))

# span record fields
NAME, PARENT, START, END, POINTS, ERROR = range(6)


class Tracer:
    """Holds the spans of one repetition and the patches that produce them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []          # (owner, attribute, original)
        self.leggauss_calls = 0
        self.leggauss_orders = set()
        self._errors = ()

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, points=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        from_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   points(args, kwargs) if points else 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                if from_result:
                    rec[POINTS] = from_result(result)
                return result
            except self._errors:
                rec[ERROR] = 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
        return wrapper

    def _wrap_oscillatory(self, fn):
        """oscillatory_integral, counting the points its integrand is fed."""
        def counted(f, *args, **kwargs):
            rec = self.spans[self._stack[-1]]     # the span _wrap just opened

            def f_counted(r):
                rec[POINTS] += int(np.size(r))
                return f(r)
            return fn(f_counted, *args, **kwargs)
        counted.__name__ = fn.__name__
        return self._wrap("inner_product.oscillatory_integral", counted)

    def _wrap_leggauss(self, fn):
        @functools.wraps(fn)
        def wrapper(deg):
            self.leggauss_calls += 1
            self.leggauss_orders.add(int(deg))
            return fn(deg)
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "photonmodes"
                                   or modname.startswith("photonmodes.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Patch every measured boundary; importing photonmodes.cli first
        makes its import sites visible too."""
        import numpy.polynomial.legendre as legendre
        import photonmodes.cli  # noqa: F401  (binds the CLI's import sites)
        from photonmodes import errors, modes

        self._errors = tuple(
            v for v in vars(errors).values()
            if isinstance(v, type) and issubclass(v, Exception)
            and v.__module__ == errors.__name__)
        for modname, attr, span, points in FUNCTIONS:
            original = getattr(sys.modules[f"photonmodes.{modname}"], attr)
            self._rebind_everywhere(original, self._wrap(span, original, points))
        ip = sys.modules["photonmodes.inner_product"]
        self._rebind_everywhere(ip.oscillatory_integral,
                                self._wrap_oscillatory(ip.oscillatory_integral))
        for cls_name, tag in MODE_CLASSES:
            cls = getattr(modes, cls_name)
            for meth in ("evaluate", "gradient"):
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"modes.{tag}.{meth}", original,
                                              _coords_points))
        self._patches.append((legendre, "leggauss", legendre.leggauss))
        legendre.leggauss = self._wrap_leggauss(legendre.leggauss)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path, workload, rep):
        """Write the spans of this repetition; every span shares the file's
        workload and repetition."""
        payload = {
            "workload": workload,
            "rep": rep,
            "fields": ["name", "parent", "start", "end", "points", "error"],
            "spans": self.spans,
            "leggauss_calls": self.leggauss_calls,
            "leggauss_orders": sorted(self.leggauss_orders),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def aggregate(payload):
    """Per-layer counts of one span file: per span name its calls, points,
    self time (duration minus the time its child spans cover) and package
    errors; also the leggauss orders seen, as a set."""
    spans = payload["spans"]
    child_time = [0.0] * len(spans)
    under_inner = [False] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
            under_inner[i] = (under_inner[s[PARENT]]
                              or spans[s[PARENT]][NAME] == "inner_product.inner")
    out = {"inner_product.leggauss.calls": payload["leggauss_calls"],
           "inner_product.sph_evals_under_inner": sum(
               1 for i, s in enumerate(spans)
               if under_inner[i] and s[NAME] == "modes.sph.evaluate")}
    for i, s in enumerate(spans):
        name = s[NAME]
        for key, value in (("calls", 1), ("points", s[POINTS]),
                           ("self_s", s[END] - s[START] - child_time[i]),
                           ("errors", s[ERROR])):
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    for name, key in (("inner_product.oscillatory_integral", "integrand_points"),
                      ("inner_product.discrete_orthonormality", "labels")):
        if f"{name}.points" in out:
            out[f"{name}.{key}"] = out.pop(f"{name}.points")
    return out, set(payload["leggauss_orders"])
