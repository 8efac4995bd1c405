"""Span tracing of polypart from outside the package.

`Tracer.install()` replaces every public function of each polypart module,
plus the private solver helpers that the benchmark treats as layers, with a
timing wrapper. A function bound under the same name in several modules (for
example `eval_poly_many`, imported into cells, solver, mollifier and
varieties) is replaced in every module that binds it, so no call path
escapes. `MonomialBasis.__init__` and `XsPoint.__post_init__` are wrapped on
the class itself. `Tracer.uninstall()` restores every original binding.

Each wrapped call records a span (id, parent id, name, request id, start,
end) in memory, its self time (span time minus the time of its child spans),
and per-call work counts.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = (
    "polyalg",
    "varieties",
    "cells",
    "spectrum",
    "mollifier",
    "sphereprod",
    "solver",
    "equivariant",
    "cli",
)
PRIVATE_LAYER_FUNCS = {"solver": ("_polish", "_smooth_descent", "_monomial_matrix", "_step_block")}
CLASS_METHODS = (("polyalg", "MonomialBasis", "__init__"), ("sphereprod", "XsPoint", "__post_init__"))

# bindings the tracer must reach; a missed one would hide that module's calls
REQUIRED_BINDINGS = {
    "eval_poly_many": ("cells", "solver", "mollifier", "varieties"),
    "to_polys": ("solver",),
    "spectral_power": ("solver",),
    "point_counts": ("solver",),
    "sign_vector_many": ("solver",),
    "restrict_to_line_batch": ("cells",),
    "sample_in_ball": ("cells",),
    "tube_sample": ("mollifier",),
    "wht_table": ("mollifier",),
}


def _rows(arg_index):
    def work(args, kwargs, out):
        return {"rows": len(args[arg_index])}

    return work


# work counts per span name, computed from the call's arguments and result
WORK = {
    "polyalg.eval_poly_many": _rows(1),
    "polyalg.restrict_to_line_batch": lambda a, k, out: {"lines": len(a[1])},
    "cells.isolate_real_roots_many": lambda a, k, out: {
        "rows": len(a[0]),
        "roots": sum(len(r) for r in out),
    },
    "cells.sign_vector_many": _rows(1),
    "spectrum.wht_table": lambda a, k, out: {"entries": len(out)},
    "varieties.tube_sample": lambda a, k, out: {"points": len(out.points)},
    "varieties.sample_in_ball": lambda a, k, out: {"points": len(out)},
}


class _Frame:
    __slots__ = ("sid", "child")

    def __init__(self, sid):
        self.sid = sid
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.work = Counter()
        self.errors = Counter()
        self.request = None
        self.keep_spans = True  # False: aggregate only, drop the span rows
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _record(self, name, fn, work, args, kwargs):
        stack = self._stack
        parent = stack[-1].sid if stack else None
        frame = _Frame(self._next_id)
        self._next_id += 1
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as err:
            self.errors[f"{name}:{type(err).__name__}"] += 1
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            self.self_s[name] += dur - frame.child
            if stack:
                stack[-1].child += dur
            self.calls[name] += 1
            if self.keep_spans:
                self.spans.append((frame.sid, parent, name, self.request, t0, t1))
        if work is not None:
            for key, k in work(args, kwargs, out).items():
                self.work[f"{name}.{key}"] += k
        return out

    def wrap(self, name, fn):
        work = WORK.get(name)
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return record(name, fn, work, args, kwargs)

        wrapper.perfbench_span = name
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, modules):
        """Wrap every layer function in every module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_LAYER_FUNCS.get(layer, ()):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        try:
            for layer in LAYERS:
                mod = modules[layer]
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(mod, attr, obj, hit[1])
            for layer, cls_name, meth in CLASS_METHODS:
                cls = getattr(modules[layer], cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap(f"{layer}.{cls_name}", orig))
            self._check_required(modules)
        except BaseException:
            self.uninstall()
            raise

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def _check_required(self, modules):
        for func, layers in REQUIRED_BINDINGS.items():
            for layer in layers:
                bound = getattr(modules[layer], func)
                if getattr(bound, "perfbench_span", None) is None:
                    raise RuntimeError(f"{layer}.{func} escaped the tracer")

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @staticmethod
    def leftover_wrappers(modules):
        """Names still bound to a tracer wrapper (empty after uninstall)."""
        out = []
        for layer in LAYERS:
            for attr, obj in vars(modules[layer]).items():
                if getattr(obj, "perfbench_span", None) is not None:
                    out.append(f"{layer}.{attr}")
        for layer, cls_name, meth in CLASS_METHODS:
            if hasattr(getattr(modules[layer], cls_name).__dict__[meth], "perfbench_span"):
                out.append(f"{layer}.{cls_name}.{meth}")
        return out

    # -- summaries ---------------------------------------------------------

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_s.items():
            out[name.split(".", 1)[0]] += t
        return out

    def summary(self):
        names = sorted(self.calls, key=lambda n: -self.self_s[n])
        return {
            "functions": {
                n: {"calls": self.calls[n], "self_s": self.self_s[n]} for n in names
            },
            "work": dict(sorted(self.work.items())),
            "errors": dict(sorted(self.errors.items())),
            "layers_self_s": self.layer_self_s(),
            "spans": sum(self.calls.values()),
            "span_rows_kept": len(self.spans),
        }

    def write_spans(self, path):
        """Spans as gzipped JSON rows [id, parent, name, request, start, end]."""
        with gzip.open(path, "wt") as fh:
            json.dump([list(s) for s in self.spans], fh, separators=(",", ":"))
