"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` wraps every public function of the traced modules, the
methods named in ``METHODS``, and every module attribute that re-binds one
of them by import (``forms.e_xi_lifts``, ``hermitian.integrate_unit_square``,
``reconstruction.chain_through`` and so on), so calls made inside the
program are seen as well as calls made by the benchmark.  ``uninstall``
puts the originals back.

Each call becomes a span (op index, span id, parent id, name, start, end),
kept in memory and written out by ``write``.  Self time is a span's time
minus the time of its child spans; calls run in one thread, so children
nest and never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("busemann", "chains", "forms", "hermitian", "quadrature", "reconstruction")

# (module, class, method, span name)
METHODS = (
    ("busemann", "VisualMeasure", "sample_lifts", "busemann.sample_lifts"),
    ("busemann", "VisualMeasure", "sample_points", "busemann.sample_points"),
    ("forms", "BoundaryCocycle", "__call__", "forms.BoundaryCocycle.call"),
    ("hermitian", "ProjPoint", "same_point_as", "hermitian.same_point_as"),
)

# span name -> (index of a callable argument, span name for its calls): the
# quadrature's integrand is a closure of ``hermitian``, so its time would
# otherwise count as the quadrature engine's own
CALLBACKS = {"quadrature.integrate_unit_square": (0, "hermitian.cone_integrand")}

# span name -> (counter name, function of the call's result giving the count)
COUNTS = {
    "busemann.sample_lifts": ("busemann.sample_lifts.points", lambda r: len(r)),
    "quadrature.integrate_unit_square": ("quadrature.panels", lambda r: r[2]),
    "reconstruction.chain_compatibility_check": (
        "reconstruction.cochain_triples",
        lambda r: r.cochain_triples,
    ),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1  # index of the op in flight; -1 outside the timed loop
        self._stack = []  # [span id, time covered by children] per open span
        self._patched = []  # (owner, attribute, original)
        self._names = {}  # every span name (an ordered set), so layers never called report 0
        self.reset()

    def reset(self):
        """Forget the aggregates (spans already recorded are kept)."""
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.root_s = 0.0  # time covered by spans without a parent

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        callback = CALLBACKS.get(name)
        self._names[name] = None
        if callback is not None:
            self._names[callback[1]] = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callback is not None:
                i, cb_name = callback
                args = args[:i] + (self._wrap(cb_name, args[i]),) + args[i + 1 :]
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.root_s += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                self.spans[span_id] = (self.op, span_id, parent, name, t0, t1)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self):
        wrappers = {}  # id(original) -> wrapper
        mods = {m: importlib.import_module(f"chaingeo.{m}") for m in MODULES}
        for m, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{m}.{attr}", fn)
        for m, cls, meth, name in METHODS:
            owner = getattr(mods[m], cls)
            fn = owner.__dict__[meth]
            self._patched.append((owner, meth, fn))
            setattr(owner, meth, self._wrap(name, fn))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self, wall_s):
        """Per-layer aggregates since the last reset, over ``wall_s`` seconds."""
        out = {}
        for name in self._names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for counter, _ in COUNTS.values():
            out[counter] = self.counts[counter]
        evals = self.calls["forms.delta_form_eval"]
        out["forms.samples_per_eval"] = out["busemann.sample_lifts.points"] / evals if evals else 0.0
        quads = self.calls["quadrature.integrate_unit_square"]
        out["quadrature.panels_per_call"] = out["quadrature.panels"] / quads if quads else 0.0
        for m in MODULES:
            out[f"{m}.self_s"] = sum(v for k, v in self.self_s.items() if k.startswith(m + "."))
        out["benchmark.self_s"] = wall_s - self.root_s
        out["trace.wall_s"] = wall_s
        return out

    def write(self, path):
        """Write the spans as gzip'd JSON lines: op, id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
