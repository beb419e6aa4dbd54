"""Span tracer for the traced run.

``install`` wraps the public functions of each layer module (and the public
methods of the classes it defines) and rebinds every name under which any
cycone module holds the original, including names taken with
``from .x import f`` and the package's re-exports.  Each wrapped call
records one span: name, start, end, parent span and request.  Spans stay in
flat arrays in memory; ``per_name`` computes self time from them and
``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("cli", "report", "cone", "invariants", "bundles", "cohom", "chow", "exactnum")


def _is_traceable(obj) -> bool:
    """Plain functions and functools.lru_cache wrappers."""
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.request = -1

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self, package):
        """Wrap every layer's public callables and rebind them across the package."""
        replaced = {}  # id(original) -> wrapper; the wrapper keeps the original alive
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(obj, f"{layer}.{attr}")
                elif _is_traceable(obj):
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        # rebind the originals wherever a cycone module imported them by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(package.__name__ + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_methods(self, cls, prefix: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(raw.__func__, f"{prefix}.{attr}")))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, attr, self.wrap(raw, f"{prefix}.{attr}"))

    # --- analysis ------------------------------------------------------------

    def per_name(self):
        """{name: [calls, total_s, self_s]} over all recorded spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def outermost_time(self, names) -> float:
        """Time inside spans of ``names`` that have no ancestor among them."""
        ids = {self.name_id[n] for n in names if n in self.name_id}
        total = 0.0
        for i in range(len(self.span_start)):
            if self.span_name[i] not in ids:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] not in ids:
                p = self.span_parent[p]
            if p < 0:
                total += self.span_end[i] - self.span_start[i]
        return total

    def write(self, path):
        """Dump the spans as TSV: id, parent, request, name, start_us, end_us."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart_us\tend_us\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_request[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) * 1e6:.1f}\t{(self.span_end[i] - t0) * 1e6:.1f}\n"
                )
