"""Spans around the public functions of ``subdiv``, installed from outside.

``install()`` replaces each traced function with a wrapper at every
place the package binds it: the defining module and every module that
imported it with ``from .x import y``.  Calls inside a module resolve
through module globals, so they are caught too.  ``face`` is only
counted, since it runs millions of times per pass; ``poly`` is not
wrapped, so its time shows in its callers' self time.

A span is ``(op, group, parent, start, end)``: the index of the
benchmark operation it belongs to, its metric group, the index of the
enclosing span (-1 at top level) and two ``perf_counter`` readings.
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# metric group -> (module, attribute) pairs; "Class.method" names a method.
SPANS = {
    "complexes.from_facets": [("complexes", "from_facets")],
    "complexes.faces": [("complexes", "SimplicialComplex.faces")],
    "complexes.h_polynomial": [("complexes", "h_polynomial")],
    "complexes.from_json": [("complexes", "complex_from_json")],
    "triangulate.restriction": [("triangulate", "restriction")],
    "triangulate.build": [("triangulate", name) for name in (
        "barycentric", "edgewise", "stellar", "compose",
        "random_triangulation", "iterated_sd")],
    "triangulate.validate": [("triangulate", "validate_triangulation")],
    "triangulate.f_triangle": [("triangulate", "f_triangle"),
                               ("triangulate", "f_triangle_of")],
    "triangulate.from_json": [("triangulate", "triangulation_from_json")],
    "triangulate.to_json": [("triangulate", "triangulation_to_json")],
    "localh.local_h": [("localh", "local_h")],
    "localh.h_from_local": [("localh", "h_from_local")],
    "localh.c_coefficients": [("localh", "c_coefficients")],
    "localh.uniform": [("localh", name) for name in (
        "local_h_via_uniform", "ell_mkj", "ell_mk", "p_poly")],
    "realroot.interlaces": [("realroot", "interlaces")],
    "realroot.is_real_rooted": [("realroot", "is_real_rooted")],
    "realroot.isolate_roots": [("realroot", "isolate_roots")],
    "perm": [("perm", name) for name in (
        "eulerian", "d_nk", "d_nkj", "p_nk", "E_nr", "derangement_counts")],
    "verify": [("verify", "run_suite")],
    "cli": [("cli", "main")],
}
COUNTED = {"complexes.face": ("complexes", "face")}

# Groups whose call count is reported next to their self time.
CALL_COUNTS = ("complexes.from_facets", "triangulate.restriction",
               "localh.local_h", "realroot.interlaces", "realroot.is_real_rooted")


class Tracer:
    def __init__(self):
        self.groups = list(SPANS)
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counts = {name: 0 for name in COUNTED}
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, fn, group: int):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.op, group, parent, start, end)

        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every binding in the package."""
        wrappers = {}
        methods = []
        for group, targets in SPANS.items():
            for module, attr in targets:
                owner = sys.modules[f"subdiv.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    methods.append((cls, meth, self._span(getattr(cls, meth),
                                                          self.groups.index(group))))
                else:
                    fn = getattr(owner, attr)
                    wrappers[id(fn)] = (fn, self._span(fn, self.groups.index(group)))
        for name, (module, attr) in COUNTED.items():
            fn = getattr(sys.modules[f"subdiv.{module}"], attr)
            wrappers[id(fn)] = (fn, self._counter(fn, name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "subdiv" and not mod_name.startswith("subdiv."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for cls, meth, wrapper in methods:
            self._restore.append((cls, meth, getattr(cls, meth)))
            setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layers(self) -> dict[str, float | int]:
        """Self time and call count per group, plus the counted calls."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * len(self.groups)
        calls = [0] * len(self.groups)
        for idx, (_, group, _, start, end) in enumerate(self.spans):
            self_s[group] += end - start - child[idx]
            calls[group] += 1
        out: dict[str, float | int] = {}
        for g, name in enumerate(self.groups):
            out[f"{name}.self_s"] = self_s[g]
            if name in CALL_COUNTS:
                out[f"{name}.calls"] = calls[g]
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count
        return out

    def write(self, path) -> None:
        """All spans as JSON: group names, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"groups": self.groups, "counts": self.counts,
                       "spans": self.spans}, fh, separators=(",", ":"))
