"""Per-layer call tracing from outside the library.

The tracer replaces each target function by a timing wrapper wherever
psf binds it: every ``psf`` module global holding the same function
object (aliases such as ``verify._g2`` included) and, for ``Complex``
methods, the class attribute.  ``uninstall`` puts the originals back, so
untraced passes run the library untouched.

Spans are kept in memory as flat arrays (target, parent span, start,
end) and reduced when a pass ends.  A span's self time is its duration
minus the durations of its direct child spans.  For a generator
function each ``next`` is one span, while ``calls`` counts how often the
function itself was called.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

# (metric prefix, module, attribute); "Class.method" names a class attribute.
TARGETS = (
    ("build.random_admissible", "psf.build", "random_admissible"),
    ("build.find_vertex_folds", "psf.build", "find_vertex_folds"),
    ("build.find_edge_folds", "psf.build", "find_edge_folds"),
    ("build.find_handles", "psf.build", "find_handles"),
    ("build.check_vertex_fold_admissible", "psf.build", "check_vertex_fold_admissible"),
    ("build.check_edge_fold_admissible", "psf.build", "check_edge_fold_admissible"),
    ("build.check_handle_admissible", "psf.build", "check_handle_admissible"),
    ("build.connected_sum", "psf.build", "connected_sum"),
    ("buildscript.random_script", "psf.buildscript", "random_script"),
    ("buildscript.replay", "psf.buildscript", "replay"),
    ("enumeration.g2", "psf.enumeration", "g2"),
    ("enumeration.g3", "psf.enumeration", "g3"),
    ("verify.is_normal_pseudomanifold", "psf.verify", "is_normal_pseudomanifold"),
    ("verify.classify_vertex", "psf.verify", "classify_vertex"),
    ("verify.homology_gf2", "psf.verify", "homology_gf2"),
    ("verify.optimality_check", "psf.verify", "optimality_check"),
    ("separation.classify_missing_facet", "psf.separation", "classify_missing_facet"),
    ("separation.separates_link", "psf.separation", "separates_link"),
    ("decompose.decompose", "psf.decompose", "decompose"),
    ("decompose.split_connected_sum", "psf.decompose", "split_connected_sum"),
    ("decompose.vertex_unfold", "psf.decompose", "vertex_unfold"),
    ("decompose.edge_unfold", "psf.decompose", "edge_unfold"),
    ("decompose.inverse_facet_subdivision", "psf.decompose", "inverse_facet_subdivision"),
    ("decompose.rebuild", "psf.decompose", "rebuild"),
    ("complexes.Complex", "psf.complexes", "Complex.__init__"),
    ("complexes.Complex.link", "psf.complexes", "Complex.link"),
    ("complexes.Complex.missing_simplices", "psf.complexes", "Complex.missing_simplices"),
    ("complexes.is_isomorphic", "psf.complexes", "is_isomorphic"),
    ("fileio.parse_complex", "psf.fileio", "parse_complex"),
    ("fileio.format_complex", "psf.fileio", "format_complex"),
    ("cli.main", "psf.cli", "main"),
)

# Admissibility checks return (ok, reason); ok_ratio counts the True share.
OK_RATIO = frozenset({
    "build.check_vertex_fold_admissible",
    "build.check_edge_fold_admissible",
    "build.check_handle_admissible",
})

# Spans the benchmark opens around its own code rather than a library call.
ITEM = "item"
TREE_JSON = "decompose.tree_json"
NAMES = tuple(name for name, _, _ in TARGETS) + (ITEM, TREE_JSON)
LAYERS = ("build", "buildscript", "enumeration", "complexes", "verify",
          "separation", "decompose", "fileio", "cli")


class Tracer:
    def __init__(self):
        self.index = {name: i for i, name in enumerate(NAMES)}
        self.calls = [0] * len(NAMES)
        self.oks = [0] * len(NAMES)
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls[:] = [0] * len(NAMES)
        self.oks[:] = [0] * len(NAMES)
        for buf in (self.fn, self.parent, self.start, self.end):
            del buf[:]
        self.stack.clear()

    # -- spans ----------------------------------------------------------

    def _enter(self, i: int) -> None:
        self.fn.append(i)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(len(self.fn) - 1)
        self.start.append(time.perf_counter())

    def _exit(self) -> None:
        self.end[self.stack.pop()] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        i = self.index[name]
        self.calls[i] += 1
        self._enter(i)
        try:
            yield
        finally:
            self._exit()

    def _traced_generator(self, i: int, gen):
        while True:
            self._enter(i)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    def _wrap(self, name: str, orig):
        i = self.index[name]
        calls, oks = self.calls, self.oks
        enter, leave = self._enter, self._exit

        if inspect.isgeneratorfunction(orig):
            def wrapper(*args, **kwargs):
                calls[i] += 1
                return self._traced_generator(i, orig(*args, **kwargs))
        elif name in OK_RATIO:
            def wrapper(*args, **kwargs):
                calls[i] += 1
                enter(i)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    leave()
                if result[0]:
                    oks[i] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[i] += 1
                enter(i)
                try:
                    return orig(*args, **kwargs)
                finally:
                    leave()
        return functools.wraps(orig)(wrapper)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded psf module binds it."""
        modules = [m for key, m in sys.modules.items() if key == "psf" or key.startswith("psf.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[method]
                self._set(cls, method, self._wrap(name, orig), orig)
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper, orig)

    def _set(self, owner, key: str, value, orig) -> None:
        setattr(owner, key, value)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- reduction ------------------------------------------------------

    def self_times(self) -> list[float]:
        self_s = [0.0] * len(NAMES)
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        for k in range(len(fn)):
            d = end[k] - start[k]
            self_s[fn[k]] += d
            p = parent[k]
            if p >= 0:
                self_s[fn[p]] -= d
        return self_s

    def write_spans(self, path) -> None:
        """One JSON line per span: name, parent span index, start, end."""
        with open(path, "w") as out:
            for k in range(len(self.fn)):
                out.write(json.dumps({
                    "span": k, "name": NAMES[self.fn[k]], "parent": self.parent[k],
                    "start": self.start[k], "end": self.end[k],
                }) + "\n")
