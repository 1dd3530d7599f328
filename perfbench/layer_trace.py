"""Per-layer timing by wrapping the package's public functions from outside.

Nothing in the package is edited.  ``LayerTracer.install`` collects every
public, non-generator function defined in one of the layer modules, then
walks every attribute of every loaded ``hubbardtree`` module and replaces
each attribute that *is* one of those functions (compared by identity) with
a timing wrapper.  Searching by identity also catches names bound by
``from .triods import classify_triod`` at other import sites, which a plain
``triods.classify_triod = ...`` patch would miss.  A few methods named in
``METHODS`` are wrapped on their class.

Each wrapped call is a span.  The tracer keeps, per label
(``module.function``), the call count, the inclusive time and the self time:
the span's duration minus the part covered by wrapped calls made inside it.
Generator functions are left alone; the work they do while being iterated
counts toward the span that iterates them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "hubbardtree"
LAYERS = ("sequences", "admissibility", "triods", "tree", "embedding", "atlas", "cli")
METHODS = (
    ("tree", "HubbardTree", "periodic_branch_orbits"),
    ("atlas", "AtlasRow", "to_json"),
)


class LayerTracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.trees: list[tuple[int, int]] = []  # (vertices, edges) per build_tree result
        self._stack: list[float] = []  # time covered by child spans, per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, func, label: str):
        clock = time.perf_counter
        stack = self._stack
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        trees = self.trees if label == "tree.build_tree" else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[label] += 1
                inclusive[label] += elapsed
                self_time[label] += elapsed - covered
            if trees is not None:
                trees.append((len(result.vertices), len(result.edges)))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {
            name: module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = modules[f"{PACKAGE}.{layer}"]
            for name, value in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__
                        or inspect.isgeneratorfunction(value)):
                    continue
                wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{name}"))
        for module in modules.values():
            for name, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, name, found[1])
                    self._patches.append((module, name, value))
        for layer, cls_name, method in METHODS:
            owner = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            original = owner.__dict__[method]
            setattr(owner, method, self._wrap(original, f"{layer}.{cls_name}.{method}"))
            self._patches.append((owner, method, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def layer_self(self, layer: str) -> float:
        """Self time summed over every span of one layer module."""
        prefix = layer + "."
        return sum(t for label, t in self.self_time.items() if label.startswith(prefix))
