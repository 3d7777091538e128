"""Span tracer that wraps chiraldrain's public functions from outside the package.

Every public function of the six modules is replaced, at module-attribute
level, by a wrapper that records a span: name, start, end, parent span and
operation id.  Names a module imported from another one (``steady.diagonalize``)
are replaced too, so calls between modules are seen.  Dense factorizations
(``numpy.linalg.eig/eigh/inv/cond``, ``scipy.linalg.schur/solve_sylvester``)
are counted against the innermost open span.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("lattice", "spectral", "steady", "symmetry", "entanglement", "cli")
FACTORIZATIONS = (
    ("numpy.linalg", ("eig", "eigh", "inv", "cond")),
    ("scipy.linalg", ("schur", "solve_sylvester")),
)
# Private functions that still mark a layer boundary worth a span.
EXTRA_SPANS = {("cli", "_sweep_point"): "cli.sweep_point"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._observers: dict[str, object] = {}

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "layer": name.split(".", 1)[0],
                "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
                "factorizations": 0,
                "error": None,
            }
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            observe = self._observers.get(name)
            if observe is not None:
                span["value"] = observe(result)
            return result

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]]["factorizations"] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, observers: dict[str, object] | None = None) -> None:
        """Wrap every public chiraldrain function wherever a module holds it."""
        import chiraldrain
        from chiraldrain import cli, entanglement, lattice, spectral, steady, symmetry

        self._observers = dict(observers or {})
        modules = (lattice, spectral, steady, symmetry, entanglement, cli, chiraldrain)
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("chiraldrain."):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                name = EXTRA_SPANS.get((layer, obj.__name__))
                if name is None:
                    if obj.__name__.startswith("_") or layer not in LAYERS:
                        continue
                    name = f"{layer}.{obj.__name__}"
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, name)
                self._patch(module, attr, wrapped[id(obj)])
        for module_name, names in FACTORIZATIONS:
            __import__(module_name)
            owner = sys.modules[module_name]
            for attr in names:
                self._patch(owner, attr, self._count(getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_operation(spans: list[dict], n_ops: int) -> list[dict[str, float]]:
    """Per-layer figures of each operation's spans.

    ``<module>.<function>_s`` is the inclusive time of that function,
    ``<layer>.self_s`` the layer's self time and ``<layer>.calls`` its span
    count.  Observed values (residuals) are reduced by their maximum.
    """
    ops: list[dict[str, float]] = [defaultdict(float) for _ in range(n_ops)]
    observed: list[dict[str, list[float]]] = [defaultdict(list) for _ in range(n_ops)]
    for s, self_s in zip(spans, self_times(spans)):
        out, layer = ops[s["op"]], s["layer"]
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        out[f"{layer}.dense_factorizations"] += s["factorizations"]
        out[f"{s['name']}_s"] += s["end"] - s["start"]
        out[f"{s['name']}_calls"] += 1
        if s["error"] is not None:
            out[f"{s['name']}_errors"] += 1
        if s.get("value") is not None and math.isfinite(s["value"]):
            observed[s["op"]][s["name"]].append(s["value"])
    for out, values in zip(ops, observed):
        for name, seen in values.items():
            out[f"{name}_value"] = max(seen)
    return [dict(out) for out in ops]


def median_over_operations(ops: list[dict[str, float]]) -> dict[str, float]:
    """Median of each figure over operations, counting a missing figure as 0."""
    keys = set().union(*ops) if ops else set()
    return {k: statistics.median(op.get(k, 0.0) for op in ops) for k in keys}
