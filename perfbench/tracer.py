"""Span tracer that wraps the package's layer entry points from outside.

Nothing in ``src/`` knows about tracing. ``patched`` replaces each listed
function by a timing wrapper in every ``anticlone`` module that holds a
binding to it (``from .x import y`` makes a second binding, so patching only
the defining module would miss those calls), and restores the originals on
exit. A listed name that no longer exists is skipped and reported, so later
refactors that rename or delete a layer do not break the benchmark.

Spans are kept in memory as ``[name, start, end, parent]`` lists and reduced
when the run ends. A span's self time is its duration minus the durations of
its direct children; the program is single-threaded, so children never
overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT = range(4)


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``label`` names the layer in the output; ``split`` may refine it per call
    from the bound arguments (used to split the eigensolver by matrix size);
    ``count`` returns ``(counter_name, amount)`` from the bound arguments and
    the result, added to ``Tracer.counts`` under ``label.counter_name``.
    """

    module: str
    attr: str
    label: str
    split: Callable[[dict], str] | None = None
    count: Callable[[dict, object], tuple[str, float]] | None = None


class Tracer:
    """Collects nested spans and counters for the calls made while patched."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, layer: Layer, fn):
        signature = inspect.signature(fn) if (layer.split or layer.count) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            name = layer.split(bound) if layer.split else layer.label
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if layer.count is not None:
                key, amount = layer.count(bound, result)
                key = f"{layer.label}.{key}"
                self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, layers: list[Layer], package: str = "anticlone"):
    """Wrap every binding of each layer's function while the block runs.

    Yields ``(bindings, missing)``: the ``module.attr`` names that were
    patched, and the layers whose function could not be found.
    """
    restore = []
    bindings: list[str] = []
    missing: list[str] = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    try:
        for layer in layers:
            owner = importlib.import_module(f"{package}.{layer.module}")
            fn = getattr(owner, layer.attr, None)
            if not callable(fn):
                missing.append(f"{layer.module}.{layer.attr}")
                continue
            wrapper = tracer.wrap(layer, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)
                        bindings.append(f"{module.__name__}.{attr}")
        yield bindings, missing
    finally:
        for module, attr, fn in reversed(restore):
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time in seconds)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, tuple[int, float]] = {}
    for span, inner in zip(spans, child):
        calls, total = out.get(span[NAME], (0, 0.0))
        out[span[NAME]] = (calls + 1, total + (span[END] - span[START]) - inner)
    return out


def check_nesting(spans: list[list]) -> None:
    """Raise if a span is unfinished or lies outside its parent's interval."""
    for i, span in enumerate(spans):
        if span[END] < span[START]:
            raise AssertionError(f"span {i} ({span[NAME]}) ends before it starts")
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if not (outer[START] <= span[START] and span[END] <= outer[END]):
                raise AssertionError(f"span {i} ({span[NAME]}) escapes its parent {outer[NAME]}")


def root_time(spans: list[list]) -> float:
    """Total duration of the spans that have no parent."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
