"""Per-layer tracing from outside the program.

The traced run replaces public functions of toricap's modules with
wrappers that record a span (request, layer, start, end, parent) and
count the work the call was given.  Only names in ``toricap.__all__`` and
``toricap.cli.run`` are wrapped, at every binding that refers to them, so
the modules that import them (``cli``, ``embeddings``) are traced too.
Nothing under ``src/`` changes.  A layer's self time is its spans'
duration minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator, Optional


def _load_counts(counts: Counter, path: str) -> None:
    counts["specfile.calls"] += 1
    counts["specfile.bytes"] += os.path.getsize(path)


def _closed_form_counts(counts: Counter, *args) -> None:
    counts["capacities.closed_form_values"] += 1


def _product_counts(counts: Counter, left, right, kmax: int) -> None:
    counts["capacities.product_pairs"] += kmax * (kmax + 3) // 2  # sum of k + 1


def _convex_counts(counts: Counter, domain, k: int) -> None:
    counts["capacities.convex_calls"] += 1
    counts["capacities.convex_space"] += math.comb(k + domain.n - 1, domain.n - 1)


def _concave_counts(counts: Counter, domain, k: int) -> None:
    counts["capacities.concave_calls"] += 1
    counts["capacities.concave_space"] += math.comb(k + domain.n - 2, domain.n - 1)


def _diagonal_counts(counts: Counter, domain) -> None:
    counts["domains.diagonal_calls"] += 1
    points = getattr(domain, "generators", None) or getattr(domain, "vertices", None)
    if points:  # closed-form kinds solve no systems
        m, n = len(points), domain.n
        counts["domains.diagonal_systems"] += sum(
            math.comb(m, s) * math.comb(n, s) for s in range(1, min(m, n) + 1)
        )


def _decimal_counts(counts: Counter, *args, **kwargs) -> None:
    counts["rationals.decimal_calls"] += 1


# (layer, module, public name, counter of the work each call was given)
WRAPPED: list[tuple[str, str, str, Optional[Callable]]] = [
    ("specfile.load", "specfile", "load_domain", _load_counts),
    ("capacities.closed_form", "capacities", "ellipsoid_capacity", _closed_form_counts),
    ("capacities.closed_form", "capacities", "polydisk_capacity", _closed_form_counts),
    ("capacities.closed_form", "capacities", "cylinder_union_capacity", _closed_form_counts),
    ("capacities.product", "capacities", "product_capacities", _product_counts),
    ("capacities.sequence", "capacities", "capacity_sequence", None),
    ("capacities.sequence", "capacities", "capacity_at", None),
    ("capacities.convex", "capacities", "convex_capacity", _convex_counts),
    ("capacities.concave", "capacities", "concave_capacity", _concave_counts),
    ("domains.diagonal", "domains", "diagonal_intersection", _diagonal_counts),
    ("embeddings", "embeddings", "obstruct", None),
    ("embeddings", "embeddings", "asymptotic_slope", None),
    ("embeddings", "embeddings", "gromov_width", None),
    ("embeddings", "embeddings", "cube_capacity", None),
    ("rationals.decimal", "rationals", "decimal_string", _decimal_counts),
    ("rationals.format", "rationals", "format_rational", None),
    ("cli", "cli", "run", None),
]


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [request, layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.request = -1
        self._open: list[int] = []

    def wrap(self, layer: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            if counter is not None:
                counter(counts, *args, **kwargs)
            span = [self.request, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """(inclusive seconds, self seconds, span count) per layer."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        for (_, layer, start, end, _), children in zip(self.spans, covered):
            inclusive[layer] += end - start
            own[layer] += end - start - children
            calls[layer] += 1
        return inclusive, own, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Route every binding of the wrapped functions through the tracer."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "toricap" or name.startswith("toricap."))]
    patched = []
    try:
        for layer, module, name, counter in WRAPPED:
            original = getattr(sys.modules[f"toricap.{module}"], name)
            wrapper = tracer.wrap(layer, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
