"""Spans around the benchmark's calls into kreinls, and factorization counts.

A span is recorded for each public call the benchmark makes: its name
("<module>.<function>[.<variant>]"), the item it belongs to, start and end,
and the numpy.linalg calls made while it was open.  Spans are kept in
memory and reduced to the per-layer metrics when the run ends.

Factorizations are counted by replacing the numpy.linalg entry points for
the duration of a traced pass.  kreinls calls them as `np.linalg.<name>`,
so the replacement sees every call; numpy's internal calls (the SVD inside
`norm(a, 2)` or `pinv`) go through module globals and are not counted twice.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

COUNTED = ("svd", "eigh", "eigvalsh", "cholesky", "inv", "solve", "pinv", "qr")


@dataclass
class Span:
    name: str
    item: object  # (cycle, position) of the item the span belongs to
    start: float
    end: float
    counts: dict
    feasible: object = None  # SolveReport.feasible, when the call returns one
    trials: object = None  # Certificate.trials, when the call returns one

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def factorizations(self):
        return sum(self.counts.values())


class Untraced:
    """Calls straight through; used for the end-to-end measurement."""

    item = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self.wall = 0.0  # traced wall time, summed over the timed items
        self._counts = None

    def call(self, name, fn, *args, **kwargs):
        outer = self._counts
        self._counts = counts = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._counts = outer
        self.spans.append(
            Span(
                name,
                self.item,
                start,
                end,
                counts,
                getattr(result, "feasible", None),
                getattr(result, "trials", None),
            )
        )
        return result

    def count(self, kind):
        if self._counts is not None:
            self._counts[kind] = self._counts.get(kind, 0) + 1

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def layer_seconds(self, layer):
        return sum(s.seconds for s in self.spans if s.layer == layer)

    @contextmanager
    def counting(self):
        """Count numpy.linalg factorizations made inside spans."""
        linalg = np.linalg
        saved = {name: getattr(linalg, name) for name in COUNTED + ("norm",)}

        def wrap(kind, fn):
            def counted(*args, **kwargs):
                self.count(kind)
                return fn(*args, **kwargs)

            return counted

        def norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                self.count("norm2")
            return saved["norm"](x, ord, *args, **kwargs)

        try:
            for name in COUNTED:
                setattr(linalg, name, wrap(name, saved[name]))
            linalg.norm = norm
            yield self
        finally:
            for name, fn in saved.items():
                setattr(linalg, name, fn)
