"""Spans and counters around the program's public layer boundaries.

Nothing here edits the program: wrappers are set as attributes on the
program's modules and classes for the duration of one pass and the
originals are put back afterwards.  Span wrappers and counting wrappers
are installed in separate passes, because a counter on every semiring
operation costs far more than the spans it would distort.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from fractions import Fraction


def span_points(wb):
    """(span name, owner, attribute) for every timed layer boundary.

    ``wbisim.cli`` looks ``load`` and ``refine_partition`` up in its own
    namespace, and the solver and engine look up ``star_closure``,
    ``closure_apply`` and ``split_block_sorted`` in theirs, so wrapping
    those module attributes catches every call.
    """
    return [
        ("cli", wb.cli, "main"),
        ("wlts.load", wb.cli, "load"),
        ("bisim.refine", wb.cli, "refine_partition"),
        ("solver.table", wb.solver.Saturator, "table"),
        ("solver.star_closure", wb.solver, "star_closure"),
        ("solver.closure_apply", wb.solver, "closure_apply"),
        ("bisim.split", wb.bisim, "split_block_sorted"),
    ]


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanRecorder:
    """Keeps every span in memory as (name, start, end, parent index); the
    spans of one operation descend from its ``cli`` span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapped

    def install(self, wb):
        return patched(
            (owner, attr, self.wrap(name, owner.__dict__[attr]))
            for name, owner, attr in span_points(wb)
        )

    def totals(self):
        """name -> [calls, total seconds, self seconds]; self time is a span
        minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return out


SEMIRING_OPS = ("add", "mul", "star", "values_equal")


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class CallCounter:
    """Counts calls at the layer boundaries and sizes the closures built."""

    def __init__(self):
        self.counts = Counter()
        self.maxima = {"solver.closure_fill": 0.0, "solver.den_bits": 0}

    def _counting(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _closure(self, fn):
        counts, maxima = self.counts, self.maxima

        def wrapped(sr, rows, n):
            result = fn(sr, rows, n)
            nnz = sum(len(row) for row in result)
            counts["solver.star_closure"] += 1
            counts["solver.closure_nnz"] += nnz
            if n:
                maxima["solver.closure_fill"] = max(maxima["solver.closure_fill"], nnz / (n * n))
            bits = max(
                (v.denominator.bit_length() for row in result for v in row.values() if isinstance(v, Fraction)),
                default=0,
            )
            maxima["solver.den_bits"] = max(maxima["solver.den_bits"], bits)
            return result

        return wrapped

    def _split(self, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            groups = fn(*args, **kwargs)
            counts["bisim.split"] += 1
            if len(groups) > 1:
                counts["bisim.split_hit"] += 1
            return groups

        return wrapped

    def install(self, wb):
        solver = wb.solver
        points = [
            (wb.wlts.WLTS, "class_weight", self._counting("wlts.class_weight", wb.wlts.WLTS.class_weight)),
            (solver.Saturator, "table", self._counting("solver.table", solver.Saturator.table)),
            (solver, "closure_apply", self._counting("solver.closure_apply", solver.closure_apply)),
            (solver, "star_closure", self._closure(solver.star_closure)),
            (wb.bisim, "split_block_sorted", self._split(wb.bisim.split_block_sorted)),
        ]
        for cls in _subclasses(wb.semiring.Semiring):
            for op in SEMIRING_OPS:
                if op in cls.__dict__:
                    points.append((cls, op, self._counting("semiring." + op, cls.__dict__[op])))
        return patched(points)
