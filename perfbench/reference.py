"""A fixed unit of pure-Python work that measures the machine, not wbisim.

The benchmark times it between operations and reports operation
time as a multiple of it.  On a shared machine whose speed drifted by
1.5-2x over minutes, raw operation times spread by 20-65% (quartile
distance over median) between runs while the ratio to this reference
spread by 2-7%: the drift slows both alike.  It mixes the kinds of work
wbisim does (dicts, sets and tuples for partition refinement, Fraction
arithmetic for exact weights) and imports nothing from wbisim, so no
change to the program can change it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

_N = 120
_LABELS = 3


def _graph():
    rng = random.Random("reference")
    succ = [[set() for _ in range(_LABELS)] for _ in range(_N)]
    for x in range(_N):
        for _ in range(3):
            succ[x][rng.randrange(_LABELS)].add(rng.randrange(_N))
    return succ


_SUCC = _graph()


def _refine(succ):
    block = [0] * len(succ)
    while True:
        ids = {}
        refined = [
            ids.setdefault((block[x],) + tuple(frozenset(block[y] for y in row) for row in succ[x]), len(ids))
            for x in range(len(succ))
        ]
        if len(ids) == len(set(block)):
            return refined
        block = refined


def _fractions(steps):
    x = Fraction(1, 3)
    for i in range(1, steps):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        x = Fraction(x.numerator % (1 << 60), x.denominator % (1 << 60) + 1)
    return x


def reference_seconds():
    """Wall seconds of one fixed unit of work (about 30 ms on a 2.1 GHz Xeon)."""
    start = time.perf_counter()
    _refine(_SUCC)
    _fractions(3000)
    return time.perf_counter() - start
