"""Seeded document generators and the benchmark's workload table.

The generators live here rather than in the test helpers so that a test
refactor cannot change what the benchmark measures.  Each returns a plain
document (the JSON shape ``wbisim minimize`` reads); the program under
test only ever sees the written files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction


ACTIONS = ["a", "b", "c"]
# Replicated family: silent edges from each state to states later in the
# component's order, and action edges, per state.
TAU_FORWARD = 1
ACTION_DEGREE = 2


def sparse_boolean(rng, n, per_state=4):
    """Fixed out-degree boolean system: every state draws ``per_state``
    (label, target) pairs uniformly; repeats merge."""
    labels = ["tau"] + ACTIONS
    edges = set()
    for x in range(n):
        for _ in range(per_state):
            edges.add((x, rng.choice(labels), rng.randrange(n)))
    return {
        "semiring": "boolean",
        "tau": "tau",
        "states": ["s%d" % x for x in range(n)],
        "actions": ACTIONS,
        "transitions": [
            {"from": "s%d" % x, "label": label, "to": "s%d" % y, "weight": "true"}
            for x, label, y in sorted(edges)
        ],
    }


def substochastic_component(rng, m, cycles):
    """Exact-real component over states 0..m-1, as a list of edges.

    States are laid out in a random order.  The first ones form the silent
    cycles of the given lengths; every state then gets ``TAU_FORWARD``
    silent edges to states later in the order (outside its own cycle, so
    the cycles stay the only silent SCCs) and ``ACTION_DEGREE`` random
    action edges.  Fixed degrees keep the cost of one document close to
    the next.  Each state's outgoing mass is a random value in [1/2, 9/10],
    so every silent star is finite.
    """
    order = list(range(m))
    rng.shuffle(order)
    targets = [[] for _ in range(m)]
    pos = 0
    for length in cycles:
        ring = order[pos : pos + length]
        for i, x in enumerate(ring):
            targets[x].append(("tau", ring[(i + 1) % length]))
        pos += length
    for rank, x in enumerate(order):
        later = order[max(rank + 1, pos) :]
        for y in rng.sample(later, min(TAU_FORWARD, len(later))):
            targets[x].append(("tau", y))
        for _ in range(ACTION_DEGREE):
            targets[x].append((rng.choice(ACTIONS), rng.randrange(m)))
    edges = []
    for x in range(m):
        shares = [rng.randint(1, 4) for _ in targets[x]]
        mass = Fraction(rng.randint(5, 9), 10)
        total = sum(shares)
        for (label, y), share in zip(targets[x], shares):
            edges.append((x, label, y, mass * share / total))
    return edges


def replicated_real(rng, m, k, cycles):
    """k renamed copies of one substochastic component, states listed in
    a shuffled order.  Returns (document, copy_of) where copy_of maps each
    state name to its state in the component."""
    edges = substochastic_component(rng, m, cycles)

    def name(c, x):
        return "c%d_%d" % (c, x)

    states = [name(c, x) for c in range(k) for x in range(m)]
    copy_of = {name(c, x): x for c in range(k) for x in range(m)}
    rng.shuffle(states)
    doc = {
        "semiring": "real",
        "tau": "tau",
        "states": states,
        "actions": ACTIONS,
        "transitions": [
            {"from": name(c, x), "label": label, "to": name(c, y), "weight": str(wt)}
            for c in range(k)
            for x, label, y, wt in edges
        ],
    }
    return doc, copy_of


@dataclass(frozen=True)
class Instance:
    """One generated document plus what the output check needs to know."""

    doc: dict
    copy_of: dict | None = None  # state name -> component state (replicated family)
    component_size: int | None = None

    def text(self):
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "sparse" | "replicated"
    modes: tuple  # document d runs in modes[d % len(modes)]
    size: dict  # generator parameters
    docs: int  # documents per timed run, each minimized once per round
    traced_docs: int  # documents each traced pass runs

    def make(self, rng):
        return make_instance(self.family, rng, **self.size)


def make_instance(family, rng, **size):
    if family == "sparse":
        return Instance(sparse_boolean(rng, **size))
    if family == "replicated":
        doc, copy_of = replicated_real(rng, **size)
        return Instance(doc, copy_of, size["m"])
    raise ValueError("unknown family %r" % family)


# Oracle-sized members of each family (at most 8 states).  The replicated
# one has no silent cycle, so path enumeration is exact on its real weights.
TINY = {
    "sparse": {"n": 7},
    "replicated": {"m": 4, "k": 2, "cycles": ()},
}


# Why these three: the engine's two costs, partition refinement and
# saturation by star elimination, split very differently between them, so
# an optimisation of one layer shows on one workload and should leave
# another unchanged.
WORKLOADS = {
    w.name: w
    for w in (
        # Ends almost discrete (one block per state), so there are about n
        # splitters and each evaluates class weights for every state and
        # label; no closure is ever built.  Predecessor-driven refinement
        # should show here; targeted saturation should not move it.
        Workload(
            name="strong-sparse",
            family="sparse",
            modes=("strong",),
            size={"n": 250},
            docs=36,
            traced_docs=8,
        ),
        # Also near discrete, and every splitter runs a fresh boolean star
        # elimination plus action-system builds, so the solver does almost
        # all the work with cheap semiring operations.  Three edges per
        # state keep the silent graph below the critical mean out-degree
        # of one: at four edges and three actions it sits at one, where the
        # size of the largest silent SCC, and with it the cost of a
        # document, varied by 9x between seeds.
        Workload(
            name="weak-sparse",
            family="sparse",
            modes=("weak", "delay"),
            size={"n": 150, "per_state": 3},
            docs=48,
            traced_docs=8,
        ),
        # The coarse family: copies keep the partition at no more blocks
        # than the component has states, so there are few splitters but
        # each class holds k or more states, and the time goes to Fraction
        # arithmetic in star_closure and closure_apply.  Few expensive
        # exact solves instead of many cheap boolean ones; an idempotent
        # fast path does not apply here.
        Workload(
            name="weak-coarse-real",
            family="replicated",
            modes=("weak",),
            size={"m": 16, "k": 12, "cycles": (3, 4)},
            docs=30,
            traced_docs=8,
        ),
    )
}
