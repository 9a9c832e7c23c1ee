"""Partition refinement for strong, weak and delay weighted bisimilarity.

The engine starts from the one-block partition (or a caller-supplied
coarser start) and repeatedly picks a splitter: a pair of a label and a
target class.  Blocks are regrouped by the saturated weight of their
members against the splitter; in strong mode the "saturated" weight is
just the single-step class weight, in weak mode silent steps may surround
one observable step, in delay mode they may only precede it.

Splitting is driven by predecessors, after Paige and Tarjan ("Three
partition refinement algorithms", 1987) in the weighted form of Valmari
and Franceschinis ("Simple O(m log n) time Markov chain lumping", 2010).
A saturation table lists, per label, only the states with a nonzero
weight into the splitter.  Only blocks holding such a state can split,
and only on their members in the support: the members outside it all
weigh zero, so one of them stands in for the rest while the block is
regrouped, and the rest then joins that member's group.  Every other
block is left alone because its members all weigh zero.  In strong mode
the table itself is summed over the predecessors of the splitter, so a
splitter costs its in-degree plus one membership scan of each block it
touches, and only the support members are regrouped.

Splitter scheduling: each class is examined once after it is created
(the initial blocks to begin with, then every child of a split).  A class
that has been examined never needs re-examination, because its induced
grouping is a fixed function of the state space; refining other blocks
keeps them grouped.  If the class currently being used as a splitter is
itself split, the remaining labels are abandoned for it and its children
take over, so splitters are always classes of the current partition.
Candidate order is deterministic: smallest minimum state id first, labels
in alphabet order with the silent one first.  The loop stops as soon as
every block is a singleton, since no table can split one.

Weak and delay mode on the strong quotient (``refine_partition``):
strong bisimilarity refines delay and weak bisimilarity, so every weak or
delay class is a union of strong blocks.  Into such a union each Kleene
iterate of a saturation system is constant on strong blocks and equals
the iterate of the quotient's system, so the least solutions agree: the
system is lumpable (Buchholz, "Bisimulation relations for weighted
automata", TCS 2008).  Refining the quotient therefore gives the same
partition once its blocks are lifted back, from solves over blocks rather
than states.  The route is taken on ``real`` and ``arctic`` only.  On the
semirings with a ``best_first_key`` a weak table is one search, about as
cheap as a strong table, so the strong pass would cost more than it
saves; on ``real-float`` strong blocks agree only within epsilon.
Every caller, traced or not, goes through ``refine_partition``, so a
trace describes the run that computed the partition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .solver import Saturator, _class_set
from .wlts import Partition, emit_quotient


def split_block_sorted(sr, members, weights):
    """Group members by equal weight: each group in ascending id order,
    the groups in order of their first member.

    Exact carriers group on the weights as dict keys, so they need only
    ``==`` and ``hash``.  In float mode the distinct values are then
    merged in ascending order, a group holding the values within the
    tolerance of its smallest one, so every group spans at most the
    tolerance: comparing against the previous value instead would chain
    neighbours into groups of any width.
    """
    by_value = {}
    for x in sorted(members):
        wx = weights[x]
        if wx in by_value:
            by_value[wx].append(x)
        else:
            by_value[wx] = [x]
    if sr.carrier_mode != "float":
        return list(by_value.values())
    merged = []
    for v in sorted(by_value):
        if merged and sr.values_equal(first, v):
            merged[-1] += by_value[v]
        else:
            merged.append(by_value[v])
            first = v
    return sorted(map(sorted, merged))


@dataclass
class SplitEvent:
    step: int
    label: str
    splitter: tuple
    blocks_split: int
    block_count: int


@dataclass
class RefinementTrace:
    """The splits of one refinement run.  ``candidates_examined`` counts
    the tables actually computed: none is computed once every block is a
    singleton.  On the strong-quotient route this is the quotient pass,
    each splitter lifted to the sorted states of its strong blocks; the
    strong pre-pass is not traced."""

    mode: str
    events: list[SplitEvent] = field(default_factory=list)
    candidates_examined: int = 0


def _refine(w, mode, initial, want_trace):
    """Run the refinement loop on the states of ``w``; returns
    (Partition, RefinementTrace | None)."""
    n = w.state_count
    if initial is None:
        initial = Partition.single_block(n)
    elif initial.n != n:
        raise ValueError("initial partition is over a different state count")
    provider = Saturator(w, mode)
    trace = RefinementTrace(mode=mode) if want_trace else None
    sr = w.semiring
    zero = sr.zero

    members = {}
    block_of = [0] * n
    heap = []
    next_id = 0
    for block in initial.blocks:
        members[next_id] = list(block)
        for x in block:
            block_of[x] = next_id
        heapq.heappush(heap, (block[0], next_id))
        next_id += 1

    splittable = sum(len(blk) > 1 for blk in members.values())  # blocks of 2+
    step = 0
    while heap and splittable:
        _, cid = heapq.heappop(heap)
        if cid not in members:
            continue  # split away before its turn
        C = tuple(members[cid])
        if trace is not None:
            trace.candidates_examined += 1
        table = provider.table(C)
        for label in w.labels:
            support = table.support(label)
            touched = {}
            for x in support:
                bid = block_of[x]
                if bid in touched:
                    touched[bid].append(x)
                else:
                    touched[bid] = [x]
            split_any = 0
            for bid, inside in touched.items():
                blk = members[bid]
                if len(blk) == 1:
                    continue
                rest = [x for x in blk if x not in support]
                if rest:
                    # One member of the rest stands in for all of it: they
                    # weigh zero, so they share a group.
                    r = rest[0]
                    weights = {x: support[x] for x in inside}
                    weights[r] = zero
                    groups = split_block_sorted(sr, inside + [r], weights)
                else:
                    groups = split_block_sorted(sr, blk, support)
                if len(groups) == 1:
                    continue
                split_any += 1
                del members[bid]
                splittable -= 1
                for g in groups:
                    if rest and r in g:  # the stand-in brings the rest
                        g = sorted(g + rest[1:])
                    splittable += len(g) > 1
                    members[next_id] = g
                    for x in g:
                        block_of[x] = next_id
                    heapq.heappush(heap, (g[0], next_id))
                    next_id += 1
            if split_any:
                step += 1
                if trace is not None:
                    trace.events.append(
                        SplitEvent(step, label, C, split_any, len(members))
                    )
            if cid not in members or not splittable:
                break  # the splitter class itself split, or nothing can split
    return Partition(n, members.values()), trace


def _lumps(w, mode):
    """Whether ``refine_partition`` refines on the strong quotient: weak
    and delay mode on a carrier that is exact and has no best-first key."""
    sr = w.semiring
    return mode in ("weak", "delay") and sr.best_first_key is None and sr.carrier_mode != "float"


def refine_partition(w, mode="weak", initial=None, want_trace=False):
    """Coarsest partition under ``mode`` refining ``initial``: equal
    single-step class weights for every label (strong, the silent one
    treated as ordinary), or equal saturated weights with one observable
    action surrounded by silent steps (weak) or only preceded by them
    (delay).  Returns (Partition, RefinementTrace | None).

    Where ``_lumps`` holds, the strong partition comes first; unless it is
    discrete, its quotient is refined from the quotient states grouped by
    their block of ``initial``, and every quotient block and splitter is
    lifted back to the union of its strong blocks (module docstring).
    """
    if _lumps(w, mode):
        strong = _refine(w, "strong", initial, False)[0]
        if len(strong) < w.state_count:
            start = None
            if initial is not None:
                start = Partition.from_block_of([initial.block_index(b[0]) for b in strong.blocks])
            coarse, trace = _refine(emit_quotient(w, strong), mode, start, want_trace)

            def lift(block):
                return tuple(sorted(x for b in block for x in strong.blocks[b]))

            if trace is not None:
                for e in trace.events:
                    e.splitter = lift(e.splitter)
            return Partition(w.state_count, map(lift, coarse.blocks)), trace
    return _refine(w, mode, initial, want_trace)


def bisimilar(w, x, y, mode="weak"):
    """Whether two states (ids) are equated by the chosen equivalence."""
    _class_set(w, (x, y))  # both ids in range, before any refinement
    return refine_partition(w, mode)[0].same_block(x, y)


@dataclass
class Violation:
    label: str
    target_class: tuple
    block: tuple
    weights: dict


@dataclass
class BisimulationReport:
    mode: str
    ok: bool
    violations: list[Violation] = field(default_factory=list)


def check_is_weak_bisimulation(w, partition, mode="weak"):
    """Verify the defining condition block by block.

    For every class C of the partition, every label and every block,
    members must carry equal saturated weights into C; each failure is
    reported with the offending weights.
    """
    if mode not in ("strong", "weak", "delay"):
        raise ValueError("mode must be strong, weak or delay")
    if partition.n != w.state_count:
        raise ValueError("partition is over a different state count")
    sr = w.semiring
    provider = Saturator(w, mode)
    violations = []
    for C in partition.blocks:
        table = provider.table(C)
        for label in w.labels:
            weights = table.vector(label)
            for block in partition.blocks:
                if len(block) == 1:
                    continue
                rep = weights[block[0]]
                if all(sr.values_equal(weights[x], rep) for x in block[1:]):
                    continue
                violations.append(
                    Violation(
                        label,
                        C,
                        block,
                        {w.state_names[x]: sr.format(weights[x]) for x in block},
                    )
                )
    return BisimulationReport(mode, not violations, violations)
