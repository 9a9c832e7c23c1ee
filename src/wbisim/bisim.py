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
block is left alone because its members all weigh zero.

Splitter scheduling: the blocks of the initial partition, and their
pieces before their turn, are examined whole, last queued first (the
initial blocks by their least state).  A class's table is used at every
label, in the order of ``w.labels`` (the silent label first, then the
actions in the order they were declared or first seen), even if the
class splits meanwhile, since its table is of a fixed set.  In strong
mode a block that has been examined becomes a compound splitter X, the
union of its pieces from then on, and every block stays stable for X:
its members weigh the same into X.  While X holds two or more blocks,
the smaller S of two of them leaves X, and only the blocks that S
touches are regrouped, on the pair (weight into S, weight into X minus
S).  Blocks to examine whole go first, then the compound that most
recently gained a second block; the pieces of S make up its own
compound.  The weight into S comes from S's table, summed over its
predecessors; the weight into the rest of X is summed over each touched
member's own successor row.  Where the semiring ``cancels`` the weight
into S, that weight fixes the other, since both sum to the weight into
X.  A state enters some S at most log2(n) times after its first
examination, so a run reads O(m log n) predecessor and successor entries
when out-degrees per label are bounded.  Weak and delay mode have no
compounds, because a saturated weight into X minus S cannot be derived
from those into X and S: when an examined block splits, every piece, the
kept one included, waits to be examined whole again.  A touched block
keeps its id and its members outside the support: the group of the
stand-in keeps the block, or, when the support covers the whole block,
its group of weight zero or else its largest group, and only the other
groups move out.

The loop stops as soon as every block is a singleton, since no table can
split one.  For the same reason a splitter S gets no table when no state
in a block of two or more, a live state, can carry weight into S: one
step on any label (strong); silent steps, then at most one action step
(delay); silent steps, then at most one action step followed by silent
steps (weak).  Its support then lies in blocks of one, which the
regroups pass over anyway.  The states live ones can carry weight into
are flagged in a bytearray over state ids, every state at the start,
and recomputed each time the live count has halved since the last
computation, so at most log2(n) times.  Live states only become fewer,
so stale flags are a superset of current ones and skip no splitter that
could split.  A skipped splitter counts as examined as if its table had
been computed (in strong mode it still leaves its compound), so the
partition and every trace event are those of a run without the skip.

Weak and delay mode on the strong quotient (``refine_partition``):
strong bisimilarity refines delay and weak bisimilarity, so every weak or
delay class is a union of strong blocks.  Into such a union each Kleene
iterate of a saturation system is constant on strong blocks and equals
the iterate of the quotient's system, so the least solutions agree: the
system is lumpable (Buchholz, "Bisimulation relations for weighted
automata", TCS 2008).  Refining the quotient therefore gives the same
partition once its blocks are lifted back, from solves over blocks rather
than states.  The strong pass guarantees that the members of a block
agree, so the quotient is read off one member per block.  The route is
taken on ``real`` and ``arctic`` only.  On the semirings with a
``best_first_key`` a weak table is one search, about as cheap as a
strong table, so the strong pass would cost more than it saves; on
``real-float`` strong blocks agree only within epsilon.
Every caller, traced or not, goes through ``refine_partition``, so a
trace describes the run that computed the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .solver import Saturator, _class_set
from .wlts import Partition, _representative_quotient


def split_block_sorted(sr, members, weights):
    """Group members by equal weight: each group in ascending id order,
    the groups in order of their first member.

    Exact carriers group on the weights as dict keys, so they need only
    ``==`` and ``hash``; ``"exact-rational"`` ones key a ``Fraction`` by its
    integer pair, equal iff the (reduced) values are, sparing its slow hash.
    In float mode the distinct values are then merged in ascending order, a
    group holding the values within the tolerance of its smallest one, so
    every group spans at most the tolerance: comparing against the previous
    value instead would chain neighbours into groups of any width.
    """
    by_value = {}
    pairs = sr.carrier_mode == "exact-rational"
    for x in sorted(members):
        wx = weights[x]
        if pairs and type(wx) is Fraction:
            wx = wx.as_integer_ratio()
        group = by_value.get(wx)
        if group is None:
            by_value[wx] = [x]
        else:
            group.append(x)
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


def _carried_into(w, mode, sources):
    """A bytearray over state ids flagging every state that one of
    ``sources`` can carry weight into under ``mode``: one step on any
    label (strong); silent steps, then at most one action step (delay);
    silent steps, then at most one action step followed by silent steps
    (weak).  Edges are followed whatever their weight, so a table of a
    class with no flagged member gives every source weight zero."""
    flags = bytearray(w.state_count)
    succ, tau = w._succ, w.tau  # per state: label -> successor row

    def flag(seeds, silent):
        """Flag the unflagged seeds and, if ``silent``, every state they
        reach by silent steps; returns the states newly flagged."""
        new = []
        for x in seeds:
            if not flags[x]:
                flags[x] = 1
                new.append(x)
        if silent:
            for x in new:  # grows while it is walked
                for y in succ[x].get(tau, ()):
                    if not flags[y]:
                        flags[y] = 1
                        new.append(y)
        return new

    if mode == "strong":
        for x in sources:
            for row in succ[x].values():
                for y in row:
                    flags[y] = 1
    else:
        reach = flag(sources, True)
        steps = (y for x in reach for a, row in succ[x].items() if a != tau for y in row)
        flag(steps, mode == "weak")
    return flags


def _regroup(sr, blk, inside, support):
    """Group block ``blk`` by weight into a splitter, from its members in
    the support, ``inside``, and one member outside it, if any, standing in
    for all of those: they weigh zero, so they share a group.  Returns the
    groups, the stand-in (None without one) and the weights grouped on."""
    if len(inside) == len(blk):
        return split_block_sorted(sr, inside, support), None, support
    for r in blk:
        if r not in support:
            break
    weights = {x: support[x] for x in inside}
    weights[r] = sr.zero
    return split_block_sorted(sr, inside + [r], weights), r, weights


@dataclass
class SplitEvent:
    step: int
    label: str
    splitter: tuple
    blocks_split: int
    block_count: int


@dataclass
class RefinementTrace:
    """The splits of one refinement run, in the loop's splitter order.
    ``candidates_examined`` counts the tables actually computed: none is
    computed once every block is a singleton, nor for a splitter that no
    state in a block of two or more can carry weight into, which is
    skipped and not counted.  A run records, per splitter
    S and label, one event for the regroup on the weight into S and, in
    strong mode when S was taken from a compound X, one for the regroup on
    the weight into the rest of X, whose splitter is the sorted states of
    X minus S; each event carries the counts after it.  On the
    strong-quotient route this is the quotient pass, each splitter lifted
    to the sorted states of its strong blocks; the strong pre-pass is not
    traced.  Such a trace replays on the document states from the initial
    partition, but its events need not be those of refining the document
    states directly."""

    mode: str
    events: list[SplitEvent] = field(default_factory=list)
    candidates_examined: int = 0


def _refine(w, mode, initial, want_trace):
    """Run the refinement loop on the states of ``w`` (module docstring);
    returns (Partition, RefinementTrace | None)."""
    n = w.state_count
    if initial is None:
        initial = Partition.single_block(n)
    elif initial.n != n:
        raise ValueError("initial partition is over a different state count")
    provider = Saturator(w, mode)
    trace = RefinementTrace(mode=mode) if want_trace else None
    sr = w.semiring
    add, cancels, is_zero = sr.add, sr.cancels, sr.is_zero
    compounds = mode == "strong"
    examined = []  # the compound of every examined weak or delay block; stays empty
    # only blocks of two or more are regrouped, so a block of one is never mutated
    members = [set(block) if len(block) > 1 else block for block in initial.blocks]
    block_of = [0] * n
    for bid, block in enumerate(initial.blocks):
        for x in block:
            block_of[x] = bid
    comp = [None] * len(members)  # the compound of each block, None before its turn
    pending = list(reversed(range(len(members))))  # blocks to examine whole
    todo = []  # compounds of two or more blocks
    live = sum(len(blk) for blk in members if len(blk) > 1)  # states in blocks of two or more
    flags = bytearray(b"\1") * n  # a superset of the states live ones carry weight into
    flagged_at = live  # the live count when the flags were last computed
    while live and (pending or todo):
        if pending:
            cid, X = pending.pop(), None
        else:
            X = todo[-1]
            cid = X.pop()
            if len(members[X[-1]]) < len(members[cid]):
                cid, X[-1] = X[-1], cid
            if len(X) == 1:
                todo.pop()
        comp[cid] = [cid] if compounds else examined
        S = members[cid]
        if 2 * live <= flagged_at:
            live_states = (x for blk in members if len(blk) > 1 for x in blk)
            flags, flagged_at = _carried_into(w, mode, live_states), live
        if not any(map(flags.__getitem__, S)):  # only blocks of one can be touched
            continue
        if trace is not None:
            trace.candidates_examined += 1
            C = tuple(sorted(S))
            if X is not None:
                rest_of_X = tuple(sorted(x for b in X for x in members[b]))
        table = provider.table(S)
        for label in w.labels:
            support = table.support(label)
            count = len(members)  # after the regroups on the weight into S
            split_s = split_rest = 0
            touched = {}
            for x in support:
                bid = block_of[x]
                if bid in touched:
                    touched[bid].append(x)
                elif len(members[bid]) > 1:
                    touched[bid] = [x]
            for bid, inside in touched.items():
                blk = members[bid]
                groups, r, weights = _regroup(sr, blk, inside, support)
                if len(groups) > 1:
                    split_s += 1
                    count += len(groups) - 1
                if X is not None:
                    regrouped = []
                    for g in groups:
                        if len(g) == 1 or cancels(weights[g[0]]):
                            regrouped.append(g)
                            continue
                        into_rest = {}
                        for x in g:
                            t = None
                            for y, v in w.successors(x, label).items():
                                if comp[block_of[y]] is X:
                                    t = v if t is None else add(t, v)
                            into_rest[x] = sr.zero if t is None else t
                        pieces = split_block_sorted(sr, g, into_rest)
                        split_rest += len(pieces) > 1
                        regrouped += pieces
                    groups = regrouped
                if len(groups) == 1:
                    continue
                if r is not None:
                    keep = next(g for g in groups if r in g)
                else:
                    zero_groups = (g for g in groups if is_zero(weights[g[0]]))
                    keep = next(zero_groups, None) or max(groups, key=len)
                owner = comp[bid]
                if owner is examined:  # every piece is examined whole again
                    comp[bid] = owner = None
                    pending.append(bid)
                for g in groups:
                    if g is keep:
                        continue
                    blk.difference_update(g)
                    new = len(members)
                    members.append(set(g) if len(g) > 1 else g)
                    comp.append(owner)
                    for x in g:
                        block_of[x] = new
                    if len(g) == 1:
                        live -= 1
                    if owner is None:
                        pending.append(new)
                    else:
                        owner.append(new)
                        if len(owner) == 2:
                            todo.append(owner)
                if len(blk) == 1:  # a set keeps the table it had at its largest
                    live -= 1
                    members[bid] = list(blk)
            if trace is not None:
                events = trace.events
                if split_s:
                    events.append(SplitEvent(len(events) + 1, label, C, split_s, count))
                if split_rest:
                    events.append(
                        SplitEvent(len(events) + 1, label, rest_of_X, split_rest, len(members))
                    )
            if not live:
                break
    return Partition(n, members), trace


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
            quotient = _representative_quotient(w, strong, map(str, range(len(strong))))
            coarse, trace = _refine(quotient, mode, start, want_trace)

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
    provider = Saturator(w, mode)
    if partition.n != w.state_count:
        raise ValueError("partition is over a different state count")
    sr = w.semiring
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
