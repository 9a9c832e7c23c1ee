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
A saturation table maps each label to a support: the states with a
nonzero weight into the splitter, each mapped to its weight, and every
state it lacks weighs zero.  Only blocks holding a state of the support
can split, and only on their members in it: the members outside it all
weigh zero, so one of them stands in for the rest while the block is
regrouped, and the rest then joins that member's group.  Every other
block is left alone because its members all weigh zero.  When every
support member of a touched block carries the same weight object, as
it almost always does, the groups are built directly, with no weight
keyed (``_regroup``), and a block that such a support covers whole is
one group, left unsorted; only blocks with distinct weights go through
``split_block_sorted``.

Splitter scheduling, one rule in every mode: the blocks of the initial
partition, and their pieces before their turn, are examined whole, first
queued first: the initial blocks by their least state, then every piece
in the order it was queued, the largest piece of a split examined block
last (see below).  A queued block thus waits until the splits queued
before it have landed, and is examined once for them all, as in the
rounds of naive refinement (Kanellakis and Smolka, "CCS expressions,
finite state processes, and three problems of equivalence", Inf. Comput.
1990), rather than again after each.  A class's table is used at every
label, in the order of ``w.labels`` (the silent label first, then the
actions in the order they were declared or first seen), even if the
class splits meanwhile, since its table is of a fixed set.  In strong
mode the table of a one-state class is read straight off its predecessor
mapping, the system's own and so read only; a label whose support is
empty is skipped, since it touches no block.  When an examined block
splits, every piece, the kept one included, is examined whole again.
Each joins the back of the queue, except the largest, the block that
keeps its id on a tie: it joins a second queue, taken from only when the
first is empty, so it is examined after every other pending block.  This
is Hopcroft's rule that every piece but the largest goes first ("An n log
n algorithm for minimizing states in a finite automaton", 1971), with
the largest examined late instead of never.  On a chain of action steps,
where each split cuts one state off a block, re-examining the kept block
first in, first out summed about n^2/4 splitter states; deferred, it sums
about 2n.  On random boolean systems in strong mode, at n = 1,000 to
64,000, the classes given a table sum 2.0n to 2.3n at four steps per
state and 2.5n to 2.9n at two.  The costliest shape found is one step
per state to a random state: there they sum 4.3n to 6.7n, and refinement
at n = 16,000 takes 1.3 to 1.6 times as long as when, after Valmari and
Franceschinis, only the smaller of two pieces is examined and blocks are
regrouped a second time on the weight into the other; that sums about
3n there.

A touched block keeps its id and its members outside the support: one
of its groups keeps the block, by the rule stated at ``_regroup``, and
only the other groups move out.

The loop stops as soon as every block is a singleton, since no table can
split one.  For the same reason, in weak and delay mode, a splitter S
gets no table when no state in a block of two or more, a live state, can
carry weight into S: its support then lies in blocks of one, which the
regroups pass over anyway.  The engine's Saturator
(``solver._EngineSaturator``) flags where live states reach, and on the
semirings with a ``best_first_key`` bounds its later searches there, by
the region rule stated at its ``_carried_into``; it also takes the
engine's blocks as they are, unchecked.  The flags start on every state
and are recomputed each time the live count has halved since the last
computation, so at most log2(n) times.  Live states only become fewer,
so stale flags are a superset of current ones and skip no splitter that
could split.  A skipped splitter counts as examined as if its table had
been computed, so the partition and every trace event are those of a
run without the skip.

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

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .solver import Saturator, _EngineSaturator
from .wlts import WLTS, Partition, _class_set, _columns, _escaped, block_names


def split_block_sorted(sr, members, weights):
    """Group members by equal weight: each group in ascending id order,
    the groups in order of their first member.  ``weights`` is a support,
    a mapping state -> weight; a member it lacks weighs ``sr.zero``.

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
    zero = sr.zero
    for x in sorted(members):
        wx = weights.get(x, zero)
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


def _regroup(sr, blk, inside, support):
    """Group block ``blk`` by weight into a splitter, from its members in
    the support, ``inside``, and one member outside it, if any, standing in
    for all of those: they weigh zero, so they share a group.  Returns the
    groups, as ``split_block_sorted`` orders them, and the group that keeps
    the block: the stand-in's; without one, the group of weight zero;
    failing that, the largest, the first of them on a tie.  A lone group is
    not sorted: it ends the block's turn, since the block does not split.

    When every member in the support carries the same weight object, as
    it almost always does, the groups are built directly: one group
    without a stand-in (``inside`` itself) or when that weight is zero,
    else the sorted members and the stand-in's group.  Otherwise
    ``split_block_sorted`` groups them on the support, which lacks the
    stand-in, so it weighs zero.  ``inside`` may be sorted in place."""
    r = None
    if len(inside) < len(blk):
        for r in blk:
            if r not in support:
                break
    v = support[inside[0]]
    for x in inside:
        if support[x] is not v:
            break
    else:
        if r is not None and not sr.is_zero(v):
            inside.sort()
            keep = [r]
            return ([inside, keep] if inside[0] < r else [keep, inside]), keep
        group = inside if r is None else inside + [r]
        return [group], group
    groups = split_block_sorted(sr, inside if r is None else inside + [r], support)
    if r is not None:
        return groups, next(g for g in groups if r in g)
    zero_groups = (g for g in groups if sr.is_zero(support[g[0]]))
    return groups, next(zero_groups, None) or max(groups, key=len)


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
    computed once every block is a singleton, nor, in weak and delay mode,
    for a splitter that the module docstring skips.  A run records, per
    splitter and label that split a block, one event carrying the counts
    after the regroups on the weight into that splitter.  On the
    strong-quotient route this is the quotient pass, each splitter lifted
    to the sorted states of its strong blocks; the strong pre-pass is not
    traced.  Such a trace replays on the document states from the initial
    partition, but its events need not be those of refining the document
    states directly.  The splitter order follows the order of the states
    in each table's supports, which the solver does not fix, so the
    events and ``candidates_examined`` may differ between versions on
    the same system; the partition does not."""

    mode: str
    events: list[SplitEvent] = field(default_factory=list)
    candidates_examined: int = 0


def _refine(w, mode, initial, want_trace):
    """Run the refinement loop on the states of ``w`` (module docstring);
    returns (Partition, RefinementTrace | None)."""
    n = w.state_count
    if initial is not None and initial.n != n:
        raise ValueError("initial partition is over a different state count")
    provider = _EngineSaturator(w, mode)
    trace = RefinementTrace(mode=mode) if want_trace else None
    sr = w.semiring
    # only blocks of two or more are regrouped, so a block of one is never mutated
    blocks = initial.blocks if initial is not None else [range(n)] if n else []
    members = [set(block) if len(block) > 1 else block for block in blocks]
    block_of = [0] * n if initial is None else list(initial._block_of)
    examined = [False] * len(members)  # whether each block was examined since it last split
    pending = deque(range(len(members)))  # blocks to examine whole, first in first out
    deferred = deque()  # the largest piece of each split examined block
    live = sum(len(blk) for blk in members if len(blk) > 1)  # states in blocks of two or more
    flags = bytearray(b"\1") * n  # weak and delay: a superset of where live states reach
    flagged_at = live  # the live count when the flags were last computed
    while live and (pending or deferred):
        cid = (pending or deferred).popleft()
        examined[cid] = True
        S = members[cid]
        if mode != "strong":
            if 2 * live <= flagged_at:
                live_states = (x for blk in members if len(blk) > 1 for x in blk)
                flags, flagged_at = provider._carried_into(live_states), live
            if not any(map(flags.__getitem__, S)):  # only blocks of one can be touched
                continue
        if trace is not None:
            trace.candidates_examined += 1
            C = tuple(sorted(S))
        table = provider.table(S)
        for label in w.labels:
            support = table[label]
            if not support:  # no state weighs anything into S
                continue
            split = 0
            touched = {}
            for x in support:
                bid = block_of[x]
                if bid in touched:
                    touched[bid].append(x)
                elif len(members[bid]) > 1:
                    touched[bid] = [x]
            for bid, inside in touched.items():
                blk = members[bid]
                groups, keep = _regroup(sr, blk, inside, support)
                if len(groups) == 1:
                    continue
                split += 1
                moved = [g for g in groups if g is not keep]
                largest = None
                if examined[bid]:  # every piece is examined whole again
                    examined[bid] = False
                    # keep may be the stand-in's group alone: size the kept piece by the block
                    largest = max(moved, key=len)
                    if len(largest) <= len(blk) - sum(map(len, moved)):
                        largest = keep
                    (deferred if largest is keep else pending).append(bid)
                for g in moved:
                    blk.difference_update(g)
                    new = len(members)
                    members.append(set(g) if len(g) > 1 else g)
                    examined.append(False)
                    for x in g:
                        block_of[x] = new
                    if len(g) == 1:
                        live -= 1
                    (deferred if g is largest else pending).append(new)
                if len(blk) == 1:  # a set keeps the table it had at its largest
                    live -= 1
                    members[bid] = list(blk)
            if split and trace is not None:
                events = trace.events
                events.append(SplitEvent(len(events) + 1, label, C, split, len(members)))
            if not live:
                break
    return Partition.from_block_of(block_of), trace


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
            quotient = _representative_quotient(w, strong, [str(b) for b in range(len(strong))])
            coarse, trace = _refine(quotient, mode, start, want_trace)
            if trace is not None:
                for e in trace.events:
                    e.splitter = tuple(sorted(x for b in e.splitter for x in strong.blocks[b]))
            return Partition.from_block_of([coarse._block_of[b] for b in strong._block_of]), trace
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
    reported with the offending weights.  Only the blocks that a support
    touches are compared: the members of any other all weigh zero.
    """
    provider = Saturator(w, mode)
    if partition.n != w.state_count:
        raise ValueError("partition is over a different state count")
    sr = w.semiring
    zero, values_equal = sr.zero, sr.values_equal
    blocks, block_of = partition.blocks, partition._block_of
    violations = []
    for C in blocks:
        table = provider.table(C)
        for label in w.labels:
            support = table[label]
            for bid in sorted({block_of[x] for x in support}):
                block = blocks[bid]
                if len(block) == 1:
                    continue
                weights = [support.get(x, zero) for x in block]
                rep = weights[0]
                if all(values_equal(v, rep) for v in weights[1:]):
                    continue
                violations.append(
                    Violation(
                        label,
                        C,
                        block,
                        {w.state_names[x]: sr.format(v) for x, v in zip(block, weights)},
                    )
                )
    return BisimulationReport(mode, not violations, violations)


class QuotientError(Exception):
    """Block members disagreed: the partition was not a strong bisimulation."""


def emit_quotient(w, partition):
    """Quotient system of a strong partition, its states named by
    ``block_names``.  The partition is checked first, by
    ``check_is_weak_bisimulation`` in strong mode; on its first violation
    QuotientError names the block, the label, the class and the members'
    weights.  Weak/delay classes do not induce well-defined single-step
    weights, so the CLI only offers quotients for strong partitions.
    """
    report = check_is_weak_bisimulation(w, partition, "strong")
    names = block_names(w, partition)
    if not report.ok:
        v, block_of = report.violations[0], partition._block_of
        weights = ", ".join("%s=%s" % pair for pair in zip(_escaped(v.weights), v.weights.values()))
        raise QuotientError("members of %s disagree on %s into %s: %s" % (
            names[block_of[v.block[0]]], v.label, names[block_of[v.target_class[0]]], weights))
    return _representative_quotient(w, partition, names)


def _representative_quotient(w, partition, names):
    """Quotient of a strong partition whose members are known to agree, as
    the one ``refine_partition`` has just computed or one ``emit_quotient``
    has checked: its steps are the first members', both ends replaced by
    their blocks, and nothing is checked.  Its states are ``names``."""
    block_of = partition._block_of
    head = {block[0]: bi for bi, block in enumerate(partition.blocks)}
    steps = (
        (head[x], label, block_of[y], wt)
        for label in w.labels for y, into in enumerate(w.predecessor_column(label))
        for x, wt in into.items() if x in head
    )
    columns = _columns(w.semiring, w.labels, len(names), steps)
    index = {name: i for i, name in enumerate(names)}
    return WLTS._of_columns(w.semiring, tuple(names), w.actions, w.tau, index, columns)
