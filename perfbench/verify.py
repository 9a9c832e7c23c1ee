"""Output checks for one ``minimize`` operation; none of this is timed."""

from __future__ import annotations

import json

from wbisim import Partition, SemanticError, check_is_weak_bisimulation


def boolean_coarsest(w, mode):
    """Coarsest partition of a boolean system, computed without the engine.

    Over the booleans a saturated weight says whether a qualifying path
    exists, so the answer is the coarsest strong bisimulation of the
    saturated step relation: the silent label steps along silent runs
    (zero steps included); an action steps as silent run + action (delay)
    or silent run + action + silent run (weak); strong leaves steps alone.
    Found by naive signature refinement from the one-block partition.
    """
    n = w.state_count
    step = {
        label: [set(w.successors(x, label)) for x in range(n)] for label in w.labels
    }
    if mode != "strong":
        reach = []
        for x in range(n):
            seen, todo = {x}, [x]
            while todo:
                for y in step[w.tau][todo.pop()]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            reach.append(seen)
        step[w.tau] = reach
        for a in w.actions:
            landed = [set().union(*(step[a][y] for y in reach[x])) for x in range(n)]
            if mode == "weak":
                landed = [set().union(*(reach[z] for z in ys)) for ys in landed]
            step[a] = landed
    block = [0] * n
    while True:
        ids = {}
        refined = [
            ids.setdefault(
                (block[x],) + tuple(frozenset(block[y] for y in step[l][x]) for l in w.labels),
                len(ids),
            )
            for x in range(n)
        ]
        if len(ids) == len(set(block)):
            return Partition.from_block_of(refined)
        block = refined


def check_partition(w, instance, partition, mode):
    """Reason the partition is wrong, or None.

    It must be a bisimulation of the given mode.  A boolean system's
    partition must also equal ``boolean_coarsest``, which catches blocks
    split that should not be.  On the replicated family every state must
    share its block with all its copies, so there are no more blocks than
    the component has states.
    """
    report = check_is_weak_bisimulation(w, partition, mode)
    if not report.ok:
        v = report.violations[0]
        return "not a %s bisimulation: %d violation(s), first on label %s" % (
            mode,
            len(report.violations),
            v.label,
        )
    if w.semiring.name == "boolean" and partition != boolean_coarsest(w, mode):
        return "not the coarsest %s bisimulation" % mode
    if instance.copy_of is not None:
        if len(partition) > instance.component_size:
            return "%d blocks for a %d-state component" % (len(partition), instance.component_size)
        block_of_copy = {}
        for name, x in instance.copy_of.items():
            b = partition.block_index(w.index(name))
            if block_of_copy.setdefault(x, b) != b:
                return "copies of component state %d sit in different blocks" % x
    return None


def parse_partition(w, mode, text):
    """Partition read from ``minimize`` structured output; ValueError if the
    output is not JSON, is about another mode or size, or its blocks do not
    partition the states."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("output is not JSON: %s" % exc) from None
    if not isinstance(payload, dict):
        raise ValueError("output is not a JSON object")
    if payload.get("equivalence") != mode or payload.get("states") != w.state_count:
        raise ValueError("output is for another mode or state count")
    try:
        blocks = [[w.index(name) for name in block] for block in payload["blocks"]]
    except (KeyError, TypeError, SemanticError) as exc:
        raise ValueError("output blocks are malformed: %s" % exc) from None
    return Partition(w.state_count, blocks)


def check_output(w, instance, mode, rc, text):
    """Reason one operation failed (exit code, JSON, partition), or None."""
    if rc != 0:
        return "exit code %r" % (rc,)
    try:
        partition = parse_partition(w, mode, text)
    except ValueError as exc:
        return str(exc)
    return check_partition(w, instance, partition, mode)
