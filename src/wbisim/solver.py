"""Least solutions of x = M*x + b over star semirings, and saturation.

Saturated weights (weight of reaching a target class through silent
steps, with at most one observable action) are least solutions of linear
equation systems whose matrix is the silent-step adjacency.

``Saturator`` solves only where the solution can be nonzero and never
builds a closure.  A table it returns maps each label to the support of
the weights into the class: a mapping state -> weight that holds at least
every state of nonzero weight; a state the support lacks weighs zero.
The reference route it is tested against, which builds each system over
all n states and solves it by star elimination, lives in
``tests/helpers.py``, apart from its two closure functions
``star_closure`` and ``closure_apply``, which stay here for the
benchmark's tracer.  On a semiring whose star is always ``one`` and whose
sum keeps the better of its operands (it sets ``best_first_key``), the
least solution is a best-path weight, found by one search backwards
along silent steps, breadth first over the weight ``one`` and best first
below it (Knuth, "A generalization of Dijkstra's algorithm", 1977;
Mohri, "Semiring frameworks and algorithms for shortest-distance
problems", 2002), one per label.  On the others it solves one silent
strongly connected component at a time, sinks first (Tarjan, "A unified
approach to path problems", 1981).  A component that the solve leaves
whole is factored once, by an elimination that keeps its multipliers,
stars and reduced rows (Lehmann, "Algebraic structures for transitive
closure", 1977), and every later b applies that factor by forward and
back-substitution; a component that the class cuts is eliminated for the
one b at hand.  Weak and delay saturation differ only in b: one action
step that lands on the class's silent-reach weights (weak) or on the
class itself (delay).  ``Saturator.table`` checks the class it is given,
except in the refinement engine's ``_EngineSaturator``, which passes its
own blocks unchecked.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush

from .wlts import _forward


class ConvergenceError(Exception):
    """A float-mode solution failed its residual check."""


# Only the test-side reference solver calls star_closure and
# closure_apply.  They stay in this module because perfbench's tracer
# wraps them by name here, and its tests assert on them.


def star_closure(sr, rows, n):
    """Rows of the non-reflexive part of M*: entry [i][j] sums all
    nonempty paths i -> j.  The full closure is this plus the identity.

    Star elimination with ascending pivots k, on dict rows with a column
    index for the pivot scans:  M[i][j] <- M[i][j] + M[i][k] *
    star(M[k][k]) * M[k][j], with row k read once per pivot so every
    update sees the values from the start of the pivot step.
    """
    add, mul, star, zero = sr.add, sr.mul, sr.star, sr.zero
    m = [dict(r) for r in rows]
    cols = [set() for _ in range(n)]
    for i, row in enumerate(m):
        for j in row:
            cols[j].add(i)
    for k in range(n):
        rk = m[k]
        s = star(rk.get(k, zero))
        through = [(j, mul(s, v)) for j, v in rk.items()]
        if not through:
            continue
        for i in list(cols[k]):
            ri = m[i]
            aik = ri.get(k)
            if aik is None:
                continue
            for j, t in through:
                v = mul(aik, t)
                cur = ri.get(j)
                if cur is None:
                    if v != zero:
                        ri[j] = v
                        cols[j].add(i)
                else:
                    ri[j] = add(cur, v)
    return m


def closure_apply(sr, closure_rows, b):
    """x = M* b given the nonempty-path closure: x[i] = b[i] + sum_j A[i][j]*b[j]."""
    add, mul, zero = sr.add, sr.mul, sr.zero
    nonzero_b = {j for j, v in enumerate(b) if v != zero}
    out = []
    for i, row in enumerate(closure_rows):
        acc = b[i]
        for j, a in row.items():
            if j in nonzero_b:
                acc = add(acc, mul(a, b[j]))
        out.append(acc)
    return out


def _class_set(w, C):
    Cset = frozenset(C)
    if not Cset:
        raise ValueError("target class must be nonempty")
    n = w.state_count
    for x in Cset:
        if not (isinstance(x, int) and 0 <= x < n):
            raise ValueError("state id %r out of range" % (x,))
    return Cset


def _action_rhs(sr, column, lands_on):
    """b[x] = sum over y of weight(x, action, y) * lands_on[y], as a mapping
    summed over the action predecessors (``column``, by state id) of the
    states in ``lands_on`` (a mapping state -> weight; absent states weigh
    zero).  A factor ``one`` is not multiplied by: the product is the
    other factor."""
    add, mul, one = sr.add, sr.mul, sr.one
    b = {}
    for y, v in lands_on.items():
        unit = v == one
        for x, wt in column[y].items():
            t = wt if unit else v if wt == one else mul(wt, v)
            b[x] = add(b[x], t) if x in b else t
    return b


# -- saturation ---------------------------------------------------------------


def _silent_components(succ, pred):
    """Strongly connected components of the graph x -> succ[x] by two
    plain searches (Kosaraju; Sharir, "A strong-connectivity algorithm and
    its applications in data flow analysis", 1981), ``pred[y]`` holding the
    sources of the edges into y.  A depth-first search along ``succ`` lists
    the states as they finish; then each unplaced state, latest finished
    first, gathers the unplaced states that reach it along ``pred``.  That
    finds sources first, so ``comp[x]``, the index of x's component, counts
    from the last: every edge leaving a component goes to a smaller index,
    sinks first as the solve needs, in the order each component's first
    state finishes.  Neither search recurses, so chains of any length work."""
    n = len(succ)
    seen = bytearray(n)
    finished = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for u in edges:
                if not seen[u]:
                    seen[u] = 1
                    work.append((u, iter(succ[u])))
                    break
            else:
                work.pop()
                finished.append(v)
    comp = [-1] * n
    count = 0
    for root in reversed(finished):
        if comp[root] < 0:
            comp[root] = count
            group = [root]
            for y in group:  # grows while it is walked
                for x in pred[y]:
                    if comp[x] < 0:
                        comp[x] = count
                        group.append(x)
            count += 1
    return [count - 1 - c for c in comp]


_NO_PINS = frozenset()
_FIRST_REGION = bytes.maketrans(b"\2", b"\0")  # keeps the states flagged 1


class Saturator:
    """Produces saturation tables for one system, one target class at a time.

    Weak and delay tables are solved where they can be nonzero.  Every
    system is ``x = M*x + b`` with M the silent adjacency (rows of the
    class emptied for the silent-reach weights), so only states that reach
    the support of b by silent steps can carry weight.

    On a semiring with a ``best_first_key`` (star always ``one``, sums keep
    the better operand) a table is one search per label backwards along
    silent steps (``_searched``), from the class states at ``one`` for the
    silent label.  An action's search starts from the action steps into
    the states it lands on, with no right-hand side built: a step whose
    product is ``one`` settles its source at once, since ``one + a ==
    one``, and any other product waits as a tentative weight.  The states
    of weight ``one`` settle first, breadth first; only when a weight
    other than ``one`` turns up are tentative weights merged by the sum
    and a heap of their keys built, from which the others settle best
    first.  Each settled state relaxes its silent in-edges once.  Over the
    booleans no heap is built.

    The refinement engine's ``_EngineSaturator`` bounds these searches to
    where it reads the tables, by the region rule of its
    ``_carried_into``; every other caller (``check``, ``saturate``,
    ``--emit-quotient``, the checker) has its class checked by ``table``
    and gets full tables.

    On the other semirings the states that reach the support of b are
    solved one silent strongly connected component at a time, sinks first,
    after the states below it and the class.  A component that no class
    state cuts, of any size, is factored on first use and the factor is
    kept for the life of the Saturator, because the silent matrix is the
    same for every label and class; each b then costs one forward and one
    back-substitution through it.  A component that the class cuts is
    factored afresh for that solve and not kept.  The components are found
    once per system.  In ``real-float`` mode ``_solved`` checks every
    solution right after ``_eliminate``, on the rows that can be nonzero.

    The Saturator takes one predecessor column per label when it is made,
    the system's own list indexed by state id (``predecessor_column``,
    read only, not copied), and every table indexes those columns: the
    silent one for the searches and silent reach, the action ones for the
    action steps into the silent-reach support (weak) or into the class
    (delay).  Its silent rows (``_silent``) are derived from the silent
    column, targets ascending; the system's own rows are never built.
    Mode "strong" degenerates to single-step class weights and
    is what the strong refinement engine runs on; they are summed over the
    predecessors of the class, so a table costs the in-degree of the class
    rather than a pass over every state.  The strong support of a one-state
    class {y} is the column's own mapping for y, not a copy, so every
    support ``table`` returns is read only.
    """

    def __init__(self, w, mode="weak"):
        if mode not in ("strong", "weak", "delay"):
            raise ValueError("mode must be strong, weak or delay")
        self.w = w
        self.mode = mode
        n = w.state_count
        self._key = w.semiring.best_first_key
        self._columns = {label: w.predecessor_column(label) for label in w.labels}
        if mode == "strong":
            return
        self._silent = _forward(self._columns[w.tau])  # per state: target -> silent weight
        if self._key is None:
            self._comp = _silent_components(self._silent, self._columns[w.tau])
            self._size = Counter(self._comp)
            self._factors = {}  # component -> factor, for components left whole
        else:  # the states the silent and the action searches may settle
            self._silent_within = self._action_within = bytearray(b"\1") * n

    def _silent_reach(self, seeds):
        """The states that reach one of ``seeds`` by silent steps, seeds
        first, each once."""
        pred = self._columns[self.w.tau]
        region = list(dict.fromkeys(seeds))
        seen = set(region)
        for y in region:
            for x in pred[y]:
                if x not in seen:
                    seen.add(x)
                    region.append(x)
        return region

    def _searched(self, C):
        """The weak or delay table of class ``C`` on a best-first carrier:
        one search per label, the silent label first (class docstring).
        A search settles one level at a time, ``one`` first and then each
        weight below it, best first.  The states of a level relax their
        silent in-edges in FIFO order, and every state that reaches the
        level's weight on the way settles with them.  Any other weight
        waits as a tentative one, merged by the sum, in a bucket per key,
        with the keys in a heap.  The buckets are made on the first such
        weight, so a search that meets none, as every boolean one, builds
        no heap.  A product with a factor ``one`` is the other factor and
        is not computed."""
        w = self.w
        sr = w.semiring
        add, mul, zero, one, key = sr.add, sr.mul, sr.zero, sr.one, self._key
        pred = self._columns[w.tau]
        table = {}
        lands_on = None
        for label in w.labels:
            offers = []  # (state, tentative weight other than zero and the level)
            if lands_on is None:
                within = self._silent_within
                sol = {x: one for x in C if within[x]}  # settled weights
            else:
                within = self._action_within
                column = self._columns[label]
                sol = {}
                for y, v in lands_on.items():
                    unit = v == one
                    for x, wt in column[y].items():
                        if x in sol or not within[x]:
                            continue
                        t = wt if unit else v if wt == one else mul(wt, v)
                        if t == one:
                            sol[x] = t
                        elif t != zero:
                            offers.append((x, t))
            level, batch, heap = one, list(sol), None
            while True:
                for y in batch:  # grows while it is relaxed
                    for x, m in pred[y].items():
                        if x in sol or not within[x]:
                            continue
                        t = m if level == one else level if m == one else mul(m, level)
                        if t == level:
                            sol[x] = t
                            batch.append(x)
                        elif t != zero:
                            offers.append((x, t))
                if heap is None:
                    if not offers:
                        break
                    best, waiting, heap = {}, {}, []  # tentative weights, buckets by key, keys
                for x, t in offers:
                    if x in sol:
                        continue
                    cur = best.get(x)
                    if cur is not None:
                        t = add(cur, t)
                        if t == cur:
                            continue
                    best[x] = t
                    k = key(t)
                    if k not in waiting:
                        waiting[k] = []
                        heappush(heap, k)
                    waiting[k].append(x)
                offers = []
                while heap:
                    batch = [x for x in waiting.pop(heappop(heap)) if x not in sol]
                    if batch:
                        break
                else:
                    break
                level = best[batch[0]]  # equal keys mean equal weights
                for x in batch:
                    sol[x] = level
            table[label] = sol
            if lands_on is None:
                lands_on = sol if self.mode == "weak" else dict.fromkeys(C, one)
        return table

    def _eliminate(self, b, pinned):
        """Support of the least x with x = M*x + b, where M is the silent
        adjacency with the rows of ``pinned`` emptied and b maps states to
        weights (absent states weigh zero), solved one silent component at
        a time.  Pinned states must carry weight ``one`` in b; they keep
        it."""
        sr = self.w.semiring
        add, mul, zero = sr.add, sr.mul, sr.zero
        silent, comp, size, factors = self._silent, self._comp, self._size, self._factors
        region = self._silent_reach(x for x, v in b.items() if v != zero)
        sol = {}
        groups = {}
        for x in region:
            if x in pinned:
                sol[x] = b[x]
            else:
                groups.setdefault(comp[x], []).append(x)
        for c in sorted(groups):
            free = groups[c]
            if len(free) < size[c]:  # the class cuts the component
                factor = self._factor(free)
            else:
                factor = factors.get(c)
                if factor is None:
                    factor = factors[c] = self._factor(free)
            # Forward substitution: b and the solved states outside the
            # free states, then the multipliers, then the star of the
            # self-loop.  Back-substitution runs in reverse order.
            forward = {}
            for x, multipliers, s, _ in factor:
                acc = b.get(x, zero)
                for y, m in silent[x].items():
                    if y in sol:
                        acc = add(acc, mul(m, sol[y]))
                for y, m in multipliers:
                    acc = add(acc, mul(m, forward[y]))
                forward[x] = acc if s is None else mul(s, acc)
            for x, _, _, reduced in reversed(factor):
                acc = forward[x]
                for z, v in reduced:
                    if z in sol:
                        acc = add(acc, mul(v, sol[z]))
                if acc != zero:
                    sol[x] = acc
        return sol

    def _factor(self, free):
        """LU factor of the silent rows of ``free`` (states of one
        component) restricted to ``free``, by Gaussian elimination in
        ascending order: each row substitutes the reduced rows of earlier
        states, smallest first, then is scaled by the star of its
        self-loop.  For each state, ascending, it holds the multipliers in
        the order they were substituted, that star (None without a
        self-loop) and the reduced row to later states."""
        sr = self.w.semiring
        add, mul = sr.add, sr.mul
        silent = self._silent
        inside = set(free)
        reduced = {}
        factor = []
        for x in sorted(free):
            row = {y: m for y, m in silent[x].items() if y in inside}
            earlier = sorted(y for y in row if y < x)  # a sorted list is a heap
            multipliers = []
            while earlier:
                y = heappop(earlier)
                m = row.pop(y)
                multipliers.append((y, m))
                for z, v in reduced[y]:
                    t = mul(m, v)
                    if z not in row and z < x:
                        heappush(earlier, z)
                    row[z] = add(row[z], t) if z in row else t
            s = None
            loop = row.pop(x, None)
            if loop is not None:
                s = sr.star(loop)
                row = {z: mul(s, v) for z, v in row.items()}
            reduced[x] = tuple(row.items())
            factor.append((x, tuple(multipliers), s, reduced[x]))
        return factor

    def _solved(self, b, pinned, label):
        """``_eliminate``'s support for b, then in ``real-float`` mode its
        ``_check_residual``, whose error names ``label``."""
        support = self._eliminate(b, pinned)
        if self.w.semiring.carrier_mode == "float":
            self._check_residual(b, pinned, support, label)
        return support

    def _check_residual(self, b, pinned, support, label):
        """Raise ConvergenceError unless ``support`` solves the system of
        ``_eliminate``, row by row.  Only the rows of the states that reach
        the support of b or of the solution by silent steps are checked:
        every other state has no silent step into them, so both sides of its
        row are zero.  States outside the support weigh zero and add
        nothing."""
        sr = self.w.semiring
        add, mul, zero = sr.add, sr.mul, sr.zero
        for x in self._silent_reach(list(b) + list(support)):
            acc = b.get(x, zero)
            if x not in pinned:
                for y, m in self._silent[x].items():
                    if y in support:
                        acc = add(acc, mul(m, support[y]))
            if not sr.values_equal(acc, support.get(x, zero)):
                raise ConvergenceError(
                    "float solution for label %r failed its residual check" % (label,)
                )

    def _class(self, C):
        """The class ``table`` works on: ``C`` checked, nonempty and every
        member a state id in range."""
        return _class_set(self.w, C)

    def table(self, C):
        """Saturated weights into class ``C``: a dict label -> support, in
        ``w.labels`` order.  A support maps at least every state of nonzero
        weight to its weight; a state it lacks weighs zero.  A support is
        read only: in strong mode that of a one-state class {y} is
        ``w.predecessor_column(label)[y]`` itself.  ``C`` is checked first
        (``_class``): nonempty, and every member a state id in range."""
        w = self.w
        sr = w.semiring
        C = self._class(C)
        if self.mode == "strong":
            if len(C) == 1:
                (y,) = C
                return {label: self._columns[label][y] for label in w.labels}
            table = {}
            for label in w.labels:
                column = self._columns[label]
                support = {}
                for y in C:
                    for x, wt in column[y].items():
                        support[x] = sr.add(support[x], wt) if x in support else wt
                table[label] = support
            return table
        if self._key is not None:
            return self._searched(C)
        in_class = dict.fromkeys(C, sr.one)
        w_tau = self._solved(in_class, in_class, w.tau)
        lands_on = w_tau if self.mode == "weak" else in_class
        table = {w.tau: w_tau}
        for a in w.actions:
            table[a] = self._solved(_action_rhs(sr, self._columns[a], lands_on), _NO_PINS, a)
        return table


class _EngineSaturator(Saturator):
    """The refinement engine's Saturator.  It asks ``table`` for the
    tables of its own blocks (a set, or a sequence of one state), which
    are taken as they are, unchecked.  In weak and delay mode it also
    flags where the engine's live states reach (``_carried_into``)."""

    _action_steps = None  # per state, the list of the targets of its action steps

    def _class(self, C):
        return C

    def _carried_into(self, sources):
        """A bytearray over state ids flagging every state that one of
        ``sources`` can carry weight into: silent steps, then at most one
        action step (delay mode), followed by silent steps (weak mode).
        Edges are followed whatever their weight, so a table of a class
        with no flagged member gives every source weight zero.  They are
        read from the silent rows and from one list per state of the
        targets of its action steps, built on the first call and kept.

        The region rule.  Flag 1 marks R1, the states the sources reach by
        silent steps alone, and 2 marks R2, the other states they reach
        once the action step is taken.  On a carrier with a
        ``best_first_key`` this call also bounds the searches of every
        later table to the regions: the silent search to R1 and R2 in weak
        mode and to R1 in delay mode, each action's walk and search to R1.
        The engine passes its live states, the states in blocks of two or
        more, and reads a table only at them, which lie in R1; a weak
        action table reads the silent one only at the action successors
        of R1, which lie in R1 or R2.  R1, and in weak mode R1 plus R2, are
        closed under silent successors, so every silent path from a state
        of a region stays in it and every weight found there is exact; the
        regions of more sources, a superset, are exact too.  A support then
        lacks only states outside every block of two or more and lists the
        others in the same order, so partitions and trace events stay those
        of unbounded tables."""
        w = self.w
        flags = bytearray(w.state_count)
        if self._action_steps is None:
            steps = self._action_steps = [[] for _ in range(w.state_count)]
            for a in w.actions:
                for y, into in enumerate(self._columns[a]):
                    for x in into:
                        steps[x].append(y)
        silent_rows, action_steps = self._silent, self._action_steps

        def flag(seeds, silent, level):
            """Flag the unflagged seeds with ``level`` and, if ``silent``,
            every state they reach by silent steps; returns the states
            newly flagged."""
            new = []
            for x in seeds:
                if not flags[x]:
                    flags[x] = level
                    new.append(x)
            if silent:
                for x in new:  # grows while it is walked
                    for y in silent_rows[x]:
                        if not flags[y]:
                            flags[y] = level
                            new.append(y)
            return new

        reach = flag(sources, True, 1)
        steps = (y for x in reach for y in action_steps[x])
        flag(steps, self.mode == "weak", 2)
        if self._key is not None:
            first = flags.translate(_FIRST_REGION)
            self._action_within = first
            self._silent_within = flags if self.mode == "weak" else first
        return flags
