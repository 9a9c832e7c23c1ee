"""Least solutions of x = M*x + b over star semirings, and saturation.

Saturated weights (weight of reaching a target class through silent
steps, with at most one observable action) are least solutions of linear
equation systems whose matrix is the silent-step adjacency.

``Saturator`` solves only where the solution can be nonzero and never
builds a closure.  The reference route it is tested against, which
builds each system over all n states and solves it by star elimination,
lives in ``tests/helpers.py``, apart from its two closure functions
``star_closure`` and ``closure_apply``, which stay here for the
benchmark's tracer.  On a semiring whose star is always ``one`` and whose
sum keeps the better of its operands (it sets ``best_first_key``), the
least solution is a best-path weight, found by one best-first search
backwards along silent steps (Knuth, "A generalization of Dijkstra's
algorithm", 1977; Mohri, "Semiring frameworks and algorithms for
shortest-distance problems", 2002).  On the others it solves one silent
strongly connected component at a time, sinks first (Tarjan, "A unified
approach to path problems", 1981).  A component that the solve leaves
whole is factored once, by an elimination that keeps its multipliers,
stars and reduced rows (Lehmann, "Algebraic structures for transitive
closure", 1977), and every later b applies that factor by forward and
back-substitution; a component that the class cuts is eliminated for the
one b at hand.  Weak and delay saturation differ only in b: one action
step that lands on the class's silent-reach weights (weak) or on the
class itself (delay).
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush


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
    zero).  A factor ``one`` is not multiplied by: the product is the other
    factor."""
    add, mul, one = sr.add, sr.mul, sr.one
    b = {}
    for y, v in lands_on.items():
        unit = v == one
        for x, wt in column[y].items():
            t = wt if unit else v if wt == one else mul(wt, v)
            b[x] = add(b[x], t) if x in b else t
    return b


# -- saturation ---------------------------------------------------------------


class SaturationTable:
    """Solved weights for one target class: states x (silent + actions).

    Each label's weights are stored as its support: a mapping state ->
    weight that holds at least every state whose weight is not the
    semiring zero.  States outside it weigh zero.
    """

    __slots__ = ("mode", "n", "zero", "supports")

    def __init__(self, mode, n, zero, supports):
        self.mode = mode
        self.n = n
        self.zero = zero
        self.supports = supports

    def support(self, label):
        """Mapping state -> weight holding every state of nonzero weight."""
        return self.supports[label]

    def weight(self, x, label):
        return self.supports[label].get(x, self.zero)

    def vector(self, label):
        """The weights of all states, in state order."""
        support, zero = self.supports[label], self.zero
        return [support.get(x, zero) for x in range(self.n)]


def _silent_components(succ):
    """Strongly connected components of the graph x -> succ[x], sinks first.

    Returns ``comp``, where ``comp[x]`` is the index of x's component.
    Every edge leaving a component goes to one of smaller index, because
    Tarjan's algorithm emits a component only after all those it reaches.
    The depth-first search keeps its own stack, so chains of any length
    work.
    """
    n = len(succ)
    index = [0] * n  # 0: unvisited; else the visit number, from 1
    low = [0] * n
    comp = [-1] * n
    count = 0
    stack = []
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for u in edges:
                if not index[u]:
                    counter += 1
                    index[u] = low[u] = counter
                    stack.append(u)
                    work.append((u, iter(succ[u])))
                    break
                if comp[u] < 0 and index[u] < low[v]:  # u is still on the stack
                    low[v] = index[u]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        u = stack.pop()
                        comp[u] = count
                        if u == v:
                            break
                    count += 1
    return comp


_NO_PINS = frozenset()


class Saturator:
    """Produces saturation tables for one system, one target class at a time.

    Weak and delay tables are solved where they can be nonzero.  Every
    system is ``x = M*x + b`` with M the silent adjacency (rows of the
    class emptied for the silent-reach weights), so only states that reach
    the support of b by silent steps can carry weight.

    On a semiring with a ``best_first_key`` (star always ``one``, sums keep
    the better operand) one search backwards along silent steps from the
    support of b solves the system: the class states stay at their weight,
    states of weight ``one`` settle at once in FIFO order, the others
    settle best first from a heap, and each settled state relaxes its
    silent in-edges once.  Over the booleans that is a breadth-first search.

    On the other semirings the states that reach the support of b are
    solved one silent strongly connected component at a time, sinks first,
    after the states below it and the class.  A component that no class
    state cuts, of any size, is factored on first use and the factor is
    kept for the life of the Saturator, because the silent matrix is the
    same for every label and class; each b then costs one forward and one
    back-substitution through it.  A component that the class cuts is
    factored afresh for that solve and not kept.  The components are found
    once per system.  In ``real-float`` mode every solution is also checked
    on the rows that can be nonzero.

    The Saturator takes one predecessor column per label when it is made,
    the system's own list indexed by state id (``predecessor_column``,
    read only, not copied), and every table indexes those columns: the
    silent one for the searches and silent reach, the action ones for the
    action right-hand sides, summed over the predecessors of the
    silent-reach support (weak) or of the class (delay).  Mode "strong"
    degenerates to single-step class weights and is what the strong
    refinement engine runs on; they are summed over the predecessors of the
    class, so a table costs the in-degree of the class rather than a pass
    over every state.
    """

    def __init__(self, w, mode="weak"):
        if mode not in ("strong", "weak", "delay"):
            raise ValueError("mode must be strong, weak or delay")
        self.w = w
        self.mode = mode
        self._n = n = w.state_count
        self._key = w.semiring.best_first_key
        self._columns = {label: w.predecessor_column(label) for label in w.labels}
        if mode == "strong":
            return
        if self._key is None:
            self._silent = [w.successors(x, w.tau) for x in range(n)]
            self._comp = _silent_components(self._silent)
            self._size = Counter(self._comp)
            self._factors = {}  # component -> factor, for components left whole

    def _solve(self, b, pinned=_NO_PINS):
        """Support of the least x with x = M*x + b, where M is the silent
        adjacency with the rows of ``pinned`` emptied and b maps states to
        weights (absent states weigh zero).  Pinned states must carry
        weight ``one`` in b; they keep it."""
        if self._key is not None:
            return self._search(b)
        return self._eliminate(b, pinned)

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

    def _search(self, b):
        """``_solve`` by best-first search.  With star always ``one``, a
        weight times anything is no better than the weight itself, so the
        best tentative weight is final, and a state that reaches it while
        the states of that weight are relaxed settles at once.  The states
        of weight ``one``, the pinned ones among them, settle first, in
        FIFO order; over the booleans that is the whole search, breadth
        first.  Other tentative weights wait in buckets, one per key, with
        the keys in a heap.  A product with a factor ``one`` is the other
        factor and is not computed."""
        sr = self.w.semiring
        add, mul, zero, one, key = sr.add, sr.mul, sr.zero, sr.one, self._key
        pred = self._columns[self.w.tau]
        sol = {}  # settled weights
        best = {}  # tentative weights
        waiting = {}  # key -> states whose tentative weight has that key
        for x, v in b.items():
            if v == one:
                sol[x] = v
            elif v != zero:
                best[x] = v
                waiting.setdefault(key(v), []).append(x)
        heap = list(waiting)
        heapify(heap)
        level, batch = one, list(sol)
        while True:
            unit = level == one
            for y in batch:  # grows while it is relaxed
                for x, m in pred[y].items():
                    if x in sol:
                        continue
                    t = m if unit else level if m == one else mul(m, level)
                    if t == level:
                        sol[x] = t
                        batch.append(x)
                        continue
                    cur = best.get(x)
                    if cur is not None:
                        t = add(cur, t)
                        if t == cur:
                            continue
                    elif t == zero:
                        continue
                    best[x] = t
                    k = key(t)
                    if k in waiting:
                        waiting[k].append(x)
                    else:
                        waiting[k] = [x]
                        heappush(heap, k)
            if not heap:
                return sol
            batch = [x for x in waiting.pop(heappop(heap)) if x not in sol]
            if batch:  # equal keys mean equal weights
                level = best[batch[0]]
                for x in batch:
                    sol[x] = level

    def _eliminate(self, b, pinned):
        """``_solve`` by elimination, one silent component at a time."""
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

    def _check_residual(self, b, pinned, support, label):
        """Raise ConvergenceError unless ``support`` solves the system of
        ``_solve``, row by row.  Only the rows of the states that reach the
        support of b or of the solution by silent steps are checked: every
        other state has no silent step into them, so both sides of its row
        are zero.  States outside the support weigh zero and add nothing."""
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

    def table(self, C):
        w = self.w
        sr = w.semiring
        Cset = _class_set(w, C)
        n, zero = self._n, sr.zero
        if self.mode == "strong":
            supports = {}
            for label in w.labels:
                column = self._columns[label]
                support = {}
                for y in Cset:
                    for x, wt in column[y].items():
                        support[x] = sr.add(support[x], wt) if x in support else wt
                supports[label] = support
            return SaturationTable("strong", n, zero, supports)
        float_mode = sr.carrier_mode == "float"
        in_class = dict.fromkeys(Cset, sr.one)
        w_tau = self._solve(in_class, Cset)
        if float_mode:
            self._check_residual(in_class, Cset, w_tau, w.tau)
        lands_on = w_tau if self.mode == "weak" else in_class
        supports = {w.tau: w_tau}
        for a in w.actions:
            b = _action_rhs(sr, self._columns[a], lands_on)
            x_a = self._solve(b)
            if float_mode:
                self._check_residual(b, _NO_PINS, x_a, a)
            supports[a] = x_a
        return SaturationTable(self.mode, n, zero, supports)
