"""Least solutions of x = M*x + b over star semirings, and saturation.

Saturated weights (weight of reaching a target class through silent
steps, with at most one observable action) are least solutions of linear
equation systems whose matrix is the silent-step adjacency.  They are
computed in closed form: the closure of M is built by one star
elimination (Gauss-Jordan generalized with ``star`` on the pivots, over
sparse rows), then applied to b.  Weak and delay saturation differ only
in b: one action step that lands on the class's silent-reach weights
(weak) or on the class itself (delay), built by the same helper.  Kleene
iteration from the zero vector is provided as an independent route for
cross-checking; it stops at an exact fixpoint for idempotent/exact
semirings and within a tolerance in float mode, and reports
non-convergence as a status rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConvergenceError(Exception):
    """A float-mode solution failed its residual check."""


class LinearSystem:
    """x = M*x + b with sparse rows (absent entry means semiring zero)."""

    __slots__ = ("semiring", "n", "rows", "b")

    def __init__(self, sr, rows, b):
        if len(rows) != len(b):
            raise ValueError("matrix/vector size mismatch")
        self.semiring = sr
        self.n = len(b)
        self.rows = rows
        self.b = b

    def apply(self, x):
        """One operator application F(x) = M*x + b."""
        sr = self.semiring
        out = []
        for i in range(self.n):
            acc = self.b[i]
            for j, m in self.rows[i].items():
                acc = sr.add(acc, sr.mul(m, x[j]))
            out.append(acc)
        return out

    def is_fixpoint(self, x):
        sr = self.semiring
        return all(sr.values_equal(a, b) for a, b in zip(self.apply(x), x))

    def __repr__(self):
        nnz = sum(len(r) for r in self.rows)
        return "LinearSystem(%s, n=%d, nnz=%d)" % (self.semiring.name, self.n, nnz)


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


def solve_least(system):
    """Least vector with x = M*x + b, computed as M* b by star elimination."""
    closure = star_closure(system.semiring, system.rows, system.n)
    return closure_apply(system.semiring, closure, system.b)


@dataclass
class KleeneResult:
    values: list
    converged: bool
    iterations: int


def kleene_iterate(system, max_iters=None, tol=None):
    """Ascending iteration x0 = zero-vector, x_{k+1} = F(x_k).

    Stops when successive iterates agree: exactly (via values_equal) for
    exact carriers, within ``tol`` for floats (default: the semiring's
    epsilon, which values_equal already applies).  Hitting ``max_iters``
    (default 10*n*n) without stabilizing is reported via ``converged``,
    not raised.
    """
    sr = system.semiring
    n = system.n
    if max_iters is None:
        max_iters = max(1, 10 * n * n)
    x = [sr.zero] * n
    if tol is not None and sr.carrier_mode == "float":
        def same(a, b):
            return a == b or abs(a - b) <= tol
    else:
        same = sr.values_equal
    for it in range(1, max_iters + 1):
        nxt = system.apply(x)
        if all(same(a, b) for a, b in zip(x, nxt)):
            return KleeneResult(nxt, True, it)
        x = nxt
    return KleeneResult(x, False, max_iters)


# -- the three equation families --------------------------------------------


def _class_set(w, C):
    Cset = frozenset(C)
    if not Cset:
        raise ValueError("target class must be nonempty")
    for x in Cset:
        if not (isinstance(x, int) and 0 <= x < w.state_count):
            raise ValueError("state id %r out of range" % (x,))
    return Cset


def _silent_rows(w):
    return [dict(w.successors(x, w.tau)) for x in range(w.state_count)]


def _class_indicator(sr, Cset, n):
    return [sr.one if x in Cset else sr.zero for x in range(n)]


def _action_rhs(w, action, lands_on):
    """b[x] = sum over y of weight(x, action, y) * lands_on[y], skipping
    the zero entries of ``lands_on``."""
    if action not in w.actions:
        raise ValueError("unknown action %r" % (action,))
    sr = w.semiring
    add, mul, zero = sr.add, sr.mul, sr.zero
    b = []
    for x in range(w.state_count):
        acc = zero
        for y, wt in w.successors(x, action).items():
            v = lands_on[y]
            if v != zero:
                acc = add(acc, mul(wt, v))
        b.append(acc)
    return b


def build_tau_system(w, C):
    """Silent-reach weights into C: x in C is pinned to one; elsewhere
    the row is the silent-step distribution."""
    Cset = _class_set(w, C)
    sr = w.semiring
    rows = []
    b = []
    for x in range(w.state_count):
        if x in Cset:
            rows.append({})
            b.append(sr.one)
        else:
            rows.append(dict(w.successors(x, w.tau)))
            b.append(sr.zero)
    return LinearSystem(sr, rows, b)


def build_action_system(w, C, action, w_tau):
    """One observable step anywhere along silent runs: the action step
    lands on the already-solved silent-reach vector ``w_tau`` of C."""
    _class_set(w, C)
    return LinearSystem(w.semiring, _silent_rows(w), _action_rhs(w, action, w_tau))


def build_delay_system(w, C, action):
    """Delay variant: silent steps may only precede the action, which must
    land in C directly."""
    Cset = _class_set(w, C)
    lands_on = _class_indicator(w.semiring, Cset, w.state_count)
    return LinearSystem(w.semiring, _silent_rows(w), _action_rhs(w, action, lands_on))


# -- saturation ---------------------------------------------------------------


class SaturationTable:
    """Solved weights for one target class: states x (silent + actions).

    Each label's weights are stored as its support: a mapping state ->
    weight that holds at least every state whose weight is not the
    semiring zero.  States outside it weigh zero.
    """

    __slots__ = ("mode", "class_states", "n", "zero", "supports")

    def __init__(self, mode, class_states, n, zero, supports):
        self.mode = mode
        self.class_states = tuple(sorted(class_states))
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


def _support(vector, zero):
    return {x: v for x, v in enumerate(vector) if v != zero}


class Saturator:
    """Produces saturation tables for one system, one target class at a time.

    The action systems of both the weak and the delay family share the
    full silent adjacency as their matrix whatever the class is, so its
    closure is computed once and reused; only the silent-reach system
    (whose rows are pinned inside the class) is eliminated per class, and
    each action costs one right-hand side and one closure application.
    Mode "strong" degenerates to single-step class weights and is what the
    strong refinement engine runs on; they are summed over the stored
    predecessors of the class, so a table costs the in-degree of the class
    rather than a pass over every state.
    """

    def __init__(self, w, mode="weak"):
        if mode not in ("strong", "weak", "delay"):
            raise ValueError("mode must be strong, weak or delay")
        self.w = w
        self.mode = mode
        self._tau_closure = None

    def _full_tau_closure(self):
        if self._tau_closure is None:
            w = self.w
            self._tau_closure = star_closure(w.semiring, _silent_rows(w), w.state_count)
        return self._tau_closure

    @staticmethod
    def _check_residual(system, x, label):
        if not system.is_fixpoint(x):
            raise ConvergenceError(
                "float solution for label %r failed its residual check" % (label,)
            )

    def table(self, C):
        w = self.w
        sr = w.semiring
        Cset = _class_set(w, C)
        n, zero = w.state_count, sr.zero
        if self.mode == "strong":
            supports = {}
            for label in w.labels:
                support = {}
                for y in Cset:
                    for x, wt in w.predecessors(y, label).items():
                        support[x] = sr.add(support[x], wt) if x in support else wt
                supports[label] = support
            return SaturationTable("strong", Cset, n, zero, supports)
        float_mode = sr.carrier_mode == "float"
        tau_sys = build_tau_system(w, Cset)
        w_tau = solve_least(tau_sys)
        if float_mode:
            self._check_residual(tau_sys, w_tau, w.tau)
        closure = self._full_tau_closure()
        silent = _silent_rows(w) if float_mode else None
        if self.mode == "weak":
            lands_on = w_tau
        else:
            lands_on = _class_indicator(sr, Cset, n)
        supports = {w.tau: _support(w_tau, zero)}
        for a in w.actions:
            b = _action_rhs(w, a, lands_on)
            x_a = closure_apply(sr, closure, b)
            if float_mode:
                self._check_residual(LinearSystem(sr, silent, b), x_a, a)
            supports[a] = _support(x_a, zero)
        return SaturationTable(self.mode, Cset, n, zero, supports)


def saturate(w, C, mode="weak"):
    """Saturation table for one class: the silent system solved once, then
    one right-hand side per action against the shared silent closure."""
    if mode not in ("weak", "delay"):
        raise ValueError("saturation mode must be weak or delay")
    return Saturator(w, mode).table(C)
