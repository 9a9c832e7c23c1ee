"""Shared builders for the test suite: small named systems and random
system generators (all deterministic given an explicit rng)."""

from dataclasses import dataclass
from fractions import Fraction

import wbisim as wb


def make_wlts(sr, states, edges, tau="tau", actions=None):
    """Build a WLTS from (src_name, label, dst_name, weight) tuples."""
    index = {s: i for i, s in enumerate(states)}
    if actions is None:
        actions = []
        for _, label, _, _ in edges:
            if label != tau and label not in actions:
                actions.append(label)
    triples = [(index[s], label, index[t], w) for s, label, t, w in edges]
    return wb.WLTS(sr, states, actions, tau, triples)


def figure_system():
    """Seven-state system with two routes into the target class.

    With b silent and the class {x2, x4, x5}, exactly two admissible
    paths lead from x: the direct a-step to x4, and the b,b,b,a route to
    x5 (the 'reaches the class too early' continuation through x4 and the
    all-b route into x2 are both excluded).
    """
    sr = wb.by_name("real")
    w1, w2, w3, w4, w5, w6, w7 = [Fraction(1, d) for d in range(2, 9)]
    edges = [
        ("x", "b", "x1", w1),
        ("x1", "b", "x2", w2),
        ("x2", "b", "x3", w3),
        ("x3", "a", "x5", w7),
        ("x", "a", "x4", w4),
        ("x4", "b", "x5", w5),
        ("x3", "a", "x6", w6),
    ]
    return make_wlts(
        sr, ["x", "x1", "x2", "x3", "x4", "x5", "x6"], edges, tau="b", actions=["a"]
    )


FIGURE_CLASS = ("x2", "x4", "x5")
# Recomputed by the brute-force oracle (enumerate, then sum):
# w4 + w1*w2*w3*w7 = 1/5 + 1/192.
FIGURE_WEIGHT = Fraction(197, 960)


def chains_system():
    """a.tau.b next to a.b over the booleans: weakly equal, strongly not."""
    sr = wb.by_name("boolean")
    edges = [
        ("p0", "a", "p1", True),
        ("p1", "tau", "p2", True),
        ("p2", "b", "p3", True),
        ("q0", "a", "q1", True),
        ("q1", "b", "q2", True),
    ]
    return make_wlts(sr, ["p0", "p1", "p2", "p3", "q0", "q1", "q2"], edges)


def weak_delay_witness():
    """Minimal boolean system (found by exhaustive search) separating weak
    from delay: s0 can do a staying put and then slip silently to s1,
    while s2 must commit its a directly into s1."""
    sr = wb.by_name("boolean")
    edges = [
        ("s0", "tau", "s1", True),
        ("s0", "a", "s0", True),
        ("s2", "tau", "s0", True),
        ("s2", "a", "s1", True),
    ]
    return make_wlts(sr, ["s0", "s1", "s2"], edges)


def tau_cycle_system():
    """x and y swap silently forever, z does nothing: all weakly equal."""
    sr = wb.by_name("boolean")
    edges = [("x", "tau", "y", True), ("y", "tau", "x", True)]
    return make_wlts(sr, ["x", "y", "z"], edges, actions=[])


def golden_cyclic_system():
    """tau self-loop of mass 1/2 next to a 1/2 exit: silent reach is one."""
    sr = wb.by_name("real")
    edges = [
        ("x", "tau", "x", Fraction(1, 2)),
        ("x", "tau", "c", Fraction(1, 2)),
    ]
    return make_wlts(sr, ["x", "c"], edges, actions=[])


def float_residual_system():
    """u reaches v silently and by ``a``; z only loops on itself."""
    return make_wlts(
        wb.by_name("real-float"),
        ["u", "v", "z"],
        [("u", "tau", "v", 0.5), ("u", "a", "v", 0.25), ("z", "tau", "z", 0.5)],
    )


def corrupt_eliminations(monkeypatch, corrupt):
    """Make every elimination return a corrupted solution: one weight
    doubled ("scaled"), one state dropped ("dropped"), or a spurious weight
    on the state ``z`` that reaches nothing ("spurious")."""
    eliminate = wb.Saturator._eliminate

    def corrupted(self, b, pinned):
        sol = dict(eliminate(self, b, pinned))
        x = min(sol)
        if corrupt == "scaled":
            sol[x] *= 2
        elif corrupt == "dropped":
            del sol[x]
        else:
            sol[self.w.index("z")] = 1.0
        return sol

    monkeypatch.setattr(wb.Saturator, "_eliminate", corrupted)


# -- random generators -------------------------------------------------------


def action_names(count):
    return [chr(ord("a") + i) for i in range(count)]


def random_boolean_lts(rng, n, n_actions, density):
    sr = wb.by_name("boolean")
    actions = action_names(n_actions)
    triples = [
        (x, label, y, True)
        for x in range(n)
        for label in ["tau"] + actions
        for y in range(n)
        if rng.random() < density
    ]
    return wb.WLTS(sr, ["s%d" % i for i in range(n)], actions, "tau", triples)


def random_sparse_boolean(rng, n, n_actions, per_state):
    """Fixed out-degree model used for the runtime measurements."""
    sr = wb.by_name("boolean")
    actions = action_names(n_actions)
    labels = ["tau"] + actions
    triples = set()
    for x in range(n):
        for _ in range(per_state):
            triples.add((x, rng.choice(labels), rng.randrange(n), True))
    return wb.WLTS(sr, ["s%d" % i for i in range(n)], actions, "tau", sorted(triples))


def random_wlts(rng, sr, n, n_actions, density, weight_gen):
    actions = action_names(n_actions)
    triples = [
        (x, label, y, weight_gen(rng))
        for x in range(n)
        for label in ["tau"] + actions
        for y in range(n)
        if rng.random() < density
    ]
    return wb.WLTS(sr, ["s%d" % i for i in range(n)], actions, "tau", triples)


def random_dag_wlts(rng, sr, n, n_actions, density, weight_gen):
    """Edges only go forward, so every path (admissible or not) is simple."""
    actions = action_names(n_actions)
    triples = [
        (x, label, y, weight_gen(rng))
        for x in range(n)
        for label in ["tau"] + actions
        for y in range(x + 1, n)
        if rng.random() < density
    ]
    return wb.WLTS(sr, ["s%d" % i for i in range(n)], actions, "tau", triples)


def random_generative(rng, n, n_actions, acyclic=False):
    """Fully probabilistic: per-state outgoing mass is exactly 0 or 1."""
    sr = wb.by_name("real")
    actions = action_names(n_actions)
    labels = ["tau", "tau"] + actions  # silent steps twice as likely
    triples = []
    for x in range(n):
        lo = x + 1 if acyclic else 0
        if lo >= n or rng.random() < 0.2:
            continue  # terminal
        outs = [
            (rng.choice(labels), rng.randint(lo, n - 1), rng.randint(1, 5))
            for _ in range(rng.randint(1, 3))
        ]
        total = sum(c for _, _, c in outs)
        for label, y, c in outs:
            triples.append((x, label, y, Fraction(c, total)))
    return wb.WLTS(sr, ["s%d" % i for i in range(n)], actions, "tau", triples)


def random_linear_system(rng, sr, n, density, entry_gen, b_gen=None):
    if b_gen is None:
        b_gen = entry_gen
    rows = [
        {j: entry_gen(rng) for j in range(n) if rng.random() < density}
        for _ in range(n)
    ]
    b = [b_gen(rng) if rng.random() < 0.7 else sr.zero for _ in range(n)]
    return wb.LinearSystem(sr, rows, b)


def random_contractive_system(rng, sr, n, density):
    """Real/float system whose row sums stay at or below 9/10, so plain
    iteration contracts and the least solution is finite."""
    rows = []
    for _ in range(n):
        cols = [j for j in range(n) if rng.random() < density]
        rng.shuffle(cols)
        row = {}
        budget = Fraction(9, 10)
        for j in cols:
            share = budget * Fraction(1, rng.randint(2, 4))
            if share > 0:
                row[j] = sr.coerce(share)
                budget -= share
        rows.append(row)
    b = [
        sr.coerce(Fraction(rng.randint(0, 8), rng.randint(1, 4)))
        for _ in range(n)
    ]
    return wb.LinearSystem(sr, rows, b)


def acyclic_rows(rng, n, density, entry_gen):
    """Strictly upper-triangular sparse rows: no cycles, exact iteration."""
    return [
        {j: entry_gen(rng) for j in range(i + 1, n) if rng.random() < density}
        for i in range(n)
    ]


def positive_fraction(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def tropical_weight(rng):
    return Fraction(rng.randint(0, 8), rng.choice([1, 2]))


def truncation_weight(k):
    def gen(rng):
        return rng.randint(0, k - 1)

    return gen


# One weight generator per shipped semiring.  The real-float weights are
# multiples of 1/8, so sums stay exact and distinct values sit far more
# than the tolerance apart.
SEMIRING_WEIGHTS = [
    (wb.by_name("boolean"), lambda rng: True),
    (wb.by_name("real"), positive_fraction),
    (wb.by_name("real-float"), lambda rng: rng.randint(1, 8) / 8),
    (wb.by_name("tropical"), tropical_weight),
    (wb.by_name("arctic"), lambda rng: Fraction(rng.randint(-3, 3))),
    (wb.by_name("truncation", k=6), truncation_weight(6)),
    (wb.by_name("maxtimes"), lambda rng: Fraction(rng.randint(1, 4), 4)),
]


def semiring_ids():
    return [sr.name for sr, _ in SEMIRING_WEIGHTS]


# -- Kleene iteration ---------------------------------------------------------


@dataclass
class KleeneResult:
    values: list
    converged: bool
    iterations: int


def kleene_iterate(system, max_iters=None, tol=None):
    """Ascending iteration x0 = zero-vector, x_{k+1} = F(x_k): a route to
    least solutions independent of star elimination, for cross-checks.

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
