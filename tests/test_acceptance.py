"""Acceptance suite: one test per criterion, printing one PASS line each.

Every criterion runs at its stated size and tolerance; exact-arithmetic
comparisons use ==, the float solver lane uses 1e-9 componentwise.
"""

import math
import random
import time
from fractions import Fraction

import wbisim as wb
from wbisim import (
    Partition,
    Saturator,
    TraceSelector,
    brute_coarsest_partition,
    brute_weight,
    by_name,
    check_axioms,
    enumerate_admissible,
    milner_weak_oracle,
    refine_partition,
)
from wbisim.oracle import FinitePath

import helpers
from helpers import LinearSystem, kleene_iterate, solve_least


def _announce(capsys, message):
    # bypass pytest output capture so the line shows in the run log
    with capsys.disabled():
        print(message)


def test_criterion_1_weak_partition_matches_double_arrow_oracle(capsys):
    """>=200 random boolean systems: engine weak == Milner-style oracle."""
    rng = random.Random(1001)
    runs = 0
    while runs < 200:
        n = rng.randint(2, 7)
        n_actions = rng.randint(1, 3)
        density = rng.uniform(0.15, 0.5)
        w = helpers.random_boolean_lts(rng, n, n_actions, density)
        assert refine_partition(w, "weak")[0] == milner_weak_oracle(w), (
            "disagreement on %r (run %d)" % (w, runs)
        )
        runs += 1
    _announce(capsys, "criterion 1 PASS: weak == double-arrow oracle on %d boolean systems" % runs)


def test_criterion_2_weak_partition_matches_brute_force_on_probabilistic(capsys):
    """>=100 fully probabilistic acyclic systems: engine weak == brute
    search; plus the cyclic golden case with silent reach exactly one."""
    rng = random.Random(1002)
    runs = 0
    while runs < 100:
        n = rng.randint(2, 6)
        w = helpers.random_generative(rng, n, rng.randint(1, 2), acyclic=True)
        assert wb.check_fully_probabilistic(w).ok
        assert refine_partition(w, "weak")[0] == brute_coarsest_partition(w, mode="weak")
        runs += 1

    golden = helpers.golden_cyclic_system()
    table = Saturator(golden, "weak").table([golden.index("c")])
    assert table.weight(golden.index("x"), "tau") == Fraction(1)
    assert refine_partition(golden, "weak")[0] == brute_coarsest_partition(golden, mode="weak")
    _announce(
        capsys,
        "criterion 2 PASS: weak == brute force on %d probabilistic systems"
        " and the cyclic golden case solves to 1 exactly" % runs
    )


def test_criterion_3_strong_partition_matches_brute_force_per_instance(capsys):
    """>=200 random systems per instance: engine strong == brute search."""
    lanes = [
        ("boolean", by_name("boolean"), lambda rng: True),
        ("real", by_name("real"), helpers.positive_fraction),
        ("tropical", by_name("tropical"), helpers.tropical_weight),
        ("truncation k=10", by_name("truncation", k=10), helpers.truncation_weight(10)),
    ]
    for lane, (label, sr, gen) in enumerate(lanes):
        rng = random.Random(1003 + lane)
        for run in range(200):
            n = rng.randint(2, 6)
            density = rng.uniform(0.15, 0.5)
            w = helpers.random_wlts(rng, sr, n, rng.randint(1, 2), density, gen)
            strong = refine_partition(w, "strong")[0]
            assert strong == brute_coarsest_partition(w, mode="strong"), (
                "disagreement on %r (lane %s, run %d)" % (w, label, run)
            )
    _announce(
        capsys,
        "criterion 3 PASS: strong == brute force on 200 systems for each of %d instances"
        % len(lanes)
    )


def test_criterion_4_direct_solver_matches_iteration_per_instance(capsys):
    """>=500 systems per instance, n <= 12: closed-form solution equals the
    iteration limit (exactly; floats within 1e-9 componentwise)."""
    counts = {}

    rng = random.Random(1004)
    sr = by_name("boolean")
    for _ in range(500):
        system = helpers.random_linear_system(
            rng, sr, rng.randint(1, 12), 0.3, lambda r: True,
            b_gen=lambda r: r.random() < 0.5,
        )
        k = kleene_iterate(system)
        assert k.converged and solve_least(system) == k.values
    counts["boolean"] = 500

    rng = random.Random(1014)
    sr = by_name("tropical")
    for _ in range(500):
        system = helpers.random_linear_system(
            rng, sr, rng.randint(1, 12), 0.3, helpers.tropical_weight
        )
        k = kleene_iterate(system)
        assert k.converged and solve_least(system) == k.values
    counts["tropical"] = 500

    # exact rational lane: acyclic matrices, rows scaled below one, so the
    # ascending iteration reaches the least solution in finitely many steps
    rng = random.Random(1024)
    sr = by_name("real")
    for _ in range(500):
        n = rng.randint(1, 12)
        base = helpers.random_contractive_system(rng, sr, n, 0.4)
        rows = [
            {j: v for j, v in row.items() if j > i}
            for i, row in enumerate(base.rows)
        ]
        system = LinearSystem(sr, rows, base.b)
        k = kleene_iterate(system)
        assert k.converged and k.iterations <= n + 1
        assert solve_least(system) == k.values
    counts["real"] = 500

    rng = random.Random(1034)
    sr = by_name("real-float")
    worst = 0.0
    for _ in range(500):
        system = helpers.random_contractive_system(rng, sr, rng.randint(1, 12), 0.4)
        exact = solve_least(system)
        k = kleene_iterate(system, max_iters=5000, tol=1e-13)
        assert k.converged
        gap = max(abs(a - b) for a, b in zip(exact, k.values))
        worst = max(worst, gap)
        assert gap <= 1e-9
    counts["real-float"] = 500

    _announce(
        capsys,
        "criterion 4 PASS: direct solve == iteration on "
        + ", ".join("%d %s" % (v, k) for k, v in counts.items())
        + " systems (worst float gap %.3g <= 1e-9)" % worst
    )


def test_criterion_5_saturation_matches_path_enumeration_on_acyclic(capsys):
    """>=100 acyclic systems: solver saturation equals the brute path sum,
    with the truncation flag certifying exactness, in both modes."""
    rng = random.Random(1005)
    lanes = [
        (by_name("real"), helpers.positive_fraction),
        (by_name("tropical"), helpers.tropical_weight),
    ]
    runs = 0
    while runs < 100:
        sr, gen = lanes[runs % len(lanes)]
        n = rng.randint(2, 6)
        w = helpers.random_dag_wlts(rng, sr, n, rng.randint(1, 2), 0.4, gen)
        C = sorted(rng.sample(range(n), rng.randint(1, n)))
        for mode in ("weak", "delay"):
            table = Saturator(w, mode).table(C)
            for x in range(n):
                selectors = [(w.tau, TraceSelector.tau_star())] + [
                    (a, TraceSelector.weak(a) if mode == "weak" else TraceSelector.delay(a))
                    for a in w.actions
                ]
                for label, sel in selectors:
                    value, truncated = brute_weight(w, x, sel, C)
                    assert not truncated
                    assert table.weight(x, label) == value, (
                        "saturation mismatch at state %d, label %r, mode %s"
                        % (x, label, mode)
                    )
        runs += 1
    _announce(
        capsys,
        "criterion 5 PASS: saturation == certified path enumeration on %d acyclic"
        " systems, both weak and delay" % runs
    )


def test_criterion_6_worked_example_golden_file(capsys):
    """The seven-state example: exactly two admissible paths (the early-
    reach and wrong-trace walks are excluded), value frozen after
    recomputation by the independent path oracle."""
    w = helpers.figure_system()
    x = w.index("x")
    C = [w.index(s) for s in helpers.FIGURE_CLASS]
    sel = TraceSelector.weak("a")

    paths = enumerate_admissible(w, x, sel, C)
    assert paths == [
        FinitePath((0, 4), ("a",)),
        FinitePath((0, 1, 2, 3, 5), ("b", "b", "b", "a")),
    ]
    # structural exclusions: the all-silent walk that touches the class
    # with the wrong trace, and the extension of a path that already
    # reached the class
    assert FinitePath((0, 1, 2), ("b", "b")) not in paths
    assert FinitePath((0, 4, 5), ("a", "b")) not in paths

    value, truncated = brute_weight(w, x, sel, C)
    assert not truncated
    assert value == Fraction(1, 5) + Fraction(1, 2) * Fraction(1, 3) * Fraction(
        1, 4
    ) * Fraction(1, 8)
    assert value == helpers.FIGURE_WEIGHT  # frozen: 197/960

    table = Saturator(w, "weak").table(C)
    assert table.weight(x, "a") == helpers.FIGURE_WEIGHT
    _announce(
        capsys,
        "criterion 6 PASS: worked example has exactly the two admissible paths"
        " and weight %s by both routes" % helpers.FIGURE_WEIGHT
    )


def test_criterion_7_weak_equals_delay_on_generative_systems(capsys):
    """>=100 fully probabilistic systems (cycles allowed): weak and delay
    partitions coincide; a nondeterministic boolean witness separates them."""
    rng = random.Random(1007)
    runs = 0
    while runs < 100:
        n = rng.randint(2, 7)
        w = helpers.random_generative(rng, n, rng.randint(1, 2))
        assert wb.check_fully_probabilistic(w).ok
        assert refine_partition(w, "weak")[0] == refine_partition(w, "delay")[0], (
            "weak/delay split on %r (run %d)" % (w, runs)
        )
        runs += 1

    witness = helpers.weak_delay_witness()
    weak = refine_partition(witness, "weak")[0]
    delay = refine_partition(witness, "delay")[0]
    assert weak.to_names(witness) == [["s0", "s2"], ["s1"]]
    assert delay == Partition.discrete(3)
    assert weak == brute_coarsest_partition(witness, mode="weak")
    assert delay == brute_coarsest_partition(witness, mode="delay")
    _announce(
        capsys,
        "criterion 7 PASS: weak == delay on %d probabilistic systems;"
        " boolean witness separates them and matches brute force" % runs
    )


def test_criterion_8_runtime_grows_polynomially(capsys):
    """Weak minimization at n in {50,100,200} with 3 actions: log-log
    slope <= 4.2, well inside the stated n^4-ish envelope."""
    started = time.perf_counter()
    sizes = [50, 100, 200]
    refine_partition(helpers.random_sparse_boolean(random.Random(98), 20, 3, 4), "weak")[0]
    times = []
    for n in sizes:
        w = helpers.random_sparse_boolean(random.Random(99), n, 3, 4)
        t0 = time.perf_counter()
        refine_partition(w, "weak")[0]
        times.append(max(time.perf_counter() - t0, 1e-6))
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    total = time.perf_counter() - started
    assert slope <= 4.2, "observed slope %.2f" % slope
    assert total < 120.0, "took %.1fs" % total
    _announce(
        capsys,
        "criterion 8 PASS: times %s for n=%s, log-log slope %.2f <= 4.2,"
        " %.1fs total" % (["%.3fs" % t for t in times], sizes, slope, total)
    )


def test_criterion_9_axiom_suites_pass_and_flag_the_broken_variant(capsys):
    """Axiom checks pass on every shipped instance, over the structured
    samples and with random extras; the max-first truncation variant
    fails annihilation, and an arctic instance that claims a best-first
    search key fails star-is-one."""
    rng = random.Random(1009)
    extras = {
        "boolean": [],
        "real": [Fraction(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(4)],
        "real-float": [rng.uniform(0.0, 0.9) for _ in range(4)],
        "tropical": [Fraction(rng.randint(0, 20), rng.randint(1, 4)) for _ in range(4)],
        "arctic": [Fraction(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(4)],
        "truncation": [rng.randint(0, 10) for _ in range(4)],
        "maxtimes": [Fraction(rng.randint(0, 8), 9) for _ in range(4)],
    }
    instances = [
        by_name("boolean"),
        by_name("real"),
        by_name("real-float"),
        by_name("tropical"),
        by_name("arctic"),
        by_name("truncation", k=10),
        by_name("maxtimes"),
    ]
    for sr in instances:
        report = check_axioms(sr)
        assert report.ok, (sr.name, [(c.law, c.witness) for c in report.failures()])
        samples = list(sr.sample_values()) + [sr.coerce(v) for v in extras[sr.name]]
        report = check_axioms(sr, samples=samples)
        assert report.ok, (sr.name, [(c.law, c.witness) for c in report.failures()])

    class MaxFirstTruncation(wb.Semiring):
        """The alternative ordering of the truncation tuple: max as the
        sum with 0 as its unit, clamped + as the product with unit k."""

        name = "max-first-truncation"
        carrier_mode = "bounded-integer"
        idempotent = True

        def __init__(self, k):
            self.k = k
            self.zero = 0
            self.one = k

        def add(self, a, b):
            return a if a >= b else b

        def mul(self, a, b):
            return min(a + b, self.k)

        def star(self, a):
            return self.k

        def natural_leq(self, a, b):
            return a <= b

        def format(self, v):
            return str(v)

        def sample_values(self):
            return [0, 1, self.k // 2, self.k]

    report = check_axioms(MaxFirstTruncation(10))
    assert not report.ok
    failed = {c.law for c in report.failures()}
    assert "annihilate-left" in failed and "annihilate-right" in failed
    witness = {c.law: c.witness for c in report.failures()}
    assert witness["annihilate-left"] == "a=1: 1 != 0"

    class SearchingArctic(type(by_name("arctic"))):
        """Arctic claiming the best-first search route, which a positive
        silent cycle (star is infinite there) rules out."""

        def best_first_key(self, v):
            if v is wb.INF:
                return -math.inf
            return math.inf if v is wb.NEG_INF else -v

    report = check_axioms(SearchingArctic())
    failed = {c.law for c in report.failures()}
    assert "star-is-one" in failed and "add-keeps-better-key" not in failed
    _announce(
        capsys,
        "criterion 9 PASS: axioms hold on all %d shipped instances;"
        " the max-first truncation variant fails annihilation and an arctic"
        " instance claiming best-first search fails star-is-one" % len(instances)
    )
