"""Unit tests for the linear-equation solver and saturation."""

import math
import random
import re
from fractions import Fraction

import pytest

import wbisim as wb
from wbisim import ConvergenceError, Saturator, by_name

import helpers
from helpers import (
    LinearSystem,
    build_action_system,
    build_delay_system,
    build_tau_system,
    kleene_iterate,
    solve_least,
)


class TestLinearSystem:
    def test_apply_and_fixpoint(self):
        sr = by_name("real")
        system = LinearSystem(sr, [{0: Fraction(1, 2)}], [Fraction(1)])
        assert system.apply([Fraction(0)]) == [Fraction(1)]
        assert system.is_fixpoint([Fraction(2)])
        assert not system.is_fixpoint([Fraction(1)])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            LinearSystem(by_name("real"), [{}, {}], [Fraction(0)])

    def test_geometric_1x1(self):
        sr = by_name("real")
        system = LinearSystem(sr, [{0: Fraction(1, 2)}], [Fraction(1)])
        assert solve_least(system) == [Fraction(2)]

    def test_divergent_entry_goes_to_infinity(self):
        sr = by_name("real")
        system = LinearSystem(sr, [{0: Fraction(2)}], [Fraction(1)])
        assert solve_least(system) == [wb.INF]

    def test_divergent_cycle_with_zero_source_stays_zero(self):
        # star(2) is infinite but nothing feeds the variable: least is 0.
        sr = by_name("real")
        system = LinearSystem(sr, [{0: Fraction(2)}], [Fraction(0)])
        assert solve_least(system) == [Fraction(0)]


class TestStarClosure:
    SEMIRING_GENS = [
        (by_name("boolean"), lambda rng: True),
        (by_name("real"), lambda rng: Fraction(rng.randint(1, 4), rng.randint(4, 9))),
        (by_name("tropical"), helpers.tropical_weight),
        (by_name("truncation", k=7), helpers.truncation_weight(7)),
        (by_name("maxtimes"), lambda rng: Fraction(rng.randint(1, 5), rng.randint(5, 9))),
    ]

    @pytest.mark.parametrize(
        "sr,gen", SEMIRING_GENS, ids=[sr.name for sr, _ in SEMIRING_GENS]
    )
    def test_small_cyclic_systems_match_kleene(self, sr, gen):
        rng = random.Random("star closure %s" % sr.name)
        for _ in range(40):
            n = rng.randint(1, 9)
            rows = [
                {j: gen(rng) for j in range(n) if rng.random() < 0.4}
                for _ in range(n)
            ]
            b = [gen(rng) if rng.random() < 0.5 else sr.zero for _ in range(n)]
            system = LinearSystem(sr, rows, b)
            sol = solve_least(system)
            if sr.name == "real":
                # Kleene only approaches a cyclic rational solution, so
                # check that it is an exact fixpoint above every iterate.
                assert system.is_fixpoint(sol)
                k = kleene_iterate(system, max_iters=30)
                assert all(sr.natural_leq(a, s) for a, s in zip(k.values, sol))
            else:
                k = kleene_iterate(system)
                assert k.converged and sol == k.values

    def test_large_sparse_system_matches_kleene(self):
        rng = random.Random(5)
        sr = by_name("boolean")
        n = 80
        rows = [
            {j: True for j in rng.sample(range(n), 3)} for _ in range(n)
        ]
        b = [rng.random() < 0.2 for _ in range(n)]
        system = LinearSystem(sr, rows, b)
        sol = solve_least(system)
        k = kleene_iterate(system)
        assert k.converged and sol == k.values


class TestKleeneCrossCheck:
    def test_boolean_cyclic(self):
        rng = random.Random(21)
        sr = by_name("boolean")
        for _ in range(80):
            system = helpers.random_linear_system(
                rng, sr, rng.randint(1, 10), 0.3, lambda r: True,
                b_gen=lambda r: r.random() < 0.5,
            )
            k = kleene_iterate(system)
            assert k.converged
            assert solve_least(system) == k.values

    def test_tropical_cyclic(self):
        rng = random.Random(22)
        sr = by_name("tropical")
        for _ in range(80):
            system = helpers.random_linear_system(
                rng, sr, rng.randint(1, 10), 0.3, helpers.tropical_weight
            )
            k = kleene_iterate(system)
            assert k.converged
            assert solve_least(system) == k.values

    def test_truncation_cyclic(self):
        rng = random.Random(23)
        sr = by_name("truncation", k=9)
        for _ in range(60):
            system = helpers.random_linear_system(
                rng, sr, rng.randint(1, 10), 0.35, helpers.truncation_weight(9)
            )
            k = kleene_iterate(system)
            assert k.converged
            assert solve_least(system) == k.values

    def test_rational_acyclic(self):
        rng = random.Random(24)
        sr = by_name("real")
        for _ in range(80):
            n = rng.randint(1, 10)
            rows = helpers.acyclic_rows(rng, n, 0.4, helpers.positive_fraction)
            b = [helpers.positive_fraction(rng) for _ in range(n)]
            system = LinearSystem(sr, rows, b)
            k = kleene_iterate(system)
            assert k.converged and k.iterations <= n + 1
            assert solve_least(system) == k.values

    def test_arctic_acyclic(self):
        rng = random.Random(25)
        sr = by_name("arctic")
        for _ in range(60):
            n = rng.randint(1, 9)
            rows = helpers.acyclic_rows(
                rng, n, 0.4, lambda r: Fraction(r.randint(-4, 4))
            )
            b = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            system = LinearSystem(sr, rows, b)
            k = kleene_iterate(system)
            assert k.converged
            assert solve_least(system) == k.values

    def test_rational_cyclic_iterates_approach_exact_solution(self):
        rng = random.Random(26)
        sr = by_name("real")
        for _ in range(30):
            system = helpers.random_contractive_system(rng, sr, rng.randint(2, 8), 0.5)
            exact = solve_least(system)
            K = 60
            k = kleene_iterate(system, max_iters=K)
            bound = Fraction(9, 10) ** K * max(system.b, default=Fraction(0)) * 10
            for lo, hi in zip(k.values, exact):
                assert sr.natural_leq(lo, hi)
                assert hi - lo <= bound

    def test_float_converges_within_tolerance(self):
        rng = random.Random(27)
        sr = by_name("real-float")
        for _ in range(30):
            system = helpers.random_contractive_system(rng, sr, rng.randint(2, 8), 0.5)
            exact = solve_least(system)
            k = kleene_iterate(system, max_iters=5000, tol=1e-13)
            assert k.converged
            assert max(abs(a - b) for a, b in zip(exact, k.values)) <= 1e-9

    def test_iterates_ascend_to_least_solution(self):
        rng = random.Random(28)
        sr = by_name("real")
        system = helpers.random_contractive_system(rng, sr, 6, 0.5)
        solution = solve_least(system)
        assert system.is_fixpoint(solution)
        x = [sr.zero] * system.n
        for _ in range(12):
            nxt = system.apply(x)
            assert all(sr.natural_leq(a, b) for a, b in zip(x, nxt))
            assert all(sr.natural_leq(a, s) for a, s in zip(nxt, solution))
            x = nxt

    def test_non_convergence_is_a_status(self):
        sr = by_name("real")
        system = LinearSystem(sr, [{0: Fraction(1, 2)}], [Fraction(1)])
        k = kleene_iterate(system, max_iters=3)
        assert not k.converged
        assert k.iterations == 3
        assert k.values[0] < 2


class TestEquationFamilies:
    def test_tau_system_pins_the_class(self):
        w = helpers.figure_system()
        n = w.state_count
        system = build_tau_system(w, range(n))
        assert all(row == {} for row in system.rows)
        assert system.b == [w.semiring.one] * n
        assert solve_least(system) == [w.semiring.one] * n

    def test_tau_free_system_reduces_to_indicator(self):
        sr = by_name("real")
        w = helpers.make_wlts(
            sr,
            ["u", "v"],
            [("u", "a", "v", Fraction(1, 2))],
        )
        system = build_tau_system(w, [1])
        assert solve_least(system) == [sr.zero, sr.one]

    def test_golden_cycle_silent_reach_is_one(self):
        w = helpers.golden_cyclic_system()
        system = build_tau_system(w, [w.index("c")])
        assert solve_least(system) == [Fraction(1), Fraction(1)]

    def test_class_validation(self):
        w = helpers.golden_cyclic_system()
        with pytest.raises(ValueError):
            build_tau_system(w, [])
        with pytest.raises(ValueError):
            build_tau_system(w, [7])
        with pytest.raises(ValueError):
            build_action_system(w, [0], "zap", [Fraction(1)] * 2)

    @pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
    def test_table_rejects_every_id_that_is_not_a_state(self, mode):
        # Every id that is not an int in range is named in the error,
        # wherever it sits in the class; a bool is an int.
        w = helpers.figure_system()
        n = w.state_count
        saturator = Saturator(w, mode)
        for bad in (1.0, Fraction(1), -1, n, "0", None):
            for C in ((bad,), (0, bad), (bad, n - 1)):
                with pytest.raises(ValueError, match=r"state id %s out of range" % re.escape(repr(bad))):
                    saturator.table(C)
        with pytest.raises(ValueError, match="nonempty"):
            saturator.table(())
        assert saturator.table((True, n - 1)).supports == saturator.table((1, n - 1)).supports
        assert saturator.table(range(n)).supports == saturator.table(list(range(n))).supports

    def test_weak_action_value_on_figure(self):
        w = helpers.figure_system()
        C = [w.index(s) for s in helpers.FIGURE_CLASS]
        w_tau = solve_least(build_tau_system(w, C))
        x_a = solve_least(build_action_system(w, C, "a", w_tau))
        assert x_a[w.index("x")] == helpers.FIGURE_WEIGHT

    def test_delay_requires_action_to_land_in_class(self):
        sr = by_name("real")
        w = helpers.make_wlts(
            sr,
            ["x", "y", "z"],
            [("x", "a", "y", Fraction(1, 2)), ("y", "tau", "z", Fraction(1, 3))],
        )
        C = [w.index("z")]
        w_tau = solve_least(build_tau_system(w, C))
        weak = solve_least(build_action_system(w, C, "a", w_tau))
        delay = solve_least(build_delay_system(w, C, "a"))
        assert weak[w.index("x")] == Fraction(1, 6)
        assert delay[w.index("x")] == Fraction(0)


class TestSaturation:
    def test_class_states_have_unit_silent_weight(self):
        w = helpers.figure_system()
        C = [w.index(s) for s in helpers.FIGURE_CLASS]
        for mode in ("weak", "delay"):
            table = Saturator(w, mode).table(C)
            assert table.mode == mode
            for x in C:
                assert table.weight(x, w.tau) == w.semiring.one

    def test_tau_free_saturation_is_single_step(self):
        rng = random.Random(31)
        sr = by_name("real")
        for _ in range(20):
            w = helpers.random_wlts(rng, sr, 5, 2, 0.4, helpers.positive_fraction)
            # strip silent steps by rebuilding without them
            w = wb.WLTS(
                sr,
                w.state_names,
                w.actions,
                w.tau,
                [t for t in w.transitions() if t[1] != w.tau],
            )
            C = [0, 2]
            for mode in ("weak", "delay"):
                table = Saturator(w, mode).table(C)
                for x in range(w.state_count):
                    for a in w.actions:
                        assert table.weight(x, a) == w.class_weight(x, a, set(C))
                    expected = sr.one if x in C else sr.zero
                    assert table.weight(x, w.tau) == expected

    def test_weak_and_delay_agree_on_figure(self):
        # No silent step ever follows the observable one here, so the two
        # families solve to the same values.
        w = helpers.figure_system()
        C = [w.index(s) for s in helpers.FIGURE_CLASS]
        weak = Saturator(w, "weak").table(C)
        delay = Saturator(w, "delay").table(C)
        for label in w.labels:
            assert weak.vector(label) == delay.vector(label)

    def test_table_vector_matches_pointwise(self):
        w = helpers.figure_system()
        table = Saturator(w, "weak").table([w.index("x5")])
        for label in w.labels:
            vec = table.vector(label)
            assert [table.weight(x, label) for x in range(w.state_count)] == vec

    def test_mode_validation(self):
        w = helpers.golden_cyclic_system()
        with pytest.raises(ValueError):
            Saturator(w, mode="weird")

    def test_strong_tables_are_single_step(self):
        w = helpers.figure_system()
        table = Saturator(w, mode="strong").table([w.index("x5")])
        x4 = w.index("x4")
        assert table.weight(x4, "b") == Fraction(1, 6)
        assert table.weight(w.index("x"), "a") == Fraction(0)

    def test_float_residual_failure_raises(self, monkeypatch):
        doc_states = ["u", "v"]
        sr = by_name("real-float")
        w = helpers.make_wlts(
            sr, doc_states, [("u", "tau", "v", 0.5), ("u", "a", "v", 0.25)]
        )
        helpers.corrupt_eliminations(monkeypatch, "scaled")
        with pytest.raises(ConvergenceError):
            Saturator(w, "weak").table([1])


class TestFloatResidualCheck:
    def test_correct_solutions_pass(self):
        w = helpers.float_residual_system()
        for mode in ("weak", "delay"):
            table = Saturator(w, mode).table([w.index("v")])
            assert table.vector("a") == [0.25, 0.0, 0.0]

    @pytest.mark.parametrize("corrupt", ["scaled", "dropped", "spurious"])
    def test_corrupted_solution_raises(self, corrupt, monkeypatch):
        # The check builds only the rows that reach the right-hand side or
        # the solution, which must catch each corruption the full system did.
        w = helpers.float_residual_system()
        helpers.corrupt_eliminations(monkeypatch, corrupt)
        for mode in ("weak", "delay"):
            with pytest.raises(ConvergenceError):
                Saturator(w, mode).table([w.index("v")])


    @pytest.mark.parametrize("corrupt", [None, "scaled", "dropped", "spurious"])
    def test_check_agrees_with_the_full_system(self, corrupt, monkeypatch):
        # The row-by-row check over the silent reach of b and the solution
        # raises exactly when the solution is no fixpoint of the system
        # over all n states.
        sr, gen = next(pair for pair in helpers.SEMIRING_WEIGHTS if pair[0].name == "real-float")
        if corrupt:
            helpers.corrupt_eliminations(monkeypatch, corrupt)
        rng = random.Random("residual check %s" % corrupt)
        verdicts = set()

        def agree(sat, b, pinned, support, system):
            try:
                sat._check_residual(b, pinned, support, "label")
                passed = True
            except ConvergenceError:
                passed = False
            vector = [support.get(x, sr.zero) for x in range(system.n)]
            assert passed == system.is_fixpoint(vector), (b, support)
            verdicts.add(passed)

        for _ in range(40):
            n = rng.randint(2, 8)
            w = helpers.random_wlts(rng, sr, n, 2, rng.uniform(0.1, 0.4), gen)
            w = wb.WLTS(sr, w.state_names[:-1] + ("z",), w.actions, w.tau, list(w.transitions()))
            C = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            for mode in ("weak", "delay"):
                sat = Saturator(w, mode)
                in_class = dict.fromkeys(C, sr.one)
                w_tau = sat._solve(in_class, frozenset(C))
                agree(sat, in_class, frozenset(C), w_tau, build_tau_system(w, C))
                lands_on = w_tau if mode == "weak" else in_class
                for a in w.actions:
                    b = wb.solver._action_rhs(sr, w.predecessor_column(a), lands_on)
                    if mode == "weak":
                        vector = [w_tau.get(x, sr.zero) for x in range(n)]
                        system = build_action_system(w, C, a, vector)
                    else:
                        system = build_delay_system(w, C, a)
                    agree(sat, b, frozenset(), sat._solve(b), system)
        assert verdicts == ({True} if corrupt is None else {True, False})


class TestSharedRightHandSide:
    """Saturation tables against right-hand sides built state by state:
    the action step summed against the silent-reach vector (weak), or the
    single-step class weight (delay), each solved on its own."""

    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_tables_match_per_state_right_hand_sides(self, sr, gen):
        if sr.carrier_mode == "float":
            same = sr.values_equal
        else:
            def same(a, b):
                return a == b
        rng = random.Random("shared right-hand side %s" % sr.name)
        for _ in range(25):
            n = rng.randint(1, 8)
            w = helpers.random_wlts(rng, sr, n, 2, rng.uniform(0.1, 0.4), gen)
            C = set(rng.sample(range(n), rng.randint(1, n)))
            silent = [dict(w.successors(x, w.tau)) for x in range(n)]
            w_tau = solve_least(build_tau_system(w, C))
            expected = {
                "weak": lambda x, a: sr.sum(
                    sr.mul(wt, w_tau[y]) for y, wt in w.successors(x, a).items()
                ),
                "delay": lambda x, a: w.class_weight(x, a, C),
            }
            for mode, rhs in expected.items():
                table = Saturator(w, mode).table(C)
                assert all(map(same, table.vector(w.tau), w_tau))
                for a in w.actions:
                    b = [rhs(x, a) for x in range(n)]
                    x_a = solve_least(LinearSystem(sr, silent, b))
                    assert all(map(same, table.vector(a), x_a)), (mode, a, w)


def _silent_components_of(w):
    """The states of each silent component of two or more states."""
    comp = wb.solver._silent_components(
        [w.successors(x, w.tau) for x in range(w.state_count)]
    )
    members = {}
    for x, c in enumerate(comp):
        members.setdefault(c, []).append(x)
    return [m for m in members.values() if len(m) > 1]


def _silent_ring(sr, n, weight):
    """States 0..n-1 in one silent ring plus an outside state n: actions
    0 -a-> n and n -a-> n//2 leave and enter the ring, and n//4 -a-> 3n//4
    stays in it."""
    edges = [(x, "tau", (x + 1) % n, weight) for x in range(n)]
    edges += [(0, "a", n, weight), (n, "a", n // 2, weight), (n // 4, "a", 3 * n // 4, weight)]
    return wb.WLTS(sr, ["s%d" % x for x in range(n + 1)], ["a"], "tau", edges)


class TestTargetedSaturation:
    """The engine's targeted solves against the reference route: each
    system built over all states and solved by one full elimination."""

    @staticmethod
    def _systems(rng, sr, gen):
        for _ in range(30):
            n = rng.randint(1, 9)
            yield helpers.random_wlts(rng, sr, n, 2, rng.uniform(0.1, 0.4), gen)
        for _ in range(6):
            # Sparse, with silent rings of five and self-loops, so that
            # classes cut larger components.
            n = 5 * rng.randint(3, 5)
            edges = set()
            for x in range(n):
                edges.add((x, "tau", x + 1 if (x + 1) % 5 else x - 4))
                if x % 6 == 0:
                    edges.add((x, "tau", x))
                for _ in range(2):
                    edges.add((x, rng.choice(["tau", "a", "b"]), rng.randrange(n)))
            yield wb.WLTS(
                sr, ["s%d" % x for x in range(n)], ["a", "b"], "tau",
                [(x, label, y, gen(rng)) for x, label, y in sorted(edges)],
            )
        for _ in range(6):
            # One silent ring of 8-15 states in random order, with chords, so
            # that the elimination substitutes into rows that already hold an
            # entry; a few states outside lead into it and out of it.
            k = rng.randint(8, 15)
            n = k + 4
            ring = rng.sample(range(n), k)
            edges = {(x, "tau", y) for x, y in zip(ring, ring[1:] + ring[:1])}
            for _ in range(k // 2):
                edges.add((rng.choice(ring), "tau", rng.choice(ring)))
            for x in range(n):
                edges.add((x, rng.choice(["tau", "a", "b"]), rng.randrange(n)))
            yield wb.WLTS(
                sr, ["s%d" % x for x in range(n)], ["a", "b"], "tau",
                [(x, label, y, gen(rng)) for x, label, y in sorted(edges)],
            )

    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_tables_match_full_elimination(self, sr, gen):
        if sr.carrier_mode == "float":
            same = sr.values_equal
        else:
            def same(a, b):
                return a == b
        rng = random.Random("targeted saturation %s" % sr.name)
        seen = {"self-loop": 0, "component of 8+": 0, "cut component": 0, "infinite": 0}
        for w in self._systems(rng, sr, gen):
            n = w.state_count
            members = _silent_components_of(w)
            seen["self-loop"] += any(x in w.successors(x, w.tau) for x in range(n))
            seen["component of 8+"] += any(len(m) >= 8 for m in members)
            classes = [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)]
            for C in classes:
                seen["cut component"] += any(
                    0 < len(C.intersection(m)) < len(m) for m in members
                )
                w_tau = solve_least(build_tau_system(w, C))
                reference = {
                    "weak": lambda a: solve_least(build_action_system(w, C, a, w_tau)),
                    "delay": lambda a: solve_least(build_delay_system(w, C, a)),
                }
                for mode, solve in reference.items():
                    table = Saturator(w, mode).table(C)
                    assert all(map(same, table.vector(w.tau), w_tau)), (mode, C, w)
                    for a in w.actions:
                        expected = solve(a)
                        seen["infinite"] += any(v in (wb.INF, math.inf) for v in expected)
                        assert all(map(same, table.vector(a), expected)), (mode, a, C, w)
        assert seen["self-loop"] and seen["component of 8+"] and seen["cut component"]
        if sr.name in ("real", "real-float", "arctic"):
            # cycles of mass >= 1 (real) and positive cycles (arctic)
            assert seen["infinite"]

    def test_acyclic_singleton_class_needs_no_elimination(self, monkeypatch):
        rng = random.Random(404)
        n = 2000
        edges = set()
        for x in range(n - 1):
            for _ in range(3):
                edges.add((x, rng.choice(["tau", "a", "b"]), rng.randrange(x + 1, n)))
        sr = by_name("boolean")
        w = wb.WLTS(sr, ["s%d" % x for x in range(n)], ["a", "b"], "tau",
                    [(x, label, y, True) for x, label, y in sorted(edges)])

        C = [n // 2]
        w_tau = solve_least(build_tau_system(w, C))
        expected = {
            "weak": solve_least(build_action_system(w, C, "a", w_tau)),
            "delay": solve_least(build_delay_system(w, C, "a")),
        }

        def forbidden(*args):
            raise AssertionError("no elimination on an acyclic silent graph")

        monkeypatch.setattr(wb.solver, "star_closure", forbidden)
        monkeypatch.setattr(wb.solver, "closure_apply", forbidden)
        for mode in ("weak", "delay"):
            table = Saturator(w, mode).table(C)
            assert table.vector(w.tau) == w_tau
            assert table.vector("a") == expected[mode]

    RING_WEIGHTS = {"boolean": True, "real": Fraction(1, 2)}

    @pytest.mark.parametrize("name", sorted(RING_WEIGHTS))
    def test_silent_ring_matches_full_elimination(self, name):
        sr = by_name(name)
        n = 200
        w = _silent_ring(sr, n, self.RING_WEIGHTS[name])
        for C in ([n], [n // 2]):  # outside the ring; cutting it
            w_tau = solve_least(build_tau_system(w, C))
            expected = {
                "weak": solve_least(build_action_system(w, C, "a", w_tau)),
                "delay": solve_least(build_delay_system(w, C, "a")),
            }
            for mode in ("weak", "delay"):
                table = Saturator(w, mode).table(C)
                assert table.vector(w.tau) == w_tau
                assert table.vector("a") == expected[mode]

    @pytest.mark.parametrize("name", sorted(RING_WEIGHTS))
    def test_silent_ring_work_is_linear(self, name, monkeypatch):
        # A silent ring is one component; solving it for one right-hand side
        # needs no closure, and a bounded number of products per state,
        # whether the class lies outside the ring or cuts it.
        sr = by_name(name)
        n = 2000
        w = _silent_ring(sr, n, self.RING_WEIGHTS[name])

        def forbidden(*args):
            raise AssertionError("no closure for one right-hand side")

        monkeypatch.setattr(wb.solver, "star_closure", forbidden)
        monkeypatch.setattr(wb.solver, "closure_apply", forbidden)
        products = []
        mul = sr.mul
        monkeypatch.setattr(sr, "mul", lambda a, b: products.append(None) or mul(a, b))
        for C in ([n], [n // 2]):
            for mode in ("weak", "delay"):
                products.clear()
                table = Saturator(w, mode).table(C)
                assert len(products) <= 10 * n, (mode, C)
                # the ring was solved: for "a" from outside, for silent reach when cut
                assert len(table.support("a" if C == [n] else w.tau)) == n

    @pytest.mark.parametrize("shape", ["chain", "cycle"])
    def test_long_silent_paths_need_no_recursion(self, shape):
        n = 5000
        sr = by_name("boolean")
        edges = [(x, "tau", x + 1, True) for x in range(n - 1)]
        if shape == "cycle":
            edges.append((n - 1, "tau", 0, True))
        # One more state outside the silent graph's big component, with an
        # action into it, so there is something to split.
        edges.append((n, "a", 0, True))
        w = wb.WLTS(sr, ["s%d" % x for x in range(n + 1)], ["a"], "tau", edges)
        assert _silent_components_of(w) == ([list(range(n))] if shape == "cycle" else [])
        p = wb.refine_partition(w, "weak")[0]
        assert p.blocks == (tuple(range(n)), (n,))


def _strongly_connected(rng, sr, n, gen):
    """S(n): a silent ring plus one random silent chord per state, so the
    silent graph is one component with two edges per state, and an action
    ``a`` on 30% of the states."""
    edges = {}
    for x in range(n):
        edges[(x, "tau", (x + 1) % n)] = gen(rng)
        edges.setdefault((x, "tau", rng.randrange(n)), gen(rng))
        if rng.random() < 0.3:
            edges[(x, "a", rng.randrange(n))] = gen(rng)
    return wb.WLTS(
        sr, ["s%d" % x for x in range(n)], ["a"], "tau",
        [(x, label, y, v) for (x, label, y), v in sorted(edges.items())],
    )


def _forbid_elimination(monkeypatch):
    def forbidden(*args):
        raise AssertionError("no elimination on a semiring whose star is one")

    monkeypatch.setattr(wb.solver, "star_closure", forbidden)
    monkeypatch.setattr(wb.solver, "closure_apply", forbidden)
    monkeypatch.setattr(Saturator, "_eliminate", forbidden)


class TestSearchSaturation:
    """Semirings whose star is always one saturate by best-first search;
    the others keep the elimination."""

    # Many weights are ``one`` (tropical and truncation 0, maxtimes 1), so
    # states settled at ``one`` and states settled from the heap interleave
    # along the same paths; truncation at k=5 also clamps long paths to zero.
    ZERO_CLOSED = [
        (by_name("boolean"), lambda rng: True),
        (by_name("tropical"), lambda rng: rng.choice([Fraction(0), Fraction(0), Fraction(1), Fraction(5, 2)])),
        (by_name("truncation", k=5), lambda rng: rng.choice([0, 0, 1, 2])),
        (by_name("maxtimes"), lambda rng: rng.choice([Fraction(1), Fraction(1), Fraction(1, 2), Fraction(3, 4)])),
    ]

    @pytest.mark.parametrize("sr,gen", ZERO_CLOSED, ids=[sr.name for sr, _ in ZERO_CLOSED])
    def test_tables_match_full_elimination(self, sr, gen, monkeypatch):
        rng = random.Random("search saturation %s" % sr.name)
        systems = [_strongly_connected(rng, sr, rng.randint(2, 40), gen) for _ in range(12)]
        cases = []
        for w in systems:
            n = w.state_count
            # a single state cuts the component; a larger class cuts it more
            for C in ({rng.randrange(n)}, set(rng.sample(range(n), rng.randint(1, n)))):
                w_tau = solve_least(build_tau_system(w, C))
                expected = {
                    "weak": solve_least(build_action_system(w, C, "a", w_tau)),
                    "delay": solve_least(build_delay_system(w, C, "a")),
                }
                cases.append((w, C, w_tau, expected))
        _forbid_elimination(monkeypatch)
        seen = {"one": 0, "between": 0, "zero": 0}
        for w, C, w_tau, expected in cases:
            for mode in ("weak", "delay"):
                table = Saturator(w, mode).table(C)
                assert table.vector(w.tau) == w_tau, (mode, C, w)
                assert table.vector("a") == expected[mode], (mode, C, w)
                for v in expected[mode]:
                    seen["one" if v == sr.one else "zero" if v == sr.zero else "between"] += 1
        assert seen["one"] and seen["zero"]
        if sr.name != "boolean":
            assert seen["between"]

    @pytest.mark.parametrize("sr,gen", ZERO_CLOSED, ids=[sr.name for sr, _ in ZERO_CLOSED])
    def test_no_product_has_a_factor_one(self, sr, gen, monkeypatch):
        # By the identity law a product with a factor ``one`` is the other
        # factor: neither the search nor an action right-hand side computes it.
        rng = random.Random("unit factors %s" % sr.name)
        cases = []
        for _ in range(8):
            w = _strongly_connected(rng, sr, rng.randint(2, 40), gen)
            C = set(rng.sample(range(w.state_count), rng.randint(1, 3)))
            w_tau = solve_least(build_tau_system(w, C))
            expected = {
                "weak": solve_least(build_action_system(w, C, "a", w_tau)),
                "delay": solve_least(build_delay_system(w, C, "a")),
            }
            cases.append((w, C, w_tau, expected))
        products = []
        mul = sr.mul
        monkeypatch.setattr(sr, "mul", lambda a, b: products.append((a, b)) or mul(a, b))
        for w, C, w_tau, expected in cases:
            for mode in ("weak", "delay"):
                table = Saturator(w, mode).table(C)
                assert table.vector(w.tau) == w_tau, (mode, C, w)
                assert table.vector("a") == expected[mode], (mode, C, w)
        assert not [p for p in products if sr.one in p]
        assert bool(products) == (sr.name != "boolean")

    @pytest.mark.parametrize("sr,gen", ZERO_CLOSED, ids=[sr.name for sr, _ in ZERO_CLOSED])
    def test_work_is_one_product_per_silent_edge(self, sr, gen, monkeypatch):
        # Each settled state relaxes its silent in-edges once, and nothing
        # is eliminated: a solve costs at most one product per silent edge
        # into the states that reach its right-hand side.
        n = 2000
        w = _strongly_connected(random.Random(2000), sr, n, gen)
        _forbid_elimination(monkeypatch)
        products = []
        mul = sr.mul
        monkeypatch.setattr(sr, "mul", lambda a, b: products.append(None) or mul(a, b))
        solve = Saturator._solve
        solves = []

        def counted(self, b, pinned=frozenset()):
            products.clear()
            sol = solve(self, b, pinned)
            region = self._silent_reach(x for x, v in b.items() if v != sr.zero)
            edges = sum(len(w.predecessor_column(w.tau)[y]) for y in region)
            solves.append((len(products), edges))
            return sol

        monkeypatch.setattr(Saturator, "_solve", counted)
        for C in ([0], sorted(random.Random(7).sample(range(n), 50))):
            for mode in ("weak", "delay"):
                solves.clear()
                table = Saturator(w, mode).table(C)
                assert len(solves) == 2
                assert all(p <= e for p, e in solves), (mode, solves)
                if sr.name != "truncation":  # truncation clamps long paths to zero
                    assert len(table.support(w.tau)) == n

    def test_arctic_positive_cycle_is_infinite_by_elimination(self, monkeypatch):
        sr = by_name("arctic")
        assert sr.best_first_key is None
        w = helpers.make_wlts(
            sr,
            ["x", "y", "z", "c"],
            [
                ("x", "tau", "y", Fraction(1)),
                ("y", "tau", "x", Fraction(-1, 2)),
                ("y", "a", "c", Fraction(0)),
                ("z", "tau", "x", Fraction(-3)),
            ],
        )
        C = [w.index("c")]
        eliminate = Saturator._eliminate
        calls = []
        monkeypatch.setattr(
            Saturator, "_eliminate",
            lambda self, b, pinned: calls.append(None) or eliminate(self, b, pinned),
        )
        expected = [wb.INF, wb.INF, wb.INF, wb.NEG_INF]
        assert solve_least(build_delay_system(w, C, "a")) == expected
        for mode in ("weak", "delay"):
            calls.clear()
            assert Saturator(w, mode).table(C).vector("a") == expected
            assert calls


class _CountingHits(dict):
    """A factor store that counts the lookups that find a factor of more
    than one state."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not None and len(value) > 1
        return value


def _two_rings(rng, sr, gen):
    """Two chorded silent rings of 2-10 states, the first leading into the
    second, and three states outside them: one that the second ring leads
    into, one that leads into the first, and one apart.  State ids are
    shuffled, so the pivot order is not the ring order."""
    k1, k2 = rng.randint(2, 10), rng.randint(2, 10)
    n = k1 + k2 + 3
    ids = rng.sample(range(n), n)
    ring1, ring2, outside = ids[:k1], ids[k1:k1 + k2], ids[k1 + k2:]
    edges = {}
    for ring in (ring1, ring2):
        for i, x in enumerate(ring):
            edges[(x, "tau", ring[(i + 1) % len(ring)])] = gen(rng)
            edges.setdefault((x, "tau", rng.choice(ring)), gen(rng))
    edges.setdefault((rng.choice(ring1), "tau", rng.choice(ring2)), gen(rng))
    edges.setdefault((rng.choice(ring2), "tau", outside[0]), gen(rng))
    edges.setdefault((outside[1], "tau", rng.choice(ring1)), gen(rng))
    for x in range(n):
        for _ in range(2):
            edges.setdefault((x, rng.choice("ab"), rng.randrange(n)), gen(rng))
    w = wb.WLTS(
        sr, ["s%d" % x for x in range(n)], ["a", "b"], "tau",
        [(x, label, y, v) for (x, label, y), v in sorted(edges.items())],
    )
    return w, ring1, ring2, outside


class TestFactoredSaturation:
    """On the semirings that eliminate, each silent component that a solve
    leaves whole is factored once per Saturator and the factor is reused
    for every later right-hand side; a component that the class cuts is
    eliminated fresh."""

    ELIMINATING = [
        (by_name("real"), lambda rng: Fraction(rng.randint(1, 12), 16)),
        (by_name("real-float"), lambda rng: rng.randint(1, 12) / 16),
        (by_name("arctic"), lambda rng: Fraction(rng.randint(-4, 1))),
    ]

    @pytest.mark.parametrize("sr,gen", ELIMINATING, ids=[sr.name for sr, _ in ELIMINATING])
    def test_tables_match_full_elimination(self, sr, gen):
        if sr.carrier_mode == "float":
            same = sr.values_equal
        else:
            def same(a, b):
                return a == b
        rng = random.Random("factored saturation %s" % sr.name)
        seen = {"cut": 0, "reused": 0}
        for _ in range(25):
            w, ring1, ring2, outside = _two_rings(rng, sr, gen)
            n = w.state_count
            classes = [
                {outside[0]},  # leaves both rings whole
                {outside[2]},  # reached by nothing
                {rng.choice(ring2)},  # cuts the second ring
                set(rng.sample(range(n), rng.randint(1, n))),
            ]
            for mode in ("weak", "delay"):
                sat = Saturator(w, mode)
                sat._factors = _CountingHits()
                for C in classes:
                    seen["cut"] += any(
                        0 < len(C.intersection(ring)) <= len(ring) - 2 for ring in (ring1, ring2)
                    )
                    w_tau = solve_least(build_tau_system(w, C))
                    table = sat.table(C)
                    assert all(map(same, table.vector(w.tau), w_tau)), (mode, C, w)
                    for a in w.actions:
                        if mode == "weak":
                            expected = solve_least(build_action_system(w, C, a, w_tau))
                        else:
                            expected = solve_least(build_delay_system(w, C, a))
                        assert all(map(same, table.vector(a), expected)), (mode, a, C, w)
                # one multi-state factor per ring at most
                assert sum(len(factor) > 1 for factor in sat._factors.values()) <= 2
                seen["reused"] += sat._factors.hits
        assert seen["cut"] and seen["reused"]

    @pytest.mark.parametrize("mode", ["weak", "delay"])
    def test_second_table_reuses_the_factor(self, mode, monkeypatch):
        # A 2,000-state silent ring of weight 1/2 and two states outside,
        # each reached from the ring by one a-step.  The first table factors
        # the ring; the second applies the factor: no star and about two
        # products per ring state.
        sr = by_name("real")
        n = 2000
        half = Fraction(1, 2)
        edges = [(x, "tau", (x + 1) % n, half) for x in range(n)]
        edges += [(0, "a", n, half), (n // 3, "a", n + 1, half)]
        w = wb.WLTS(sr, ["s%d" % x for x in range(n + 2)], ["a"], "tau", edges)
        C1, C2 = [n], [n + 1]
        sat = Saturator(w, mode)
        first = sat.table(C1)
        assert len(first.support("a")) == n
        assert len(sat._factors) == 1
        products, stars = [], []
        mul, star = sr.mul, sr.star
        monkeypatch.setattr(sr, "mul", lambda a, b: products.append(None) or mul(a, b))
        monkeypatch.setattr(sr, "star", lambda a: stars.append(None) or star(a))
        table = sat.table(C2)
        assert not stars
        assert len(products) <= 3 * n
        monkeypatch.undo()
        fresh = Saturator(w, mode).table(C2)
        assert table.supports == fresh.supports
        assert len(table.support("a")) == n

    def test_factor_of_a_ring_stays_linear(self):
        # The closure of a 400-state ring has 160,000 entries; its factor
        # holds one multiplier and one reduced entry per state.
        n = 400
        w = _silent_ring(by_name("real"), n, Fraction(1, 2))
        sat = Saturator(w, "weak")
        sat.table([n])
        (factor,) = sat._factors.values()
        assert len(factor) == n
        entries = sum(len(mults) + (s is not None) + len(row) for _, mults, s, row in factor)
        assert entries <= 4 * n
