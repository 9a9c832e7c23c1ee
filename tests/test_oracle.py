"""Unit tests for the brute-force reference computations."""

import random
from fractions import Fraction

import pytest

import wbisim as wb
from wbisim import (
    FinitePath,
    Partition,
    TraceSelector,
    TruncationError,
    brute_coarsest_partition,
    brute_weight,
    by_name,
    cones_nested_or_disjoint,
    enumerate_admissible,
    milner_weak_oracle,
    minimal_support,
    refine_partition,
)
from wbisim.oracle import _restricted_growth_strings

import helpers


class TestFinitePath:
    def test_construction_and_accessors(self):
        p = FinitePath((0, 1, 2), ("a", "b"))
        assert (p.first, p.last, p.length) == (0, 2, 2)
        assert p.trace == ("a", "b")
        assert FinitePath.single(4).length == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FinitePath((0, 1), ("a", "b"))
        with pytest.raises(ValueError):
            FinitePath((), ())

    def test_extend_and_prefix(self):
        p = FinitePath.single(0).extend("a", 1)
        q = p.extend("b", 2)
        assert p.is_prefix_of(q) and p.is_prefix_of(p)
        assert not q.is_prefix_of(p)
        # same labels, different states: not a prefix
        r = FinitePath.single(0).extend("a", 3)
        assert not r.is_prefix_of(q)

    def test_weight_multiplies_steps(self):
        w = helpers.figure_system()
        p = FinitePath((0, 1, 2), ("b", "b"))
        assert p.step_weights(w) == [Fraction(1, 2), Fraction(1, 3)]
        assert p.weight(w) == Fraction(1, 6)
        assert FinitePath.single(0).weight(w) == Fraction(1)

    def test_weight_rejects_absent_steps(self):
        w = helpers.figure_system()
        with pytest.raises(ValueError):
            FinitePath((0, 6), ("a",)).weight(w)

    def test_sort_key_orders_by_length_first(self):
        short = FinitePath((0, 4), ("a",))
        long = FinitePath((0, 1, 2, 3, 5), ("b", "b", "b", "a"))
        assert sorted([long, short], key=FinitePath.sort_key) == [short, long]


class TestTraceSelector:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSelector("eta")
        with pytest.raises(ValueError):
            TraceSelector("weak")  # needs an action
        with pytest.raises(ValueError):
            TraceSelector("tau-star", action="a")

    def test_tau_star(self):
        sel = TraceSelector.tau_star()
        assert sel.matches((), "tau")
        assert sel.matches(("tau", "tau"), "tau")
        assert not sel.matches(("a",), "tau")
        assert sel.alive(("tau",), "tau")
        assert not sel.alive(("tau", "a"), "tau")

    def test_weak(self):
        sel = TraceSelector.weak("a")
        assert sel.matches(("a",), "tau")
        assert sel.matches(("tau", "a", "tau"), "tau")
        assert not sel.matches((), "tau")
        assert not sel.matches(("a", "a"), "tau")
        assert not sel.matches(("a", "b"), "tau")
        assert sel.alive((), "tau")
        assert sel.alive(("tau",), "tau")
        assert sel.alive(("a", "tau"), "tau")
        assert not sel.alive(("b",), "tau")

    def test_delay(self):
        sel = TraceSelector.delay("a")
        assert sel.matches(("tau", "a"), "tau")
        assert not sel.matches(("a", "tau"), "tau")
        assert sel.alive(("tau",), "tau")
        assert sel.alive(("tau", "a"), "tau")
        assert not sel.alive(("a", "tau"), "tau")

    def test_respects_custom_silent_label(self):
        sel = TraceSelector.weak("a")
        assert sel.matches(("b", "a", "b"), "b")
        assert not sel.matches(("b", "a", "b"), "tau")


class TestEnumerateAdmissible:
    def test_figure_has_exactly_two_routes(self):
        w = helpers.figure_system()
        C = [w.index(s) for s in helpers.FIGURE_CLASS]
        paths = enumerate_admissible(w, w.index("x"), TraceSelector.weak("a"), C)
        assert paths == [
            FinitePath((0, 4), ("a",)),
            FinitePath((0, 1, 2, 3, 5), ("b", "b", "b", "a")),
        ]
        assert paths[0].weight(w) == Fraction(1, 5)
        assert paths[1].weight(w) == Fraction(1, 192)

    def test_figure_exclusions(self):
        # the all-silent walk into x2 never performs the action, and the
        # continuation of the direct route is cut because its prefix
        # already qualifies
        w = helpers.figure_system()
        C = [w.index(s) for s in helpers.FIGURE_CLASS]
        paths = enumerate_admissible(w, w.index("x"), TraceSelector.weak("a"), C)
        assert FinitePath((0, 1, 2), ("b", "b")) not in paths
        assert FinitePath((0, 4, 5), ("a", "b")) not in paths

    def test_admissible_paths_qualify_and_are_prefix_free(self):
        rng = random.Random(61)
        sr = by_name("real")
        for _ in range(30):
            w = helpers.random_dag_wlts(rng, sr, 6, 2, 0.35, helpers.positive_fraction)
            C = frozenset(rng.sample(range(6), rng.randint(1, 3)))
            for sel in (
                TraceSelector.tau_star(),
                TraceSelector.weak("a"),
                TraceSelector.delay("a"),
            ):
                for x in range(w.state_count):
                    paths = enumerate_admissible(w, x, sel, C)
                    for p in paths:
                        assert p.first == x
                        assert p.last in C
                        assert sel.matches(p.labels, w.tau)
                        for cut in range(p.length):
                            prefix = FinitePath(
                                p.states[: cut + 1], p.labels[:cut]
                            )
                            assert not (
                                sel.matches(prefix.labels, w.tau)
                                and prefix.last in C
                            )
                    for p in paths:
                        for q in paths:
                            assert p is q or not p.is_prefix_of(q)

    def test_class_validation(self):
        w = helpers.figure_system()
        with pytest.raises(ValueError):
            enumerate_admissible(w, 0, TraceSelector.tau_star(), [])


class TestBruteWeight:
    def test_figure_value(self):
        w = helpers.figure_system()
        C = [w.index(s) for s in helpers.FIGURE_CLASS]
        value, truncated = brute_weight(w, w.index("x"), TraceSelector.weak("a"), C)
        assert not truncated
        assert value == helpers.FIGURE_WEIGHT

    def test_truncation_flag_on_silent_cycle(self):
        w = helpers.golden_cyclic_system()
        C = [w.index("c")]
        sel = TraceSelector.tau_star()
        value, truncated = brute_weight(w, w.index("x"), sel, C, max_len=3)
        assert truncated
        assert value == Fraction(7, 8)  # 1/2 + 1/4 + 1/8
        value, truncated = brute_weight(w, w.index("x"), sel, C, max_len=40)
        assert truncated
        assert value == 1 - Fraction(1, 2) ** 40

    def test_immediate_qualification_beats_the_cycle(self):
        # when the start state is already in the class the empty path is
        # the only admissible one, cycle or not
        w = helpers.golden_cyclic_system()
        sel = TraceSelector.tau_star()
        value, truncated = brute_weight(w, w.index("x"), sel, [0, 1])
        assert (value, truncated) == (Fraction(1), False)

    def test_boolean_route_never_truncates(self):
        w = helpers.tau_cycle_system()
        sel = TraceSelector.tau_star()
        x, y, z = (w.index(s) for s in ("x", "y", "z"))
        assert brute_weight(w, x, sel, [y]) == (True, False)
        assert brute_weight(w, x, sel, [z]) == (False, False)
        assert brute_weight(w, z, sel, [z]) == (True, False)

    def test_boolean_route_matches_enumeration_on_dags(self):
        rng = random.Random(62)
        for _ in range(40):
            w = helpers.random_dag_wlts(
                rng, by_name("boolean"), 6, 2, 0.35, lambda r: True
            )
            C = frozenset(rng.sample(range(6), 2))
            for sel in (
                TraceSelector.tau_star(),
                TraceSelector.weak("a"),
                TraceSelector.delay("b"),
            ):
                for x in range(w.state_count):
                    via_reach, _ = brute_weight(w, x, sel, C)
                    paths = enumerate_admissible(w, x, sel, C)
                    assert via_reach == bool(paths)


class TestMinimalSupport:
    def test_drops_extensions(self):
        p = FinitePath.single(0).extend("a", 1)
        q = p.extend("b", 2)
        r = FinitePath.single(0).extend("c", 3)
        assert minimal_support([q, p, r]) == {p, r}

    def test_admissible_sets_are_already_minimal(self):
        w = helpers.figure_system()
        C = [w.index(s) for s in helpers.FIGURE_CLASS]
        paths = enumerate_admissible(w, w.index("x"), TraceSelector.weak("a"), C)
        assert minimal_support(paths) == set(paths)

    def test_minimal_support_of_all_qualifying_paths_is_the_admissible_set(self):
        # enumerate every qualifying path (prefix condition dropped), then
        # reduce: exactly the admissible set must come back
        rng = random.Random(63)
        sr = by_name("real")
        for _ in range(25):
            w = helpers.random_dag_wlts(rng, sr, 6, 2, 0.4, helpers.positive_fraction)
            C = frozenset(rng.sample(range(6), 2))
            sel = TraceSelector.weak("a")
            for x in range(w.state_count):
                qualifying = []

                def walk(p):
                    if sel.matches(p.labels, w.tau) and p.last in C:
                        qualifying.append(p)
                    if p.length >= w.state_count:
                        return
                    for label in w.labels:
                        for y in sorted(w.successors(p.last, label)):
                            walk(p.extend(label, y))

                walk(FinitePath.single(x))
                admissible = enumerate_admissible(w, x, sel, C)
                assert minimal_support(qualifying) == set(admissible)

    def test_properties(self):
        w = helpers.figure_system()
        all_paths = []
        for cut in range(1, 4):
            all_paths.append(FinitePath(tuple(range(cut + 1)), ("b",) * cut))
        support = minimal_support(all_paths)
        assert support == {all_paths[0]}
        assert minimal_support(support) == support
        assert minimal_support([]) == set()


class TestCones:
    def test_incomparable_paths_have_disjoint_cones(self):
        w = helpers.figure_system()
        C = [w.index(s) for s in helpers.FIGURE_CLASS]
        p1, p2 = enumerate_admissible(w, w.index("x"), TraceSelector.weak("a"), C)
        assert cones_nested_or_disjoint(w, p1, p2)

    def test_prefix_gives_nested_cones(self):
        w = helpers.figure_system()
        p = FinitePath((0, 1), ("b",))
        q = FinitePath((0, 1, 2), ("b", "b"))
        assert cones_nested_or_disjoint(w, p, q)

    def test_requires_common_start(self):
        w = helpers.figure_system()
        with pytest.raises(ValueError):
            cones_nested_or_disjoint(
                w, FinitePath.single(0), FinitePath.single(1)
            )

    def test_random_pairs_always_verify(self):
        rng = random.Random(64)
        sr = by_name("real")
        for _ in range(15):
            w = helpers.random_dag_wlts(rng, sr, 6, 2, 0.45, helpers.positive_fraction)
            pool = []

            def walk(p):
                if p.length >= 3:
                    return
                for label in w.labels:
                    for y in sorted(w.successors(p.last, label)):
                        q = p.extend(label, y)
                        pool.append(q)
                        walk(q)

            walk(FinitePath.single(0))
            for p in pool:
                for q in pool:
                    assert cones_nested_or_disjoint(w, p, q, probe_len=6)


class TestBruteCoarsest:
    def test_chains_weak(self):
        w = helpers.chains_system()
        p = brute_coarsest_partition(w, mode="weak")
        assert p == refine_partition(w, "weak")[0]
        assert p.to_names(w) == [["p0", "q0"], ["p1", "p2", "q1"], ["p3", "q2"]]

    def test_witness_modes_differ(self):
        w = helpers.weak_delay_witness()
        assert brute_coarsest_partition(w, mode="weak") == refine_partition(w, "weak")[0]
        assert brute_coarsest_partition(w, mode="delay") == Partition(3, [[0], [1], [2]])

    def test_strong_matches_engine_on_randoms(self):
        rng = random.Random(65)
        for _ in range(20):
            w = helpers.random_boolean_lts(rng, rng.randint(1, 5), 2, 0.35)
            assert brute_coarsest_partition(w, mode="strong") == refine_partition(w, "strong")[0]

    def test_size_guard(self):
        w = helpers.random_boolean_lts(random.Random(0), 9, 1, 0.2)
        with pytest.raises(ValueError):
            brute_coarsest_partition(w)

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            brute_coarsest_partition(helpers.chains_system(), mode="eta")

    def test_truncation_error_on_rational_cycle(self):
        sr = by_name("real")
        w = helpers.make_wlts(
            sr,
            ["x", "c"],
            [
                ("x", "tau", "x", Fraction(1, 2)),
                ("x", "a", "c", Fraction(1, 2)),
            ],
        )
        with pytest.raises(TruncationError):
            brute_coarsest_partition(w, mode="weak")

    def test_golden_cycle_single_block(self):
        # the one-block candidate qualifies immediately (both states are
        # in the class), so no truncating enumeration is ever needed
        w = helpers.golden_cyclic_system()
        p = brute_coarsest_partition(w, mode="weak")
        assert p == Partition.single_block(2)
        assert refine_partition(w, "weak")[0] == p


class TestMilnerOracle:
    def test_chains(self):
        w = helpers.chains_system()
        assert milner_weak_oracle(w) == refine_partition(w, "weak")[0]

    def test_silent_cycle_collapses(self):
        w = helpers.tau_cycle_system()
        p = milner_weak_oracle(w)
        assert p == Partition.single_block(3)
        assert refine_partition(w, "weak")[0] == p

    def test_boolean_only(self):
        with pytest.raises(ValueError):
            milner_weak_oracle(helpers.figure_system())

    def test_does_not_run_the_engine(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the oracle ran the engine's refinement loop")

        monkeypatch.setattr(wb.bisim, "_refine", forbidden)
        w = helpers.chains_system()
        assert milner_weak_oracle(w).to_names(w) == [["p0", "q0"], ["p1", "p2", "q1"], ["p3", "q2"]]
        assert milner_weak_oracle(helpers.tau_cycle_system()) == Partition.single_block(3)


class TestRestrictedGrowthStrings:
    def test_bell_counts(self):
        for n, bell in enumerate([1, 1, 2, 5, 15, 52, 203]):
            assert len(_restricted_growth_strings(n)) == bell

    def test_all_distinct_and_lexicographic(self):
        out = _restricted_growth_strings(5)
        assert len(set(out)) == len(out)
        assert out == sorted(out)
        assert out[0] == (0, 0, 0, 0, 0)
