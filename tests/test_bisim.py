"""Unit tests for block splitting and the refinement engine."""

import heapq
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import wbisim as wb
from wbisim import (
    Partition,
    Saturator,
    bisimilar,
    brute_coarsest_partition,
    by_name,
    check_is_weak_bisimulation,
    refine_partition,
)
from wbisim.bisim import split_block_sorted

import helpers


class TestSplitting:
    def test_groups_come_in_first_member_order(self):
        sr = by_name("real")
        weights = [Fraction(3), Fraction(1), Fraction(3), wb.INF, Fraction(1)]
        groups = split_block_sorted(sr, [0, 1, 2, 3, 4], weights)
        assert groups == [[0, 2], [1, 4], [3]]

    @pytest.mark.parametrize(
        "name,equal,other",
        [
            ("real", (Fraction(1, 2), Fraction(2, 4)), Fraction(1)),
            ("real", (wb.INF, type(wb.INF)(1)), Fraction(0)),
            ("tropical", (wb.INF, type(wb.INF)(1)), Fraction(1, 2)),
            ("arctic", (wb.NEG_INF, type(wb.NEG_INF)(-1)), wb.INF),
            ("maxtimes", (Fraction(1, 2), Fraction(2, 4)), Fraction(1)),
        ],
    )
    def test_equal_values_group_when_distinct_objects(self, name, equal, other):
        # Exact carriers group on == and hash alone, not on identity.
        sr = by_name(name)
        a, b = equal
        assert a is not b and a == b
        weights = {4: a, 1: other, 2: b}
        assert split_block_sorted(sr, [4, 2, 1], weights) == [[1], [2, 4]]

    def test_float_tolerance_group_comes_back_in_id_order(self):
        sr = by_name("real-float", epsilon=1e-9)
        weights = [1.0 + 4e-10, 1.0, 0.0, 1.0 + 2e-10]
        assert split_block_sorted(sr, [0, 1, 2, 3], weights) == [[0, 1, 3], [2]]

    def test_float_groups_split_at_tolerance_gaps(self):
        sr = by_name("real-float", epsilon=1e-9)
        weights = [0.0, 4e-10, 1.0, 1.0 + 2e-10, 2.0]
        groups = split_block_sorted(sr, [0, 1, 2, 3, 4], weights)
        assert groups == [[0, 1], [2, 3], [4]]

    def test_float_groups_span_at_most_the_tolerance(self):
        # neighbours are within tolerance, the first and the last are not
        sr = by_name("real-float", epsilon=1e-9)
        weights = [0.5, 0.5 + 0.6e-9, 0.5 + 1.2e-9]
        assert split_block_sorted(sr, [0, 1, 2], weights) == [[0, 1], [2]]

    def test_singleton_and_empty(self):
        sr = by_name("boolean")
        assert split_block_sorted(sr, [2], [True, True, False]) == [[2]]
        assert split_block_sorted(sr, [], []) == []

    # Values in different representations of one weight: unreduced
    # constructions that Fraction reduces, and extremes built afresh.
    POOLS = {
        "real": [Fraction(1, 2), Fraction(2, 4), Fraction(0), Fraction(0, 3), Fraction(3),
                 Fraction(6, 2), Fraction(10**20, 3 * 10**20), Fraction(1, 3), wb.INF,
                 type(wb.INF)(1)],
        "tropical": [Fraction(0), Fraction(0, 5), Fraction(1, 2), Fraction(2, 4), Fraction(7, 2),
                     wb.INF, type(wb.INF)(1)],
        "arctic": [Fraction(-1, 2), Fraction(-2, 4), Fraction(0), Fraction(2), Fraction(4, 2),
                   wb.INF, wb.NEG_INF, type(wb.NEG_INF)(-1)],
        "maxtimes": [Fraction(0), Fraction(1, 2), Fraction(2, 4), Fraction(1), Fraction(3, 3),
                     Fraction(1, 3)],
    }

    @pytest.mark.parametrize("name", sorted(POOLS))
    def test_exact_grouping_matches_pairwise_equality(self, name):
        # A naive grouping that compares each member with == against the
        # first member of every group found so far.
        sr = by_name(name)
        rng = random.Random("split %s" % name)
        pool = self.POOLS[name]
        for _ in range(300):
            n = rng.randint(0, 12)
            weights = {x: rng.choice(pool) for x in range(n)}
            members = rng.sample(range(n), rng.randint(0, n))
            expected = []
            for x in sorted(members):
                for group in expected:
                    if weights[group[0]] == weights[x]:
                        group.append(x)
                        break
                else:
                    expected.append([x])
            assert split_block_sorted(sr, members, weights) == expected, (members, weights)


class TestChains:
    """One branch does a then silently b, the other does a then b."""

    def test_weak_merges_the_roots(self):
        w = helpers.chains_system()
        p = refine_partition(w, "weak")[0]
        assert p.to_names(w) == [["p0", "q0"], ["p1", "p2", "q1"], ["p3", "q2"]]

    def test_delay_agrees_here(self):
        w = helpers.chains_system()
        assert refine_partition(w, "delay")[0] == refine_partition(w, "weak")[0]

    def test_strong_separates_the_roots(self):
        w = helpers.chains_system()
        p = refine_partition(w, "strong")[0]
        assert not p.same_block(w.index("p0"), w.index("q0"))
        # the two terminal states stay together under every mode
        assert p.same_block(w.index("p3"), w.index("q2"))

    def test_bisimilar_helper(self):
        w = helpers.chains_system()
        assert bisimilar(w, w.index("p0"), w.index("q0"), mode="weak")
        assert not bisimilar(w, w.index("p0"), w.index("q0"), mode="strong")

    def test_bisimilar_rejects_ids_out_of_range(self, monkeypatch):
        w = helpers.chains_system()

        def forbidden(*args, **kwargs):
            raise AssertionError("refined before the ids were checked")

        monkeypatch.setattr(wb.bisim, "refine_partition", forbidden)
        for x, y in ((-1, 0), (0, -1), (0, w.state_count), (99, 0)):
            with pytest.raises(ValueError, match="out of range"):
                bisimilar(w, x, y)


class TestWeakVersusDelay:
    def test_witness_separates_the_modes(self):
        w = helpers.weak_delay_witness()
        weak = refine_partition(w, "weak")[0]
        delay = refine_partition(w, "delay")[0]
        assert weak.to_names(w) == [["s0", "s2"], ["s1"]]
        assert delay == Partition.discrete(3)

    def test_witness_is_minimal_in_state_count(self):
        # no boolean system on two states separates weak from delay:
        # enumerate every 2-state system over {tau, a}
        sr = by_name("boolean")
        edges = [
            (x, label, y)
            for x in range(2)
            for label in ("tau", "a")
            for y in range(2)
        ]
        for mask in range(1 << len(edges)):
            triples = [
                (x, label, y, True)
                for i, (x, label, y) in enumerate(edges)
                if mask >> i & 1
            ]
            w = wb.WLTS(sr, ["u", "v"], ("a",), "tau", triples)
            assert refine_partition(w, "weak")[0] == refine_partition(w, "delay")[0]


class TestEngineInvariants:
    def test_tau_free_modes_coincide(self):
        rng = random.Random(51)
        sr = by_name("real")
        for _ in range(40):
            n = rng.randint(2, 7)
            w = helpers.random_wlts(rng, sr, n, 2, 0.35, helpers.positive_fraction)
            w = wb.WLTS(
                sr,
                w.state_names,
                w.actions,
                w.tau,
                [t for t in w.transitions() if t[1] != w.tau],
            )
            strong = refine_partition(w, "strong")[0]
            assert refine_partition(w, "weak")[0] == strong
            assert refine_partition(w, "delay")[0] == strong

    def test_result_is_a_bisimulation_and_coarsest_found(self):
        rng = random.Random(52)
        for _ in range(30):
            w = helpers.random_boolean_lts(rng, rng.randint(2, 7), 2, 0.3)
            for mode in ("strong", "weak", "delay"):
                p = refine_partition(w, mode)[0]
                assert check_is_weak_bisimulation(w, p, mode=mode).ok

    def test_discrete_partition_always_passes_the_checker(self):
        w = helpers.weak_delay_witness()
        p = Partition.discrete(w.state_count)
        for mode in ("strong", "weak", "delay"):
            assert check_is_weak_bisimulation(w, p, mode=mode).ok

    def test_checker_reports_violations_with_weights(self):
        w = helpers.weak_delay_witness()
        report = check_is_weak_bisimulation(w, Partition.single_block(3), mode="weak")
        assert not report.ok
        v = report.violations[0]
        assert v.label in w.labels
        assert set(v.weights) <= set(w.state_names)
        weak = refine_partition(w, "weak")[0]
        report_delay = check_is_weak_bisimulation(w, weak, mode="delay")
        assert not report_delay.ok

    def test_restart_from_final_partition_is_stable(self):
        rng = random.Random(53)
        for _ in range(25):
            w = helpers.random_boolean_lts(rng, rng.randint(2, 7), 2, 0.3)
            final = refine_partition(w, "weak")[0]
            assert refine_partition(w, "weak", initial=final)[0] == final

    def test_strong_with_signature_presplit_matches_default(self):
        # grouping states by their per-label total outgoing weight is
        # coarser than strong bisimilarity, so it is a sound head start
        rng = random.Random(54)
        sr = by_name("real")
        for _ in range(25):
            n = rng.randint(2, 7)
            w = helpers.random_wlts(rng, sr, n, 2, 0.35, helpers.positive_fraction)
            everything = set(range(n))
            sig = {}
            for x in range(n):
                key = tuple(w.class_weight(x, lab, everything) for lab in w.labels)
                sig.setdefault(key, []).append(x)
            presplit = Partition(n, sig.values())
            strong = refine_partition(w, "strong")[0]
            assert refine_partition(w, "strong", initial=presplit)[0] == strong

    def test_initial_partition_size_mismatch(self):
        w = helpers.chains_system()
        with pytest.raises(ValueError):
            refine_partition(w, "weak", initial=Partition.single_block(2))[0]

    def test_unknown_mode(self):
        w = helpers.chains_system()
        with pytest.raises(ValueError):
            refine_partition(w, "branching")[0]
        with pytest.raises(ValueError):
            check_is_weak_bisimulation(w, Partition.single_block(7), mode="eta")
        # A bad mode is reported before a partition of the wrong size.
        with pytest.raises(ValueError, match="mode must be strong, weak or delay"):
            check_is_weak_bisimulation(w, Partition.single_block(3), mode="eta")

    def test_transition_order_does_not_matter(self):
        rng = random.Random(55)
        sr = by_name("real")
        for _ in range(20):
            w = helpers.random_wlts(rng, sr, 6, 2, 0.4, helpers.positive_fraction)
            triples = list(w.transitions())
            rng.shuffle(triples)
            shuffled = wb.WLTS(sr, w.state_names, w.actions, w.tau, triples)
            for mode in ("strong", "weak", "delay"):
                assert refine_partition(w, mode)[0] == refine_partition(
                    shuffled, mode
                )[0]

    def test_deterministic_across_runs(self):
        w = helpers.weak_delay_witness()
        p1, t1 = refine_partition(w, "delay", want_trace=True)
        p2, t2 = refine_partition(w, "delay", want_trace=True)
        assert p1 == p2
        assert [e.__dict__ for e in t1.events] == [e.__dict__ for e in t2.events]


class TestTrace:
    def test_trace_structure(self):
        w = helpers.chains_system()
        p, trace = refine_partition(w, "weak", want_trace=True)
        assert trace.mode == "weak"
        assert trace.candidates_examined >= len(p)
        counts = [e.block_count for e in trace.events]
        assert counts == sorted(counts)
        assert counts[-1] == len(p)
        for e in trace.events:
            assert e.label in w.labels
            assert e.blocks_split >= 1
            assert all(0 <= x < w.state_count for x in e.splitter)

    def test_no_trace_by_default(self):
        w = helpers.chains_system()
        p, trace = refine_partition(w, "weak")
        assert trace is None

    def test_block_count_never_exceeds_states(self):
        rng = random.Random(56)
        for _ in range(20):
            w = helpers.random_boolean_lts(rng, rng.randint(1, 7), 2, 0.4)
            p, trace = refine_partition(w, "weak", want_trace=True)
            assert len(p) <= w.state_count
            assert len(trace.events) <= max(0, w.state_count - 1)


class TestFloatTolerance:
    def test_chained_weights_give_blocks_the_checker_accepts(self):
        # three states whose weights into the sink are pairwise within
        # tolerance only as neighbours; one block would fail the checker
        sr = by_name("real-float", epsilon=1e-9)
        weights = [0.5, 0.5 + 0.6e-9, 0.5 + 1.2e-9]
        w = helpers.make_wlts(
            sr,
            ["s0", "s1", "s2", "sink"],
            [("s%d" % i, "a", "sink", wt) for i, wt in enumerate(weights)],
        )
        for mode in ("strong", "weak", "delay"):
            p = refine_partition(w, mode)[0]
            assert not p.same_block(w.index("s0"), w.index("s2"))
            assert check_is_weak_bisimulation(w, p, mode=mode).ok


def _as_float(v):
    return math.inf if v is wb.INF else float(v)


@pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
def test_float_partition_matches_exact_when_weights_sit_apart(mode, monkeypatch):
    """real-float against exact real on the same rational weights: when
    the distinct exact weights into every class the run saturates against
    sit more than epsilon apart, the partitions must be equal."""
    exact, approx = by_name("real"), by_name("real-float")
    rng = random.Random("float against exact %s" % mode)
    compared = 0
    for _ in range(60):
        n = rng.randint(1, 9)
        w = helpers.random_wlts(
            rng, exact, n, 2, rng.uniform(0.1, 0.4), lambda r: Fraction(r.randint(1, 8), 8)
        )
        w_float = wb.WLTS(
            approx, w.state_names, w.actions, w.tau,
            [(x, label, y, float(v)) for x, label, y, v in w.transitions()],
        )
        classes = []
        table = Saturator.table
        monkeypatch.setattr(Saturator, "table", lambda self, C: classes.append(C) or table(self, C))
        # direct refinement, so that every recorded class is over w's states
        expected = wb.bisim._refine(w, mode, None, False)[0]
        monkeypatch.undo()
        saturator = Saturator(w, mode)
        gaps = []
        for C in classes:
            for label in w.labels:
                values = sorted(set(map(_as_float, saturator.table(C).vector(label))))
                gaps += [b - a for a, b in zip(values, values[1:])]
        if any(gap <= 10 * approx.epsilon for gap in gaps):
            continue
        compared += 1
        assert refine_partition(w_float, mode)[0] == expected, w
    assert compared >= 50


def _relabelled(w, perm):
    """w with state x moved to id perm[x]."""
    names = [None] * w.state_count
    for x, name in enumerate(w.state_names):
        names[perm[x]] = name
    return wb.WLTS(
        w.semiring, names, w.actions, w.tau,
        [(perm[x], label, perm[y], v) for x, label, y, v in w.transitions()],
    )


def _disjoint_union(w):
    """w next to a renamed copy of itself: state x is copied to x + n."""
    n = w.state_count
    edges = list(w.transitions())
    return wb.WLTS(
        w.semiring, w.state_names + tuple("copy-" + s for s in w.state_names),
        w.actions, w.tau, edges + [(x + n, label, y + n, v) for x, label, y, v in edges],
    )


small_systems = st.builds(
    lambda lane, seed, n, density: helpers.random_wlts(
        random.Random(seed), helpers.SEMIRING_WEIGHTS[lane][0], n, 2, density,
        helpers.SEMIRING_WEIGHTS[lane][1],
    ),
    st.integers(0, len(helpers.SEMIRING_WEIGHTS) - 1),
    st.integers(0, 2**32),
    st.integers(1, 7),
    st.sampled_from([0.1, 0.25, 0.4]),
)


class TestSymmetry:
    """The result depends on the system, not on how its states are
    numbered: the silent components and their solve order do."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(w=small_systems, data=st.data())
    def test_permuting_states_permutes_the_partition(self, w, data):
        perm = data.draw(st.permutations(range(w.state_count)))
        moved = _relabelled(w, perm)
        for mode in ("strong", "weak", "delay"):
            p = refine_partition(w, mode)[0]
            expected = Partition(w.state_count, [[perm[x] for x in b] for b in p.blocks])
            assert refine_partition(moved, mode)[0] == expected, (mode, w, perm)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(w=small_systems)
    def test_disjoint_union_pairs_each_state_with_its_copy(self, w):
        n = w.state_count
        union = _disjoint_union(w)
        for mode in ("strong", "weak", "delay"):
            p = refine_partition(union, mode)[0]
            assert all(p.same_block(x, x + n) for x in range(n)), (mode, w)
            halves = Partition(n, [[x for x in b if x < n] for b in p.blocks])
            assert halves == refine_partition(w, mode)[0], (mode, w)


def full_scan_refine(w, mode, initial=None):
    """Reference engine: every block is regrouped against dense weight
    vectors of every splitter, class_weight in strong mode and the
    saturation table's vectors otherwise, from ``initial`` (by default the
    one-block partition).  Returns the partition and the trace events as
    (step, label, splitter, blocks_split, block_count)."""
    n = w.state_count
    sr = w.semiring
    saturator = Saturator(w, mode)
    if initial is None:
        initial = Partition.single_block(n)
    members = {i: list(block) for i, block in enumerate(initial.blocks)}
    heap = [(block[0], i) for i, block in enumerate(initial.blocks)]
    next_id = len(members)
    events = []
    while heap:
        _, cid = heapq.heappop(heap)
        if cid not in members:
            continue
        C = tuple(members[cid])
        if mode == "strong":
            vectors = {
                label: [w.class_weight(x, label, frozenset(C)) for x in range(n)]
                for label in w.labels
            }
        else:
            table = saturator.table(C)
            vectors = {label: table.vector(label) for label in w.labels}
        for label in w.labels:
            split_any = 0
            for bid in list(members):
                groups = split_block_sorted(sr, members[bid], vectors[label])
                if len(groups) == 1:
                    continue
                split_any += 1
                del members[bid]
                for g in groups:
                    members[next_id] = g
                    heapq.heappush(heap, (min(g), next_id))
                    next_id += 1
            if split_any:
                events.append((len(events) + 1, label, C, split_any, len(members)))
            if cid not in members:
                break
    return Partition(n, members.values()), events


def event_tuples(trace):
    return [(e.step, e.label, e.splitter, e.blocks_split, e.block_count) for e in trace.events]


def engine_run(w, mode):
    p, trace = refine_partition(w, mode, want_trace=True)
    return p, event_tuples(trace)


def assert_matches_full_scan(w, mode):
    """The engine's partition is the reference's, and its trace replays
    to it: the engine schedules its splitters differently, so its events
    are not the reference's."""
    partition, trace = refine_partition(w, mode, want_trace=True)
    assert partition == full_scan_refine(w, mode)[0], w
    assert _replay(w, mode, trace) == partition, w
    return partition


class TestPredecessorDrivenEngine:
    @pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_matches_full_scan_reference(self, sr, gen, mode):
        rng = random.Random("%s/%s" % (sr.name, mode))
        for _ in range(25):
            n = rng.randint(1, 12)
            density = rng.uniform(0.05, 0.35)
            w = helpers.random_wlts(rng, sr, n, rng.randint(1, 2), density, gen)
            assert_matches_full_scan(w, mode)

    @pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_matches_brute_force_on_small_systems(self, sr, gen, mode):
        # acyclic, so the oracle's path enumeration is complete
        rng = random.Random("brute %s/%s" % (sr.name, mode))
        for _ in range(8):
            n = rng.randint(2, 6)
            density = rng.uniform(0.15, 0.5)
            w = helpers.random_dag_wlts(rng, sr, n, rng.randint(1, 2), density, gen)
            p = assert_matches_full_scan(w, mode)
            assert p == brute_coarsest_partition(w, mode=mode), w

    def test_strong_work_is_bounded_by_the_transition_count(self, monkeypatch):
        # Per label, each block that a table's support touches makes one
        # call on the weight into the splitter, plus one on the weight into
        # the rest of its compound per group of two or more: at most twice
        # its support members, so the calls are at most twice the supports.
        # The supports hold only predecessors of examined classes, and each
        # state is examined about twice (see the class-size guard below).
        # No class weight is evaluated state by state.
        w = helpers.random_sparse_boolean(random.Random(61), 1000, 3, 4)
        calls = []
        supports = [0]
        table = Saturator.table

        def counting(sr, members, weights):
            calls.append(len(members))
            return split_block_sorted(sr, members, weights)

        def measured_table(self, C):
            t = table(self, C)
            supports[0] += sum(len(t.support(label)) for label in self.w.labels)
            return t

        def forbidden(*args):
            raise AssertionError("class_weight called by the strong engine")

        monkeypatch.setattr(wb.bisim, "split_block_sorted", counting)
        monkeypatch.setattr(Saturator, "table", measured_table)
        monkeypatch.setattr(wb.WLTS, "class_weight", forbidden)
        p, _ = refine_partition(w, "strong")
        assert len(calls) <= 2 * supports[0] <= 4 * w.transition_count
        monkeypatch.undo()
        assert check_is_weak_bisimulation(w, p, mode="strong").ok

    def test_strong_examines_each_state_about_twice(self, monkeypatch):
        # Once in the whole initial block, then only in the smaller of two
        # blocks of a compound: the largest piece of a split is never
        # examined.  Examining every child of every split summed 12.6n.
        n = 4000
        w = helpers.random_sparse_boolean(random.Random(61), n, 3, 4)
        examined = [0]
        table = Saturator.table

        def measured_table(self, C):
            examined[0] += len(C)
            return table(self, C)

        monkeypatch.setattr(Saturator, "table", measured_table)
        assert refine_partition(w, "strong")[0] == Partition.discrete(n)
        assert examined[0] <= 3 * n

    def test_no_table_after_the_partition_is_discrete(self, monkeypatch):
        w = helpers.random_sparse_boolean(random.Random(61), 1000, 3, 4)
        tables = [0]
        last_split = [0]
        table = Saturator.table

        def counting_table(self, C):
            tables[0] += 1
            return table(self, C)

        def noting_split(sr, members, weights):
            groups = split_block_sorted(sr, members, weights)
            if len(groups) > 1:
                last_split[0] = tables[0]
            return groups

        monkeypatch.setattr(Saturator, "table", counting_table)
        monkeypatch.setattr(wb.bisim, "split_block_sorted", noting_split)
        p, trace = refine_partition(w, "strong", want_trace=True)
        assert p == Partition.discrete(w.state_count)
        assert tables[0] == last_split[0] == trace.candidates_examined

    @pytest.mark.parametrize("mode,n", [("strong", 1000), ("weak", 200), ("delay", 200)])
    def test_a_splitter_regroups_only_its_support(self, mode, n, monkeypatch):
        # Per label, each touched block passes its support members plus at
        # most one stand-in for the zero-weight rest.  In strong mode the
        # groups of that call may be passed once more, each group in a call
        # of its own, to regroup on the weight into the rest of a compound,
        # so at most twice as many members are passed.
        w = helpers.random_sparse_boolean(random.Random(62), n, 3, 4)
        log = []  # [support size, members passed, calls] per splitter label

        class Recording:
            def __init__(self, table):
                self.table = table

            def support(self, label):
                support = self.table.support(label)
                log.append([len(support), 0, 0])
                return support

        def counting_split(sr, members, weights):
            log[-1][1] += len(members)
            log[-1][2] += 1
            return split_block_sorted(sr, members, weights)

        table = Saturator.table
        monkeypatch.setattr(Saturator, "table", lambda self, C: Recording(table(self, C)))
        monkeypatch.setattr(wb.bisim, "split_block_sorted", counting_split)
        refine_partition(w, mode)
        assert sum(calls for _, _, calls in log) > 0
        rounds = 2 if mode == "strong" else 1
        for size, passed, calls in log:
            assert passed <= rounds * (size + calls)

    @pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_explicit_zeros_in_supports_change_nothing(self, sr, gen, mode, monkeypatch):
        # A support may list states of weight zero; they must group exactly
        # as the states it leaves out.
        rng = random.Random("zero padding %s/%s" % (sr.name, mode))
        table = Saturator.table

        def padded(self, C):
            t = table(self, C)
            for label in self.w.labels:
                support = t.support(label)
                for x in range(self.w.state_count):
                    if x not in support and (x + len(C)) % 3 == 0:
                        support[x] = sr.zero
            return t

        for _ in range(15):
            n = rng.randint(1, 12)
            w = helpers.random_wlts(rng, sr, n, 2, rng.uniform(0.05, 0.35), gen)
            w = _disjoint_union(w) if rng.random() < 0.5 else w
            expected = engine_run(w, mode)
            monkeypatch.setattr(Saturator, "table", padded)
            assert engine_run(w, mode) == expected, w
            monkeypatch.undo()

    @pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
    def test_float_support_within_epsilon_of_zero_joins_the_rest(self, mode):
        sr = by_name("real-float", epsilon=1e-9)
        weights = {"s0": 4e-10, "s1": 8e-10, "s2": 1.2e-9, "s3": 0.5}
        w = helpers.make_wlts(
            sr,
            ["s0", "s1", "s2", "s3", "s4", "s5", "sink"],
            [(x, "a", "sink", wt) for x, wt in weights.items()],
        )
        p, events = engine_run(w, mode)
        assert p.to_names(w) == [["s0", "s1", "s4", "s5", "sink"], ["s2"], ["s3"]]
        assert (p, events) == full_scan_refine(w, mode)
        assert check_is_weak_bisimulation(w, p, mode=mode).ok


@pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
def test_strong_refines_delay_refines_weak(sr, gen):
    rng = random.Random("mode order %s" % sr.name)
    for _ in range(40):
        n = rng.randint(1, 9)
        w = helpers.random_wlts(rng, sr, n, 2, rng.uniform(0.1, 0.45), gen)
        strong = refine_partition(w, "strong")[0]
        delay = refine_partition(w, "delay")[0]
        weak = refine_partition(w, "weak")[0]
        assert strong.refines(delay) and delay.refines(weak), w


# -- weak and delay on the strong quotient ------------------------------------

EXACT_WEIGHTS = [(sr, gen) for sr, gen in helpers.SEMIRING_WEIGHTS if sr.carrier_mode != "float"]


def _shuffled_copies(rng, w, copies, stutters=0):
    """``copies`` copies of w side by side, their state ids shuffled
    together.  In each copy ``stutters`` random states x hand their edges
    to a new state x' and step to it silently with weight one."""
    sr = w.semiring
    edges = []
    count = 0
    for _ in range(copies):
        base = count
        count += w.state_count
        moved = {}
        for x in rng.sample(range(w.state_count), min(stutters, w.state_count)):
            moved[x] = count
            edges.append((base + x, w.tau, count, sr.one))
            count += 1
        edges += [
            (moved.get(x, base + x), label, base + y, v) for x, label, y, v in w.transitions()
        ]
    perm = list(range(count))
    rng.shuffle(perm)
    return wb.WLTS(
        sr, ["s%d" % x for x in range(count)], w.actions, w.tau,
        [(perm[x], label, perm[y], v) for x, label, y, v in edges],
    )


def _recording_refinements(monkeypatch):
    """Wrap the engine's refinement loop ``_refine``; the list gets the
    state count and the mode of every run."""
    calls = []
    original = wb.bisim._refine

    def recording(w, mode, initial=None, want_trace=False):
        calls.append((w.state_count, mode))
        return original(w, mode, initial, want_trace)

    monkeypatch.setattr(wb.bisim, "_refine", recording)
    return calls


def _route_base(sr, gen, infinite=False):
    """Random systems of 2-6 states over ``sr``.  With ``infinite`` a
    weight is ``INF`` one time in eight, and about every third state gets a
    silent self-loop whose star is ``INF``: weight one on ``real``, a
    positive weight on ``arctic``."""

    def build(rng):
        n = rng.randint(2, 6)
        weight = (lambda r: wb.INF if r.random() < 0.125 else gen(r)) if infinite else gen
        w = helpers.random_wlts(rng, sr, n, 2, rng.uniform(0.15, 0.45), weight)
        if not infinite:
            return w
        loops = [
            (x, w.tau, x, sr.one if sr.name == "real" else Fraction(rng.randint(1, 3)))
            for x in range(n)
            if rng.random() < 1 / 3
        ]
        return wb.WLTS(sr, w.state_names, w.actions, w.tau, list(w.transitions()) + loops)

    return build


def _assert_route_quotient(w, strong):
    """The route's quotient of the strong partition has, from each block
    into each block on each label, the class weight of every member."""
    sr = w.semiring
    expected = []
    for bi, block in enumerate(strong.blocks):
        for label in w.labels:
            for bj, target in enumerate(strong.blocks):
                wt = w.class_weight(block[0], label, target)
                assert all(w.class_weight(x, label, target) == wt for x in block), w
                if not sr.is_zero(wt):
                    expected.append((bi, label, bj, wt))
    quotient = wb.wlts._representative_quotient(w, strong, map(str, range(len(strong))))
    assert list(quotient.transitions()) == expected, w


ROUTE_BASES = [(sr.name, _route_base(sr, gen)) for sr, gen in EXACT_WEIGHTS] + [
    (sr.name + "-infinite", _route_base(sr, gen, infinite=True))
    for sr, gen in EXACT_WEIGHTS
    if sr.name in ("real", "arctic")
]


class TestStrongQuotientRoute:
    @pytest.mark.parametrize("mode", ["weak", "delay"])
    @pytest.mark.parametrize(
        "name,make_base", ROUTE_BASES, ids=[name for name, _ in ROUTE_BASES]
    )
    def test_matches_direct_refinement(self, name, make_base, mode, monkeypatch):
        # The route is forced on every exact semiring, not only on the
        # carriers that take it: lumpability does not depend on the carrier.
        # It must give the partition of direct refinement, and its trace,
        # lifted to the document states, must replay to it from ``initial``.
        monkeypatch.setattr(wb.bisim, "_lumps", lambda w, mode: True)
        rng = random.Random("strong quotient %s/%s" % (name, mode))
        routed = 0
        for i in range(60):
            base = make_base(rng)
            w = _shuffled_copies(rng, base, rng.choice([1, 2, 3, 3]), rng.choice([0, 0, 1, 2]))
            initial = None
            if i % 3 == 2:
                initial = Partition.from_block_of([rng.randrange(2) for _ in range(w.state_count)])
            expected = wb.bisim._refine(w, mode, initial, False)[0]
            partition, trace = refine_partition(w, mode, initial, want_trace=True)
            assert partition == expected, (w, initial)
            assert _replay(w, mode, trace, initial) == partition, (w, initial)
            strong = wb.bisim._refine(w, "strong", initial, False)[0]
            _assert_route_quotient(w, strong)
            routed += len(strong) < w.state_count
        assert routed >= 20, routed

    @pytest.mark.parametrize("sr,gen", EXACT_WEIGHTS, ids=[sr.name for sr, _ in EXACT_WEIGHTS])
    def test_quotient_sums_the_steps_into_one_block(self, sr, gen):
        # x steps on a to y1 and to y2, which are strongly bisimilar, so
        # its quotient weight into their block sums the two steps
        rng = random.Random("sums into one block %s" % sr.name)
        for _ in range(10):
            base = helpers.make_wlts(
                sr, ["x", "y1", "y2"], [("x", "a", "y1", gen(rng)), ("x", "a", "y2", gen(rng))]
            )
            w = _shuffled_copies(rng, base, 2)
            _assert_route_quotient(w, wb.bisim._refine(w, "strong", None, False)[0])

    @pytest.mark.parametrize("name", ["real", "arctic"])
    def test_differential_catches_a_broken_strong_pass(self, name, monkeypatch):
        # The route builds its quotient from one member per block and
        # checks nothing, so a strong pass that merges two blocks it should
        # not must show up as a partition that direct refinement disagrees
        # with.
        make_base = dict(ROUTE_BASES)[name]
        original = wb.bisim._refine

        def merging(w, mode, initial=None, want_trace=False):
            p, trace = original(w, mode, initial, want_trace)
            if mode == "strong" and len(p) > 1:
                p = Partition(p.n, [p.blocks[0] + p.blocks[1], *p.blocks[2:]])
            return p, trace

        rng = random.Random("broken strong pass %s" % name)
        caught = 0
        for _ in range(30):
            w = _shuffled_copies(rng, make_base(rng), rng.choice([2, 3]))
            expected = original(w, "weak", None, False)[0]
            monkeypatch.setattr(wb.bisim, "_refine", merging)
            caught += refine_partition(w, "weak")[0] != expected
            monkeypatch.undo()
        assert caught >= 10, caught

    @pytest.mark.parametrize("mode", ["weak", "delay"])
    @pytest.mark.parametrize("name", ["real", "arctic"])
    def test_refines_a_quotient_of_the_strong_blocks(self, name, mode, monkeypatch):
        sr, gen = next(entry for entry in helpers.SEMIRING_WEIGHTS if entry[0].name == name)
        rng = random.Random("replicated %s" % name)
        w = _shuffled_copies(rng, helpers.random_wlts(rng, sr, 6, 2, 0.3, gen), 3)
        strong = wb.bisim._refine(w, "strong", None, False)[0]
        expected = wb.bisim._refine(w, mode, None, False)[0]
        _assert_route_quotient(w, strong)
        calls = _recording_refinements(monkeypatch)
        assert refine_partition(w, mode)[0] == expected
        assert len(strong) <= w.state_count // 3
        assert calls == [(w.state_count, "strong"), (len(strong), mode)]

    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_not_taken_in_strong_mode_nor_off_real_and_arctic(self, sr, gen, monkeypatch):
        # best-first semirings and real-float refine directly, with no strong pass
        rng = random.Random("not routed %s" % sr.name)
        w = _shuffled_copies(rng, helpers.random_wlts(rng, sr, 6, 2, 0.3, gen), 3)
        calls = _recording_refinements(monkeypatch)
        routed = sr.name in ("real", "arctic")
        for mode in ("strong",) if routed else ("strong", "weak", "delay"):
            calls.clear()
            refine_partition(w, mode)
            assert calls == [(w.state_count, mode)]

    @pytest.mark.parametrize("name", ["real", "arctic"])
    def test_not_taken_when_the_strong_partition_is_discrete(self, name, monkeypatch):
        # s0 and s1 step silently into different strong blocks, s2 acts
        sr = by_name(name)
        w = helpers.make_wlts(
            sr, ["s0", "s1", "s2"],
            [("s0", "tau", "s1", sr.one), ("s1", "tau", "s2", sr.one), ("s2", "a", "s0", sr.one)],
        )
        calls = _recording_refinements(monkeypatch)
        for mode in ("weak", "delay"):
            calls.clear()
            refine_partition(w, mode)
            assert calls == [(3, "strong"), (3, mode)]


@pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
def test_exact_real_splitting_never_hashes_a_fraction(mode, monkeypatch):
    # Fraction.__hash__ is a modular pow on every call: grouping exact
    # weights must not call it, on the strong pass nor on the quotient.
    sr, gen = next(entry for entry in helpers.SEMIRING_WEIGHTS if entry[0].name == "real")
    rng = random.Random("no fraction hash")
    w = _shuffled_copies(rng, helpers.random_wlts(rng, sr, 8, 2, 0.3, gen), 4, 1)
    expected = wb.bisim._refine(w, mode, None, False)[0]
    inside, hashes, splits = [False], [0], [0]
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        hashes[0] += inside[0]
        return fraction_hash(self)

    def watched_split(sr, members, weights):
        inside[0] = True
        splits[0] += 1
        try:
            return split_block_sorted(sr, members, weights)
        finally:
            inside[0] = False

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    monkeypatch.setattr(wb.bisim, "split_block_sorted", watched_split)
    assert refine_partition(w, mode)[0] == expected
    assert splits[0] > 0 and hashes[0] == 0


def _replay(w, mode, trace, initial=None):
    """Replay ``trace`` on the states of w from ``initial``, by default the
    one-block partition: each event regroups every block by its members'
    saturated weights into the event's splitter at the event's label.
    Checks the counts of every event and returns the final partition."""
    saturator = Saturator(w, mode)
    if initial is None:
        initial = Partition.single_block(w.state_count)
    blocks = [list(block) for block in initial.blocks]
    for e in trace.events:
        weights = saturator.table(e.splitter).vector(e.label)
        regrouped = [split_block_sorted(w.semiring, block, weights) for block in blocks]
        blocks = [group for groups in regrouped for group in groups]
        assert (sum(len(groups) > 1 for groups in regrouped), len(blocks)) == (
            e.blocks_split, e.block_count,
        ), e
    return Partition(w.state_count, blocks)


@pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
@pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
def test_trace_replays_on_the_document_states(sr, gen, mode):
    # Every other system is shuffled copies, whose strong partition is
    # coarse: on real and arctic, weak and delay traces then come from
    # the quotient pass and must still replay on the document's states.
    rng = random.Random("replay %s/%s" % (sr.name, mode))
    routed = 0
    for i in range(100):
        w = helpers.random_wlts(rng, sr, rng.randint(1, 7), 2, rng.uniform(0.1, 0.45), gen)
        if i % 2:
            w = _shuffled_copies(rng, w, rng.choice([2, 3]))
        partition, trace = refine_partition(w, mode, want_trace=True)
        assert _replay(w, mode, trace) == partition, w
        if wb.bisim._lumps(w, mode):
            routed += len(wb.bisim._refine(w, "strong", None, False)[0]) < w.state_count
    assert routed >= 40 or not wb.bisim._lumps(w, mode), routed


def _marked(w, initial):
    """w with one more action per block of ``initial``, a weight-one loop
    on each of the block's states: its coarsest strong bisimulation is
    that of w refining ``initial``."""
    sr = w.semiring
    marks = ["init%d" % i for i in range(len(initial))]
    loops = [(x, marks[i], x, sr.one) for i, block in enumerate(initial.blocks) for x in block]
    return wb.WLTS(sr, w.state_names, w.actions + tuple(marks), w.tau, [*w.transitions(), *loops])


STRONG_BASES = [(sr.name, _route_base(sr, gen)) for sr, gen in helpers.SEMIRING_WEIGHTS] + [
    (name, make_base) for name, make_base in ROUTE_BASES if name.endswith("-infinite")
]


@pytest.mark.parametrize("name,make_base", STRONG_BASES, ids=[name for name, _ in STRONG_BASES])
def test_compound_splitters_match_the_full_scan_reference(name, make_base):
    # Shuffled copies with stutters end coarse, so compounds keep several
    # blocks and the largest is never examined; on real the weight into
    # the rest of a compound is then mostly left to cancellation.
    rng = random.Random("compound splitters %s" % name)
    for i in range(60):
        w = _shuffled_copies(rng, make_base(rng), rng.choice([1, 2, 3, 3]), rng.choice([0, 1, 2]))
        initial = None
        reference = w
        if i % 2:
            initial = Partition.from_block_of([rng.randrange(2) for _ in range(w.state_count)])
            reference = _marked(w, initial)
        partition, trace = refine_partition(w, "strong", initial, want_trace=True)
        assert partition == full_scan_refine(reference, "strong")[0], (w, initial)
        assert _replay(w, "strong", trace, initial) == partition, (w, initial)


@pytest.mark.parametrize("mode", ["weak", "delay"])
@pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
def test_weak_and_delay_from_an_initial_partition_match_the_full_scan_reference(sr, gen, mode):
    # On real and arctic the shuffled copies take the strong-quotient route,
    # which starts its quotient pass from the lifted ``initial``.
    rng = random.Random("initial %s/%s" % (sr.name, mode))
    for i in range(40):
        w = helpers.random_wlts(rng, sr, rng.randint(1, 9), 2, rng.uniform(0.1, 0.45), gen)
        if i % 2:
            w = _shuffled_copies(rng, w, rng.choice([2, 3]), rng.choice([0, 1]))
        initial = Partition.from_block_of([rng.randrange(2) for _ in range(w.state_count)])
        partition, trace = refine_partition(w, mode, initial, want_trace=True)
        assert partition == full_scan_refine(w, mode, initial)[0], (w, initial)
        assert _replay(w, mode, trace, initial) == partition, (w, initial)


@pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
@pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
def test_no_class_is_saturated_twice(sr, gen, mode, monkeypatch):
    # A block is examined again only after it splits, as a smaller class;
    # a block queued while it already waits would be examined twice.  The
    # route makes one Saturator per pass, so classes are recorded per
    # instance, keyed by the instance itself: its id could be reused.
    classes = {}
    table = Saturator.table

    def recording(self, C):
        classes.setdefault(self, []).append(frozenset(C))
        return table(self, C)

    monkeypatch.setattr(Saturator, "table", recording)
    rng = random.Random("no waste %s/%s" % (sr.name, mode))
    for i in range(40):
        w = helpers.random_wlts(rng, sr, rng.randint(1, 9), 2, rng.uniform(0.1, 0.45), gen)
        if i % 2:
            w = _shuffled_copies(rng, w, rng.choice([2, 3]), rng.choice([0, 1]))
        initial = None
        if i % 3 == 2:
            initial = Partition.from_block_of([rng.randrange(2) for _ in range(w.state_count)])
        classes.clear()
        refine_partition(w, mode, initial)
        for computed in classes.values():
            assert len(set(computed)) == len(computed), (w, initial)


# (a, b) with a + b == a, and for real a weight that does not cancel
ABSORBING = {
    "boolean": (True, True),
    "real": (wb.INF, Fraction(1)),
    "real-float": (math.inf, 1.0),
    "tropical": (Fraction(0), Fraction(1)),
    "arctic": (wb.INF, Fraction(1)),
    "truncation": (0, 1),
    "maxtimes": (Fraction(1), Fraction(1, 2)),
}


@pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
def test_the_rest_of_a_compound_separates_what_sums_hide(sr, gen):
    # p and q both step into s with weight a, and p also into t1 with
    # weight b, so they weigh a into s and into every class holding s.
    # Only the weight into the rest of the compound that s leaves, where
    # the largest block {t1, t2, t3} is never examined, tells them apart.
    a, b = ABSORBING[sr.name]
    assert sr.add(a, b) == a and not sr.cancels(a)
    w = helpers.make_wlts(
        sr,
        ["p", "q", "s", "t1", "t2", "t3"],
        [("p", "a", "s", a), ("p", "a", "t1", b), ("q", "a", "s", a), ("s", "b", "s", sr.one)],
    )
    partition, trace = refine_partition(w, "strong", want_trace=True)
    assert partition.to_names(w) == [["p"], ["q"], ["s"], ["t1", "t2", "t3"]]
    assert _replay(w, "strong", trace) == partition


def _float_group_out_of_weight_order():
    """real-float system whose first split leaves {s0, s1}, weighing
    1 + 4e-10 and 1 into s2, as one group; that group then splits
    {s3, s4} from s5 on b."""
    return helpers.make_wlts(
        by_name("real-float"),
        ["s%d" % i for i in range(6)],
        [
            ("s0", "a", "s2", 1.0 + 4e-10),
            ("s1", "a", "s2", 1.0),
            ("s3", "b", "s0", 1.0),
            ("s4", "b", "s1", 1.0),
            ("s5", "b", "s2", 1.0),
        ],
    )


@pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
@pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
def test_splitters_are_listed_in_id_order(sr, gen, mode):
    rng = random.Random("splitter order %s/%s" % (sr.name, mode))
    for i in range(60):
        w = helpers.random_wlts(rng, sr, rng.randint(1, 9), 2, rng.uniform(0.1, 0.45), gen)
        if i % 2:
            w = _shuffled_copies(rng, w, rng.choice([2, 3]))
        for e in refine_partition(w, mode, want_trace=True)[1].events:
            assert list(e.splitter) == sorted(e.splitter), (w, e)
    if sr.carrier_mode == "float":
        w = _float_group_out_of_weight_order()
        splitters = [e.splitter for e in refine_partition(w, mode, want_trace=True)[1].events]
        assert (0, 1) in splitters and all(list(c) == sorted(c) for c in splitters), splitters


class _BooleanPairs(wb.Semiring):
    """Componentwise or/and on pairs of booleans, with no order given."""

    name = "boolean-pairs"
    carrier_mode = "pairs"
    idempotent = True
    zero = (False, False)
    one = (True, True)

    def add(self, a, b):
        return (a[0] or b[0], a[1] or b[1])

    def mul(self, a, b):
        return (a[0] and b[0], a[1] and b[1])

    def star(self, a):
        return self.one

    def coerce(self, v):
        return v

    def format(self, v):
        return "(%s,%s)" % v


@pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
def test_a_semiring_needs_no_order(mode):
    sr = _BooleanPairs()
    pairs = [(True, False), (False, True), (True, True)]
    rng = random.Random("pairs/%s" % mode)
    for _ in range(30):
        n = rng.randint(2, 6)
        w = helpers.random_dag_wlts(
            rng, sr, n, rng.randint(1, 2), rng.uniform(0.15, 0.5), lambda r: r.choice(pairs)
        )
        p = refine_partition(w, mode)[0]
        assert check_is_weak_bisimulation(w, p, mode).ok, w
        assert p == brute_coarsest_partition(w, mode=mode), w


# -- splitters that cannot split ------------------------------------------------


def _flag_every_state(w, mode, sources):
    return bytearray(b"\1") * w.state_count


@pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
@pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
def test_skipped_splitters_change_no_partition_nor_event(sr, gen, mode, monkeypatch):
    # A splitter that no state of a block of two or more can carry weight
    # into computes no table.  Flagging every state turns the skip off:
    # partitions and events must stay, and only fewer tables be computed.
    # Shuffled copies end coarse, so real and arctic take the strong-quotient
    # route, where the events are lifted; there a weight is INF one time in
    # eight and silent self-loops have star INF.
    make_base = _route_base(sr, gen, infinite=sr.name in ("real", "arctic"))
    rng = random.Random("skipped splitters %s/%s" % (sr.name, mode))
    skipped = routed = 0
    for i in range(40):
        if i % 4 == 3:  # larger and sparse, so it ends nearly discrete
            w = helpers.random_wlts(rng, sr, rng.randint(15, 30), 2, rng.uniform(0.03, 0.08), gen)
        else:
            w = _shuffled_copies(rng, make_base(rng), rng.choice([1, 2, 3]), rng.choice([0, 1]))
        initial = None
        if i % 2:
            initial = Partition.from_block_of([rng.randrange(2) for _ in range(w.state_count)])
        partition, trace = refine_partition(w, mode, initial, want_trace=True)
        with monkeypatch.context() as m:
            m.setattr(wb.bisim, "_carried_into", _flag_every_state)
            expected, full = refine_partition(w, mode, initial, want_trace=True)
        assert partition == expected, (w, initial)
        assert trace.events == full.events, (w, initial)
        assert trace.candidates_examined <= full.candidates_examined, (w, initial)
        skipped += full.candidates_examined - trace.candidates_examined
        if wb.bisim._lumps(w, mode):
            routed += len(wb.bisim._refine(w, "strong", initial, False)[0]) < w.state_count
    assert skipped > 0
    assert routed >= 10 or not wb.bisim._lumps(w, mode), routed


@pytest.mark.parametrize("mode", ["weak", "delay"])
def test_fewer_tables_than_without_the_skip(mode, monkeypatch):
    w = helpers.random_sparse_boolean(random.Random(61), 400, 3, 4)
    tables = [0]
    table = Saturator.table

    def counting_table(self, C):
        tables[0] += 1
        return table(self, C)

    monkeypatch.setattr(Saturator, "table", counting_table)
    partition = refine_partition(w, mode)[0]
    skipping = tables[0]
    tables[0] = 0
    monkeypatch.setattr(wb.bisim, "_carried_into", _flag_every_state)
    assert refine_partition(w, mode)[0] == partition
    assert skipping < tables[0]
