"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from worker import SRC, traced  # noqa: E402

sys.path.insert(0, SRC)

import wbisim  # noqa: E402
import verify  # noqa: E402
from workloads import WORKLOADS, make_instance  # noqa: E402

# Each workload's family and modes at a size that minimizes in well under a second.
SMALL = {
    "sparse": {"n": 40, "per_state": 2},
    "replicated": {"m": 8, "k": 3, "cycles": (3,)},
}
CASES = [(name, mode) for name, wl in sorted(WORKLOADS.items()) for mode in wl.modes]


def _small(name, seed=1):
    family = WORKLOADS[name].family
    return make_instance(family, random.Random(seed), **SMALL[family])


@pytest.mark.parametrize("name,mode", CASES)
def test_joining_two_blocks_is_flagged(name, mode):
    inst = _small(name)
    w = wbisim.load(inst.doc)
    partition = wbisim.refine_partition(w, mode)[0]
    assert len(partition) >= 2
    assert verify.check_partition(w, inst, partition, mode) is None
    first, second, *rest = partition.blocks
    joined = wbisim.Partition(w.state_count, [first + second, *rest])
    assert verify.check_partition(w, inst, joined, mode) is not None


@pytest.mark.parametrize("name,mode", CASES)
def test_splitting_a_block_is_flagged(name, mode):
    # a finer partition can still be a bisimulation; then the boolean
    # reference or the copies check has to catch it
    for seed in range(20):
        inst = _small(name, seed)
        w = wbisim.load(inst.doc)
        partition = wbisim.refine_partition(w, mode)[0]
        block = next((b for b in partition.blocks if len(b) > 1), None)
        if block is not None:
            break
    rest = [b for b in partition.blocks if b is not block]
    split = wbisim.Partition(w.state_count, [block[:1], block[1:], *rest])
    assert verify.check_partition(w, inst, split, mode) is not None


def test_bad_exit_code_and_bad_json_are_flagged():
    inst = _small("strong-sparse")
    w = wbisim.load(inst.doc)
    assert verify.check_output(w, inst, "strong", 2, "") is not None
    assert verify.check_output(w, inst, "strong", 0, "not json") is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_documents(name):
    wl = WORKLOADS[name]
    a = wl.make(random.Random("%s/7/0" % name))
    b = wl.make(random.Random("%s/7/0" % name))
    c = wl.make(random.Random("%s/8/0" % name))
    assert a.text().encode() == b.text().encode()
    assert a.copy_of == b.copy_of
    assert a.text() != c.text()


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    docs = []
    for i, (name, mode) in enumerate(CASES):
        path = tmp_path / ("doc%d.json" % i)
        path.write_text(_small(name, seed=i).text())
        docs.append([str(path), mode])
    original = wbisim.solver.star_closure
    results = []
    for run in range(2):
        out_dir = tmp_path / ("out%d" % run)
        out_dir.mkdir()
        results.append(traced(wbisim, {"docs": docs, "out_dir": str(out_dir)}))
    first, second = results
    assert first["counts"] == second["counts"]
    assert first["maxima"] == second["maxima"]
    assert first["counts"]["semiring.add"] > 0
    assert first["changed_by_tracing"] == second["changed_by_tracing"] == 0
    assert first["counts_repeat"] and second["counts_repeat"]
    assert {name for name in first["spans"]} == {name for name in second["spans"]}
    assert wbisim.solver.star_closure is original  # wrappers are removed after a pass


@pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
def test_boolean_reference_matches_brute_force(mode):
    for seed in range(60):
        rng = random.Random(seed)
        inst = make_instance("sparse", rng, n=rng.randint(1, 6), per_state=rng.randint(1, 4))
        w = wbisim.load(inst.doc)
        assert verify.boolean_coarsest(w, mode) == wbisim.brute_coarsest_partition(w, mode), seed
