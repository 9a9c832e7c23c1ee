"""The names the package exports."""

import pytest

import wbisim as wb


def test_every_exported_name_resolves_once():
    assert len(wb.__all__) == len(set(wb.__all__))
    for name in wb.__all__:
        assert getattr(wb, name) is not None, name


@pytest.mark.parametrize(
    "name",
    [
        "LinearSystem",
        "solve_least",
        "build_tau_system",
        "build_action_system",
        "build_delay_system",
        "saturate",
    ],
)
def test_reference_solver_is_not_exported(name):
    assert not hasattr(wb, name)
    assert not hasattr(wb.solver, name)


def test_wlts_has_no_predecessors_method():
    assert not hasattr(wb.WLTS, "predecessors")


def test_saturation_tables_are_plain_supports():
    assert not hasattr(wb, "SaturationTable")
    assert not hasattr(wb.solver, "SaturationTable")
    assert not hasattr(wb.bisim, "_ZeroDefault")
    sr = wb.by_name("real")
    w = wb.WLTS(sr, ["p", "q"], ["a"], "tau", [(0, "tau", 1, sr.one), (0, "a", 1, sr.one)])
    for mode in ("strong", "weak", "delay"):
        table = wb.Saturator(w, mode).table([1])
        assert type(table) is dict
        assert list(table) == list(w.labels)


def test_split_block_sorted_lives_in_bisim_only():
    assert "split_block_sorted" not in wb.__all__
    assert not hasattr(wb, "split_block_sorted")
    assert callable(wb.bisim.split_block_sorted)


def test_bisim_lists_steps_and_writes_no_columns():
    # the quotient's columns are written by ``wlts._columns``, like every
    # system's outside ``load``
    assert not hasattr(wb.bisim, "_EMPTY")
    assert not hasattr(wb.bisim, "_sort_sources")


@pytest.mark.parametrize(
    "value,expected",
    [
        (
            wb.WLTS(wb.by_name("real"), ["p", "q"], ["a"], "tau", [(0, "a", 1, 1)]),
            "WLTS(real, 2 states, 1 transitions)",
        ),
        (wb.Partition(0, []), "Partition([])"),
        (wb.FinitePath((0, 1), ("a",)), "Path(0-a->1)"),
        (wb.TraceSelector.tau_star(), "TraceSelector(tau-star)"),
        (wb.TraceSelector.weak("a"), "TraceSelector(weak, 'a')"),
    ],
    ids=["wlts", "partition", "path", "tau-star-selector", "action-selector"],
)
def test_repr(value, expected):
    assert repr(value) == expected
