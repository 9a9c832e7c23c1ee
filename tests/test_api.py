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
