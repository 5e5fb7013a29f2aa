"""The one sweep path: grid checks, evaluation count and the verdicts."""

import pytest

from mvlab.sweeps import sweep


def test_sweep_rejects_bad_grid_before_evaluating():
    calls = []

    def quantity(p):
        calls.append(p)
        return p, 0.0

    for grid in ([0.3, 0.2, 0.1], [0.1, 0.1], [0.1, float("nan")]):
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep("q", quantity, grid, "non-decreasing", 1e-6)
    assert calls == []


def test_sweep_evaluates_each_point_once_and_judges():
    calls = []

    def quantity(p):
        calls.append(p)
        return (1.0 if p < 0.25 else 2.0), 0.1

    rep = sweep("q", quantity, [0.1, 0.2, 0.3], "non-increasing", 1e-6)
    assert calls == [0.1, 0.2, 0.3]
    assert (rep.name, rep.grid, rep.values, rep.errors) == (
        "q", [0.1, 0.2, 0.3], [1.0, 1.0, 2.0], [0.1, 0.1, 0.1])
    assert rep.verdicts == [True, False] and not rep.monotone_ok
    assert rep.worst_violation == pytest.approx(1.0 - 0.2 - 1e-6)


def test_nan_step_is_the_worst_violation():
    # a NaN value fails its steps and is not dropped from the running worst
    values = {0.1: 1.0, 0.2: float("nan"), 0.3: 0.5, 0.4: 0.4}
    rep = sweep("q", lambda p: (values[p], 0.0), sorted(values), "non-increasing", 1e-6)
    assert rep.verdicts == [False, False, True] and not rep.monotone_ok
    assert rep.worst_violation != rep.worst_violation
