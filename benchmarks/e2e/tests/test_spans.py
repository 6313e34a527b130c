"""Span self-time arithmetic on synthetic trees, and the wrapper itself."""

import pytest

import spans


def tree():
    # APRSimulation.step [0, 10]
    #   RefinedRegion.step [1, 9]
    #     LBMSolver.step [1, 2]            <- coarse (parent RefinedRegion)
    #     FSIStepper.step [3, 5]
    #       LBMSolver.step [3.5, 4.5]      <- fine (parent FSIStepper)
    #     FSIStepper.step [5, 8]
    #       LBMSolver.step [6, 7]          <- fine
    # LBMSolver.step [11, 12]              <- top level: coarse
    return [
        ("APRSimulation.step", 0.0, 10.0, None, 0),
        ("RefinedRegion.step", 1.0, 9.0, 0, 0),
        ("LBMSolver.step", 1.0, 2.0, 1, 100),
        ("FSIStepper.step", 3.0, 5.0, 1, 0),
        ("LBMSolver.step", 3.5, 4.5, 3, 1000),
        ("FSIStepper.step", 5.0, 8.0, 1, 0),
        ("LBMSolver.step", 6.0, 7.0, 5, 1000),
        ("LBMSolver.step", 11.0, 12.0, None, 100),
    ]


def test_self_time_subtracts_direct_children_only():
    selfs = spans.self_times(tree())
    assert selfs[0] == pytest.approx(2.0)  # 10 - RefinedRegion's 8
    assert selfs[1] == pytest.approx(8.0 - 1.0 - 2.0 - 3.0)  # three siblings
    assert selfs[3] == pytest.approx(1.0)  # nested: 2 - 1
    assert selfs[5] == pytest.approx(2.0)
    assert selfs[2] == selfs[4] == selfs[6] == pytest.approx(1.0)  # leaves
    # self times partition the covered wall exactly
    assert sum(selfs) == pytest.approx(10.0 + 1.0)


def test_lbm_step_is_split_by_parent():
    t = tree()
    assert spans.span_layer(t, 2) == "LBMSolver.step[coarse]"
    assert spans.span_layer(t, 4) == "LBMSolver.step[fine]"
    assert spans.span_layer(t, 7) == "LBMSolver.step[coarse]"
    assert spans.span_layer(t, 1) == "RefinedRegion.step"


def test_aggregate_sums_calls_self_total_and_work_per_layer():
    agg = spans.aggregate(tree())
    assert agg["LBMSolver.step[fine]"] == {
        "calls": 2, "self_s": 2.0, "total_s": 2.0, "work": 2000}
    assert agg["LBMSolver.step[coarse]"]["calls"] == 2
    assert agg["LBMSolver.step[coarse]"]["work"] == 200
    assert agg["FSIStepper.step"]["total_s"] == pytest.approx(5.0)
    assert agg["FSIStepper.step"]["self_s"] == pytest.approx(3.0)


def test_aggregate_window_selects_by_span_start():
    agg = spans.aggregate(tree(), since=5.0, until=11.0)
    assert set(agg) == {"FSIStepper.step", "LBMSolver.step[fine]"}
    assert agg["FSIStepper.step"]["calls"] == 1
    # the child keeps its layer although its grandparent is outside the window
    assert agg["LBMSolver.step[fine]"]["work"] == 1000


class Solver:
    def step(self, n=1):
        return n

    def boom(self):
        raise ValueError("boom")


def test_wrapper_records_parent_work_and_survives_exceptions():
    rec = spans.SpanRecorder()
    outer = rec.wrap(lambda s: (s.step(2), s.step())[0], "Outer")
    Solver.step = rec.wrap(Solver.step, "LBMSolver.step",
                           lambda a, k, r: 7 * r)
    Solver.boom = rec.wrap(Solver.boom, "Boom")
    s = Solver()
    assert outer(s) == 2  # result passes through
    with pytest.raises(ValueError):
        s.boom()
    assert s.step() == 1
    names = [(sp[0], sp[3], sp[4]) for sp in rec.spans]
    assert names == [
        ("Outer", None, 0),
        ("LBMSolver.step", 0, 14),
        ("LBMSolver.step", 0, 7),
        ("Boom", None, 0),
        ("LBMSolver.step", None, 7),  # the raise restored the parent
    ]
    for _, start, end, _, _ in rec.spans:
        assert end >= start
