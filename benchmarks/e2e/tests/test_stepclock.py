"""The step clock satisfies the runseam checkpointer duck type."""

import warnings

import pytest

from stepclock import StepClock
from workloads import WORKLOADS


def test_intervals_exclude_the_clock_own_work(tmp_path):
    clock = StepClock(3, tmp_path / "c.npz")
    assert clock.every == 1 and clock.load() is None
    clock.begin()
    for _ in range(3):
        clock.save(f_coarse="state")
    assert clock.setup_s == clock.ends[0] - clock.starts[0] >= 0.0
    assert len(clock.step_ms()) == 2  # every step after the first
    assert clock.final_state == {"f_coarse": "state"}
    assert clock.timed_from == clock.starts[1]
    before = clock.starts[-1]
    clock.resume()
    assert clock.starts[-1] >= before


@pytest.mark.parametrize("name", ["tube_ht20", "channel_moves", "channel_efsi"])
def test_drivers_accept_the_clock_as_their_checkpointer(name, tmp_path):
    """Two steps of each real driver: one clock reading per step, a real
    checkpoint exactly on the listed steps, no resume."""
    workload = WORKLOADS[name]
    steps = 2
    clock = StepClock(steps, tmp_path / "checkpoint.npz",
                      save_steps={steps} if workload.saves_with else ())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the clip warning is not under test
        result = workload.drive(seed=0, steps=steps, clock=clock)
    assert len(clock.ends) == steps
    assert len(clock.step_ms()) == steps - 1
    assert clock.setup_s > 0.0
    if workload.saves_with:
        assert len(clock.saves) == 1
        seconds, nbytes = clock.saves[0]
        assert seconds > 0.0 and nbytes > 0
        assert (tmp_path / "checkpoint.npz").stat().st_size == nbytes
    else:
        assert clock.final_state is not None
        assert {"step", "f_coarse", "manager"} <= set(clock.final_state)
    assert result  # the JSON-able run summary
