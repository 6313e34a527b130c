"""Uniform experiment seam: segmentation helpers + resume equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runseam import (
    checkpoint_interval,
    filter_params,
    iter_segments,
)
from repro.service.checkpointing import JobCheckpointer


def test_iter_segments_aligns_to_cadence():
    assert list(iter_segments(0, 10, 0)) == [10]
    assert list(iter_segments(0, 10, 4)) == [4, 4, 2]
    # resuming mid-cadence first completes the partial segment
    assert list(iter_segments(6, 10, 4)) == [2, 2]
    assert list(iter_segments(10, 10, 4)) == []
    assert list(iter_segments(3, 5, 100)) == [2]


def test_filter_params_validates_names():
    def fn(a, b=2, *, checkpointer=None):
        return a + b

    assert filter_params(fn, {"a": 1}) == {"a": 1}
    assert filter_params(fn, {"a": 1, "b": 3}) == {"a": 1, "b": 3}
    with pytest.raises(ValueError, match="checkpointer"):
        filter_params(fn, {"a": 1, "checkpointer": None})
    with pytest.raises(ValueError, match="nope"):
        filter_params(fn, {"a": 1, "nope": 9})


def test_checkpoint_interval():
    assert checkpoint_interval(None) == 0
    assert checkpoint_interval(JobCheckpointer("x.npz", every=7)) == 7


def test_shear_resume_is_bit_exact(tmp_path):
    """A checkpointed split run reproduces the uninterrupted run exactly."""
    from repro.experiments.shear_layers import run_shear_layers

    kwargs = dict(lam=0.5, n=2, ny_channel=9, steps=60)

    straight = run_shear_layers(**kwargs)

    ck = JobCheckpointer(tmp_path / "checkpoint.npz", every=20)
    # first leg: budget only reaches step 40, then "dies"
    run_shear_layers(**{**kwargs, "steps": 40}, checkpointer=ck)
    assert ck.n_saves == 2

    ck2 = JobCheckpointer(tmp_path / "checkpoint.npz", every=20)
    resumed = run_shear_layers(**kwargs, checkpointer=ck2)
    assert ck2.resumed_from == 40

    np.testing.assert_array_equal(resumed.u_window, straight.u_window)
    assert resumed.error_bulk == straight.error_bulk
    assert resumed.error_window == straight.error_window


def test_run_from_params_rejects_unknown_keys():
    from repro.experiments.shear_layers import run_from_params

    with pytest.raises(ValueError, match="bogus"):
        run_from_params({"steps": 5, "bogus": 1})
