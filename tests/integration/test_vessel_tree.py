"""E8 (Fig. 9) at minimal scale: a CTC tracked through the vessel tree."""

import numpy as np
import pytest

from repro.experiments.vessel_tree import run_tree_ctc

STEPS = 20


@pytest.fixture(scope="module")
def result():
    return run_tree_ctc(steps=STEPS)


@pytest.mark.slow
def test_trajectory_is_finite_with_one_row_per_step(result):
    assert result.trajectory.shape == (STEPS, 3)
    assert np.isfinite(result.trajectory).all()
    assert len(result.times) == STEPS
    assert np.all(np.diff(result.times) > 0)


@pytest.mark.slow
def test_ctc_moves_downstream(result):
    assert result.trajectory[-1, 2] > result.trajectory[0, 2]
    assert result.advance > 0


@pytest.mark.slow
def test_window_is_seeded_and_holds_rbcs(result):
    assert result.n_rbcs > 0
    assert result.n_cells_final > 1  # RBCs beside the CTC
    assert len(result.ht_history) == STEPS // 10
    assert (result.ht_history[:, 1] > 0).all()
    assert result.path_length > 0
