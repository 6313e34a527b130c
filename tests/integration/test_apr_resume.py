"""A resumed APR run goes on exactly as the uninterrupted one.

The tube-window driver checkpoints every 10 coarse steps through
``JobCheckpointer``.  Stopping it after 10 steps and resuming it from that
checkpoint must give the same final lattices, the same cells under the
same IDs and the same summary: the checkpoint carries the seeding RNG's
state, the next cell ID, the controller's counters and the hematocrit
history besides the lattices and the cells.
"""

import numpy as np

from repro.experiments.tube_window import run_tube_window
from repro.io.checkpoint import load_checkpoint
from repro.service.checkpointing import JobCheckpointer

#: n = 2 keeps the fine window at 25^3; cells are stamped after step 10.
RUN = dict(hematocrit=0.2, refinement=2, steps=30, seed=0)


def test_resumed_tube_run_matches_the_uninterrupted_run(tmp_path):
    straight = run_tube_window(
        **RUN, checkpointer=JobCheckpointer(tmp_path / "a.npz", every=10)
    )
    run_tube_window(**{**RUN, "steps": 10},
                    checkpointer=JobCheckpointer(tmp_path / "b.npz", every=10))
    at_cut = load_checkpoint(tmp_path / "b.npz")
    checkpointer = JobCheckpointer(tmp_path / "b.npz", every=10)
    resumed = run_tube_window(**RUN, checkpointer=checkpointer)
    assert checkpointer.resumed_from == 10

    a, b = load_checkpoint(tmp_path / "a.npz"), load_checkpoint(tmp_path / "b.npz")
    assert a["step"] == b["step"] == 30
    for key in ("f_coarse", "f_fine"):
        assert np.array_equal(a[key], b[key]), key
    cells_a, cells_b = a["manager"].cells, b["manager"].cells
    assert [c.global_id for c in cells_a] == [c.global_id for c in cells_b]
    assert all(np.array_equal(x.vertices, y.vertices)
               for x, y in zip(cells_a, cells_b))
    assert int(a["extra"]["next_id"]) == int(b["extra"]["next_id"])
    # Cells were stamped after the cut, with the restored RNG and IDs.
    assert straight.n_inserted > int(at_cut["extra"]["n_inserted"])

    for field in ("n_cells_final", "n_inserted", "n_removed", "mu_effective",
                  "flow_rate"):
        assert getattr(resumed, field) == getattr(straight, field), field
    assert np.array_equal(resumed.times, straight.times)
    assert np.array_equal(resumed.hematocrit, straight.hematocrit)
