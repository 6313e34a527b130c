"""Output and checkpointing utilities.

HARVEY writes fluid profiles and cell trajectories as CSV (see the
paper's artifact description); this package mirrors that: CSV time series
and trajectories, and npz checkpoint/restore of full simulation state.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".csvout": (
        "write_csv",
        "read_csv",
        "TrajectoryWriter",
        "TimeSeriesWriter",
    ),
    ".checkpoint": (
        "CHECKPOINT_SCHEMA_VERSION",
        "load_checkpoint",
        "save_checkpoint",
    ),
})
