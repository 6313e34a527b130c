"""Output and checkpointing utilities.

HARVEY writes fluid profiles and cell trajectories as CSV (see the
paper's artifact description); this package mirrors that: CSV time series
and trajectories, and npz checkpoint/restore of full simulation state.
"""

from .csvout import write_csv, read_csv, TrajectoryWriter, TimeSeriesWriter
from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "write_csv",
    "read_csv",
    "TrajectoryWriter",
    "TimeSeriesWriter",
    "save_checkpoint",
    "load_checkpoint",
]
