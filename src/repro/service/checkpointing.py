"""Per-job checkpoint shards: atomic writes, resume bookkeeping.

One :class:`JobCheckpointer` per job wraps :mod:`repro.io.checkpoint`
with the two properties campaign robustness needs:

* **atomicity** — checkpoints are written to a sibling temp file and
  ``os.replace``d into place, so a job SIGKILLed mid-save still has its
  previous complete checkpoint to resume from;
* **resume bookkeeping** — ``load()`` records the step it restored from
  (``resumed_from``) so the worker can report "resumed from step N, not
  step 0" into the ledger and the aggregate report.

It is handed to experiments through the duck-typed seam documented in
:mod:`repro.experiments.runseam` — the experiments never import this
module.
"""

from __future__ import annotations

import os
from pathlib import Path


class JobCheckpointer:
    """Atomic checkpoint reader/writer for one campaign job.

    Parameters
    ----------
    path:
        Final checkpoint location (conventionally
        ``jobs/<job_id>/checkpoint.npz``).
    every:
        Steps between checkpoints; experiments read this as their
        segmentation cadence.  ``0`` disables periodic saves but still
        allows resuming from an existing file.
    """

    def __init__(self, path: str | Path, every: int = 0):
        self.path = Path(path)
        self.every = int(every)
        #: Step the last ``load()`` restored from (None = fresh start).
        self.resumed_from: int | None = None
        self.n_saves = 0
        # numpy appends ".npz" to names that lack it, so the temp file
        # must keep the suffix *last* for os.replace to target it.
        self._tmp = self.path.with_name("." + self.path.stem + ".tmp.npz")

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> dict | None:
        """Load the last checkpoint payload, or ``None`` when fresh."""
        if not self.path.exists():
            return None
        # Imported here: the checkpoint format pulls in the cell side,
        # which a worker that never checkpoints does not need.
        from ..io.checkpoint import load_checkpoint

        data = load_checkpoint(self.path)
        self.resumed_from = int(data["step"])
        return data

    def save(self, **payload) -> Path:
        """Atomically persist ``save_checkpoint(**payload)``."""
        from ..io.checkpoint import save_checkpoint

        return self.save_with(lambda p: save_checkpoint(p, **payload))

    def save_with(self, write_fn) -> Path:
        """Atomically persist via ``write_fn(tmp_path)`` + ``os.replace``.

        For simulations that own their checkpoint format
        (:meth:`repro.core.apr.APRSimulation.save`).
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            write_fn(self._tmp)
            os.replace(self._tmp, self.path)
        finally:
            self._tmp.unlink(missing_ok=True)
        self.n_saves += 1
        return self.path
