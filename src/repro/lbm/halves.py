"""Two halves of a lattice-sized pass: one on the calling thread, one on a
persistent helper thread.

The collide panel loop, the ``[1; c^T]`` moment GEMM and the pull stream
(:mod:`repro.lbm.collision`, :mod:`repro.lbm.streaming`) each cut a large
pass into two halves and run them side by side with :func:`run_halves`.
Each half makes only NumPy/BLAS calls, on its own columns (or population
rows) and its own panel buffers; those calls release the GIL, so the
halves run on two CPUs.  Every column goes through the same calls it
would inline, so the result is the same bits whether a pass is split or
not (docs/performance.md, "Lattice halves on every CPU").

When to split is one rule, with no option: the process may run on at
least two CPUs (:func:`affinity_cpus`, the process's CPU affinity at
first use) and the pass spans at least :data:`SPLIT_PANELS` full
collide panels.  A process forked from one that splits never splits
(``os.register_at_fork``): the helper thread does not exist in the
child, and a process pool's workers are already the parallelism.

Like the panel buffers, the helper serves one pass at a time: the
lattices of a process step one after the other.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

import numpy as np

#: Fewest full collide panels (``collision.PANEL`` columns each) a pass
#: spans before it is split (24 panels: 98,304 nodes).  From the measured inline-vs-split crossover on
#: the 2-CPU reference box (docs/performance.md): below it the hand-off
#: and the shared memory bandwidth eat the second CPU's gain.
SPLIT_PANELS = 24

#: Halves in use, once known: 1 or 2 (at most two have been measured).
_halves: int | None = None
#: The running helper, once a pass has been split.
_helper: "_Helper | None" = None


def affinity_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lattice_halves() -> int:
    """Halves a pass of :data:`SPLIT_PANELS` or more panels runs in: 2
    when the process may use two or more CPUs, 1 otherwise."""
    global _halves
    if _halves is None:
        _halves = 2 if affinity_cpus() >= 2 else 1
    return _halves


def split_column(n: int, panel: int) -> int | None:
    """First column of the second half of an ``n``-column pass cut at a
    ``panel`` boundary, or ``None`` when the pass runs inline.

    The first half (the calling thread's) gets the extra panel of an odd
    count; the second half ends with the ragged last panel.
    """
    if n // panel < SPLIT_PANELS or lattice_halves() < 2:
        return None
    return (-(-n // panel) + 1) // 2 * panel


class _Helper:
    """One daemon thread that runs the second half of each split pass."""

    def __init__(self) -> None:
        self._go = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._job: tuple | None = None
        self.error: BaseException | None = None
        threading.Thread(
            target=self._loop, name="repro-lattice-half", daemon=True
        ).start()

    def _loop(self) -> None:
        while True:
            self._go.acquire()
            work, errors, errcall = self._job
            self._job = None
            try:
                # NumPy's error state is per thread: take the caller's.
                with np.errstate(call=errcall, **errors):
                    work()
            except BaseException as exc:  # re-raised by the caller
                self.error = exc
            self._done.release()

    def start(self, work: Callable[[], None]) -> None:
        self._job = (work, np.geterr(), np.geterrcall())
        self._go.release()

    def wait(self) -> BaseException | None:
        """Block until the running half has stopped; its exception, if any."""
        self._done.acquire()
        error, self.error = self.error, None
        return error


def run_halves(first: Callable[[], None], second: Callable[[], None]) -> None:
    """``first()`` on the calling thread and ``second()`` on the helper.

    Returns once both have stopped.  An exception from either is raised
    only then: the calling thread's own if it has one, else the helper's.
    """
    global _helper
    if _helper is None:
        _helper = _Helper()
    helper = _helper
    helper.start(second)
    try:
        first()
    finally:
        error = helper.wait()
    if error is not None:
        raise error


def _forked_child() -> None:
    global _halves, _helper
    _halves, _helper = 1, None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forked_child)
