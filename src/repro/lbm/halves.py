"""Two halves of a lattice-sized pass: one on the calling thread, one on a
persistent helper thread.

The collide panel loop, the ``[1; c^T]`` moment GEMM, the Guo velocity,
the force reset and the pull stream (:mod:`repro.lbm.collision`,
:mod:`repro.lbm.streaming`) each cut a large pass into two halves and
run them side by side with :func:`run_halves`.  Each half makes only
NumPy/BLAS calls, on its own columns (or population rows) and its own
panel buffers; those calls release the GIL, so the halves run on two
CPUs.  The fewer and the longer the calls, the less often the halves
hand the GIL to each other: a panel is 12,288 columns, and its GEMM
blocks go to BLAS in one call.  Every column goes through the same calls it
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

The two halves are placed on two CPUs.  Left to the scheduler, the
woken helper was at times queued on the calling thread's CPU until a
load-balancing tick, so on the 2-vCPU reference box a pass of a few
milliseconds ran its halves one after the other (docs/performance.md,
"Lattice halves on every CPU").  So in a process whose affinity is two
CPUs, the only case measured, each split first puts the helper on the
CPU the calling thread is not on.  The calling thread is never moved,
and a forked child, or any process started from this one, inherits its
affinity.  With more CPUs the scheduler places both threads, as before.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

import numpy as np

#: Fewest full collide panels (``collision.PANEL`` columns each) a pass
#: spans before it is split (8 panels of 12,288: 98,304 nodes).  From the
#: measured inline-vs-split crossover on the 2-CPU reference box
#: (docs/performance.md): below it the hand-off and the shared memory
#: bandwidth eat the second CPU's gain.
SPLIT_PANELS = 8

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


def split_column(n: int, panel: int, block: int) -> int | None:
    """First column of the second half of an ``n``-column pass of
    ``panel``-wide panels, cut at a ``block`` boundary, or ``None`` when
    the pass runs inline.

    The first half (the calling thread's) gets the extra block of an odd
    count; the second half ends with the ragged last block.  So the
    halves differ by at most one block plus the ragged tail, whatever
    the panel width.
    """
    if n // panel < SPLIT_PANELS or lattice_halves() < 2:
        return None
    return (-(-n // block) + 1) // 2 * block


class _Helper:
    """One daemon thread that runs the second half of each split pass.

    Where threads can be placed (Linux) and the process's affinity at the
    helper's start is two CPUs, :meth:`place` puts the helper on the CPU
    the calling thread is not on before each split (see the module
    docstring).
    """

    def __init__(self) -> None:
        self._go = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._job: tuple | None = None
        self.error: BaseException | None = None
        cpus = sorted(os.sched_getaffinity(0)) if _PLACE else []
        #: The two CPUs the helper is placed on (None: it is not placed;
        #: only a two-CPU affinity has been measured), and the one it
        #: keeps to now.
        self.cpus = tuple(cpus) if len(cpus) == 2 else None
        self.cpu: int | None = None
        thread = threading.Thread(
            target=self._loop, name="repro-lattice-half", daemon=True
        )
        thread.start()
        self._tid = thread.native_id

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

    def place(self) -> None:
        """Keep the helper to the CPU the calling thread is not on.

        One ``sched_getcpu`` per split; the helper's affinity is set only
        when the caller has changed CPU since the last split.  The
        calling thread's own affinity is never touched.
        """
        if self.cpus is None:
            return
        here = _current_cpu()
        if here not in self.cpus:
            return
        there = self.cpus[0] if here == self.cpus[1] else self.cpus[1]
        if there != self.cpu:
            try:
                os.sched_setaffinity(self._tid, {there})
            except OSError:
                self.cpus = None  # the affinity changed under us: unplaced
                return
            self.cpu = there

    def start(self, work: Callable[[], None]) -> None:
        self._job = (work, np.geterr(), np.geterrcall())
        self._go.release()

    def wait(self) -> BaseException | None:
        """Block until the running half has stopped; its exception, if any."""
        self._done.acquire()
        error, self.error = self.error, None
        return error


#: Whether threads can be placed on CPUs here (Linux).
_PLACE = hasattr(os, "sched_setaffinity")
#: ``sched_getcpu`` of the C library, once looked up (False: none).
_getcpu = None


def _current_cpu() -> int:
    """The CPU the calling thread runs on now, or -1 where unknown."""
    global _getcpu
    if _getcpu is None:
        import ctypes

        try:
            _getcpu = ctypes.CDLL(None).sched_getcpu
        except (OSError, AttributeError):
            _getcpu = False
    return _getcpu() if _getcpu else -1


def run_halves(first: Callable[[], None], second: Callable[[], None]) -> None:
    """``first()`` on the calling thread and ``second()`` on the helper.

    Returns once both have stopped.  An exception from either is raised
    only then: the calling thread's own if it has one, else the helper's.
    """
    global _helper
    if _helper is None:
        _helper = _Helper()
    helper = _helper
    helper.place()
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
