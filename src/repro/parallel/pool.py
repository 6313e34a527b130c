"""The worker-pool substrate of the block-decomposed lattice.

The decomposed lattice (:mod:`repro.parallel.executor`) runs on two
backends, picked by the solver's ``backend`` argument:

* ``serial``    — the ranks step inline in the calling thread (the
  default);
* ``processes`` — a persistent :class:`ProcessPool` of daemon workers,
  one pipe each, with all array data in :mod:`multiprocessing.shared_memory`
  segments the parent creates and the workers attach by name — the
  in-process analogue of the paper's CPU-tasks-per-node layout
  (Section 2.4.4).

This module owns the backend / worker-count resolver, the near-even
contiguous work split, the pool with its shutdown guarantees, and
shared-segment create / attach / unlink.  The executor keeps only its
worker handler and message vocabulary.  No environment variable selects
a backend (docs/tuning.md, section 6).  The cell side of the FSI step
has no pool (docs/performance.md, "Backend decisions → FSI process
pool").
"""

from __future__ import annotations

import multiprocessing as mp
import os
import weakref
from multiprocessing import resource_tracker, shared_memory

#: Supported backends, in increasing order of machinery.
BACKENDS = ("serial", "processes")

#: Message that ends a worker's :func:`serve` loop.
STOP = "stop"


def resolve_backend(
    backend: str | None,
    n_workers: int | None,
    n_tasks: int,
) -> tuple[str, int]:
    """Resolve backend/worker-count requests against the hardware.

    ``backend=None`` means ``serial``, which always runs one worker.
    For ``processes``, ``n_workers=None`` means one worker per CPU; the
    count is clamped to at least 1 and capped at the lattice's rank
    count ``n_tasks``.
    """
    if backend is None:
        backend = "serial"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
    if backend == "serial":
        return backend, 1
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    return backend, min(max(1, int(n_workers)), n_tasks)


def split_range(n: int, k: int) -> list[tuple[int, int]]:
    """``k`` contiguous near-even half-open chunks of ``range(n)``."""
    base, extra = divmod(n, k)
    out = []
    start = 0
    for w in range(k):
        size = base + (1 if w < extra else 0)
        out.append((start, start + size))
        start += size
    return out


# ----------------------------------------------------------------------
# Shared-memory segments: the parent creates and unlinks, workers attach


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A new parent-owned segment (release it with :func:`unlink_segments`)."""
    return shared_memory.SharedMemory(create=True, size=nbytes)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment from a worker process.

    Workers are ``multiprocessing`` children, so they share the parent's
    resource tracker (both fork and spawn hand the tracker fd down) and
    the attach-time ``register`` is an idempotent no-op on the tracker's
    name set; the parent's single ``unlink`` is the one true cleanup.
    Unregistering here would *remove* the parent's registration and make
    that unlink trip a KeyError in the tracker — so don't.
    """
    return shared_memory.SharedMemory(name=name)


def unlink_segments(segments: list) -> None:
    """Close and unlink parent-owned segments, then empty the list."""
    for shm in segments:
        try:
            shm.close()
        except BufferError:
            # A live ndarray view still maps the buffer; unlinking below
            # removes the name anyway and the OS frees the memory when
            # the last mapping dies.
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
    segments.clear()


# ----------------------------------------------------------------------
# The pool


def serve(conn, handle) -> None:
    """Worker loop: answer every message with ``handle(message)``.

    Runs until :data:`STOP` arrives or the parent's end of the pipe
    closes, then closes the worker's end.
    """
    try:
        while True:
            msg = conn.recv()
            if msg == STOP:
                break
            conn.send(handle(msg))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


def _shutdown(procs: list, conns: list) -> None:
    for conn in conns:
        try:
            conn.send(STOP)
        except (OSError, BrokenPipeError):
            pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    for conn in conns:
        conn.close()
    procs.clear()
    conns.clear()


class ProcessPool:
    """Persistent daemon worker processes, one pipe each.

    Worker ``w`` runs ``target(conn, *worker_args[w])`` for the life of
    the pool; ``target`` is expected to end in :func:`serve`.  Workers
    stop on :meth:`close` (idempotent: stop message, join 5 s, then
    terminate) and, as a safety net, when the pool is garbage collected.
    """

    def __init__(self, target, worker_args: list[tuple], name: str):
        # The parent's tracker must already be running when workers
        # fork — otherwise each child's attach-time register spawns a
        # private tracker that never sees the parent's unlink and warns
        # about leaks at exit.
        resource_tracker.ensure_running()
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self.procs: list = []
        self._conns: list = []
        self._finalizer = weakref.finalize(
            self, _shutdown, self.procs, self._conns
        )
        for w, args in enumerate(worker_args):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=target, args=(child_conn, *args), daemon=True,
                name=f"{name}-{w}",
            )
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self._conns.append(parent_conn)
        self.n_workers = len(self.procs)

    def request(self, messages: list) -> list:
        """Send ``messages[w]`` to worker ``w``; return every worker's reply.

        All sends go out before any reply is read, so the workers run
        concurrently; collecting every reply is the barrier.
        """
        for conn, msg in zip(self._conns, messages):
            conn.send(msg)
        return [conn.recv() for conn in self._conns]

    def broadcast(self, message) -> list:
        """:meth:`request` with the same message for every worker."""
        return self.request([message] * self.n_workers)

    def close(self) -> None:
        self._finalizer()
