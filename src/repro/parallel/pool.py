"""The one worker-pool substrate of the two parallel runtimes.

The block-decomposed lattice (:mod:`repro.parallel.executor`) and the
cell-side FSI step (:mod:`repro.parallel.fsi`) run on the same two
backends:

* ``serial``    — the work runs inline in the calling thread;
* ``processes`` — a persistent :class:`ProcessPool` of daemon workers,
  one pipe each, with all array data in :mod:`multiprocessing.shared_memory`
  segments the parent creates and the workers attach by name — the
  in-process analogue of the paper's CPU-tasks-per-node layout
  (Section 2.4.4).

This module owns everything the two runtimes share: the backend /
worker-count resolver (the only reader of ``REPRO_PARALLEL_BACKEND`` /
``REPRO_PARALLEL_WORKERS``), the near-even contiguous work split, the
pool with its shutdown guarantees, and shared-segment create / attach /
unlink.  The runtimes keep only their worker handlers and message
vocabularies.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import weakref
from multiprocessing import resource_tracker, shared_memory

#: Supported backends, in increasing order of machinery.
BACKENDS = ("serial", "processes")

ENV_BACKEND = "REPRO_PARALLEL_BACKEND"
ENV_WORKERS = "REPRO_PARALLEL_WORKERS"

#: Message that ends a worker's :func:`serve` loop.
STOP = "stop"


def resolve_backend(
    backend: str | None,
    n_workers: int | None,
    n_tasks: int | None = None,
) -> tuple[str, int]:
    """Resolve backend/worker-count requests against env and hardware.

    ``None`` values fall back to ``REPRO_PARALLEL_BACKEND`` (default
    ``serial``) and ``REPRO_PARALLEL_WORKERS`` (default: one worker per
    CPU).  The count is capped at ``n_tasks`` when given (a lattice has
    a fixed rank count; the FSI step shards cells and markers, whose
    counts change at run time, and passes ``None``).  An explicit
    ``n_workers`` below 1 is clamped to 1; the environment variable must
    be an integer >= 1.
    """
    if backend is None:
        backend = os.environ.get(ENV_BACKEND, "serial")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
    if n_workers is None:
        env = os.environ.get(ENV_WORKERS)
        n_workers = _env_workers(env) if env else (os.cpu_count() or 1)
    n_workers = max(1, int(n_workers))
    if n_tasks is not None:
        n_workers = min(n_workers, n_tasks)
    if backend == "serial":
        n_workers = 1
    return backend, n_workers


def _env_workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"invalid {ENV_WORKERS}={text!r}; use an integer >= 1"
        )
    return value


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
        # Segments may be created after the pool (the FSI ones track the
        # cell population), so the parent's tracker must already be
        # running when workers fork — otherwise each child's attach-time
        # register spawns a private tracker that never sees the parent's
        # unlink and warns about leaks at exit.
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
