"""Outside-in span tracing for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install` puts
class-level wrappers around the public methods in :data:`BOUNDARIES`
(one per layer boundary) and every call appends one
``(name, start, end, parent, work)`` tuple to an in-memory list, ``work``
being the exact work count taken at the same boundary (0 when the
boundary has none).  Nothing under ``src/`` knows it is being traced, and
the untraced run installs no wrapper at all.

A layer's time is its **self time**: the span's duration minus the part
of it covered by child spans (:func:`self_times`).  ``LBMSolver.step`` is
called by three different layers, so its spans are told apart by their
parent (:func:`span_layer`): under ``FSIStepper.step`` it is the fine
lattice, under ``RefinedRegion.step`` or at top level it is the coarse
one.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

#: (module, class, method, span name).  The span name is the public call
#: wrapped; layer metrics are derived from these names in ``layers.py``.
BOUNDARIES = (
    ("repro.lbm.solver", "LBMSolver", "step", "LBMSolver.step"),
    ("repro.fsi.stepper", "FSIStepper", "step", "FSIStepper.step"),
    ("repro.core.refinement", "RefinedRegion", "step", "RefinedRegion.step"),
    ("repro.core.refinement", "RefinedRegion", "initialize_fine_from_coarse",
     "RefinedRegion.initialize_fine_from_coarse"),
    ("repro.parallel.fsi", "ParallelFSIRuntime", "total_forces",
     "ParallelFSIRuntime.total_forces"),
    ("repro.parallel.fsi", "ParallelFSIRuntime", "begin_step",
     "ParallelFSIRuntime.begin_step"),
    ("repro.parallel.fsi", "ParallelFSIRuntime", "spread",
     "ParallelFSIRuntime.spread"),
    ("repro.parallel.fsi", "ParallelFSIRuntime", "interpolate",
     "ParallelFSIRuntime.interpolate"),
    ("repro.fsi.cell_manager", "CellManager", "update_vertices",
     "CellManager.update_vertices"),
    ("repro.core.apr", "APRSimulation", "__init__", "APRSimulation.__init__"),
    ("repro.core.apr", "APRSimulation", "step", "APRSimulation.step"),
    ("repro.core.apr", "APRSimulation", "fill_window",
     "APRSimulation.fill_window"),
    ("repro.core.apr", "APRSimulation", "move_window",
     "APRSimulation.move_window"),
    ("repro.core.apr", "APRSimulation", "window_hematocrit",
     "APRSimulation.window_hematocrit"),
    ("repro.core.seeding", "RBCTile", "build", "RBCTile.build"),
    ("repro.core.seeding", "HematocritController", "maintain",
     "HematocritController.maintain"),
    ("repro.core.moving", "WindowMover", "move_cells",
     "WindowMover.move_cells"),
)

#: Spans whose parent decides which layer they belong to.
FINE_PARENT = "FSIStepper.step"


class SpanRecorder:
    """In-memory span list plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index_or_None, work)`` in call order.
        self.spans: list[tuple] = []
        #: Counts taken at boundaries that open no span.
        self.counts: dict[str, int] = {}
        #: Objects captured at a boundary for post-run inspection.
        self.captured: dict[str, object] = {}
        self._current: int | None = None

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` wrapped so each call records one span.

        ``count(args, kwargs, result) -> int`` is the exact work done by
        the call, stored on its span.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(rec.spans)
            parent = rec._current
            rec.spans.append(None)
            rec._current = index
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.spans[index] = (name, start, end, parent, 0)
                rec._current = parent
            if count is not None:
                work = int(count(args, kwargs, result))
                rec.spans[index] = (name, start, end, parent, work)
            return result

        return traced

    def count_only(self, fn, name: str, count):
        """Wrap ``fn`` to take a count without opening a span."""
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.counts[name] = rec.counts.get(name, 0) + int(
                count(args, kwargs, result)
            )
            return result

        return counted

    def capture_first(self, fn, key: str):
        """Wrap ``fn`` to remember ``self`` of its first call."""
        rec = self

        @functools.wraps(fn)
        def capturing(obj, *args, **kwargs):
            rec.captured.setdefault(key, obj)
            return fn(obj, *args, **kwargs)

        return capturing


#: Exact work counts taken at a span boundary.
_COUNTS = {
    # lattice sites advanced: every node of the grid, once per step
    "LBMSolver.step": lambda a, k, r: a[0].grid.f[0].size
    * (a[1] if len(a) > 1 else k.get("n", 1)),
    # Lagrangian markers advected
    "CellManager.update_vertices": lambda a, k, r: len(a[1]),
    # cells the controller inserted in this pass (its return value)
    "HematocritController.maintain": lambda a, k, r: r,
}


def install(rec: SpanRecorder) -> None:
    """Install the class-level wrappers of :data:`BOUNDARIES` on ``rec``."""
    for module, cls_name, attr, name in BOUNDARIES:
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(rec.wrap(raw.__func__, name, _COUNTS.get(name)))
        else:
            wrapped = rec.wrap(raw, name, _COUNTS.get(name))
        setattr(cls, attr, wrapped)
    from repro.core.apr import APRSimulation
    from repro.core.seeding import HematocritController

    HematocritController.remove_departed = rec.count_only(
        HematocritController.remove_departed,
        "HematocritController.remove_departed",
        lambda a, k, r: r,
    )
    APRSimulation.close = rec.capture_first(APRSimulation.close, "apr")


# ----------------------------------------------------------------------
# span arithmetic (pure functions of the span list; unit-tested on
# synthetic trees)

def self_times(spans: list[tuple]) -> list[float]:
    """Self seconds per span: duration minus the duration of its children.

    Children of one span never overlap each other (everything is serial
    in one process), so subtracting each direct child's duration is the
    part of the interval the children cover.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def span_layer(spans: list[tuple], index: int) -> str:
    """Layer key of one span: its name, with ``LBMSolver.step`` split by
    parent into ``LBMSolver.step[fine]`` and ``LBMSolver.step[coarse]``."""
    name, _, _, parent, _ = spans[index]
    if name != "LBMSolver.step":
        return name
    if parent is not None and spans[parent][0] == FINE_PARENT:
        return "LBMSolver.step[fine]"
    return "LBMSolver.step[coarse]"


def aggregate(
    spans: list[tuple],
    since: float = float("-inf"),
    until: float = float("inf"),
) -> dict:
    """Per-layer ``{"calls", "self_s", "total_s", "work"}`` over spans
    starting in ``[since, until)``."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, (_, start, end, _, work) in enumerate(spans):
        if not since <= start < until:
            continue
        agg = out.setdefault(
            span_layer(spans, i),
            {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0},
        )
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        agg["total_s"] += end - start
        agg["work"] += work
    return out


def to_json(spans: list[tuple], t0: float) -> list[dict]:
    """Spans as JSON rows with times in milliseconds from ``t0``."""
    return [
        {
            "id": i,
            "name": name,
            "layer": span_layer(spans, i),
            "start_ms": (start - t0) * 1e3,
            "end_ms": (end - t0) * 1e3,
            "parent": parent,
            "work": work,
        }
        for i, (name, start, end, parent, work) in enumerate(spans)
    ]
