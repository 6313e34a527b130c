"""The step clock: one timestamp per step through the checkpointer seam.

The experiment drivers accept a duck-typed ``checkpointer``
(:mod:`repro.experiments.runseam`): ``every``, ``load()``, ``save(...)``,
``save_with(fn)`` and ``path``.  With ``every = 1`` a driver calls
``save``/``save_with`` after every step, so an object whose "saves" only
read the clock yields per-step wall times with zero patching.

A step's wall time runs from the moment the previous ``save*`` returned
(or from :meth:`StepClock.begin` for the first step, which makes the first
interval the set-up time) to the moment the next ``save*`` is entered.
Whatever the clock itself does inside ``save*`` — a real checkpoint on the
steps listed in ``save_steps``, keeping the final state for the
correctness checks — is outside every interval.
"""

from __future__ import annotations

import os
from time import perf_counter


class StepClock:
    """Checkpointer duck type that times steps instead of persisting them."""

    #: Checkpoint cadence the drivers read: one "checkpoint" per step.
    every = 1

    def __init__(self, steps: int, path: str, save_steps=()) -> None:
        self.steps = int(steps)
        #: Where ``save_with`` callbacks write on the steps in ``save_steps``.
        self.path = str(path)
        self.save_steps = frozenset(save_steps)
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: ``(seconds, bytes)`` of every real checkpoint written.
        self.saves: list[tuple[float, int]] = []
        #: Keyword state handed to the last ``save`` (live references).
        self.final_state: dict | None = None

    def begin(self) -> None:
        """Mark driver entry; the first interval ends with the first step."""
        self.starts.append(perf_counter())

    def load(self) -> None:
        """Never resume: every benchmark run starts fresh."""
        return None

    def save(self, **state) -> None:
        self.ends.append(perf_counter())
        if len(self.ends) == self.steps:
            self.final_state = state
        self.starts.append(perf_counter())

    def save_with(self, fn) -> None:
        self.ends.append(perf_counter())
        if len(self.ends) in self.save_steps:
            t0 = perf_counter()
            fn(self.path)
            self.saves.append((perf_counter() - t0, os.path.getsize(self.path)))
        self.starts.append(perf_counter())

    def resume(self) -> None:
        """Restart the open interval after untimed harness work."""
        self.starts[-1] = perf_counter()

    # ------------------------------------------------------------------
    @property
    def setup_s(self) -> float:
        """Driver entry to the end of the first step."""
        return self.ends[0] - self.starts[0]

    def step_ms(self) -> list[float]:
        """Wall milliseconds of every timed step (all after the first)."""
        return [
            (end - start) * 1e3
            for start, end in zip(self.starts[1:], self.ends[1:])
        ]

    @property
    def timed_from(self) -> float:
        """Clock reading at which the timed steps start."""
        return self.starts[1] if len(self.starts) > 1 else self.ends[0]
