"""Experiment registry: manifest names -> ``run_from_params`` entry points.

Each entry names the module that implements the uniform experiment seam
(:mod:`repro.experiments.runseam`).  Resolution is by import path rather
than by callable so that worker *subprocesses* — which start from a
fresh interpreter — resolve jobs identically to the scheduler parent.

The test seam: a manifest may also name any importable function with a
``python:module:function`` spec (the function must have the
``run_from_params(params, *, checkpointer=None) -> dict`` signature).
The scheduler's tests use it to run crashing and slow jobs that no
built-in experiment provides cheaply.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentEntry:
    """One runnable experiment behind the uniform params seam."""

    name: str
    module: str
    func: str = "run_from_params"
    #: Parameter the manifest-level ``steps`` budget maps onto.
    steps_param: str = "steps"
    #: Whether the seam accepts a ``seed`` parameter for per-job RNG
    #: isolation.
    accepts_seed: bool = True


EXPERIMENTS: dict[str, ExperimentEntry] = {
    "shear_layers": ExperimentEntry(
        "shear_layers", "repro.experiments.shear_layers", accepts_seed=False
    ),
    "tube_window": ExperimentEntry(
        "tube_window", "repro.experiments.tube_window"
    ),
    "expanding_channel": ExperimentEntry(
        "expanding_channel", "repro.experiments.expanding_channel"
    ),
    "upper_body": ExperimentEntry(
        "upper_body", "repro.experiments.upper_body",
        steps_param="steps_per_stop",
    ),
}


def known_experiments() -> list[str]:
    return sorted(EXPERIMENTS)


def resolve(name: str) -> ExperimentEntry:
    """Look up an experiment entry by name or ``python:`` spec."""
    if name.startswith("python:"):
        parts = name.split(":")
        if len(parts) != 3 or not parts[1] or not parts[2]:
            raise ValueError(
                f"bad dynamic experiment spec {name!r}; expected "
                "'python:<module>:<function>'"
            )
        return ExperimentEntry(name=name, module=parts[1], func=parts[2])
    entry = EXPERIMENTS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown experiment {name!r}; known: {known_experiments()}"
        )
    return entry


def load_runner(entry: ExperimentEntry):
    """Import and return the entry's ``run_from_params`` callable."""
    mod = importlib.import_module(entry.module)
    try:
        return getattr(mod, entry.func)
    except AttributeError:
        raise ValueError(
            f"{entry.module} has no attribute {entry.func!r}"
        ) from None
