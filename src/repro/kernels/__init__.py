"""Compute-dtype resolution, and the names the end-to-end benchmark reads.

Every hot-path kernel has one implementation, which product code
imports from its home module (``repro.lbm.collision``,
``repro.lbm.streaming``, ``repro.membrane``, ``repro.ibm.coupling``,
``repro.fsi.contact``, ...).  What lives here is :func:`resolve_dtype`
and the two calls ``benchmarks/e2e`` makes to record its configuration
and time the bare collide and stream (:func:`resolve_kernels`,
:func:`get_kernel_table`).  docs/performance.md, "Backend decisions",
says why the compiled and array-API backends were removed and what
would bring one back.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

#: Environment variable selecting the compute dtype process-wide.
DTYPE_ENV_VAR = "REPRO_DTYPE"

#: Compute dtype used when neither ``REPRO_DTYPE`` nor a constructor
#: argument selects one.
DEFAULT_DTYPE = "float64"

#: Supported compute dtypes for the Eulerian (lattice) state.
DTYPE_NAMES = ("float32", "float64")


def resolve_dtype(dtype=None) -> "np.dtype":
    """Resolve a compute-dtype request against the environment.

    Precedence: an explicit ``dtype`` argument wins over the
    ``REPRO_DTYPE`` environment variable, which wins over
    :data:`DEFAULT_DTYPE`.  Accepts dtype names, numpy dtypes, or scalar
    types; only ``float32``/``float64`` are valid compute dtypes (the
    Lagrangian membrane state stays float64 regardless — see
    docs/performance.md).
    """
    env = os.environ.get(DTYPE_ENV_VAR)
    if dtype is not None:
        requested, source = dtype, f"dtype={dtype!r}"
    else:
        requested, source = env or DEFAULT_DTYPE, f"{DTYPE_ENV_VAR}={env!r}"
    try:
        resolved = np.dtype(requested)
    except TypeError as exc:
        raise ValueError(
            f"invalid compute dtype {requested!r} (from {source}); "
            f"pick one of {DTYPE_NAMES}"
        ) from exc
    if resolved.name not in DTYPE_NAMES:
        raise ValueError(
            f"unsupported compute dtype {resolved.name!r} (from {source}); "
            f"pick one of {DTYPE_NAMES}"
        )
    return resolved


def resolve_kernels(backend: str | None = None) -> str:
    """Name of the kernel set in use: always ``"numpy"``.

    Any other name raises — there is nothing to select.
    """
    if backend not in (None, "numpy"):
        raise ValueError(
            f"unknown kernels backend {backend!r}; the only kernel set is "
            "'numpy' (see docs/performance.md, 'Backend decisions')"
        )
    return "numpy"


def get_kernel_table() -> dict[str, Callable]:
    """The collide and stream functions ``LBMSolver.step`` calls."""
    # repro.lbm.grid imports resolve_dtype from this module.
    from ..lbm.collision import collide_bgk
    from ..lbm.streaming import stream_pull

    return {"collide_bgk": collide_bgk, "stream_pull": stream_pull}


__all__ = [
    "DTYPE_ENV_VAR",
    "DEFAULT_DTYPE",
    "DTYPE_NAMES",
    "get_kernel_table",
    "resolve_dtype",
    "resolve_kernels",
]
