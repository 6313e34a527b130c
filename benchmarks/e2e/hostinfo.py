"""Machine fingerprint and the host copy-bandwidth probe.

Every result file carries :func:`fingerprint` so two artifacts can be
told apart by machine before their numbers are compared.  Everything is
read from ``/proc``, ``/sys`` and the interpreter; a field that cannot be
read is ``None``, never guessed.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: Environment variables that change how many threads BLAS/OpenMP use.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: Last-level cache assumed when sysfs does not report one.
FALLBACK_LLC_BYTES = 32 << 20


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cache_bytes() -> dict[str, int]:
    """Data/unified cache sizes of CPU 0 by level, e.g. ``{"L2": ...}``."""
    out: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "type") == "Instruction":
            continue
        size = _size_bytes(_read(index / "size"))
        level = _read(index / "level")
        if size and level:
            out[f"L{level}"] = size
    return out


def meminfo_bytes(field: str) -> int | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) << 10
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or ``None`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(root: Path) -> dict:
    import numpy as np

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = cache_bytes()
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "ram_bytes": meminfo_bytes("MemTotal"),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
    }


def copy_bandwidth(repeats: int = 3) -> dict:
    """``np.copyto`` bandwidth on arrays of at least four times the LLC.

    Each array is ``4 x`` the largest reported cache, capped so that both
    together take at most a quarter of the available RAM; both sizes are
    reported.  A copy moves ``2 x nbytes`` (one read, one write; the
    write-allocate read is not counted — the figure is computed, like
    the kernels' bytes per update it is compared with).
    """
    import numpy as np

    caches = cache_bytes()
    llc = max(caches.values()) if caches else FALLBACK_LLC_BYTES
    available = meminfo_bytes("MemAvailable") or (1 << 30)
    nbytes = min(4 * llc, available // 8)
    n = nbytes // 8
    src = np.ones(n)
    dst = np.zeros(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        np.copyto(dst, src)
        best = min(best, perf_counter() - t0)
    return {
        "llc_bytes": llc,
        "llc_reported": bool(caches),
        "array_bytes": n * 8,
        "copy_gbs": 2 * n * 8 / best / 1e9,
    }
