"""Checkpoint / restore of simulation state via compressed npz.

Long APR campaigns (the paper's cerebral run covers simulated days of
wall time) need restartability.  A checkpoint captures the lattice
distributions plus every cell's vertices and identity; restoring rebuilds
the CellManager population exactly.

The archive is the one ``np.savez_compressed`` writes (``np.load``
reads it), but streamed: each member is its ``.npy`` header followed by
views of the array's own bytes, so a save holds no copy of a lattice.
"""

from __future__ import annotations

import os
import warnings
import zipfile
from pathlib import Path

import numpy as np

from ..fsi.cell_manager import CellManager
from ..kernels import resolve_dtype
from ..membrane.cell import Cell, CellKind, reference_for

#: Current checkpoint payload schema.  Version 1 is the original
#: versionless layout (step / fields / cells / extra_*); version 2 adds
#: the explicit ``schema_version`` marker itself.  Bump this whenever the
#: payload layout changes incompatibly, and teach ``load_checkpoint`` the
#: migration.
CHECKPOINT_SCHEMA_VERSION = 2

#: Bytes of an array handed to the compressor per write.
_WRITE_CHUNK = 1 << 20


def _write_npz(path: str | Path, payload: dict[str, np.ndarray]) -> None:
    """Write ``payload`` as ``np.savez_compressed(path, **payload)`` does.

    Same members, headers and suffix rule (``.npz`` is appended to a
    name without it), but the data goes to the compressor in
    :data:`_WRITE_CHUNK`-byte ``memoryview`` slices of each C-contiguous
    array instead of ``tobytes()`` copies of up to 16 MiB.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    fmt = np.lib.format
    with zipfile.ZipFile(path, mode="w", compression=zipfile.ZIP_DEFLATED,
                         allowZip64=True) as archive:
        for name, value in payload.items():
            arr = np.asarray(value, order="C")
            raw = memoryview(arr.reshape(-1).view(np.uint8))
            with archive.open(name + ".npy", mode="w",
                              force_zip64=True) as member:
                fmt.write_array_header_1_0(
                    member, fmt.header_data_from_array_1_0(arr)
                )
                for lo in range(0, len(raw), _WRITE_CHUNK):
                    member.write(raw[lo:lo + _WRITE_CHUNK])


def save_checkpoint(
    path: str | Path,
    step: int,
    f_coarse: np.ndarray,
    manager: CellManager | None = None,
    f_fine: np.ndarray | None = None,
    extra: dict | None = None,
) -> None:
    """Write simulation state to a compressed npz archive.

    ``path`` gets an ``.npz`` suffix when it lacks one, as with
    ``np.savez_compressed``.
    """
    payload: dict[str, np.ndarray] = {
        "schema_version": np.array(CHECKPOINT_SCHEMA_VERSION, dtype=np.int64),
        "step": np.array(step, dtype=np.int64),
        "f_coarse": f_coarse,
    }
    if f_fine is not None:
        payload["f_fine"] = f_fine
    if manager is not None:
        cells = sorted(manager.cells, key=lambda c: c.global_id)
        payload["cell_ids"] = np.array([c.global_id for c in cells], dtype=np.int64)
        payload["cell_kinds"] = np.array(
            [c.kind.value for c in cells], dtype="U8"
        )
        payload["cell_gs"] = np.array([c.shear_modulus for c in cells])
        payload["cell_diameters"] = np.array(
            [2.0 * np.abs(c.reference.vertices[:, :2]).max() for c in cells]
        )
        # Full elastic parameter set (schema v2): restoring from
        # shear_modulus alone silently zeroed the area/volume penalty
        # stiffnesses the factories set, breaking bit-exact resume.
        payload["cell_skalak"] = np.array([c.skalak_C for c in cells])
        payload["cell_bending"] = np.array(
            [c.bending_modulus for c in cells]
        )
        payload["cell_k_area"] = np.array([c.k_area for c in cells])
        payload["cell_k_volume"] = np.array([c.k_volume for c in cells])
        for cell in cells:
            payload[f"cell_{cell.global_id}_verts"] = cell.vertices
    if extra:
        for k, v in extra.items():
            payload[f"extra_{k}"] = np.asarray(v)
    _write_npz(path, payload)


def _subdivisions_from_vertex_count(n_vertices: int) -> int:
    """Invert the icosphere vertex count 10 * 4^s + 2."""
    s = int(round(np.log((n_vertices - 2) / 10.0) / np.log(4.0)))
    if 10 * 4**s + 2 != n_vertices:
        raise ValueError(f"{n_vertices} is not an icosphere vertex count")
    return s


def _restore_field(arr: np.ndarray, dtype: np.dtype, name: str) -> np.ndarray:
    """Cast a stored lattice field to the resolved compute dtype.

    A same-dtype restore is a zero-copy pass-through (bit-exact resume);
    a float64 checkpoint loaded into a float32 run warns, because the
    downcast silently discards precision the checkpoint carried.
    """
    if arr.dtype == dtype:
        return arr
    if arr.dtype == np.float64 and dtype == np.float32:
        warnings.warn(
            f"checkpoint field {name!r} stored as float64 but the resolved "
            f"compute dtype is float32; restoring loses precision",
            RuntimeWarning,
            stacklevel=3,
        )
    return arr.astype(dtype)


def load_checkpoint(path: str | Path, dtype=None) -> dict:
    """Restore a checkpoint; returns a dict with step, fields, manager.

    Cells are rebuilt against freshly cached reference states of their
    kind/diameter (reference data is derived, not stored); the mesh
    subdivision level is inferred from each cell's vertex count.

    ``dtype`` selects the compute dtype the lattice fields are restored
    into (``None`` resolves via ``REPRO_DTYPE``, an explicit value wins;
    see :func:`repro.kernels.resolve_dtype`) — restoring a float64 archive
    into a float32 run emits a :class:`RuntimeWarning` for the precision
    loss, while a same-dtype restore stays bit-exact.
    """
    dtype = resolve_dtype(dtype)
    data = np.load(path, allow_pickle=False)
    if "schema_version" in data:
        version = int(data["schema_version"])
    else:
        version = 1  # pre-versioning checkpoints
    if not 1 <= version <= CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(
            f"checkpoint {path} has schema version {version}; this build "
            f"reads versions 1..{CHECKPOINT_SCHEMA_VERSION} — upgrade repro "
            "to restore it"
        )
    out: dict = {"schema_version": version, "step": int(data["step"])}
    out["f_coarse"] = _restore_field(data["f_coarse"], dtype, "f_coarse")
    if "f_fine" in data:
        out["f_fine"] = _restore_field(data["f_fine"], dtype, "f_fine")
    if "cell_ids" in data:
        manager = CellManager()
        ids = data["cell_ids"]
        kinds = data["cell_kinds"]
        gs = data["cell_gs"]
        diams = data["cell_diameters"]
        for i, gid in enumerate(ids):
            kind = CellKind(str(kinds[i]))
            verts = data[f"cell_{gid}_verts"]
            ref = reference_for(
                kind, float(diams[i]), _subdivisions_from_vertex_count(len(verts))
            )
            gs_i = float(gs[i])
            if "cell_k_area" in data:  # schema >= 2: exact elastic set
                extra_mech = {
                    "skalak_C": float(data["cell_skalak"][i]),
                    "bending_modulus": float(data["cell_bending"][i]),
                    "k_area": float(data["cell_k_area"][i]),
                    "k_volume": float(data["cell_k_volume"][i]),
                }
            else:  # legacy v1: recover the factory-derived stiffnesses
                extra_mech = {
                    "k_area": 5.0 * gs_i,
                    "k_volume": 50.0 * gs_i / float(diams[i]),
                }
            cell = Cell(
                kind=kind,
                reference=ref,
                vertices=verts,
                global_id=int(gid),
                shear_modulus=gs_i,
                **extra_mech,
            )
            manager.add(cell)
        out["manager"] = manager
    out["extra"] = {
        k[len("extra_") :]: data[k] for k in data.files if k.startswith("extra_")
    }
    return out
