"""Cell objects: deformable RBCs and CTCs with shared reference states.

A :class:`Cell` couples a (possibly deformed) vertex array to the shared
:class:`~repro.membrane.reference.ReferenceState` of its type and carries
the mechanical moduli.  Reference states are cached per (shape, diameter,
subdivision) so thousands of RBCs share one set of precomputed FEM data,
mirroring the paper's single pre-defined RBC mesh.

Global IDs order cells deterministically — the overlap-removal algorithm
(Section 2.4.2) resolves conflicts by preferring lower global IDs so that
results do not depend on task count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..constants import (
    CTC_DIAMETER,
    CTC_SHEAR_MODULUS,
    RBC_BENDING_MODULUS,
    RBC_DIAMETER,
    RBC_SHEAR_MODULUS,
    SKALAK_C,
)
from .bending import dihedral_k_from_helfrich
from .constraints import mesh_area, mesh_volume
from .forces import membrane_forces
from .meshgen import biconcave_rbc, sphere_cell
from .reference import ReferenceState


class CellKind(enum.Enum):
    RBC = "rbc"
    CTC = "ctc"


_REFERENCE_CACHE: dict[tuple, ReferenceState] = {}


def reference_for(
    kind: CellKind, diameter: float, subdivisions: int
) -> ReferenceState:
    """Cached unstressed reference state for a cell type."""
    key = (kind, round(float(diameter), 12), int(subdivisions))
    ref = _REFERENCE_CACHE.get(key)
    if ref is None:
        if kind is CellKind.RBC:
            verts, faces = biconcave_rbc(diameter, subdivisions)
        else:
            verts, faces = sphere_cell(diameter, subdivisions)
        ref = ReferenceState.from_mesh(verts, faces)
        _REFERENCE_CACHE[key] = ref
    return ref


@dataclass
class Cell:
    """One deformable cell instance.

    ``vertices`` are in global physical coordinates [m]; all mechanics are
    evaluated against ``reference`` (centroid-free unstressed shape).
    """

    kind: CellKind
    reference: ReferenceState
    vertices: np.ndarray
    global_id: int
    shear_modulus: float
    skalak_C: float = SKALAK_C
    bending_modulus: float = RBC_BENDING_MODULUS
    k_area: float = 0.0  # set by factories; units N/m
    k_volume: float = 0.0  # units N/m^2
    #: Vertex velocities from the last IBM interpolation (diagnostics).
    velocities: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.vertices = np.array(self.vertices, dtype=np.float64)
        if self.vertices.shape != self.reference.vertices.shape:
            raise ValueError("vertex array does not match reference mesh")
        if self.velocities is None:
            self.velocities = np.zeros_like(self.vertices)

    # -- geometry ----------------------------------------------------------
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def volume(self) -> float:
        return float(mesh_volume(self.vertices - self.centroid(), self.reference.faces))

    def area(self) -> float:
        return float(mesh_area(self.vertices, self.reference.faces))

    def translate(self, shift: np.ndarray) -> None:
        self.vertices += np.asarray(shift, dtype=np.float64)

    def rotate(self, rotation: np.ndarray) -> None:
        """Rotate about the centroid by a 3x3 rotation matrix, in place
        (a managed cell's ``vertices`` is a view of its manager's store)."""
        c = self.centroid()
        self.vertices[...] = (self.vertices - c) @ np.asarray(rotation).T + c

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    # -- mechanics ---------------------------------------------------------
    @property
    def k_bend(self) -> float:
        return dihedral_k_from_helfrich(self.bending_modulus)

    def forces(self) -> np.ndarray:
        """Total membrane nodal forces (V, 3) [N] at the current shape."""
        return membrane_forces(
            self.vertices, self.reference, self.shear_modulus, self.skalak_C,
            self.k_bend, self.k_area, self.k_volume,
        )

    # -- copying (window-move deep copy, Section 2.4.3) --------------------
    def copy(self, new_id: int | None = None) -> "Cell":
        """Deep copy preserving the deformed shape (fill-region clones)."""
        return Cell(
            kind=self.kind,
            reference=self.reference,
            vertices=self.vertices.copy(),
            global_id=self.global_id if new_id is None else new_id,
            shear_modulus=self.shear_modulus,
            skalak_C=self.skalak_C,
            bending_modulus=self.bending_modulus,
            k_area=self.k_area,
            k_volume=self.k_volume,
        )


def _place(ref: ReferenceState, center, rotation) -> np.ndarray:
    verts = ref.vertices
    if rotation is not None:
        verts = verts @ np.asarray(rotation, dtype=np.float64).T
    return verts + np.asarray(center, dtype=np.float64)


def make_rbc(
    center: np.ndarray,
    global_id: int,
    rotation: np.ndarray | None = None,
    diameter: float = RBC_DIAMETER,
    subdivisions: int = 3,
    shear_modulus: float = RBC_SHEAR_MODULUS,
) -> Cell:
    """Undeformed RBC at ``center`` with optional orientation."""
    ref = reference_for(CellKind.RBC, diameter, subdivisions)
    return Cell(
        kind=CellKind.RBC,
        reference=ref,
        vertices=_place(ref, center, rotation),
        global_id=global_id,
        shear_modulus=shear_modulus,
        k_area=5.0 * shear_modulus,
        k_volume=50.0 * shear_modulus / diameter,
    )


def make_ctc(
    center: np.ndarray,
    global_id: int,
    rotation: np.ndarray | None = None,
    diameter: float = CTC_DIAMETER,
    subdivisions: int = 3,
    shear_modulus: float = CTC_SHEAR_MODULUS,
) -> Cell:
    """Stiff spherical circulating tumor cell at ``center``."""
    ref = reference_for(CellKind.CTC, diameter, subdivisions)
    return Cell(
        kind=CellKind.CTC,
        reference=ref,
        vertices=_place(ref, center, rotation),
        global_id=global_id,
        shear_modulus=shear_modulus,
        k_area=5.0 * shear_modulus,
        k_volume=50.0 * shear_modulus / diameter,
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random 3D rotation matrix (for randomized cell placement)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
