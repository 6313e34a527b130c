"""Memory arithmetic and capacity estimates (Tables 2-3, Fig. 1).

Section 3.6 of the paper fixes the two constants everything here uses:
a lower bound of 408 bytes per fluid lattice point and 51 kB per RBC
(642-vertex mesh).  Table 3 is direct arithmetic on the paper's fluid
point / RBC counts; Table 2 derives simulable fluid *volumes* from the
memory capacity of the assigned resources — the window and the eFSI model
live in GPU memory, the bulk in CPU memory, and the bulk volume is capped
by the geometry itself (the upper-body vasculature holds 41 mL of blood,
far below what 10752 CPUs could store at 15 um).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import BYTES_PER_FLUID_POINT, BYTES_PER_RBC, RBC_VOLUME
from .machine import SUMMIT, MachineSpec


def fluid_points_for_volume(volume: float, dx: float) -> float:
    """Lattice points needed to cover a fluid volume at spacing dx."""
    if volume < 0 or dx <= 0:
        raise ValueError("volume must be >= 0 and dx > 0")
    return volume / dx**3


def rbc_count_for_volume(volume: float, hematocrit: float) -> float:
    """Number of RBCs filling ``volume`` at the given volume fraction."""
    if not 0 <= hematocrit < 1:
        raise ValueError("hematocrit must be in [0, 1)")
    return hematocrit * volume / RBC_VOLUME


@dataclass(frozen=True)
class MemoryModel:
    """Byte accounting with the paper's Section 3.6 constants."""

    bytes_per_fluid_point: float = BYTES_PER_FLUID_POINT
    bytes_per_rbc: float = BYTES_PER_RBC

    def fluid_bytes(self, n_points: float) -> float:
        return n_points * self.bytes_per_fluid_point

    def rbc_bytes(self, n_rbcs: float) -> float:
        return n_rbcs * self.bytes_per_rbc

    def total_bytes(self, n_points: float, n_rbcs: float) -> float:
        return self.fluid_bytes(n_points) + self.rbc_bytes(n_rbcs)

    # -- capacity inversions ------------------------------------------------
    def volume_capacity(
        self,
        memory_bytes: float,
        dx: float,
        hematocrit: float = 0.0,
    ) -> float:
        """Fluid volume simulable within a memory budget at spacing dx.

        With cells present, each unit of volume costs fluid-point bytes
        plus RBC bytes at the given hematocrit.
        """
        per_volume = self.bytes_per_fluid_point / dx**3
        if hematocrit > 0.0:
            per_volume += (
                self.bytes_per_rbc * hematocrit / RBC_VOLUME
            )
        return memory_bytes / per_volume


def table2_fluid_volumes(
    n_nodes: int = 256,
    machine: MachineSpec = SUMMIT,
    dx_window: float = 0.5e-6,
    dx_bulk: float = 15e-6,
    window_hematocrit: float = 0.40,
    geometry_volume: float = 41.0e-6,  # upper-body vasculature [m^3]
    model: MemoryModel | None = None,
) -> dict[str, float]:
    """Reproduce Table 2: simulable fluid volume per model [m^3].

    * APR window and eFSI: capped by total GPU memory (fluid + cells are
      GPU-resident); the window additionally stores its RBCs.
    * APR bulk: capped by CPU memory *and* by the geometry volume — the
      binding constraint at 15 um is the 41 mL vasculature itself.
    """
    model = model or MemoryModel()
    gpu_mem = n_nodes * machine.gpu_memory_usable()
    cpu_mem = n_nodes * machine.cpu_memory_usable()
    window_volume = model.volume_capacity(gpu_mem, dx_window, window_hematocrit)
    efsi_volume = model.volume_capacity(gpu_mem, dx_window, 0.0)
    bulk_volume = min(model.volume_capacity(cpu_mem, dx_bulk, 0.0), geometry_volume)
    return {
        "apr_window_volume": window_volume,
        "apr_bulk_volume": bulk_volume,
        "efsi_volume": efsi_volume,
        "gpu_count": n_nodes * machine.gpus,
        "cpu_count": n_nodes * machine.cpu_cores,
    }


def table3_memory(
    window_points: float = 1.76e7,
    bulk_points: float = 1.58e8,
    efsi_points: float = 1.47e13,
    window_rbcs: float = 2.9e4,
    efsi_rbcs: float = 6.3e10,
    model: MemoryModel | None = None,
) -> dict[str, dict[str, float]]:
    """Reproduce Table 3: memory footprints for the cerebral geometry.

    Defaults are the paper's printed point/cell counts; pass estimates
    from :func:`fluid_points_for_volume` / :func:`rbc_count_for_volume`
    to recompute from geometry instead.
    """
    model = model or MemoryModel()
    return {
        "apr_window": {
            "fluid_points": window_points,
            "fluid_bytes": model.fluid_bytes(window_points),
            "rbcs": window_rbcs,
            "rbc_bytes": model.rbc_bytes(window_rbcs),
        },
        "apr_bulk": {
            "fluid_points": bulk_points,
            "fluid_bytes": model.fluid_bytes(bulk_points),
            "rbcs": 0.0,
            "rbc_bytes": 0.0,
        },
        "efsi": {
            "fluid_points": efsi_points,
            "fluid_bytes": model.fluid_bytes(efsi_points),
            "rbcs": efsi_rbcs,
            "rbc_bytes": model.rbc_bytes(efsi_rbcs),
        },
    }


def apr_total_memory(table: dict[str, dict[str, float]]) -> float:
    """Total APR bytes (window + bulk) from a Table 3 dictionary."""
    total = 0.0
    for part in ("apr_window", "apr_bulk"):
        total += table[part]["fluid_bytes"] + table[part]["rbc_bytes"]
    return total


def efsi_total_memory(table: dict[str, dict[str, float]]) -> float:
    """Total eFSI bytes from a Table 3 dictionary."""
    return table["efsi"]["fluid_bytes"] + table["efsi"]["rbc_bytes"]
