"""Performance, memory, and cost models (substitute for Summit/AWS runs).

The paper's scaling and capability numbers (Figs. 1, 7, 8; Tables 2, 3;
Sections 3.3, 3.6) were measured on hardware this reproduction cannot
access.  This package rebuilds them as explicit models:

* :mod:`repro.perfmodel.machine` — Summit and AWS node specifications.
* :mod:`repro.perfmodel.memory` — the paper's own memory arithmetic
  (408 B/fluid point, 51 kB/RBC) plus capacity/volume estimators
  (Tables 2-3, Fig. 1).
* :mod:`repro.perfmodel.scaling` — strong/weak scaling from a
  compute + halo-communication time model whose communication volumes
  match the measured virtual-runtime exchanges (Figs. 7-8).
* :mod:`repro.perfmodel.costmodel` — node-hour comparisons APR vs eFSI
  (Section 3.3's >10x saving, Fig. 9's mm/day projection).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".machine": ("MachineSpec", "SUMMIT", "AWS_P3_16XL"),
    ".memory": (
        "MemoryModel",
        "fluid_points_for_volume",
        "rbc_count_for_volume",
        "table2_fluid_volumes",
        "table3_memory",
    ),
    ".scaling": ("ScalingModel", "strong_scaling_curve", "weak_scaling_curve"),
    ".costmodel": ("traversal_node_hours", "node_hour_ratio"),
})
