"""repro — Adaptive Physics Refinement with realistic red blood cell counts.

A from-scratch Python reproduction of Roychowdhury et al., *"Enhancing
Adaptive Physics Refinement Simulations Through the Addition of Realistic
Red Blood Cell Counts"* (SC '23): a finely-resolved, cell-laden window
(plasma + explicit deformable RBCs, fluid-structure interaction via the
immersed boundary method) two-way coupled to a coarse whole-blood lattice
Boltzmann bulk, tracking a circulating tumor cell through a vasculature
while maintaining a target hematocrit around it.

Quick start::

    from repro import APRSimulation, APRConfig, WindowSpec
    # see examples/quickstart.py for a runnable end-to-end setup

Package map (details in DESIGN.md):

* :mod:`repro.lbm` — D3Q19 BGK lattice Boltzmann fluid solver
* :mod:`repro.membrane` — cell meshes and Skalak/bending FEM mechanics
* :mod:`repro.ibm` — immersed boundary interpolation/spreading
* :mod:`repro.fsi` — cell-laden flow (the eFSI reference model)
* :mod:`repro.core` — the APR contribution: coupling, window, seeding,
  hematocrit maintenance, moving window, CTC tracking
* :mod:`repro.kernels` — compute-dtype resolution (``REPRO_DTYPE``)
* :mod:`repro.geometry` — SDF primitives, synthetic vasculature
* :mod:`repro.parallel` — virtual-MPI runtime with halo accounting
* :mod:`repro.perfmodel` — memory/scaling/cost models of the paper's
  hardware claims
* :mod:`repro.analytics` — analytic solutions and rheology correlations
* :mod:`repro.experiments` — per-figure experiment drivers
* :mod:`repro.io` — CSV output, checkpointing
* :mod:`repro.telemetry` — phase timers, metrics, structured run events
"""

from .constants import (
    PLASMA_VISCOSITY_CP,
    WHOLE_BLOOD_VISCOSITY_CP,
    RBC_DIAMETER,
    CTC_DIAMETER,
)
from .units import UnitSystem
from .core import APRConfig, APRSimulation, Window, WindowSpec
from .fsi import CellManager, FSIStepper
from .membrane import make_ctc, make_rbc
from .telemetry import NullTelemetry, Telemetry

__version__ = "1.0.0"

__all__ = [
    "UnitSystem",
    "APRConfig",
    "APRSimulation",
    "Window",
    "WindowSpec",
    "CellManager",
    "FSIStepper",
    "make_rbc",
    "make_ctc",
    "Telemetry",
    "NullTelemetry",
    "PLASMA_VISCOSITY_CP",
    "WHOLE_BLOOD_VISCOSITY_CP",
    "RBC_DIAMETER",
    "CTC_DIAMETER",
    "__version__",
]
