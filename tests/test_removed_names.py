"""Names the audits deleted are gone, not shadowed."""

import importlib
import importlib.util
import inspect

import numpy as np
import pytest

import repro.core.seeding as seeding
from repro.core import (
    APRConfig,
    HematocritController,
    RBCTile,
    RefinedRegion,
    WindowMover,
    stamp_tile,
)
from repro.fsi import CellManager, FSIStepper
from repro.ibm import make_stencil
from repro.ibm.coupling import spread_with_stencil
from repro.lbm import BounceBackWalls, Grid, LBMSolver
from repro.lbm.boundaries import apply_bounce_back, bounce_back_values
from repro.parallel import BlockDecomposition, DistributedLBMSolver
from repro.parallel.fsi import ParallelFSIRuntime
from repro.lbm.lattice import D3Q19
from repro.parallel import TaskMap
from repro.perfmodel import MemoryModel
from repro.service import CampaignManifest, CampaignRunner, JobSpec
from repro.service.registry import ExperimentEntry, known_experiments
from repro.units import UnitSystem

#: marks a module deleted whole, not just emptied of names
DELETED_MODULE = None

#: package -> (deleted submodules, deleted public names)
REMOVED = {
    "repro.lbm": (
        ("mrt", "stability"),
        ("collide_mrt", "check_parameters", "suggest_dt",
         "membrane_coupling_limit"),
    ),
    "repro.membrane": (
        ("localarea", "damping"),
        ("local_area_energy", "local_area_forces", "edge_damping_forces",
         "dissipation_rate"),
    ),
    "repro.io": (("vtk",), ("write_vtk_structured", "write_vtk_mesh")),
    # the E8 driver's tree is the one Fig. 9 tree
    "repro.geometry": (("off_io",), ("read_off", "write_off", "cerebral_tree")),
    "repro.analytics": (("flow",), ("flow_rate_through_plane",)),
    # the live HTTP status plane: ``campaign status`` reads the ledger
    "repro.telemetry": (("server",), ("build_status", "metrics_text")),
    # the decomposed lattice steps one way: packed exchange, uniform split;
    # the cell side of the FSI step runs inline, without a process pool
    "repro.parallel": (
        ("measure",),
        ("HALO_MODES", "weighted_splits", "FSI_PHASES", "measure_throughput",
         "measured_scaling_curve", "measured_weak_scaling"),
    ),
    # no environment variable selects the decomposed lattice's backend
    "repro.parallel.pool": ((), ("ENV_BACKEND", "ENV_WORKERS")),
    "repro.parallel.fsi": ((), ("FSIWorker", "GroupSpec", "FSI_PHASES")),
    # one copy of the cell population: the manager's packed store; the
    # IBM step runs only on the FSI runtime.  Overlap removal is
    # ``UniformSubgrid.admit``; the brute-force pair check is a test
    # oracle (``tests/fsi/reference_bodies.py``)
    "repro.fsi": (("pool",),
                  ("VertexPool", "find_overlapping_vertices",
                   "cell_overlaps_existing", "remove_overlaps")),
    "repro.ibm": ((), ("IBMCoupler",)),
    # entry points no caller used
    "repro.core": ((), ("trilinear",)),
    "repro.core.refinement": ((), ("trilinear",)),
    "repro.service": (("status",), ("campaign_status", "render_status",
                                    "run_campaign")),
    "repro.service.scheduler": ((), ("run_campaign", "MAX_BACKOFF_S")),
    # the campaign's throughput probe: benchmarks/e2e measures the hot path
    "repro.experiments": (("hotpath",), ()),
    # manifest experiment names are the registry's, without shorthands
    "repro.service.registry": ((), ("ALIASES",)),
    "repro.service.manifest": ((), ("_RETIRED",)),
    # API that only tests called
    "repro.fsi.overlap": DELETED_MODULE,
    "repro.units": ((), ("tau_from_nu_lattice", "nu_lattice_from_tau")),
    # the node-hour projection is one function of the distance
    "repro.perfmodel": ((), ("CostModel",)),
    "repro.perfmodel.costmodel": ((), ("CostModel",)),
}

#: callable -> (valid positional arguments, keywords it no longer takes)
REMOVED_KWARGS = {
    DistributedLBMSolver: (((8, 8, 8), 0.8, 2),
                           ("halo_mode", "weighted_split", "dims", "periodic")),
    BlockDecomposition: (((8, 8, 8), 2), ("weights", "dims", "periodic")),
    FSIStepper: ((Grid((4, 4, 4), tau=1.0), UnitSystem(1e-6, 1e-7, 1025.0)),
                 ("backend", "workers")),
    spread_with_stencil: ((np.zeros((1, 3)),
                           make_stencil(np.full((1, 3), 1.5), (4, 4, 4)),
                           np.zeros((3, 4, 4, 4))),
                          ("node_range",)),
}


@pytest.mark.parametrize("kwarg", ["collision", "pre_collision_hook"])
def test_solver_rejects_removed_parameters(kwarg):
    g = Grid((3, 3, 3), tau=0.8)
    with pytest.raises(TypeError):
        LBMSolver(g, [], **{kwarg: "bgk"})


@pytest.mark.parametrize("func,kwarg", [
    (func, kwarg) for func, (_, kwargs) in REMOVED_KWARGS.items()
    for kwarg in kwargs
], ids=lambda v: getattr(v, "__name__", v))
def test_decomposed_lattice_rejects_removed_keywords(func, kwarg):
    args = REMOVED_KWARGS[func][0]
    with pytest.raises(TypeError, match=kwarg):
        func(*args, **{kwarg: None})


@pytest.mark.parametrize("package", sorted(REMOVED))
def test_exports_import_cleanly_without_removed_names(package):
    if REMOVED[package] is DELETED_MODULE:
        parent, _, module = package.rpartition(".")
        assert importlib.util.find_spec(package) is None
        assert module not in vars(importlib.import_module(parent))
        return
    modules, names = REMOVED[package]
    pkg = importlib.import_module(package)
    exported = getattr(pkg, "__all__", ())
    for name in exported:
        getattr(pkg, name)
    assert not set(names) & (set(exported) | set(vars(pkg)))
    for module in modules:
        assert importlib.util.find_spec(f"{package}.{module}") is None


def test_hotpath_experiment_is_gone():
    assert "hotpath" not in known_experiments()


class DeletedClass:
    """A class deleted whole: it and its removed members are absent from
    its module, so no member lives on as a module-level function."""

    def __init__(self, module: str, name: str):
        self.module = module
        self.__name__ = name


#: class -> methods and fields no product caller used (drivers, the CLI,
#: ``benchmarks/``), and campaign settings every caller left at one value
REMOVED_MEMBERS = {
    # the node-hour projection is ``traversal_node_hours(distance)``
    DeletedClass("repro.perfmodel.costmodel", "CostModel"): (
        "campaign_node_hours", "efsi_equivalent_node_hours", "scaling"),
    type(D3Q19): ("moments_ok",),
    MemoryModel: ("points_capacity",),
    TaskMap: ("bulk_points_per_task", "window_points_per_task",
              "cells_per_task"),
    CellManager: ("reserve_ids",),
    HematocritController: ("subregion_hematocrits",),
    FSIStepper: ("fluid_velocity",),
    UnitSystem: ("length_to_lattice", "length_to_physical",
                 "time_to_lattice", "time_to_physical",
                 "velocity_to_physical", "kinematic_viscosity_to_physical",
                 "viscosity_for_tau"),
    JobSpec: ("priority", "max_attempts", "timeout_s", "seed"),
    CampaignManifest: ("retry_backoff_s",),
    ExperimentEntry: ("supports_checkpoint",),
    CampaignRunner: ("poll_interval", "prepare", "_kill"),
}


@pytest.mark.parametrize("cls,name", [
    (cls, name) for cls, names in REMOVED_MEMBERS.items() for name in names
], ids=lambda v: getattr(v, "__name__", v))
def test_test_only_api_is_gone(cls, name):
    if isinstance(cls, DeletedClass):
        module = importlib.import_module(cls.module)
        assert not hasattr(module, cls.__name__)
        assert not hasattr(module, name)
        return
    assert not hasattr(cls, name)
    fields = getattr(cls, "__dataclass_fields__", {})
    assert name not in fields
    if not fields:
        assert name not in inspect.signature(cls).parameters


def test_cell_manager_has_no_batch_iterator():
    from repro.fsi import CellManager

    assert not hasattr(CellManager, "membrane_force_batches")


#: class -> attributes of the moment-cache write log and the solver's
#: version bookkeeping, gone since the grid owns the cache
REMOVED_ATTRS = {
    LBMSolver: ("cached_moments", "invalidate_macroscopic", "_cache_usable"),
    Grid: ("f_patches_since", "_MAX_F_PATCHES"),
}


@pytest.mark.parametrize("cls,attr", [
    (cls, attr) for cls, attrs in REMOVED_ATTRS.items() for attr in attrs
], ids=lambda v: getattr(v, "__name__", v))
def test_moment_cache_bookkeeping_is_gone(cls, attr):
    assert not hasattr(cls, attr)


def test_grid_mark_f_modified_takes_no_arguments():
    g = Grid((3, 3, 3), tau=0.8)
    with pytest.raises(TypeError):
        g.mark_f_modified(np.arange(3))
    with pytest.raises(TypeError):
        g.mark_f_modified(nodes=np.arange(3))
    assert not hasattr(g, "_f_patches")


#: callable -> settings every product caller passed the same value for,
#: now constants (docs/tuning.md section 5, tests/test_config_surface.py)
REMOVED_SETTINGS = {
    APRConfig: ("rho", "ht_threshold", "rbc_shear_modulus", "kernel",
                "overlap_cutoff", "trigger_distance", "telemetry_interval"),
    HematocritController: ("threshold", "overlap_cutoff", "shear_modulus",
                           "gate_on_shell"),
    FSIStepper: ("kernel", "wall_stiffness"),
    ParallelFSIRuntime: ("kernel",),
    CellManager: ("contact_stiffness",),
    RefinedRegion: ("restriction_margin",),
    WindowMover: ("overlap_cutoff",),
    RBCTile.build: ("cell_volume", "min_spacing_factor", "max_attempts_factor"),
    stamp_tile: ("shear_modulus", "existing"),
    seeding._stamp_cells: ("shear_modulus",),
    seeding._cell_from_shape: ("shear_modulus",),
    BounceBackWalls: ("rho_wall",),
    bounce_back_values: ("rho_wall",),
    apply_bounce_back: ("rho_wall",),
}


@pytest.mark.parametrize("func,name", [
    (func, name) for func, names in REMOVED_SETTINGS.items() for name in names
], ids=lambda v: getattr(v, "__qualname__", v))
def test_fixed_settings_are_not_parameters(func, name):
    assert name not in inspect.signature(func).parameters


@pytest.mark.parametrize("cls,attr", [
    (FSIStepper, "kernel"), (FSIStepper, "wall_stiffness"),
    (CellManager, "contact_stiffness"), (RefinedRegion, "restriction_margin"),
    (WindowMover, "overlap_cutoff"), (HematocritController, "gate_on_shell"),
], ids=lambda v: getattr(v, "__name__", v))
def test_fixed_settings_are_not_attributes(cls, attr):
    assert not hasattr(cls, attr)
