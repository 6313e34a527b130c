"""Names the audits deleted are gone, not shadowed."""

import importlib
import importlib.util

import numpy as np
import pytest

from repro.fsi import FSIStepper
from repro.ibm import make_stencil
from repro.ibm.coupling import spread_with_stencil
from repro.lbm import Grid, LBMSolver
from repro.parallel import BlockDecomposition, DistributedLBMSolver
from repro.service.registry import known_experiments
from repro.units import UnitSystem

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
    "repro.geometry": (("off_io",), ("read_off", "write_off")),
    "repro.analytics": (("flow",), ("flow_rate_through_plane",)),
    # the live HTTP status plane: ``campaign status`` reads the ledger
    "repro.telemetry": (("server",), ("build_status", "metrics_text")),
    "repro.service": (("status",), ("campaign_status", "render_status")),
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
    # IBM step runs only on the FSI runtime
    "repro.fsi": (("pool",), ("VertexPool",)),
    "repro.ibm": ((), ("IBMCoupler",)),
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
    modules, names = REMOVED[package]
    pkg = importlib.import_module(package)
    exported = getattr(pkg, "__all__", ())
    for name in exported:
        getattr(pkg, name)
    assert not set(names) & (set(exported) | set(vars(pkg)))
    for module in modules:
        assert importlib.util.find_spec(f"{package}.{module}") is None


def test_hotpath_experiment_still_registered():
    assert "hotpath" in known_experiments()


def test_cell_manager_has_no_batch_iterator():
    from repro.fsi import CellManager

    assert not hasattr(CellManager, "membrane_force_batches")
