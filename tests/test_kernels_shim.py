"""``repro.kernels`` names exactly what the product path runs.

``benchmarks/e2e`` times ``get_kernel_table()["collide_bgk"]`` and
``["stream_pull"]`` as ``kernels.collide_bgk.ms`` / ``kernels.stream_pull.ms``
and records ``resolve_kernels()`` in its configuration; these tests keep
those the functions :meth:`LBMSolver.step` calls.
"""

import warnings

import numpy as np
import pytest

import repro.lbm.solver as solver_module
from repro.fsi import CellManager, FSIStepper
from repro.kernels import get_kernel_table, resolve_kernels
from repro.lbm import Grid
from repro.lbm.collision import collide_bgk
from repro.lbm.streaming import stream_pull
from repro.membrane import make_rbc
from repro.units import UnitSystem


def test_table_holds_the_functions_the_solver_calls():
    table = get_kernel_table()
    assert table["collide_bgk"] is collide_bgk
    assert table["stream_pull"] is stream_pull
    assert solver_module.collide_bgk is collide_bgk
    assert solver_module.stream_pull is stream_pull


def test_resolve_kernels_has_one_answer():
    assert resolve_kernels() == "numpy"
    assert resolve_kernels("numpy") == "numpy"
    with pytest.raises(ValueError, match="numba"):
        resolve_kernels("numba")


def _stepped(n_steps: int = 4):
    dx = 0.65e-6
    dt = (1.0 / 6.0) * dx**2 / (1.2e-3 / 1025.0)  # tau = 1
    grid = Grid((12, 12, 12), tau=1.0, origin=np.zeros(3), spacing=dx)
    cells = CellManager()
    cells.add(make_rbc(dx * 5.5 * np.ones(3), global_id=cells.allocate_id(),
                       subdivisions=1))
    with FSIStepper(grid, UnitSystem(dx, dt, 1025.0), cells, mode="wrap",
                    body_force=np.array([500.0, 0.0, 0.0])) as st:
        st.step(n_steps)
        return grid.f.copy(), cells.all_vertices()[0].copy()


def test_removed_env_variable_is_not_read(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    f_ref, v_ref = _stepped()
    monkeypatch.setenv("REPRO_KERNELS", "numba")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, v = _stepped()
    assert np.array_equal(f, f_ref)
    assert np.array_equal(v, v_ref)
    assert resolve_kernels() == "numpy"
