"""Golden regression: the optimized FSI step matches the reference path.

The hot-path overhaul (cached IBM stencils, packed cell storage, scratch
LBM kernels, slab streaming, cached moments) must not change the physics.
This test drives two identical seeded cell-laden lattices:

* the **optimized** one through :meth:`FSIStepper.step` (stencil cache,
  scratch buffers, slab streaming, moments cache all engaged), and
* the **reference** one through the pre-optimization algorithm composed
  from the simple allocation paths: per-direction ``np.roll`` streaming,
  no-scratch :func:`collide_bgk`, the per-term membrane force functions
  summed cell by cell, and the bincount / gather-einsum IBM bodies the
  sparse stencil operator replaced — none of which the optimized step
  calls.

After many steps the distributions and vertex positions must agree to
1e-12 (the in-place paths mirror the original elementary operations, so
they in fact agree to round-off).
"""

import numpy as np

from repro.constants import REPULSION_STIFFNESS
from repro.fsi import CellManager, FSIStepper
from repro.fsi.contact import contact_forces
from repro.ibm import make_stencil
from repro.lbm import Grid
from repro.lbm.collision import collide_bgk, macroscopic
from repro.lbm.lattice import D3Q19
from repro.membrane import (
    area_volume_forces,
    bending_forces,
    make_rbc,
    skalak_forces,
)
from repro.membrane.cell import random_rotation
from repro.units import UnitSystem

from ..ibm.reference_bodies import bincount_spread, gather_einsum_interpolate

GOLDEN_TOL = 1e-12


def _setup(seed=3, shape=(16, 16, 16), n_cells=2):
    dx = 0.65e-6
    nu = 1.2e-3 / 1025.0
    dt = (1.0 / 6.0) * dx**2 / nu  # tau = 1
    units = UnitSystem(dx, dt, 1025.0)
    g = Grid(shape, tau=1.0, origin=np.zeros(3), spacing=dx)
    cm = CellManager()
    rng = np.random.default_rng(seed)
    extent = dx * (np.array(shape) - 1)
    for _ in range(n_cells):
        center = extent * (0.25 + 0.5 * rng.random(3))
        cell = make_rbc(
            center,
            global_id=cm.allocate_id(),
            subdivisions=1,
            rotation=random_rotation(rng),
        )
        cm.add(cell)
    st = FSIStepper(
        g, units, cm, mode="wrap", body_force=np.array([800.0, 0.0, 0.0])
    )
    return st, units


def _literal_membrane_forces(cell) -> np.ndarray:
    ref = cell.reference
    f = skalak_forces(cell.vertices, ref, cell.shear_modulus, cell.skalak_C)
    f += bending_forces(cell.vertices, ref.quads, ref.theta0, cell.k_bend)
    f += area_volume_forces(
        cell.vertices, ref.faces, ref.area0, ref.volume0,
        cell.k_area, cell.k_volume,
    )
    return f


def _reference_step(st: FSIStepper, units: UnitSystem) -> None:
    """One pre-optimization FSI step on ``st``'s grid and cells."""
    g = st.grid
    # 1. membrane + contact forces (per-term functions, cell by cell)
    g.force[:] = st.body_force_lattice[:, None, None, None]
    verts, ordinals, cells = st.cells.all_vertices()
    forces = np.vstack([_literal_membrane_forces(c) for c in cells])
    forces = forces + contact_forces(
        verts, ordinals, st.cells.contact_cutoff, REPULSION_STIFFNESS
    )
    forces_lat = forces * units.force_to_lattice(1.0)
    # 2. spread (bincount body)
    frac = (verts - g.origin) / g.spacing
    bincount_spread(
        forces_lat, make_stencil(frac, g.shape, "cosine4", "wrap"), g.force
    )
    # 3. collide (allocation path) + np.roll streaming, no boundaries
    f_post = collide_bgk(g.f, g.tau, g.force)
    for i in range(D3Q19.Q):
        cx, cy, cz = D3Q19.c[i]
        g.f[i] = np.roll(f_post[i], shift=(int(cx), int(cy), int(cz)), axis=(0, 1, 2))
    g.mark_f_modified()
    # 4-5. interpolate at the (unmoved) vertices, then advect
    _, u = macroscopic(g.f, g.force)
    verts, _, _ = st.cells.all_vertices()
    frac = (verts - g.origin) / g.spacing
    v_lat = gather_einsum_interpolate(
        u, make_stencil(frac, g.shape, "cosine4", "wrap")
    )
    st.cells.update_vertices(v_lat * units.dx)


def test_optimized_step_matches_reference_trajectory():
    n_steps = 15
    opt, units = _setup()
    ref, _ = _setup()

    opt.step(n_steps)
    for _ in range(n_steps):
        _reference_step(ref, units)

    df = np.abs(opt.grid.f - ref.grid.f).max()
    assert df <= GOLDEN_TOL, f"distributions diverged: max |df| = {df:g}"

    v_opt, _, _ = opt.cells.all_vertices()
    v_ref, _, _ = ref.cells.all_vertices()
    # Compare in lattice units so the tolerance is scale-free.
    dv = np.abs(v_opt - v_ref).max() / units.dx
    assert dv <= GOLDEN_TOL, f"vertices diverged: max |dx| = {dv:g} lattice units"


def test_fluid_only_step_matches_reference():
    opt, units = _setup(n_cells=0)
    ref, _ = _setup(n_cells=0)
    opt.step(10)
    for _ in range(10):
        g = ref.grid
        g.force[:] = ref.body_force_lattice[:, None, None, None]
        f_post = collide_bgk(g.f, g.tau, g.force)
        for i in range(D3Q19.Q):
            cx, cy, cz = D3Q19.c[i]
            g.f[i] = np.roll(
                f_post[i], shift=(int(cx), int(cy), int(cz)), axis=(0, 1, 2)
            )
        g.mark_f_modified()
    assert np.abs(opt.grid.f - ref.grid.f).max() <= GOLDEN_TOL


def _vertex_snapshots(st: FSIStepper, n_steps: int, every: int = 4):
    snaps = []
    for _ in range(n_steps // every):
        st.step(every)
        snaps.append(st.cells.all_vertices()[0].copy())
    return snaps


def test_float32_golden_trajectory_tolerance(monkeypatch):
    """REPRO_DTYPE=float32 tracks the float64 trajectory to single-precision
    tolerance: the Eulerian state computes in float32 while the Lagrangian
    membrane state stays float64 (docs/performance.md, "Compute dtype")."""
    from repro.kernels import DTYPE_ENV_VAR

    n_steps = 16
    monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
    ref, _ = _setup()
    ref_snaps = _vertex_snapshots(ref, n_steps)
    ref_f = ref.grid.f
    monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
    st, _ = _setup()
    assert st.grid.dtype == np.float32
    snaps = _vertex_snapshots(st, n_steps)

    f = st.grid.f
    assert f.dtype == np.float32
    assert snaps[-1].dtype == np.float64  # Lagrangian stays double
    for k, (got, want) in enumerate(zip(snaps, ref_snaps)):
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel < 1e-3, f"vertices@snap{k}: rel diff {rel:.3e}"
    rel = np.abs(f.astype(np.float64) - ref_f).max() / np.abs(ref_f).max()
    assert rel < 1e-3, f"populations: rel diff {rel:.3e}"
