"""The four product-path workloads and their correctness checks.

Each workload is one closed-loop driver call in one process with the
default configuration (``serial`` FSI backend, ``numpy`` kernels,
float64).  ``--seed`` reaches the program only as the drivers' ``seed=``
argument or, for ``bulk_lbm``, as the generated initial fields.

Step counts are a fixed function of ``--seconds`` (:func:`steps_for`):
the work per run is identical on every commit, sized so that the timed
steps take about ``--seconds`` on the 2-CPU reference container.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: ``--seconds`` at which :data:`Workload.base_steps` applies.
BASE_SECONDS = 15


def _finite(x) -> bool:
    return bool(np.isfinite(np.asarray(x, dtype=np.float64)).all())


def _round(x, digits: int = 9):
    """Round to ``digits`` significant digits (fingerprints)."""
    return [float(f"{v:.{digits}e}") for v in np.ravel(x)]


# ----------------------------------------------------------------------
# drivers: each returns the JSON-able run summary the checks and the
# same-seed fingerprint are made from

def drive_tube_ht20(seed: int, steps: int, clock) -> dict:
    from repro.experiments.tube_window import run_tube_window

    clock.begin()
    r = run_tube_window(hematocrit=0.2, steps=steps, seed=seed,
                        checkpointer=clock)
    return {
        "n_cells_final": int(r.n_cells_final),
        "n_inserted": int(r.n_inserted),
        "n_removed": int(r.n_removed),
        "hematocrit": _round(r.hematocrit),
        "mu_effective": _round(r.mu_effective)[0],
        "flow_rate": _round(r.flow_rate)[0],
    }


#: Window of ``channel_moves``: 13 um proper, one-RBC on-ramp and
#: insertion shells (total 35 um).
MOVES_WINDOW = (13e-6, 5.5e-6, 5.5e-6)


def drive_channel_moves(seed: int, steps: int, clock) -> dict:
    from repro.core.window import WindowSpec
    from repro.experiments.expanding_channel import (
        ChannelParams,
        run_expanding_channel_apr,
    )

    clock.begin()
    r = run_expanding_channel_apr(
        seed=seed,
        steps=steps,
        window_spec=WindowSpec(*MOVES_WINDOW),
        params=ChannelParams(inlet_velocity=0.1),
        checkpointer=clock,
    )
    return {
        "n_rbcs_seeded": int(r.n_rbcs),
        "window_moves": int(r.extras["window_moves"]),
        "trajectory_um": _round(r.trajectory * 1e6),
    }


def drive_channel_efsi(seed: int, steps: int, clock) -> dict:
    from repro.experiments.expanding_channel import (
        ChannelParams,
        run_expanding_channel_efsi,
    )

    # The driver's own seed picks the RBC tile, and the number of RBCs the
    # tile leaves in the channel varies by +-20% with it (650-920 MiB,
    # 345-775 ms/step over seeds 0-9): a different problem size per seed.
    # The population is therefore the seed-0 one (271 RBCs) on every run
    # and --seed moves the CTC release point within +-0.5 um instead.
    offset = 5e-6 + np.random.default_rng(seed).uniform(-0.5e-6, 0.5e-6)
    clock.begin()
    # sample_every=10 (the APR arm's default) so a short run still records
    # the CTC position; sampling also retires cells past the outlet.
    r = run_expanding_channel_efsi(
        seed=0, params=ChannelParams(ctc_radial_offset=offset), steps=steps,
        sample_every=10, checkpointer=clock)
    return {
        "n_rbcs_seeded": int(r.n_rbcs),
        "n_fluid_nodes": int(r.n_fluid_nodes),
        "trajectory_um": _round(r.trajectory * 1e6),
    }


BULK_SHAPE = (64, 64, 64)
BULK_TAU = 0.9


def bulk_inputs(seed: int):
    """Seeded inputs of ``bulk_lbm``: wall map and perturbed fields."""
    solid = np.zeros(BULK_SHAPE, dtype=bool)
    solid[:, 0, :] = solid[:, -1, :] = True
    solid[:, :, 0] = solid[:, :, -1] = True
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.01 * rng.standard_normal(BULK_SHAPE)
    u = 0.01 * rng.standard_normal((3,) + BULK_SHAPE)
    u[:, solid] = 0.0
    return solid, rho, u


def bulk_grid(solid, rho, u):
    from repro.lbm.grid import Grid

    grid = Grid(BULK_SHAPE, tau=BULK_TAU)
    grid.solid = solid
    grid.init_equilibrium(rho, u)
    return grid


def drive_bulk_lbm(seed: int, steps: int, clock, snapshot=None) -> dict:
    """Plain single-grid duct flow.

    ``snapshot = {"at": k}`` receives a copy of ``f`` after ``k`` steps
    under ``"f"`` (the reference of the traced run's distributed check);
    the copy is made between two timed intervals.
    """
    from repro.lbm.boundaries import BounceBackWalls
    from repro.lbm.solver import LBMSolver

    solid, rho, u = bulk_inputs(seed)
    clock.begin()
    grid = bulk_grid(solid, rho, u)
    solver = LBMSolver(grid, [BounceBackWalls(solid)])
    mass0 = solver.mass()
    for done in range(1, steps + 1):
        solver.step()
        clock.save(f_coarse=grid.f)
        if snapshot is not None and done == snapshot["at"]:
            snapshot["f"] = grid.f.copy()
            clock.resume()
    mass1 = solver.mass()
    return {
        "mass_initial": _round(mass0, 15)[0],
        "mass_rel_drift": abs(mass1 - mass0) / mass0,
        "f_sha256": hashlib.sha256(grid.f.tobytes()).hexdigest()[:16],
    }


# ----------------------------------------------------------------------
# checks: each returns [(name, ok, detail)]

def _centroids(manager, kind):
    return np.array([c.centroid() for c in manager.cells if c.kind is kind])


def check_tube_ht20(result, state, steps, health) -> list:
    ht = result["hematocrit"][-1]
    out = [("tube.ht_in_band", 0.10 <= ht <= 0.26, f"final window Ht {ht:.4f}")]
    if health is not None:
        dev = health["window_density_deviation"]
        out.append(("tube.density_deviation", dev < 0.05, f"max|rho-1| {dev:.4g}"))
    return out


def check_channel_moves(result, state, steps, health) -> list:
    from repro.core.window import Window, WindowSpec
    from repro.membrane.cell import CellKind

    z = result["trajectory_um"][2::3]
    out = []
    if steps >= 10:
        out.append(("moves.ctc_advanced", z[-1] > z[0],
                    f"CTC z {z[0]:.3f} -> {z[-1]:.3f} um"))
    if steps >= 40:
        out.append(("moves.window_moved", result["window_moves"] >= 1,
                    f"{result['window_moves']} window move(s)"))
    if steps % 10 == 0:
        # The controller retires departed cells every 10 steps, so the
        # population is inside the window exactly on those steps.
        window = Window(state["extra"]["window_center"], WindowSpec(*MOVES_WINDOW))
        lo, hi = window.bounds()
        cents = _centroids(state["manager"], CellKind.RBC)
        inside = bool(len(cents)) and bool(
            np.all((cents >= lo) & (cents <= hi))
        )
        out.append(("moves.rbcs_in_window", inside,
                    f"{len(cents)} RBC centroid(s) checked"))
    return out


def check_channel_efsi(result, state, steps, health) -> list:
    z = result["trajectory_um"][2::3]
    out = [("efsi.rbcs_seeded", result["n_rbcs_seeded"] > 0,
            f"{result['n_rbcs_seeded']} RBCs seeded")]
    if steps >= 10:
        out.append(("efsi.ctc_advanced", z[-1] > z[0],
                    f"CTC z {z[0]:.3f} -> {z[-1]:.3f} um"))
    return out


def check_bulk_lbm(result, state, steps, health) -> list:
    drift = result["mass_rel_drift"]
    return [("bulk.mass_conserved", drift <= 1e-10,
             f"relative fluid-mass drift {drift:.3g}")]


def check_finite(result, state) -> tuple:
    """All lattices, all vertices and every reported number are finite."""
    arrays = list(state["lattices"])
    if state.get("manager") is not None:
        arrays += [c.vertices for c in state["manager"].cells]
    numbers = [v for v in result.values() if not isinstance(v, str)]
    ok = all(_finite(a) for a in arrays) and all(_finite(v) for v in numbers)
    return ("finite", ok, f"{len(arrays)} array(s), {len(numbers)} result field(s)")


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    drive: object
    check: object
    #: Timed-run steps at ``--seconds == BASE_SECONDS``.
    base_steps: int
    #: Step counts are multiples of this (the APR drivers maintain the
    #: hematocrit every 10 steps; a run ends on a maintain pass).
    granularity: int
    smoke_steps: int
    #: Whether the driver checkpoints through ``save_with`` (APR drivers).
    saves_with: bool
    #: Fresh processes that set the workload up in one untraced measurement
    #: (the timed run included); ``setup_s`` is their lower quartile.
    #: Cheap, page-fault-dominated set-ups are the noisiest and get the most.
    setup_samples: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tube_ht20",
            why="Fig. 5 flagship: 49^3 fine window at n=4 with ~25 RBCs in a "
            "coarse tube; fine LBM step and ghost coupling lead, coarse LBM "
            "is ~2%",
            drive=drive_tube_ht20, check=check_tube_ht20,
            base_steps=30, granularity=10, smoke_steps=5,
            saves_with=True, setup_samples=5,
        ),
        Workload(
            name="channel_moves",
            why="Fig. 6 APR arm at the paper's inlet speed: n=2 walled window "
            "that moves with the CTC, reseeds and maintains; loads the "
            "coarse solver and rebuilds the coupling mid-run",
            drive=drive_channel_moves, check=check_channel_moves,
            base_steps=60, granularity=10, smoke_steps=5,
            saves_with=True, setup_samples=5,
        ),
        Workload(
            name="channel_efsi",
            why="Fig. 6 fully-resolved reference: 186k fluid nodes and 271 RBCs "
            "on one lattice; membrane and IBM layers dominate, coupling, "
            "seeding and moving are bypassed",
            drive=drive_channel_efsi, check=check_channel_efsi,
            base_steps=28, granularity=1, smoke_steps=3,
            saves_with=False, setup_samples=3,
        ),
        Workload(
            name="bulk_lbm",
            why="64^3 walled duct, no cells, no window: the plain single-thread "
            "lattice-kernel baseline that bypasses every cell-side and "
            "coupling layer",
            drive=drive_bulk_lbm, check=check_bulk_lbm,
            base_steps=100, granularity=1, smoke_steps=5,
            saves_with=False, setup_samples=5,
        ),
    )
}


def steps_for(name: str, seconds: float, smoke: bool = False) -> int:
    """Fixed step count of one run: a function of ``--seconds`` only."""
    w = WORKLOADS[name]
    if smoke:
        return w.smoke_steps
    g = w.granularity
    return max(g, g * round(w.base_steps * seconds / BASE_SECONDS / g))
