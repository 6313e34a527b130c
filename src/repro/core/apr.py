"""The APR simulation driver: coarse bulk + moving cell-resolved window.

:class:`APRSimulation` assembles everything the paper's Section 2.4
describes: a coarse whole-blood lattice (supplied by the caller, with its
boundary conditions), a fine plasma window with explicitly modeled cells
(built and rebuilt here as the window moves), the multi-resolution /
multi-viscosity coupling, hematocrit maintenance, CTC tracking, and the
capture/fill window-move algorithm.

Typical use::

    sim = APRSimulation(config, coarse_solver, window_center, geometry=tube)
    sim.add_ctc(ctc_cell)
    sim.fill_window()
    sim.step(n_coarse_steps)     # moves the window automatically

All coordinates are global/physical; the CellManager (and its pooled
vertex storage) survives window moves untouched because cell vertices are
stored in the global frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import RBC_DIAMETER
from ..fsi.cell_manager import CellManager
from ..fsi.stepper import FSIStepper
from ..geometry.voxelize import solid_mask_from_sdf
from ..lbm.grid import Grid
from ..membrane.cell import Cell
from ..telemetry import get_telemetry
from ..units import UnitSystem
from .moving import MoveReport, WindowMover
from .refinement import RefinedRegion
from .seeding import HematocritController, RBCTile, rbc_census, stamp_tile
from .tracking import CTCTracker
from .viscosity import lambda_from_viscosities, tau_fine_from_coarse
from .window import Window, WindowSpec


@dataclass
class APRConfig:
    """Parameters of an APR run (physical units unless noted)."""

    window_spec: WindowSpec
    refinement: int
    nu_bulk: float  # whole-blood kinematic viscosity [m^2/s]
    nu_window: float  # plasma kinematic viscosity [m^2/s]
    rho: float = 1025.0
    hematocrit: float | None = None  # target window Ht; None = fluid only
    ht_threshold: float = 0.8
    tile_side: float | None = None  # default: ~3 RBC diameters
    rbc_diameter: float = RBC_DIAMETER
    rbc_subdivisions: int = 3
    rbc_shear_modulus: float | None = None  # None = healthy default
    kernel: str = "cosine4"
    overlap_cutoff: float = 0.5e-6
    maintain_interval: int = 10  # coarse steps between controller passes
    trigger_distance: float | None = None  # default: one RBC diameter
    #: When > 0, pre-deform the RBC tile in a periodic Kolmogorov flow for
    #: this many FSI steps before any stamping, so inserted cells arrive
    #: flow-equilibrated (Section 2.4.2's "physiologically deformed").
    equilibrate_tile_steps: int = 0
    #: Coarse steps between diagnostic gauge samples (health_report ->
    #: telemetry gauges + a "health" event).  Only evaluated when a live
    #: telemetry backend is installed; 0 disables sampling entirely.
    telemetry_interval: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.refinement < 2:
            raise ValueError("refinement ratio must be >= 2")
        if self.tile_side is None:
            self.tile_side = 3.0 * self.rbc_diameter
        if self.trigger_distance is None:
            self.trigger_distance = self.rbc_diameter

    @property
    def viscosity_contrast(self) -> float:
        return lambda_from_viscosities(self.nu_window, self.nu_bulk)


class APRSimulation:
    """Coupled coarse/fine simulation with a moving cell-laden window."""

    def __init__(
        self,
        config: APRConfig,
        coarse,
        window_center: np.ndarray,
        coarse_units: UnitSystem,
        geometry=None,
        window_body_force: np.ndarray | None = None,
    ) -> None:
        """
        Parameters
        ----------
        config:
            APR parameters.
        coarse:
            Coarse solver (``.grid``/``.step()``), already configured with
            walls and boundary conditions for the whole domain.
        window_center:
            Requested initial window center (snapped to the coarse grid).
        coarse_units:
            Unit system of the coarse lattice; the fine lattice uses
            ``coarse_units.refined(n)``.
        geometry:
            Optional SDF object voxelized onto each new fine grid (vessel
            walls inside the window) and used to reject seeded cells that
            would straddle a wall.
        window_body_force:
            Physical body-force density [N/m^3] applied inside the window
            (matching any force driving the coarse flow).
        """
        self.config = config
        self.coarse = coarse
        self.units_coarse = coarse_units
        self.units_fine = coarse_units.refined(config.refinement)
        self.geometry = geometry
        self.window_body_force = window_body_force

        n = config.refinement
        self.tau_fine = tau_fine_from_coarse(
            coarse.grid.tau, n, config.viscosity_contrast
        )
        # Consistency: Eq. 7 must agree with the unit-system route.
        tau_check = self.units_fine.tau_for_viscosity(config.nu_window)
        tau_coarse_check = coarse_units.tau_for_viscosity(config.nu_bulk)
        if abs(tau_coarse_check - coarse.grid.tau) > 1e-6:
            raise ValueError(
                "coarse grid tau does not realize nu_bulk under coarse_units"
            )
        assert abs(tau_check - self.tau_fine) < 1e-9

        self.cells = CellManager(contact_cutoff=config.overlap_cutoff)
        self.ctc: Cell | None = None
        self.mover = WindowMover(overlap_cutoff=config.overlap_cutoff)
        self.tracker = CTCTracker(
            trigger_distance=config.trigger_distance,
            snap_spacing=coarse.grid.spacing,
        )
        self.rng = np.random.default_rng(config.seed)
        self.tile: RBCTile | None = None
        if config.hematocrit is not None:
            self.tile = RBCTile.build(
                hematocrit=min(config.hematocrit * 1.15, 0.55),
                side=config.tile_side,
                seed=config.seed,
                diameter=config.rbc_diameter,
            )
            if config.equilibrate_tile_steps > 0:
                from .seeding import equilibrate_tile

                self.tile = equilibrate_tile(
                    self.tile,
                    steps=config.equilibrate_tile_steps,
                    diameter=config.rbc_diameter,
                    subdivisions=config.rbc_subdivisions,
                    shear_modulus=config.rbc_shear_modulus,
                )

        self.window: Window | None = None
        self.fine: FSIStepper | None = None
        self.coupling: RefinedRegion | None = None
        self.controller: HematocritController | None = None
        self.move_reports: list[MoveReport] = []
        self.ht_history: list[tuple[float, float]] = []  # (time, window Ht)
        self.coarse_step_count = 0
        self._place_window(np.asarray(window_center, dtype=np.float64))

    # ------------------------------------------------------------------
    # window construction
    # ------------------------------------------------------------------
    def _snap_window(self, center: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Snap a window center to the coarse lattice.

        Returns (origin_index, snapped_center, coarse cells per side).
        """
        cg: Grid = self.coarse.grid
        dx = cg.spacing
        w_cells = int(round(self.config.window_spec.total_side / dx))
        if w_cells < 2:
            raise ValueError("window is smaller than two coarse cells")
        rel = (center - cg.origin) / dx
        i0 = np.round(rel - w_cells / 2.0).astype(np.int64)
        i0_max = np.array(cg.shape) - 2 - w_cells
        if np.any(i0_max < 1):
            raise ValueError(
                "window does not fit strictly inside the coarse domain"
            )
        i0 = np.clip(i0, 1, i0_max)
        snapped = cg.origin + dx * (i0 + w_cells / 2.0)
        return i0, snapped, w_cells

    def _place_window(self, center: np.ndarray) -> None:
        """(Re)build the fine grid, stepper and coupling at ``center``."""
        cfg = self.config
        cg: Grid = self.coarse.grid
        n = cfg.refinement
        i0, snapped, w_cells = self._snap_window(center)
        if self.fine is not None:
            # The outgoing lattice goes before the incoming one is
            # allocated, so a move never holds two windows at once.
            self.fine = self.coupling = None
        self.window = Window(center=snapped, spec=cfg.window_spec)
        origin = cg.origin + cg.spacing * i0
        shape = (n * w_cells + 1,) * 3
        fine_grid = Grid(
            shape, tau=self.tau_fine, origin=origin, spacing=cg.spacing / n
        )
        if self.geometry is not None:
            fine_grid.solid = solid_mask_from_sdf(
                self.geometry, shape, origin, fine_grid.spacing
            )
        boundaries = []
        if fine_grid.solid.any():
            from ..lbm.boundaries import BounceBackWalls

            boundaries.append(BounceBackWalls(fine_grid.solid))
        self.fine = FSIStepper(
            fine_grid,
            self.units_fine,
            cells=self.cells,
            boundaries=boundaries,
            kernel=cfg.kernel,
            mode="clip",
            body_force=self.window_body_force,
            wall_geometry=self.geometry,
            wall_cutoff=cfg.overlap_cutoff,
        )
        self.coupling = RefinedRegion(self.coarse, self.fine, n)
        self.coupling.initialize_fine_from_coarse()
        if self.controller is not None:
            # One controller per simulation: its counters run across
            # moves, and it recomputes the subregion geometry for the new
            # placement on its next pass.
            self.controller.window = self.window
        elif cfg.hematocrit is not None:
            assert self.tile is not None
            subregion_filter = None
            fluid_fraction_fn = None
            if self.geometry is not None:
                geometry = self.geometry

                def subregion_filter(lo, hi):
                    center = 0.5 * (lo + hi)
                    return float(geometry.sdf(center[None])[0]) < 0.0

                def fluid_fraction_fn(lo, hi, _n=4):
                    axes = [np.linspace(lo[d], hi[d], _n) for d in range(3)]
                    xg, yg, zg = np.meshgrid(*axes, indexing="ij")
                    pts = np.stack([xg, yg, zg], axis=-1)
                    return float((geometry.sdf(pts) < 0.0).mean())

            self.controller = HematocritController(
                window=self.window,
                tile=self.tile,
                target=cfg.hematocrit,
                threshold=cfg.ht_threshold,
                overlap_cutoff=cfg.overlap_cutoff,
                diameter=cfg.rbc_diameter,
                subdivisions=cfg.rbc_subdivisions,
                shear_modulus=cfg.rbc_shear_modulus,
                keep_predicate=self._seed_predicate(),
                subregion_filter=subregion_filter,
                fluid_fraction_fn=fluid_fraction_fn,
                subregion_size=max(
                    cfg.window_spec.insertion_width, 1.2 * cfg.rbc_diameter
                ),
                rng=self.rng,
            )

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_ctc(self, ctc: Cell) -> None:
        """Register the tracked tumor cell (added to the window population)."""
        if self.ctc is not None:
            raise ValueError("a CTC is already registered")
        self.cells.add(ctc)
        self.ctc = ctc

    def _seed_predicate(self):
        """Predicate rejecting seeded cells whose centroid is near a wall."""
        if self.geometry is None:
            return None
        margin = 0.5 * self.config.rbc_diameter

        def ok(cell: Cell) -> bool:
            return float(self.geometry.sdf(cell.centroid()[None])[0]) < -margin

        return ok

    def fill_window(self) -> int:
        """Initial population of the whole window at the target hematocrit.

        Stamps the RBC tile over the full window box (all three shells),
        rejecting overlaps and wall-straddling cells.  Returns the number
        of cells placed.
        """
        cfg = self.config
        if cfg.hematocrit is None or self.tile is None:
            return 0
        assert self.window is not None
        lo, hi = self.window.bounds()
        keep = self._seed_predicate()
        protect_verts = self.ctc.vertices if self.ctc is not None else None

        def predicate(cell: Cell) -> bool:
            if keep is not None and not keep(cell):
                return False
            if protect_verts is not None:
                # Leave clearance around the CTC placement.
                d = np.linalg.norm(
                    cell.centroid() - protect_verts.mean(axis=0)
                )
                if d < 0.6 * (cfg.rbc_diameter + 2 * 0.5 * 15e-6):
                    return False
            return True

        added = stamp_tile(
            self.cells,
            self.tile,
            lo,
            hi,
            self.rng,
            overlap_cutoff=cfg.overlap_cutoff,
            diameter=cfg.rbc_diameter,
            subdivisions=cfg.rbc_subdivisions,
            shear_modulus=cfg.rbc_shear_modulus,
            keep_predicate=predicate,
        )
        return len(added)

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def window_hematocrit(self) -> float:
        """Centroid-attributed RBC volume fraction of the window *fluid*.

        Normalized by the fluid volume inside the window (vessel walls
        voxelized on the fine grid are excluded), so the value is
        comparable to tube hematocrit even when the window pokes into
        the vessel wall.
        """
        from ..analytics.hematocrit import region_hematocrit

        assert self.window is not None and self.fine is not None
        vols, cents = rbc_census(self.cells)
        if len(vols) == 0:
            return 0.0
        lo, hi = self.window.bounds()
        ht_box = region_hematocrit(vols, cents, lo, hi)
        fluid_fraction = float((~self.fine.grid.solid).mean())
        if fluid_fraction <= 0.0:
            return 0.0
        return ht_box / fluid_fraction

    @property
    def time(self) -> float:
        """Physical simulation time [s]."""
        return self.coarse_step_count * self.units_coarse.dt

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, n_coarse: int = 1) -> None:
        """Advance by coarse steps, maintaining Ht and moving the window."""
        cfg = self.config
        assert self.coupling is not None and self.window is not None
        tel = get_telemetry()
        for _ in range(n_coarse):
            with tel.phase("step"):
                self.coupling.step(1)
                self.coarse_step_count += 1
                if (
                    self.controller is not None
                    and self.coarse_step_count % cfg.maintain_interval == 0
                ):
                    protect = (
                        {self.ctc.global_id} if self.ctc is not None else set()
                    )
                    with tel.phase("maintain"):
                        self.controller.maintain(self.cells, protect)
                    with tel.phase("measure"):
                        self.ht_history.append(
                            (self.time, self.window_hematocrit())
                        )
                if self.ctc is not None:
                    self.tracker.record(self.ctc)
                    if self.tracker.needs_move(self.ctc, self.window):
                        self.move_window()
                if (
                    tel.enabled
                    and cfg.telemetry_interval > 0
                    and self.coarse_step_count % cfg.telemetry_interval == 0
                ):
                    with tel.phase("diagnostics"):
                        self.sample_diagnostics(tel)

    def sample_diagnostics(self, tel=None) -> dict[str, float]:
        """Sample :func:`~repro.core.diagnostics.health_report` into
        telemetry gauges (``health.*``) and emit one ``health`` event.

        Called automatically every ``config.telemetry_interval`` coarse
        steps while a live backend is installed; harmless to call by
        hand (e.g. right before a checkpoint).
        """
        from .diagnostics import health_report

        if tel is None:
            tel = get_telemetry()
        report = health_report(self)
        for key, value in report.items():
            tel.gauge(f"health.{key}").set(value)
        tel.event("health", step=self.coarse_step_count, **report)
        return report

    # ------------------------------------------------------------------
    # checkpointing (long campaigns: the paper's cerebral run spans days)
    # ------------------------------------------------------------------
    def save(self, path, extra: dict | None = None) -> None:
        """Checkpoint lattice state, cells and window to an npz archive.

        ``extra`` entries ride along in the checkpoint's extra payload
        (experiment drivers stash trajectory history there) and come back
        from :meth:`restore`'s return value.
        """
        from ..io.checkpoint import save_checkpoint

        assert self.fine is not None and self.window is not None
        payload = {"window_center": self.window.center}
        if extra:
            payload.update(extra)
        save_checkpoint(
            path,
            step=self.coarse_step_count,
            f_coarse=self.coarse.grid.f,
            manager=self.cells,
            f_fine=self.fine.grid.f,
            extra=payload,
        )

    def restore(self, path) -> dict:
        """Restore a checkpoint written by :meth:`save`.

        The simulation must have been constructed with the same config
        and coarse domain; the window is re-placed at the stored center,
        the cell population replaced, and both lattices overwritten.
        Returns the loaded checkpoint dict so callers can recover any
        ``extra`` payload they saved.
        """
        from ..io.checkpoint import load_checkpoint
        from ..membrane.cell import CellKind

        data = load_checkpoint(path)
        self.coarse.grid.f[:] = data["f_coarse"]
        self.coarse.grid.mark_f_modified()
        self._place_window(np.asarray(data["extra"]["window_center"]))
        assert self.fine is not None
        if "f_fine" in data and data["f_fine"].shape == self.fine.grid.f.shape:
            self.fine.grid.f[:] = data["f_fine"]
            self.fine.grid.mark_f_modified()
        # Replace the population (the manager instance is shared with the
        # fine stepper, so mutate it in place).
        for gid in [c.global_id for c in self.cells.cells]:
            self.cells.remove(gid)
        self.ctc = None
        restored = data.get("manager")
        if restored is not None:
            for cell in sorted(restored.cells, key=lambda c: c.global_id):
                clone = cell.copy()
                self.cells.add(clone)
                if clone.kind is CellKind.CTC:
                    self.ctc = clone
        self.coarse_step_count = data["step"]
        return data

    def close(self) -> None:
        """Mark the end of a run.

        The simulation holds no OS resources, so this releases nothing
        and leaves every field readable.  The experiment drivers call it
        once after their last step; ``benchmarks/e2e/spans.py`` takes the
        finished simulation for its health report at this call.
        """

    def move_window(self) -> MoveReport:
        """Relocate the window onto the CTC (capture/fill algorithm)."""
        assert self.ctc is not None and self.window is not None
        tel = get_telemetry()
        with tel.phase("window_move"):
            old_window = self.window
            proposed = self.tracker.propose_center(self.ctc, old_window)
            _, snapped, _ = self._snap_window(proposed)
            new_window = old_window.moved_to(snapped)
            protect = {self.ctc.global_id}
            report = self.mover.move_cells(
                self.cells, old_window, new_window, protect
            )
            with tel.phase("rebuild"):
                self._place_window(snapped)
            if self.controller is not None:
                with tel.phase("reseed"):
                    report.n_inserted = self.controller.maintain(
                        self.cells, protect
                    )
        self.move_reports.append(report)
        tel.inc("window.moves")
        tel.event(
            "window_move",
            step=self.coarse_step_count,
            time=self.time,
            displacement=report.displacement,
            n_captured=report.n_captured,
            n_filled=report.n_filled,
            n_removed=report.n_removed,
            n_inserted=report.n_inserted,
        )
        return report
