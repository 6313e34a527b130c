"""Metric declarations and their derivation from raw run records.

:data:`END_TO_END` and :data:`PER_LAYER` are the single source of the
metric names, units and directions; ``BENCHMARK.json`` repeats
``name``/``unit``/``better`` (and the bounds) and a test holds the two
together.  Each per-layer entry also names its layer (this repo's module)
and ``moves``: which end-to-end metric on which workload the layer should
move, written down before measuring (README.md, "How the metrics
interact").

Time metrics ending in ``_ms`` are **self** milliseconds per top-level
timed step unless marked *per call*.  A layer a workload never calls
reports 0 with zero calls.
"""

from __future__ import annotations

import statistics

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("step_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

_STEP = "step_ms_p50/steps_per_s"

#: (name, unit, better, layer, moves)
PER_LAYER = (
    # repro.lbm — boundary: LBMSolver.step, split by its caller
    ("lbm.fine.step_ms", "ms", "lower", "repro.lbm",
     f"{_STEP}: channel_efsi ~32%, tube_ht20 ~37%, channel_moves ~18%"),
    ("lbm.coarse.step_ms", "ms", "lower", "repro.lbm",
     f"{_STEP}: bulk_lbm ~100%, channel_moves ~14%, tube_ht20 ~2%"),
    ("lbm.fine.mlups", "MLUPS", "higher", "repro.lbm", "as lbm.fine.step_ms"),
    ("lbm.coarse.mlups", "MLUPS", "higher", "repro.lbm", "as lbm.coarse.step_ms"),
    ("lbm.site_updates", "count", "lower", "repro.lbm",
     "exact work count; fixed by the workload"),
    # repro.kernels — bulk_lbm only, bare calls through get_kernel_table()
    ("kernels.collide_bgk.ms", "ms", "lower", "repro.kernels",
     "lbm.*.step_ms on every workload"),
    ("kernels.stream_pull.ms", "ms", "lower", "repro.kernels",
     "lbm.*.step_ms on every workload"),
    ("kernels.bytes_per_update_computed", "B", "lower", "repro.kernels",
     "computed from array sizes; kernels.bw_frac"),
    ("host.copy_gbs", "GB/s", "higher", "host",
     "machine property; denominator of kernels.bw_frac"),
    ("kernels.bw_frac", "ratio", "higher", "repro.kernels",
     "share of copy bandwidth collide+stream achieve; bulk_lbm"),
    # repro.core.refinement — boundary: RefinedRegion.step / initialize_fine_from_coarse
    ("core.refinement.self_ms", "ms", "lower", "repro.core.refinement",
     f"{_STEP}: tube_ht20 ~29%, channel_moves ~23%; zero calls on "
     "channel_efsi and bulk_lbm (no change predicted)"),
    ("core.refinement.init_fine_ms", "ms", "lower", "repro.core.refinement",
     "per call; setup_s on tube_ht20 (~1.0 of 2.4 s) and every window move"),
    ("core.refinement.init_fine_calls", "count", "lower", "repro.core.refinement",
     "1 + window moves"),
    ("core.refinement.ghost_nodes", "count", "lower", "repro.core.refinement",
     "computed shell size of the final window; scales core.refinement.self_ms"),
    # repro.membrane / repro.ibm / repro.fsi — boundaries on
    # ParallelFSIRuntime and CellManager
    ("membrane.forces_ms", "ms", "lower", "repro.membrane",
     f"{_STEP}: channel_efsi ~28%; with ibm.*: channel_efsi ~65%, "
     "channel_moves ~38%, tube_ht20 ~27%; zero on bulk_lbm"),
    ("ibm.stencil_ms", "ms", "lower", "repro.ibm", "as membrane.forces_ms"),
    ("ibm.spread_ms", "ms", "lower", "repro.ibm", "as membrane.forces_ms"),
    ("ibm.interp_ms", "ms", "lower", "repro.ibm", "as membrane.forces_ms"),
    ("fsi.stepper.self_ms", "ms", "lower", "repro.fsi",
     f"{_STEP}: FSIStepper.step outside its wrapped calls (wall forces, "
     "velocity field, unit scaling)"),
    ("fsi.cells.update_ms", "ms", "lower", "repro.fsi",
     f"{_STEP}: cell-laden workloads, small"),
    ("fsi.marker_updates", "count", "lower", "repro.fsi",
     "exact work count; fixed by workload and seed"),
    ("fsi.marker_updates_per_s", "1/s", "higher", "repro.fsi",
     "markers advected per second of cell-side self time"),
    ("fsi.cells_final", "count", "higher", "repro.fsi",
     "population at the end; fixed by workload and seed"),
    ("ibm.clipped_markers", "count", "lower", "repro.ibm",
     "existing telemetry counter; a correctness debt, no timing effect"),
    # repro.core.seeding / moving / apr
    ("core.apr.init_ms", "ms", "lower", "repro.core.apr",
     "per call, inclusive; setup_s on tube_ht20 and channel_moves"),
    ("core.seeding.tile_build_ms", "ms", "lower", "repro.core.seeding",
     "per call; setup_s"),
    ("core.seeding.fill_window_ms", "ms", "lower", "repro.core.seeding",
     "per call; setup_s"),
    ("core.seeding.maintain_ms", "ms", "lower", "repro.core.seeding",
     "per call; steps_per_s/step_ms_tail on channel_moves only (~3%), "
     "caps any gain there"),
    ("core.seeding.maintain_calls", "count", "lower", "repro.core.seeding",
     "steps/10 + window moves"),
    ("core.seeding.cells_inserted", "count", "lower", "repro.core.seeding",
     "exact; fixed by workload and seed"),
    ("core.seeding.cells_removed", "count", "lower", "repro.core.seeding",
     "exact; fixed by workload and seed"),
    ("core.moving.move_ms", "ms", "lower", "repro.core.moving",
     "per move_window incl. rebuild; steps_per_s/step_ms_tail on "
     "channel_moves only (~1%)"),
    ("core.moving.move_cells_ms", "ms", "lower", "repro.core.moving",
     "per call; part of core.moving.move_ms"),
    ("core.moving.moves", "count", "higher", "repro.core.moving",
     ">= 1 on channel_moves, 0 elsewhere"),
    ("core.apr.measure_ms", "ms", "lower", "repro.core.apr",
     f"{_STEP}: window_hematocrit, small"),
    ("core.apr.self_ms", "ms", "lower", "repro.core.apr",
     f"{_STEP}: APRSimulation.step outside its wrapped calls, small"),
    ("core.health.ht_final", "ratio", "higher", "repro.core.diagnostics",
     "physics health, not a speed; checked against the Fig. 5 band"),
    ("core.health.density_deviation", "ratio", "lower", "repro.core.diagnostics",
     "physics health; checked < 0.05 on tube_ht20"),
    ("core.health.interface_mismatch", "ratio", "lower", "repro.core.diagnostics",
     "physics health; watched, no threshold yet"),
    # repro.parallel — bulk_lbm traced run, same lattice, 8 ranks
    ("parallel.dist.serial8.step_ms", "ms", "lower", "repro.parallel",
     "no end-to-end metric today: the decomposed runtime is off the "
     "product path"),
    ("parallel.dist.proc2.step_ms", "ms", "lower", "repro.parallel",
     "no end-to-end metric today"),
    ("parallel.dist.bytes_per_step", "B", "lower", "repro.parallel",
     "exact; no end-to-end metric today"),
    ("parallel.dist.messages_per_step", "count", "lower", "repro.parallel",
     "exact; no end-to-end metric today"),
    ("parallel.dist.speedup_vs_single", "ratio", "higher", "repro.parallel",
     "single-grid step_ms_p50 / parallel.dist.proc2.step_ms"),
    # repro.io — real checkpoints through save_with
    ("io.checkpoint.save_ms", "ms", "lower", "repro.io",
     "per call; no end-to-end metric today (campaign-only)"),
    ("io.checkpoint.load_ms", "ms", "lower", "repro.io",
     "per call; no end-to-end metric today"),
    ("io.checkpoint.bytes", "B", "lower", "repro.io",
     "archive size of the last checkpoint"),
    # harness
    ("trace.overhead_frac", "ratio", "lower", "harness",
     "traced / untraced step_ms_p50 - 1; trust in every *_ms above"),
    ("trace.coverage", "ratio", "higher", "harness",
     "span self time / step wall of the timed steps; target >= 0.95"),
)

E2E_NAMES = tuple(m[0] for m in END_TO_END)
UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}

#: The tail is the sample with exactly this many larger ones beyond it.
TAIL_BEYOND = 10


def tail_sample(step_ms: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the 11th-largest sample.

    With fewer than 11 samples the largest one is the tail.
    """
    ordered = sorted(step_ms)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # 1-based, ascending
    return ordered[rank - 1], 100.0 * rank / n


def setup_estimate(samples: list[float]) -> float:
    """``setup_s`` from the set-up times of several fresh processes: their
    lower quartile.

    Set-up is dominated by first-touch page faults, and on the reference
    microVM the hypervisor backs guest pages lazily: the same 37k faults
    cost 0.17 s or 1.3 s of ``sys`` time depending on host state, so
    samples are bimodal (0.25 s or 0.5-1.5 s for ``bulk_lbm``) and their
    median flips between modes from one run to the next.  The noise only
    ever adds time; the lower quartile stays in the fast mode and still
    rises by exactly what a change adds to set-up.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4)[0]


def e2e_metrics(run: dict, setup_samples: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced worker record.

    ``setup_samples`` are the set-up times of every fresh process that set
    the workload up in this run (the timed one included).
    """
    step_ms = run["step_ms"]
    return {
        "setup_s": setup_estimate(setup_samples),
        "steps_per_s": len(step_ms) / (sum(step_ms) / 1e3),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_tail": tail_sample(step_ms)[0],
        "peak_rss_mb": run["peak_rss_mb"],
    }


# ----------------------------------------------------------------------

def _per_step(layers: dict, key: str, steps: int) -> float:
    return layers.get(key, {}).get("self_s", 0.0) * 1e3 / steps


def _per_call(layers: dict, key: str) -> float:
    agg = layers.get(key)
    return agg["total_s"] * 1e3 / agg["calls"] if agg else 0.0


def _calls(layers: dict, key: str) -> int:
    return layers.get(key, {}).get("calls", 0)


def _mlups(layers: dict, key: str) -> float:
    agg = layers.get(key)
    return agg["work"] / agg["self_s"] / 1e6 if agg and agg["self_s"] else 0.0


def layer_metrics(traced: dict, untraced_p50_ms: float) -> dict[str, float]:
    """Every per-layer metric from one traced worker record.

    ``traced["layers_timed"]`` aggregates the spans that started after the
    first step (the timed steps), ``traced["layers_all"]`` every span of
    the run (set-up spans are read from it).
    """
    timed = traced["layers_timed"]
    whole = traced["layers_all"]
    steps = len(traced["step_ms"])
    counts = traced["counts"]
    tel = traced["telemetry_counts"]
    health = traced.get("health") or {}
    kern = traced.get("kernels") or {}
    par = traced.get("parallel") or {}
    io = traced["io"]

    fine, coarse = "LBMSolver.step[fine]", "LBMSolver.step[coarse]"
    cell_side = (
        "ParallelFSIRuntime.total_forces", "ParallelFSIRuntime.begin_step",
        "ParallelFSIRuntime.spread", "ParallelFSIRuntime.interpolate",
        "CellManager.update_vertices",
    )
    cell_self_s = sum(timed.get(k, {}).get("self_s", 0.0) for k in cell_side)
    markers = timed.get("CellManager.update_vertices", {}).get("work", 0)
    saves = io["saves"]
    step_wall_s = sum(traced["step_ms"]) / 1e3
    traced_p50 = statistics.median(traced["step_ms"])

    return {
        "lbm.fine.step_ms": _per_step(timed, fine, steps),
        "lbm.coarse.step_ms": _per_step(timed, coarse, steps),
        "lbm.fine.mlups": _mlups(timed, fine),
        "lbm.coarse.mlups": _mlups(timed, coarse),
        "lbm.site_updates": sum(
            timed.get(k, {}).get("work", 0) for k in (fine, coarse)
        ),
        "kernels.collide_bgk.ms": kern.get("collide_bgk_ms", 0.0),
        "kernels.stream_pull.ms": kern.get("stream_pull_ms", 0.0),
        "kernels.bytes_per_update_computed": kern.get("bytes_per_update", 0.0),
        "host.copy_gbs": kern.get("copy_gbs", 0.0),
        "kernels.bw_frac": kern.get("bw_frac", 0.0),
        "core.refinement.self_ms": _per_step(timed, "RefinedRegion.step", steps),
        "core.refinement.init_fine_ms": _per_call(
            whole, "RefinedRegion.initialize_fine_from_coarse"),
        "core.refinement.init_fine_calls": _calls(
            whole, "RefinedRegion.initialize_fine_from_coarse"),
        "core.refinement.ghost_nodes": traced.get("ghost_nodes", 0),
        "membrane.forces_ms": _per_step(
            timed, "ParallelFSIRuntime.total_forces", steps),
        "ibm.stencil_ms": _per_step(timed, "ParallelFSIRuntime.begin_step", steps),
        "ibm.spread_ms": _per_step(timed, "ParallelFSIRuntime.spread", steps),
        "ibm.interp_ms": _per_step(timed, "ParallelFSIRuntime.interpolate", steps),
        "fsi.stepper.self_ms": _per_step(timed, "FSIStepper.step", steps),
        "fsi.cells.update_ms": _per_step(
            timed, "CellManager.update_vertices", steps),
        "fsi.marker_updates": markers,
        "fsi.marker_updates_per_s": markers / cell_self_s if cell_self_s else 0.0,
        "fsi.cells_final": traced.get("cells_final", 0),
        "ibm.clipped_markers": tel.get("ibm.clipped_markers", 0),
        "core.apr.init_ms": _per_call(whole, "APRSimulation.__init__"),
        "core.seeding.tile_build_ms": _per_call(whole, "RBCTile.build"),
        "core.seeding.fill_window_ms": _per_call(
            whole, "APRSimulation.fill_window"),
        "core.seeding.maintain_ms": _per_call(
            timed, "HematocritController.maintain"),
        "core.seeding.maintain_calls": _calls(
            timed, "HematocritController.maintain"),
        "core.seeding.cells_inserted": timed.get(
            "HematocritController.maintain", {}).get("work", 0),
        "core.seeding.cells_removed": counts.get(
            "HematocritController.remove_departed", 0),
        "core.moving.move_ms": _per_call(timed, "APRSimulation.move_window"),
        "core.moving.move_cells_ms": _per_call(timed, "WindowMover.move_cells"),
        "core.moving.moves": _calls(timed, "APRSimulation.move_window"),
        "core.apr.measure_ms": _per_step(
            timed, "APRSimulation.window_hematocrit", steps),
        "core.apr.self_ms": _per_step(timed, "APRSimulation.step", steps),
        "core.health.ht_final": health.get("window_hematocrit", 0.0),
        "core.health.density_deviation": health.get(
            "window_density_deviation", 0.0),
        "core.health.interface_mismatch": health.get(
            "interface_velocity_mismatch", 0.0),
        "parallel.dist.serial8.step_ms": par.get("serial8_step_ms", 0.0),
        "parallel.dist.proc2.step_ms": par.get("proc2_step_ms", 0.0),
        "parallel.dist.bytes_per_step": par.get("bytes_per_step", 0.0),
        "parallel.dist.messages_per_step": par.get("messages_per_step", 0),
        "parallel.dist.speedup_vs_single": (
            untraced_p50_ms / par["proc2_step_ms"]
            if par.get("proc2_step_ms") else 0.0
        ),
        "io.checkpoint.save_ms": (
            sum(s for s, _ in saves) * 1e3 / len(saves) if saves else 0.0
        ),
        "io.checkpoint.load_ms": io.get("load_s", 0.0) * 1e3,
        "io.checkpoint.bytes": saves[-1][1] if saves else 0,
        "trace.overhead_frac": traced_p50 / untraced_p50_ms - 1.0,
        "trace.coverage": (
            sum(agg["self_s"] for agg in timed.values()) / step_wall_s
        ),
    }
