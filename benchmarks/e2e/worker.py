"""One workload run in one fresh process (spawned by ``run.py``).

Runs the workload's driver once, untraced or traced, checks its outputs
and writes one JSON record with the raw measurements: the set-up time,
the per-step wall times from the step clock, the peak RSS, the run
summary and its same-seed fingerprint, every check's outcome and — in
the traced run — the per-layer span aggregates and the measurements that
only exist there (physics health, bare kernels, the decomposed solver,
the copy-bandwidth probe).  Metrics are derived from this record by
``layers.py`` in the parent.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from stepclock import StepClock  # noqa: E402
from workloads import (  # noqa: E402
    BULK_TAU,
    WORKLOADS,
    bulk_grid,
    bulk_inputs,
    check_finite,
)

#: Ranks of the decomposed-solver measurement (ISSUE: same lattice, 8 ranks).
DIST_RANKS = 8
#: Bare-kernel repetitions; the median is reported.
KERNEL_REPEATS = 7


def counting_telemetry():
    """A null telemetry backend that keeps the program's counters.

    ``enabled`` stays ``False`` so no timing branch of the program is
    taken; only ``inc`` is overridden, which is how ``ibm.clipped_markers``
    and the ``cells.*``/``window.*`` counters are read in the traced run.
    """
    from repro.telemetry.backend import NullTelemetry

    class CountingTelemetry(NullTelemetry):
        def __init__(self) -> None:
            self.counts: dict[str, int] = {}

        def inc(self, name: str, n: int = 1) -> None:
            self.counts[name] = self.counts.get(name, 0) + n

    return CountingTelemetry()


def resolved_config() -> dict:
    """What the steppers the drivers build resolve to (no arguments are
    passed by the drivers, so these are the same calls with the same
    inputs)."""
    from repro.kernels import resolve_dtype, resolve_kernels
    from repro.parallel.fsi import resolve_fsi_backend

    backend, workers = resolve_fsi_backend(None, None)
    return {
        "fsi_backend": backend,
        "fsi_workers": workers,
        "kernels": resolve_kernels(None),
        "dtype": resolve_dtype(None).name,
    }


def final_state(clock: StepClock) -> tuple[dict, float]:
    """The run's final lattices and cells, and the checkpoint load time.

    APR drivers wrote a real checkpoint on the last step (read back with
    ``load_checkpoint``); the others handed live references to ``save``.
    """
    load_s = 0.0
    if clock.saves:
        from repro.io.checkpoint import load_checkpoint

        t0 = perf_counter()
        data = load_checkpoint(clock.path)
        load_s = perf_counter() - t0
    else:
        data = clock.final_state
    state = {
        "lattices": [data[k] for k in ("f_coarse", "f_fine") if k in data],
        "manager": data.get("manager"),
        "extra": data.get("extra", {}),
    }
    return state, load_s


def ghost_shell_nodes(grid) -> int:
    """Fluid nodes on the six faces of a fine window (computed)."""
    import numpy as np

    shell = np.zeros(grid.shape, dtype=bool)
    for axis in range(3):
        index = [slice(None)] * 3
        for face in (0, grid.shape[axis] - 1):
            index[axis] = face
            shell[tuple(index)] = True
    return int((shell & ~grid.solid).sum())


def bare_kernels(seed: int) -> dict:
    """Bare collide/stream calls and the host copy probe (``bulk_lbm``)."""
    import statistics

    from hostinfo import copy_bandwidth
    from repro.kernels import get_kernel_table
    from repro.lbm.collision import CollisionScratch

    grid = bulk_grid(*bulk_inputs(seed))
    table = get_kernel_table()
    scratch = CollisionScratch(grid.shape, dtype=grid.dtype)
    collide_s, stream_s = [], []
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        table["collide_bgk"](grid.f, grid.tau, grid.force, out=grid.f_post,
                             scratch=scratch)
        t1 = perf_counter()
        table["stream_pull"](grid.f_post, out=grid.f)
        t2 = perf_counter()
        collide_s.append(t1 - t0)
        stream_s.append(t2 - t1)
    sites = grid.f[0].size
    # collide reads f and force and writes f_post; stream reads f_post and
    # writes f.  Computed from array sizes, cache misses ignored.
    bytes_per_update = (4 * grid.f.nbytes + grid.force.nbytes) / sites
    collide = statistics.median(collide_s)
    stream = statistics.median(stream_s)
    host = copy_bandwidth()
    achieved_gbs = bytes_per_update * sites / (collide + stream) / 1e9
    return {
        "collide_bgk_ms": collide * 1e3,
        "stream_pull_ms": stream * 1e3,
        "bytes_per_update": bytes_per_update,
        "f_bytes": grid.f.nbytes,
        "achieved_gbs": achieved_gbs,
        "bw_frac": achieved_gbs / host["copy_gbs"],
        **host,
    }


def decomposed(seed: int, steps: int, reference) -> tuple[dict, list]:
    """Step the same problem with ``DistributedLBMSolver`` on 8 ranks.

    Returns the ``parallel.dist.*`` measurements and the bitwise check of
    ``gather()`` against the single-grid ``reference`` after ``steps``.
    """
    import os

    import numpy as np
    from repro.parallel.distributed import DistributedLBMSolver

    solid, rho, u = bulk_inputs(seed)
    f0 = bulk_grid(solid, rho, u).f
    fluid = ~solid
    out: dict = {}
    equal = True
    for key, backend, workers in (
        ("serial8", "serial", None),
        ("proc2", "processes", min(2, os.cpu_count() or 1)),
    ):
        with DistributedLBMSolver(
            f0.shape[1:], tau=BULK_TAU, n_tasks=DIST_RANKS, backend=backend,
            n_workers=workers, solid=solid,
        ) as dist:
            dist.scatter(f0)
            dist.step(1)  # first step pays pool start-up, like set-up
            dist.reset_counters()
            t0 = perf_counter()
            dist.step(steps - 1)
            out[f"{key}_step_ms"] = (perf_counter() - t0) * 1e3 / max(steps - 1, 1)
            out["bytes_per_step"] = dist.bytes_per_step()
            out["messages_per_step"] = dist.last_step_messages
            equal &= bool(np.array_equal(dist.gather()[:, fluid],
                                         reference[:, fluid]))
    check = ("bulk.decomposed_bitwise", equal,
             f"gather() vs single grid on fluid nodes after {steps} steps, "
             f"{DIST_RANKS} ranks, serial and processes")
    return out, [check]


def run_setup_only(args) -> dict:
    """Set the workload up and take its first step; nothing else."""
    clock = StepClock(1, Path(args.workdir) / "unused.npz")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        WORKLOADS[args.workload].drive(args.seed, 1, clock)
    return {"workload": args.workload, "seed": args.seed,
            "setup_s": clock.setup_s}


def traced_record(args, recorder, telemetry, clock, run_end: float) -> dict:
    """Span aggregates and counters of the driver call; writes the trace."""
    trace = {
        "workload": args.workload, "seed": args.seed, "steps": args.steps,
        "step_ends_ms": [(t - clock.starts[0]) * 1e3 for t in clock.ends],
        "spans": spans.to_json(recorder.spans, clock.starts[0]),
    }
    path = Path(args.workdir) / f"trace_{args.workload}.json"
    path.write_text(json.dumps(trace))
    return {
        "layers_timed": spans.aggregate(
            recorder.spans, since=clock.timed_from, until=run_end),
        "layers_all": spans.aggregate(recorder.spans, until=run_end),
        "counts": dict(recorder.counts),
        "telemetry_counts": dict(telemetry.counts),
    }


def run(args) -> dict:
    from repro.telemetry import set_telemetry

    workload = WORKLOADS[args.workload]
    steps = args.steps
    workdir = Path(args.workdir)
    recorder = telemetry = None
    if args.traced:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
        telemetry = counting_telemetry()
    set_telemetry(telemetry)  # None installs the NullTelemetry backend

    save_steps = ()
    if workload.saves_with:
        # One real checkpoint on the last step feeds the finite check; the
        # traced run writes a second one mid-run for io.checkpoint.save_ms.
        save_steps = {steps} | ({max(steps // 2, 1)} if args.traced else set())
    clock = StepClock(steps, workdir / "checkpoint.npz", save_steps)
    extra_args = {}
    snapshot = None
    if args.traced and args.workload == "bulk_lbm":
        snapshot = {"at": max(2, min(args.dist_steps, steps))}
        extra_args["snapshot"] = snapshot

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = workload.drive(args.seed, steps, clock, **extra_args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_end = perf_counter()

    state, load_s = final_state(clock)
    health = None
    record: dict = {}
    if recorder is not None:
        record = traced_record(args, recorder, telemetry, clock, run_end)
        sim = recorder.captured.get("apr")
        if sim is not None:
            from repro.core.diagnostics import health_report

            health = record["health"] = health_report(sim)
            record["ghost_nodes"] = ghost_shell_nodes(sim.fine.grid)
            record["cells_final"] = sim.cells.n_cells
        elif state["manager"] is not None:
            record["cells_final"] = state["manager"].n_cells

    checks = [check_finite(result, state)]
    checks += workload.check(result, state, steps, health)
    if snapshot is not None:
        record["kernels"] = bare_kernels(args.seed)
        record["parallel"], dist_checks = decomposed(
            args.seed, snapshot["at"], snapshot["f"])
        checks += dist_checks

    warned: dict[str, int] = {}
    for w in caught:
        warned[w.category.__name__] = warned.get(w.category.__name__, 0) + 1
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "steps": steps,
        "traced": bool(args.traced),
        "setup_s": clock.setup_s,
        "step_ms": clock.step_ms(),
        "peak_rss_mb": peak_rss_mb,
        "result": result,
        "checks": [
            {"name": name, "ok": bool(ok), "detail": detail}
            for name, ok, detail in checks
        ],
        "config": resolved_config(),
        "warnings": warned,
        "io": {"saves": clock.saves, "load_s": load_s},
    })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0,
                        help="one step, report only setup_s")
    parser.add_argument("--dist-steps", type=int, default=0,
                        help="steps of the decomposed-solver measurement")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True, help="record JSON to write")
    args = parser.parse_args(argv)
    record = run_setup_only(args) if args.setup_only else run(args)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
