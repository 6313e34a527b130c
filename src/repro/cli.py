"""Command-line interface: ``python -m repro <command>``.

Exposes the per-figure experiment drivers and capability models so a
downstream user can regenerate any paper artifact without writing code:

    python -m repro shear --lam 0.5 --ratio 5
    python -m repro tube --hematocrit 0.2 --steps 200
    python -m repro channel --method apr --steps 300
    python -m repro tables
    python -m repro scaling
    python -m repro profile tube --steps 50 --telemetry-dir out/
    python -m repro trace tube --steps 20 --out t.json
    python -m repro campaign run validation.toml --out out/validation
    python -m repro campaign status out/validation
    python -m repro campaign resume out/validation

``trace`` records one span per phase occurrence and exports a
Chrome-trace JSON loadable in Perfetto.
``campaign status`` reads the campaign's ledger and result files, so it
is current to the last job transition whether or not the campaign is
still running.

Experiment subcommands accept ``--telemetry-dir DIR`` to record phase
timings, metrics and events for the run (``events.jsonl`` +
``summary.json`` in DIR); ``profile`` is the dedicated wrapper that also
pretty-prints the per-phase breakdown.  See ``docs/observability.md``.
For recorded end-to-end timings run ``benchmarks/e2e/run.py``
(``benchmarks/e2e/README.md``).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_shear(args: argparse.Namespace) -> int:
    from .experiments.shear_layers import run_shear_layers

    r = run_shear_layers(
        lam=args.lam, n=args.ratio, ny_channel=args.ny, steps=args.steps
    )
    print(f"lambda={r.lam:.4f} n={r.n}: "
          f"bulk L2 error {r.error_bulk:.4f}, window L2 error {r.error_window:.4f}")
    if args.csv:
        from .io import write_csv

        write_csv(
            args.csv,
            ["y_m", "u_window"],
            zip(r.y_window.tolist(), r.u_window.tolist()),
        )
        print(f"wrote window profile to {args.csv}")
    return 0


def _cmd_tube(args: argparse.Namespace) -> int:
    from .experiments.tube_window import run_tube_window

    r = run_tube_window(hematocrit=args.hematocrit, steps=args.steps)
    print(f"target Ht {r.target_hematocrit:.2f}: final {r.hematocrit[-1]:.3f}")
    print(f"mu_eff {r.mu_effective * 1e3:.3f} cP vs Pries {r.mu_pries * 1e3:.3f} cP")
    print(f"cells {r.n_cells_final} (+{r.n_inserted}/-{r.n_removed})")
    return 0


def _cmd_channel(args: argparse.Namespace) -> int:
    from .analytics import radial_displacement
    from .experiments.expanding_channel import (
        run_expanding_channel_apr,
        run_expanding_channel_efsi,
    )

    runner = (
        run_expanding_channel_apr if args.method == "apr" else run_expanding_channel_efsi
    )
    r = runner(seed=args.seed, steps=args.steps)
    rad = radial_displacement(r.trajectory)
    print(f"{r.method}: {r.n_rbcs} RBCs, z {r.trajectory[0, 2] * 1e6:.1f} -> "
          f"{r.trajectory[-1, 2] * 1e6:.1f} um, "
          f"r {rad[0] * 1e6:.2f} -> {rad[-1] * 1e6:.2f} um")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .perfmodel import table2_fluid_volumes, table3_memory
    from .perfmodel.memory import apr_total_memory, efsi_total_memory

    t2 = table2_fluid_volumes()
    print("Table 2 (mL): window %.3e | bulk %.1f | eFSI %.3e" % (
        t2["apr_window_volume"] * 1e6,
        t2["apr_bulk_volume"] * 1e6,
        t2["efsi_volume"] * 1e6,
    ))
    t3 = table3_memory()
    print("Table 3: APR %.1f GB | eFSI %.2f PB" % (
        apr_total_memory(t3) / 1e9, efsi_total_memory(t3) / 1e15,
    ))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .perfmodel import strong_scaling_curve, weak_scaling_curve

    print("Fig. 7 strong scaling (speedup vs 32 nodes):")
    for n, d in strong_scaling_curve().items():
        print(f"  {n:4d}: {d['speedup']:.2f}")
    print("Fig. 8 weak scaling (efficiency vs 8 nodes):")
    for n, d in weak_scaling_curve().items():
        print(f"  {n:4d}: {d['efficiency_vs_baseline']:.3f}")
    return 0


def _run_instrumented_experiment(args: argparse.Namespace) -> None:
    """The shared experiment dispatch behind ``profile`` and ``trace``."""
    if args.experiment == "tube":
        from .experiments.tube_window import run_tube_window

        r = run_tube_window(hematocrit=args.hematocrit, steps=args.steps)
        print(f"tube: final Ht {r.hematocrit[-1]:.3f}, "
              f"cells {r.n_cells_final} (+{r.n_inserted}/-{r.n_removed})")
    elif args.experiment == "shear":
        from .experiments.shear_layers import run_shear_layers

        r = run_shear_layers(lam=args.lam, n=args.ratio, steps=args.steps)
        print(f"shear: bulk L2 error {r.error_bulk:.4f}, "
              f"window L2 error {r.error_window:.4f}")
    else:  # channel
        from .experiments.expanding_channel import run_expanding_channel_apr

        r = run_expanding_channel_apr(seed=args.seed, steps=args.steps)
        print(f"channel: {r.n_rbcs} RBCs, "
              f"z -> {r.trajectory[-1, 2] * 1e6:.1f} um")


def _sample_run_gauges(tel) -> None:
    """The process's peak resident set size so far (``ru_maxrss``, KiB
    on Linux) as the ``process.peak_rss_mb`` gauge, in MiB, and the
    lattice halves in use as ``lbm.halves``."""
    import resource

    from .lbm.halves import lattice_halves

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tel.sample("process.peak_rss_mb", peak_kib / 1024.0)
    tel.sample("lbm.halves", lattice_halves())


def _cmd_profile(args: argparse.Namespace) -> int:
    from .telemetry import Telemetry, active

    tel = Telemetry(
        out_dir=args.telemetry_dir,
        meta={"experiment": args.experiment, "steps": args.steps},
    )
    with tel, active(tel):
        tel.event("run_start", experiment=args.experiment, steps=args.steps)
        _run_instrumented_experiment(args)
        _sample_run_gauges(tel)
        tel.event("run_end")
        if args.telemetry_dir is not None:
            summary_path = tel.write_summary()
            print(f"wrote {tel.out_dir / 'events.jsonl'} and {summary_path}")
        print(tel.render_summary())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import Telemetry, active

    tel = Telemetry(
        out_dir=args.telemetry_dir,
        trace=True,
        meta={"experiment": args.experiment, "steps": args.steps},
    )
    with tel, active(tel):
        tel.event("run_start", experiment=args.experiment, steps=args.steps)
        _run_instrumented_experiment(args)
        tel.event("run_end")
        if args.telemetry_dir is not None:
            tel.write_summary()
    path = tel.write_trace(args.out)
    print(f"wrote {len(tel.tracer)} spans to {path}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "_worker":
        from .service.worker import main as worker_main

        return worker_main(
            ["--dir", args.dir, "--job", args.job, "--attempt",
             str(args.attempt)]
        )

    from .service import (
        CampaignRunner,
        build_report,
        load_manifest,
        render_report,
    )
    from .service.worker import MANIFEST_FILENAME, load_campaign_manifest

    if args.campaign_command == "run":
        try:
            manifest = load_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            # ``load_manifest`` puts the path in front of its messages.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = CampaignRunner(manifest, args.out).run()
        print(render_report(report))
        return 0 if report["counts"]["failed"] == 0 else 1

    # resume / status work on an existing campaign directory.
    from pathlib import Path

    if not (Path(args.dir) / MANIFEST_FILENAME).exists():
        print(f"error: {args.dir} has no {MANIFEST_FILENAME}; "
              "was this directory created by 'campaign run'?",
              file=sys.stderr)
        return 2
    try:
        manifest = load_campaign_manifest(args.dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.campaign_command == "resume":
        report = CampaignRunner(manifest, args.dir).run(resume=True)
        print(render_report(report))
        return 0 if report["counts"]["failed"] == 0 else 1
    # status: the ledger records every job transition as it happens, so
    # the report built from it is current for a running campaign too.
    print(render_report(build_report(args.dir)))
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    """Report the compute dtype of the lattice kernels and the lattice
    halves in use, each with its source."""
    import os

    from .kernels import DTYPE_ENV_VAR, resolve_dtype
    from .lbm.collision import PANEL
    from .lbm.halves import SPLIT_PANELS, affinity_cpus, lattice_halves

    env = os.environ.get(DTYPE_ENV_VAR)
    source = f"{DTYPE_ENV_VAR}={env}" if env else "default"
    print(f"compute dtype: {resolve_dtype().name} [{source}]")
    halves, cpus = lattice_halves(), affinity_cpus()
    line = (f"lattice halves: {halves} "
            f"[CPU affinity: {cpus} CPU{'s' * (cpus > 1)}]")
    if halves > 1:
        line += (f", for passes of >= {SPLIT_PANELS} panels "
                 f"({SPLIT_PANELS * PANEL:,} nodes)")
    print(line)
    return 0


def _add_telemetry_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="record phase timings/metrics/events to DIR "
             "(events.jsonl + summary.json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="APR blood-flow reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shear", help="Table 1 / Fig. 4 shear verification")
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--ratio", type=int, default=2)
    p.add_argument("--ny", type=int, default=12)
    p.add_argument("--steps", type=int, default=1500)
    p.add_argument("--csv", type=str, default=None)
    _add_telemetry_flag(p)
    p.set_defaults(func=_cmd_shear)

    p = sub.add_parser("tube", help="Fig. 5 hematocrit maintenance")
    p.add_argument("--hematocrit", type=float, default=0.2)
    p.add_argument("--steps", type=int, default=100)
    _add_telemetry_flag(p)
    p.set_defaults(func=_cmd_tube)

    p = sub.add_parser("channel", help="Fig. 6 expanding-channel trajectory")
    p.add_argument("--method", choices=("apr", "efsi"), default="apr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=100)
    _add_telemetry_flag(p)
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("tables", help="Tables 2-3 capability arithmetic")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("scaling", help="Figs. 7-8 scaling curves")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser(
        "profile",
        help="run an experiment under telemetry and print the phase breakdown",
    )
    p.add_argument("experiment", choices=("tube", "shear", "channel"))
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--hematocrit", type=float, default=0.2)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--ratio", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_telemetry_flag(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "trace",
        help="run an experiment with span tracing and export a "
             "Chrome-trace JSON timeline (Perfetto-loadable)",
    )
    p.add_argument("experiment", choices=("tube", "shear", "channel"))
    p.add_argument("--out", type=str, default="trace.json", metavar="FILE",
                   help="Chrome-trace output path (default: trace.json)")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--hematocrit", type=float, default=0.2)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--ratio", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    _add_telemetry_flag(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "kernels",
        help="report the compute dtype of the lattice kernels and "
             "where it was selected (REPRO_DTYPE or the default), and the "
             "lattice halves in use (from the CPU affinity)",
    )
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser(
        "campaign",
        help="schedule many simulations from a manifest "
             "(run / status / resume); see docs/campaign.md",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    pc = csub.add_parser("run", help="run a campaign from a manifest file")
    pc.add_argument("manifest", help="TOML or JSON campaign manifest")
    pc.add_argument("--out", required=True, metavar="DIR",
                    help="campaign output directory (ledger, jobs/, report)")
    pc.set_defaults(func=_cmd_campaign)

    pc = csub.add_parser(
        "status", help="summarize a campaign directory without running it"
    )
    pc.add_argument("dir", help="campaign directory from 'campaign run'")
    pc.set_defaults(func=_cmd_campaign)

    pc = csub.add_parser(
        "resume",
        help="continue an interrupted campaign: completed jobs are kept, "
             "the rest restart from their last checkpoint shard",
    )
    pc.add_argument("dir", help="campaign directory from 'campaign run'")
    pc.set_defaults(func=_cmd_campaign)

    # Internal: one-job worker subprocess launched by the scheduler.
    pc = csub.add_parser("_worker")
    pc.add_argument("--dir", required=True)
    pc.add_argument("--job", required=True)
    pc.add_argument("--attempt", type=int, default=1)
    pc.set_defaults(func=_cmd_campaign)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tdir = getattr(args, "telemetry_dir", None)
    if tdir is not None and args.command not in ("profile", "trace"):
        # Opt-in telemetry wrapper for the plain experiment subcommands;
        # ``profile``/``trace`` manage their own backend (and rendering).
        from .telemetry import Telemetry, active

        tel = Telemetry(out_dir=tdir, meta={"command": args.command})
        with tel, active(tel):
            tel.event("run_start", command=args.command)
            rc = args.func(args)
            tel.event("run_end", returncode=rc)
            summary_path = tel.write_summary()
            print(f"wrote {tel.out_dir / 'events.jsonl'} and {summary_path}")
        return rc
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
