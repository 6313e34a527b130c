"""End-to-end APR benchmark: four product-path workloads, traced and untraced.

Two ways in, one implementation:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One measurement (the ``BENCHMARK.json`` command).  ``--trace 0`` runs
    the workload untraced in a fresh process, sets it up in a few more
    fresh processes, and prints the end-to-end metrics; ``--trace 1`` runs
    it once untraced and once traced and prints the per-layer metrics.
    The last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``.

``run.py --seed S [--workload W] [--repeat N] [--smoke] --out DIR``
    The whole benchmark: every workload (or ``W``) untraced ``N`` times
    (seeds ``S .. S+N-1``) and traced once, every metric printed by name
    with its unit, records and ``trace_<workload>.json`` kept in ``DIR``
    for ``compare.py``.  Exits non-zero when any check fails.

Every workload run is a fresh ``python`` subprocess (``worker.py``) with
all ``REPRO_*`` variables removed from its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostinfo  # noqa: E402
import layers  # noqa: E402
from workloads import BASE_SECONDS, WORKLOADS, steps_for  # noqa: E402

#: Steps of the decomposed-solver measurement at ``BASE_SECONDS``.
DIST_BASE_STEPS = 30
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    """The caller's environment without ``REPRO_*`` and with ``src`` on
    the path: every run resolves the program's default configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def spawn(work: Path, **options) -> dict:
    """Run ``worker.py`` in a fresh process and return its record."""
    out = work / "record.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workdir", str(work), "--out", str(out)]
    for key, value in options.items():
        command += [f"--{key.replace('_', '-')}", str(value)]
    # Its own session, so a timeout also stops the pool workers it started.
    proc = subprocess.Popen(command, env=worker_env(), cwd=work,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}: {' '.join(command)}")
    return json.loads(out.read_text())


def measurement(record: dict, metrics: dict, checks: list[dict],
                **extra) -> dict:
    """One measurement: metrics, the failure tally and the raw record.

    ``attempted`` is steps plus checks and ``failed`` the checks that
    failed: a driver that raises fails the whole command, so every step of
    a record that exists completed.
    """
    attempted = record["steps"] + len(checks)
    failed = sum(not c["ok"] for c in checks)
    return {
        "workload": record["workload"],
        "seed": record["seed"],
        "steps": record["steps"],
        "metrics": metrics,
        **extra,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "record": {**record, "checks": checks},
    }


def measure_untraced(name: str, seed: int, steps: int, work: Path,
                     setup_samples: int) -> dict:
    """One untraced measurement: the end-to-end metrics and their checks."""
    record = spawn(work, workload=name, seed=seed, steps=steps)
    setups = [record["setup_s"]] + [
        spawn(work, workload=name, seed=seed, setup_only=1)["setup_s"]
        for _ in range(setup_samples - 1)
    ]
    return measurement(
        record, layers.e2e_metrics(record, setups), record["checks"],
        samples=len(record["step_ms"]),
        tail_percentile=layers.tail_sample(record["step_ms"])[1],
        setup_samples=setups,
    )


def measure_traced(name: str, seed: int, steps: int, dist_steps: int,
                   work: Path, untraced: dict) -> dict:
    """One traced measurement, compared with the same-seed untraced run."""
    record = spawn(work, workload=name, seed=seed, steps=steps, traced=1,
                   dist_steps=dist_steps)
    same = record["result"] == untraced["result"]
    checks = record["checks"] + [{
        "name": "traced_equals_untraced",
        "ok": same,
        "detail": "same-seed run summary identical with and without the "
                  "wrappers" if same else
                  f"traced {record['result']} != untraced {untraced['result']}",
    }]
    metrics = layers.layer_metrics(
        record, statistics.median(untraced["step_ms"]))
    return measurement(record, metrics, checks)


def with_units(metrics: dict[str, float]) -> dict[str, dict]:
    return {
        name: {"value": value, "unit": layers.UNITS[name]}
        for name, value in metrics.items()
    }


def report(measurement: dict) -> None:
    """Print every metric of one measurement by name, with its unit."""
    kind = "traced" if measurement["record"]["traced"] else "untraced"
    print(f"\n== {measurement['workload']} seed={measurement['seed']} "
          f"steps={measurement['steps']} ({kind})")
    for name, value in measurement["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {layers.UNITS[name]}")
    if kind == "untraced":
        print(f"  step_ms_tail is p{measurement['tail_percentile']:.1f} of "
              f"{measurement['samples']} timed steps; setup_s is the lower "
              f"quartile of {len(measurement['setup_samples'])} fresh processes")
    else:
        timed = measurement["record"]["layers_timed"]
        wall = sum(measurement["record"]["step_ms"]) / 1e3
        print("  ranked self time of the timed steps (share of step wall):")
        for layer, agg in sorted(timed.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {100 * agg['self_s'] / wall:5.1f}%  {layer} "
                  f"({agg['calls']} calls)")
    kern = measurement["record"].get("kernels")
    if kern:
        print(f"  bulk_lbm f is {kern['f_bytes'] / 2**20:.0f} MiB; copy probe "
              f"arrays are {kern['array_bytes'] / 2**20:.0f} MiB each against "
              f"a {'reported' if kern['llc_reported'] else 'assumed'} last-level "
              f"cache of {kern['llc_bytes'] / 2**20:.0f} MiB")
    print(f"  {'fail_frac':40s} {measurement['fail_frac']:>16.6g} ratio "
          f"({measurement['failed']} of {measurement['attempted']})")
    for check in measurement["record"]["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}: "
              f"{check['detail']}")
    warned = measurement["record"]["warnings"]
    if warned:
        print(f"  warnings captured: {warned}")


def contract_main(args, work: Path) -> int:
    """One measurement; the result object is the last line printed."""
    steps = steps_for(args.workload, args.seconds)
    if args.trace:
        untraced = measure_untraced(args.workload, args.seed, steps, work, 1)
        report(untraced)
        measured = measure_traced(
            args.workload, args.seed, steps, dist_steps_for(args.seconds),
            work, untraced["record"])
        attempted = untraced["attempted"] + measured["attempted"]
        failed = untraced["failed"] + measured["failed"]
    else:
        measured = measure_untraced(args.workload, args.seed, steps, work,
                                    WORKLOADS[args.workload].setup_samples)
        attempted, failed = measured["attempted"], measured["failed"]
    report(measured)
    # The verdict travels in ``correct``; a printed result exits 0.
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(measured["metrics"]),
    }))
    return 0


def dist_steps_for(seconds: float) -> int:
    return max(2, round(DIST_BASE_STEPS * seconds / BASE_SECONDS))


def suite_main(args, work: Path) -> int:
    """Every workload untraced ``--repeat`` times and traced once."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    machine = hostinfo.fingerprint(ROOT)
    (out / "machine.json").write_text(json.dumps(machine, indent=1))
    names = [args.workload] if args.workload else list(WORKLOADS)
    failed = 0
    for name in names:
        steps = steps_for(name, args.seconds, smoke=args.smoke)
        first = None
        for i in range(args.repeat):
            m = measure_untraced(name, args.seed + i, steps, work,
                                 1 if args.smoke
                                 else WORKLOADS[name].setup_samples)
            first = first or m
            report(m)
            failed += m["failed"]
            (out / f"e2e_{name}_seed{m['seed']}.json").write_text(json.dumps(
                {**m, "metrics": with_units(m["metrics"]), "machine": machine},
                indent=1))
        dist_steps = 3 if args.smoke else dist_steps_for(args.seconds)
        m = measure_traced(name, args.seed, steps, dist_steps, work,
                           first["record"])
        report(m)
        failed += m["failed"]
        (out / f"layers_{name}.json").write_text(json.dumps(
            {**m, "metrics": with_units(m["metrics"]), "machine": machine},
            indent=1))
        shutil.copy(work / f"trace_{name}.json", out / f"trace_{name}.json")
    print(f"\n{failed} failed check(s); records in {out}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BASE_SECONDS,
                        help="sizes the fixed step count of every run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measurement; prints the result object last")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (seeds S..S+N-1)")
    parser.add_argument("--smoke", action="store_true",
                        help="<= 5 steps per workload, one set-up sample")
    parser.add_argument("--out", help="directory for records and traces")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    if args.trace is None and not args.out:
        parser.error("--out is required without --trace")

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace is not None:
            return contract_main(args, work)
        return suite_main(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
