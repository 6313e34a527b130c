"""Bench-regression watchdog: diff two benchmark JSON artifacts.

The recorded benchmarks (``BENCH_hotpaths.json``, ``BENCH_scaling.json``)
are trend data; this script turns a pair of them into a verdict.  It
flattens every timing record in each document — any nested dict carrying
a ``phase_ms_per_step`` breakdown or a bare ``ms_per_step`` scalar —
and compares per-phase trajectories between a *baseline* and a *current*
artifact in one of two modes:

* **strict** — configs and machine match (same lattice, steps, cpu
  count): per-phase wall-clock ratios are meaningful, so a phase is
  flagged when ``current / baseline`` exceeds ``1 + ratio_threshold``
  *and* the absolute growth clears ``min_ms`` (tiny phases jitter).
* **share** — configs differ (e.g. the committed 24-cube artifact vs a
  12-cube CI smoke run): absolute times are incomparable, but the
  *share* each phase takes of its record's total is scale-robust.  A
  phase is flagged when its share grows by more than
  ``share_threshold`` — the signature of one hot path regressing while
  the rest of the step scaled normally.

Exit codes: 0 clean, 2 usage/artifact error, 3 regressions flagged.
Usage::

    python benchmarks/regression.py \
        --baseline BENCH_hotpaths.json --current fresh.json \
        --report bench_regression.json [--no-fail]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Keys whose subtrees are never timing records of *this* run: scaling
#: artifacts embed their own frozen reference under ``baseline``.
SKIP_KEYS = frozenset({"baseline", "config", "machine"})

#: Strict mode: flag > +50% per-phase wall time (shared runners jitter).
DEFAULT_RATIO_THRESHOLD = 0.50
#: Strict mode: ignore regressions smaller than this many ms/step.
DEFAULT_MIN_MS = 0.25
#: Share mode: flag a phase whose share of the total grew > 10 points.
DEFAULT_SHARE_THRESHOLD = 0.10


# ----------------------------------------------------------------------
# Flattening benchmark documents into comparable records


def collect_records(doc, prefix: str = "") -> dict[str, dict[str, float]]:
    """``{record path: {phase: ms_per_step}}`` for every timing record.

    A record is any dict with a ``phase_ms_per_step`` breakdown (the
    hot-path artifacts) or a bare ``ms_per_step`` scalar (the scaling
    curves, folded in as a single ``total`` phase).  Paths are
    slash-joined dict keys, e.g. ``parallel/curves/processes/2``.
    """
    out: dict[str, dict[str, float]] = {}
    if isinstance(doc, dict):
        phases = doc.get("phase_ms_per_step")
        if isinstance(phases, dict) and phases:
            out[prefix or "."] = {
                str(k): float(v) for k, v in phases.items()
            }
        elif isinstance(doc.get("ms_per_step"), (int, float)):
            out[prefix or "."] = {"total": float(doc["ms_per_step"])}
        for key, child in doc.items():
            if key in SKIP_KEYS:
                continue
            sub = collect_records(
                child, f"{prefix}/{key}" if prefix else str(key)
            )
            out.update(sub)
    elif isinstance(doc, list):
        for i, child in enumerate(doc):
            out.update(collect_records(child, f"{prefix}/{i}"))
    return out


#: Machine-independent per-step quantities compared exactly whenever the
#: benchmark configs match: communication volume is set by the
#: decomposition, not the host, so any growth is an algorithmic change.
#: ``slabs_per_step`` (raw q-direction slab copies, pre-coalescing) is
#: absent from older artifacts and simply skipped there.
COMM_FIELDS = ("bytes_per_step", "messages_per_step", "slabs_per_step")


def collect_comm_records(doc, prefix: str = "") -> dict[str, dict[str, float]]:
    """``{record path: {field: value}}`` for communication counters."""
    out: dict[str, dict[str, float]] = {}
    if isinstance(doc, dict):
        fields = {
            f: float(doc[f])
            for f in COMM_FIELDS
            if isinstance(doc.get(f), (int, float))
        }
        if fields:
            out[prefix or "."] = fields
        for key, child in doc.items():
            if key in SKIP_KEYS:
                continue
            out.update(collect_comm_records(
                child, f"{prefix}/{key}" if prefix else str(key)
            ))
    elif isinstance(doc, list):
        for i, child in enumerate(doc):
            out.update(collect_comm_records(child, f"{prefix}/{i}"))
    return out


#: Config keys that are *measurements*, not workload parameters: older
#: hot-path artifacts stamped per-kernel JIT compile seconds into their
#: config, which made every warm/cold pair look like different workloads
#: (new artifacts no longer record the key; committed ones still do).
CONFIG_MEASUREMENT_KEYS = frozenset({"jit_compile_s"})

#: Workload keys absent from some artifacts, with the value those
#: artifacts implicitly ran under.  ``kernels`` is recorded only by the
#: artifacts written while a kernels-backend switch existed; every
#: artifact before and after it ran the one NumPy kernel set, so they
#: strict-compare against the committed ones that say ``numpy``.
#: Likewise a pre-packed-halo scaling baseline ran full-rim barriered
#: exchange on the surface-minimizing uniform decomposition.
CONFIG_DEFAULTS = {
    "kernels": "numpy",
    "dtype": "float64",
    "halo_pack": False,
    "overlap": False,
    "weighted_split": False,
    "dims": None,
}


def normalize_config(config: dict | None) -> dict:
    """Workload-identity view of a config dict.

    Defaults are filled and non-workload keys dropped, recursively —
    the scaling artifact nests the Fig. 8 workload under a ``weak``
    sub-dict, which needs the same legacy-default treatment so old
    committed baselines still strict-compare against artifacts that
    record the new knobs explicitly.
    """
    cfg = {}
    for k, v in (config or {}).items():
        if k in CONFIG_MEASUREMENT_KEYS:
            continue
        cfg[k] = normalize_config(v) if isinstance(v, dict) else v
    for key, default in CONFIG_DEFAULTS.items():
        cfg.setdefault(key, default)
    return cfg


def configs_match(baseline: dict, current: dict) -> bool:
    """True when the two artifacts measured the same workload.

    Compares normalized configs: the compute dtype participates in
    workload identity (a float32 run is *not* the same workload as the
    float64 reference), while recorded measurements like JIT compile
    times do not.
    """
    return normalize_config(baseline.get("config")) == normalize_config(
        current.get("config")
    )


def machines_match(baseline: dict, current: dict) -> bool:
    """True when absolute wall times are comparable across the pair."""
    return (
        baseline.get("machine", {}).get("cpu_count")
        == current.get("machine", {}).get("cpu_count")
    )


# ----------------------------------------------------------------------
# The diff


def compare(
    baseline: dict,
    current: dict,
    ratio_threshold: float = DEFAULT_RATIO_THRESHOLD,
    min_ms: float = DEFAULT_MIN_MS,
    share_threshold: float = DEFAULT_SHARE_THRESHOLD,
    comm_tolerance: float = 0.01,
) -> dict:
    """Diff two benchmark documents; returns the full report dict.

    Mode selection: **strict** per-phase wall-clock ratios need both the
    config and the machine to match; a matching config on a different
    machine still supports the scale-free **share** comparison, and a
    matching config always supports the exact communication-volume
    check.  With differing configs only timing shares are compared (a
    last resort — legitimate share shifts with workload size mean the
    caller should prefer a same-config baseline).

    The report carries every compared ``(record, phase)`` row with its
    numbers plus a ``flagged`` verdict, and a ``regressions`` list of
    just the flagged rows for quick reading.
    """
    same_config = configs_match(baseline, current)
    strict = same_config and machines_match(baseline, current)
    base_recs = collect_records(baseline)
    cur_recs = collect_records(current)
    shared = sorted(set(base_recs) & set(cur_recs))
    rows: list[dict] = []
    for path in shared:
        b_phases, c_phases = base_recs[path], cur_recs[path]
        b_total = sum(b_phases.values())
        c_total = sum(c_phases.values())
        for phase in sorted(set(b_phases) & set(c_phases)):
            b, c = b_phases[phase], c_phases[phase]
            row = {
                "record": path,
                "phase": phase,
                "baseline_ms": b,
                "current_ms": c,
            }
            if strict:
                ratio = c / b if b > 0 else float("inf")
                row["ratio"] = ratio
                row["flagged"] = bool(
                    ratio > 1.0 + ratio_threshold and (c - b) > min_ms
                )
            else:
                b_share = b / b_total if b_total > 0 else 0.0
                c_share = c / c_total if c_total > 0 else 0.0
                row["baseline_share"] = b_share
                row["current_share"] = c_share
                row["share_delta"] = c_share - b_share
                row["flagged"] = bool(
                    c_share - b_share > share_threshold and c > min_ms
                )
            rows.append(row)
    comm_rows: list[dict] = []
    if same_config:
        base_comm = collect_comm_records(baseline)
        cur_comm = collect_comm_records(current)
        for path in sorted(set(base_comm) & set(cur_comm)):
            for field in COMM_FIELDS:
                if field not in base_comm[path] or field not in cur_comm[path]:
                    continue
                b, c = base_comm[path][field], cur_comm[path][field]
                comm_rows.append({
                    "record": path,
                    "phase": field,
                    "baseline": b,
                    "current": c,
                    "flagged": bool(c > b * (1.0 + comm_tolerance)),
                })
    flagged = [r for r in rows if r["flagged"]]
    flagged += [r for r in comm_rows if r["flagged"]]
    return {
        "mode": "strict" if strict else "share",
        "config_match": same_config,
        "thresholds": {
            "ratio_threshold": ratio_threshold,
            "min_ms": min_ms,
            "share_threshold": share_threshold,
            "comm_tolerance": comm_tolerance,
        },
        "n_records_baseline": len(base_recs),
        "n_records_current": len(cur_recs),
        "n_records_compared": len(shared),
        "rows": rows,
        "comm_rows": comm_rows,
        "regressions": flagged,
    }


def render_report(report: dict) -> str:
    """Human-readable rendering of a :func:`compare` report."""
    lines = [
        "bench regression check [%s mode]: %d records compared, "
        "%d phase rows + %d comm rows, %d flagged"
        % (
            report["mode"],
            report["n_records_compared"],
            len(report["rows"]),
            len(report.get("comm_rows", [])),
            len(report["regressions"]),
        )
    ]
    for r in report["regressions"]:
        if "ratio" in r:
            detail = (
                f"{r['baseline_ms']:.3f} -> {r['current_ms']:.3f} ms/step "
                f"({r['ratio']:.2f}x)"
            )
        elif "share_delta" in r:
            detail = (
                f"share {r['baseline_share']:.1%} -> "
                f"{r['current_share']:.1%} "
                f"(+{r['share_delta']:.1%} of total)"
            )
        else:  # communication-volume row
            detail = f"{r['baseline']:.1f} -> {r['current']:.1f} per step"
        lines.append(f"  REGRESSION {r['record']} :: {r['phase']}  {detail}")
    if not report["regressions"]:
        lines.append("  no per-phase regressions beyond thresholds")
    return "\n".join(lines)


def write_report(report: dict, path: str | Path) -> Path:
    """Atomic JSON dump of the report (temp + ``os.replace``)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# CLI


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="committed reference artifact (BENCH_*.json)")
    ap.add_argument("--current", required=True,
                    help="freshly measured artifact to check")
    ap.add_argument("--report", default=None, metavar="FILE",
                    help="write the full diff report JSON here")
    ap.add_argument("--ratio-threshold", type=float,
                    default=DEFAULT_RATIO_THRESHOLD,
                    help="strict mode: flag phases slower than "
                         "(1 + this) x baseline")
    ap.add_argument("--min-ms", type=float, default=DEFAULT_MIN_MS,
                    help="ignore regressions below this many ms/step")
    ap.add_argument("--share-threshold", type=float,
                    default=DEFAULT_SHARE_THRESHOLD,
                    help="share mode: flag phases whose share of the "
                         "total grew more than this fraction")
    ap.add_argument("--no-fail", action="store_true",
                    help="always exit 0 (record-only mode)")
    args = ap.parse_args(argv)

    try:
        baseline = json.loads(Path(args.baseline).read_text())
        current = json.loads(Path(args.current).read_text())
    except (OSError, ValueError) as exc:
        print(f"error reading artifacts: {exc}", file=sys.stderr)
        return 2
    report = compare(
        baseline,
        current,
        ratio_threshold=args.ratio_threshold,
        min_ms=args.min_ms,
        share_threshold=args.share_threshold,
    )
    if report["n_records_compared"] == 0:
        print("error: artifacts share no timing records "
              "(wrong file pair?)", file=sys.stderr)
        return 2
    print(render_report(report))
    if args.report:
        path = write_report(report, args.report)
        print(f"wrote {path}")
    if report["regressions"] and not args.no_fail:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
