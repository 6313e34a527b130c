"""Compare two sets of untraced runs: ``compare.py A/ B/``.

``A`` is the base (the parent commit, or the first of two sets of the
same commit), ``B`` the change.  Each directory holds the
``e2e_<workload>_seed<S>.json`` records ``run.py --repeat N --out DIR``
writes.  For every workload x end-to-end metric the table gives both
medians, how much worse ``B`` is as a share of ``A``'s median, the
metric's bound and a verdict:

``ok``          ``B``'s median is no worse than ``A``'s by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  the run-to-run spread (interquartile range over median, the
                wider of the two sets) exceeds the bound, so the sets cannot
                tell — unless every run of ``B`` reads better than every run
                of ``A``, which is ``ok``

Exits 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import END_TO_END  # noqa: E402


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of one result directory."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("e2e_*.json")):
        record = json.loads(path.read_text())
        metrics = out.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """One row: medians, worsening as a share of ``a``'s median, verdict."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    wide = max(spread(a), spread(b))
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if wide > bound and not all_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    else:
        status = "ok"
    return {"median_a": med_a, "median_b": med_b, "worse_by": worse_by,
            "spread": wide, "bound": bound, "status": status}


def compare(dir_a: Path, dir_b: Path) -> list[dict]:
    a, b = load(dir_a), load(dir_b)
    rows = []
    for workload in a:
        if workload not in b:
            continue
        for name, unit, better, bound in END_TO_END:
            row = verdict(a[workload][name], b[workload][name], better, bound)
            rows.append({"workload": workload, "metric": name, "unit": unit,
                         "runs_a": len(a[workload][name]),
                         "runs_b": len(b[workload][name]), **row})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    if not rows:
        print("no workload has records in both directories", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':13s} {'median A':>11s} {'median B':>11s} "
          f"{'unit':5s} {'B worse by':>21s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        base = f"{100 * r['worse_by']:+.1f}% of {r['median_a']:.4g}"
        print(f"{r['workload']:14s} {r['metric']:13s} {r['median_a']:11.4f} "
              f"{r['median_b']:11.4f} {r['unit']:5s} {base:>21s} "
              f"{100 * r['spread']:6.1f}% {100 * r['bound']:5.0f}%  "
              f"{r['status']} (n={r['runs_a']}/{r['runs_b']})")
    bad = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows) - len(bad)} ok, {len(bad)} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
