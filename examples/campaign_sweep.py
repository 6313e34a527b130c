#!/usr/bin/env python
"""Generate campaign manifests for `python -m repro campaign run`.

Two built-in shapes:

* default — a hematocrit x shear sweep (6 jobs, mixed experiments),
  the demo campaign from docs/campaign.md: checkpointed jobs, two at a
  time, retries enabled.  Kill it mid-flight and
  `python -m repro campaign resume <out>` finishes the remainder from
  the checkpoint shards;
* ``--smoke`` — the 3-job CI manifest: tiny step budgets, seconds of
  wall time.

The generator emits TOML (JSON with ``--json``) so the manifest stays a
reviewable artifact rather than an opaque pickle::

    python examples/campaign_sweep.py --out sweep.toml
    python -m repro campaign run sweep.toml --out out/sweep
    python -m repro campaign status out/sweep
"""

import argparse
import json
from pathlib import Path


def smoke_jobs() -> list[dict]:
    """Three tiny mixed-experiment jobs for CI."""
    return [
        {
            "id": "shear-smoke",
            "experiment": "shear_layers",
            "steps": 60,
            "checkpoint_every": 30,
            "params": {"lam": 0.5, "n": 2, "ny_channel": 9},
        },
        {
            "id": "tube-smoke",
            "experiment": "tube_window",
            "steps": 10,
            "params": {"hematocrit": 0.15},
        },
        {
            "id": "hotpath-smoke",
            "experiment": "hotpath",
            "steps": 5,
            "priority": 5,
            "params": {"shape": [10, 10, 10], "n_cells": 1, "warmup": 0},
        },
    ]


def sweep_jobs() -> list[dict]:
    """The 6-job demo campaign: mixed experiments, checkpointed."""
    jobs: list[dict] = []
    for ht in (0.10, 0.20):
        jobs.append(
            {
                "id": f"tube-ht{int(ht * 100):02d}",
                "experiment": "tube_window",
                "steps": 60,
                "checkpoint_every": 20,
                "params": {"hematocrit": ht},
            }
        )
    for lam in (0.25, 0.5):
        jobs.append(
            {
                "id": f"shear-lam{int(lam * 100):03d}",
                "experiment": "shear_layers",
                "steps": 600,
                "checkpoint_every": 200,
                "params": {"lam": lam, "n": 2, "ny_channel": 9},
            }
        )
    jobs.append(
        {
            "id": "channel-apr",
            "experiment": "expanding_channel",
            "steps": 60,
            "checkpoint_every": 20,
            "params": {"method": "apr"},
        }
    )
    jobs.append(
        {
            "id": "hotpath-probe",
            "experiment": "hotpath",
            "steps": 20,
            "checkpoint_every": 10,
            "priority": 5,  # cheap probe: admit it first
            "params": {"shape": [12, 12, 12], "n_cells": 2},
        }
    )
    return jobs


def build_doc(name: str, jobs: list[dict], max_parallel: int) -> dict:
    return {
        "name": name,
        "max_parallel": max_parallel,
        "retry_backoff_s": 0.5,
        "defaults": {
            "max_attempts": 2,
        },
        "jobs": jobs,
    }


def _toml_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, list):
        return "[" + ", ".join(_toml_value(x) for x in v) + "]"
    return json.dumps(v)


def to_toml(doc: dict) -> str:
    """Render the manifest dict as TOML (flat layout the loader reads)."""
    lines = [f"name = {_toml_value(doc['name'])}"]
    for key in ("max_parallel", "retry_backoff_s"):
        if key in doc:
            lines.append(f"{key} = {_toml_value(doc[key])}")
    if doc.get("defaults"):
        lines.append("")
        lines.append("[defaults]")
        for k, v in doc["defaults"].items():
            lines.append(f"{k} = {_toml_value(v)}")
    for job in doc["jobs"]:
        lines.append("")
        lines.append("[[jobs]]")
        for k, v in job.items():
            if k == "params":
                continue
            lines.append(f"{k} = {_toml_value(v)}")
        if job.get("params"):
            lines.append("[jobs.params]")
            for k, v in job["params"].items():
                lines.append(f"{k} = {_toml_value(v)}")
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="emit the 3-job CI smoke manifest instead of the full sweep",
    )
    parser.add_argument(
        "--max-parallel", type=int, default=2,
        help="concurrent jobs the scheduler may run (default 2)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of TOML"
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output file (default: print to stdout)",
    )
    args = parser.parse_args()

    if args.smoke:
        doc = build_doc("ci-smoke", smoke_jobs(), args.max_parallel)
    else:
        doc = build_doc("apr-sweep", sweep_jobs(), args.max_parallel)

    text = (
        json.dumps(doc, indent=2) + "\n" if args.json else to_toml(doc)
    )

    # validate eagerly so a generator bug never ships a broken manifest
    from repro.service.manifest import manifest_from_dict

    manifest_from_dict(doc)

    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text)
        n = len(doc["jobs"])
        print(f"wrote {args.out} ({doc['name']}: {n} jobs, "
              f"max_parallel={doc['max_parallel']})")
        print(f"run it:    python -m repro campaign run {args.out} "
              f"--out out/{doc['name']}")
        print(f"watch it:  python -m repro campaign status out/{doc['name']}")


if __name__ == "__main__":
    main()
