#!/usr/bin/env python
"""Generate the validation campaign's manifest for `python -m repro campaign`.

One job list, E1-E3 at the budgets the long-horizon validation needs:

* E1 ``shear_layers`` at Table 1's contrasts (lambda = 1/2, 1/3, 1/4)
  and ratios n = 2, 5, at the scale of
  ``benchmarks/bench_table1_fig4_shear.py`` (12-node channel, 1,500
  steps);
* E2 ``tube_window`` at Ht 0.10 / 0.20 / 0.30 for 18,000 coarse steps:
  three window transits of about 6,100 coarse steps each;
* E3 ``expanding_channel``, APR arm for 1,500 coarse steps and eFSI arm
  for 3,000 fine steps (the same physical time: dt_coarse = 2 dt_fine).
  The APR budget is measured, not estimated: with this job's derived
  seed (campaign "validation", job "e3-channel-apr") the window moved at
  coarse steps 526, 818, 1119 and 1431, so 1,500 steps cover three
  moves with a fourth as margin.

Every job saves a checkpoint shard every 500 steps, so a kill costs at
most 500 steps of any job.  ``--smoke`` emits the same jobs with budgets
of a few steps each (and a shard every two steps), which is what CI
runs::

    python examples/campaign_sweep.py --out validation.toml
    python -m repro campaign run validation.toml --out out/validation
    python -m repro campaign status out/validation
    python -m repro campaign resume out/validation   # after a kill
"""

import argparse
import json
from pathlib import Path

#: E1: (lambda, n) pairs of Table 1 that the shear benchmark runs.
SHEAR_CASES = [(lam, n) for n in (2, 5) for lam in (0.5, 1.0 / 3.0, 0.25)]
TUBE_HEMATOCRITS = (0.10, 0.20, 0.30)


def validation_jobs(smoke: bool = False) -> list[dict]:
    """The validation campaign's jobs; ``smoke`` cuts every budget to 4."""
    jobs = []
    for lam, n in SHEAR_CASES:
        jobs.append({
            "id": f"e1-shear-lam{round(lam * 100):03d}-n{n}",
            "experiment": "shear_layers",
            "steps": 1500,
            "params": {"lam": lam, "n": n, "ny_channel": 12, "nxz": 4},
        })
    for ht in TUBE_HEMATOCRITS:
        jobs.append({
            "id": f"e2-tube-ht{round(ht * 100):02d}",
            "experiment": "tube_window",
            "steps": 18000,
            "params": {"hematocrit": ht},
        })
    for method, steps in (("apr", 1500), ("efsi", 3000)):
        jobs.append({
            "id": f"e3-channel-{method}",
            "experiment": "expanding_channel",
            "steps": steps,
            "params": {"method": method},
        })
    if smoke:
        for job in jobs:
            job["steps"] = 4
    return jobs


def _toml_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    return json.dumps(v)


def to_toml(doc: dict) -> str:
    """Render the manifest dict as TOML (flat layout the loader reads)."""
    lines = [f"name = {_toml_value(doc['name'])}",
             f"max_parallel = {doc['max_parallel']}",
             "", "[defaults]"]
    lines += [f"{k} = {_toml_value(v)}" for k, v in doc["defaults"].items()]
    for job in doc["jobs"]:
        lines += ["", "[[jobs]]"]
        lines += [f"{k} = {_toml_value(v)}" for k, v in job.items()
                  if k != "params"]
        lines.append("[jobs.params]")
        lines += [f"{k} = {_toml_value(v)}" for k, v in job["params"].items()]
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="the same jobs with budgets of a few steps each (CI)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output file (default: print to stdout)",
    )
    args = parser.parse_args()

    # One CPU per job on the 2-CPU host the campaign is sized for.
    doc = {"name": "validation", "max_parallel": 2,
           "defaults": {"checkpoint_every": 2 if args.smoke else 500},
           "jobs": validation_jobs(smoke=args.smoke)}
    text = to_toml(doc)

    # validate eagerly so a generator bug never ships a broken manifest
    from repro.service.manifest import manifest_from_dict

    manifest_from_dict(doc)

    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text)
        out_dir = "out/validation" + ("-smoke" if args.smoke else "")
        print(f"wrote {args.out} ({len(doc['jobs'])} jobs, "
              f"max_parallel={doc['max_parallel']})")
        print(f"run it:    python -m repro campaign run {args.out} "
              f"--out {out_dir}")
        print(f"watch it:  python -m repro campaign status {out_dir}")


if __name__ == "__main__":
    main()
