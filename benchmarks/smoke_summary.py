"""Markdown job-summary tables for one ``e2e/run.py --smoke`` output.

Five tables, one row (or block) per workload: the traced per-layer
metrics of the coupling and the layers around it, set-up time, tile
stamping work, the contact list, and peak memory.  Shared-runner
timings, so trend only.  Run from the repository root::

    python3 benchmarks/e2e/run.py --smoke --out e2e-smoke
    python3 benchmarks/smoke_summary.py e2e-smoke
"""

from __future__ import annotations

import glob
import json
import os
import sys

#: Set-up layers of the traced record, next to the untraced ``setup_s``.
SETUP_LAYERS = ("core.apr.init_ms", "core.seeding.tile_build_ms",
                "core.seeding.fill_window_ms", "core.refinement.init_fine_ms")

#: (column label, telemetry count): tile copies the stamps examined, the
#: candidates they yielded and what became of them, the cells window
#: moves filled, and the vertex pairs overlap resolution found.
STAMPING = (("copies examined", "seeding.tile_copies"),
            ("candidates", "seeding.candidates"),
            ("rejected by predicate", "seeding.rejected_predicate"),
            ("rejected by overlap", "seeding.rejected_overlap"),
            ("cells inserted", "cells.inserted"),
            ("cells filled by moves", "window.cells_filled"),
            ("overlap vertex pairs", "overlap.pairs"))

#: Pair-search rebuilds, candidate pairs examined and pairs inside the
#: cutoff, summed over steps.
CONTACT = ("fsi.contact.rebuilds", "fsi.contact.candidates",
           "fsi.contact.pairs")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _value(doc, name):
    metric = doc.get("metrics", {}).get(name)
    return "–" if metric is None else f"{metric['value']:.4g}"


def _coupling_layer(name):
    """The coupling and the layers it sits between; the window-move
    lines too, since every move re-runs the fill."""
    return (
        name.startswith(("core.refinement.", "core.moving."))
        or name in ("lbm.fine.step_ms", "membrane.forces_ms")
        or (name.startswith("ibm.") and name.endswith("_ms"))
    )


def main(out_dir: str) -> None:
    layers = [_load(p) for p in
              sorted(glob.glob(os.path.join(out_dir, "layers_*.json")))]

    print("### e2e smoke: traced per-layer metrics (shared runner, trend only)")
    for doc in layers:
        print(f"\n**{doc['workload']}** ({doc['steps']} steps)\n")
        print("| metric | value | unit |")
        print("|---|---:|---|")
        for name, metric in doc["metrics"].items():
            if _coupling_layer(name):
                print(f"| `{name}` | {metric['value']:.4g} | {metric['unit']} |")

    print("### e2e smoke: set-up (shared runner, trend only)\n")
    print("| workload | `setup_s` (s) | "
          + " | ".join(f"`{n}`" for n in SETUP_LAYERS) + " |")
    print("|---|---:|" + "---:|" * len(SETUP_LAYERS))
    for doc in layers:
        w = doc["workload"]
        e2e_path = os.path.join(out_dir, f"e2e_{w}_seed0.json")
        e2e = _load(e2e_path) if os.path.exists(e2e_path) else {}
        cells = [_value(e2e, "setup_s")] + [_value(doc, n) for n in SETUP_LAYERS]
        print(f"| {w} | " + " | ".join(cells) + " |")

    print("### e2e smoke: tile stamping (shared runner, trend only)\n")
    print("| workload | " + " | ".join(label for label, _ in STAMPING) + " |")
    print("|---|" + "---:|" * len(STAMPING))
    for doc in layers:
        tel = doc.get("record", {}).get("telemetry_counts", {})
        cells = [str(tel.get(name, 0)) for _, name in STAMPING]
        print(f"| {doc['workload']} | " + " | ".join(cells) + " |")

    print("### e2e smoke: contact list (shared runner, trend only)\n")
    print("| workload | steps | " + " | ".join(f"`{n}`" for n in CONTACT) + " |")
    print("|---|---:|" + "---:|" * len(CONTACT))
    for doc in layers:
        tel = doc.get("record", {}).get("telemetry_counts", {})
        cells = [str(doc.get("steps", "–"))] + [str(tel.get(n, 0)) for n in CONTACT]
        print(f"| {doc['workload']} | " + " | ".join(cells) + " |")

    print("### e2e smoke: memory per workload (shared runner, trend only)\n")
    print("| workload | `peak_rss_mb` (MiB) |")
    print("|---|---:|")
    for path in sorted(glob.glob(os.path.join(out_dir, "e2e_*_seed0.json"))):
        doc = _load(path)
        metric = doc.get("metrics", {}).get("peak_rss_mb")
        cell = "–" if metric is None else f"{metric['value']:.1f}"
        print(f"| {doc.get('workload', path)} | {cell} |")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: smoke_summary.py DIR")
    main(sys.argv[1])
