"""No module is imported for the first time inside a timed interval.

A driver's set-up runs from its call to its first checkpoint save and
each step from one save to the next (the seam in
``repro.experiments.runseam``; the end-to-end benchmark times exactly
these intervals).  With package roots binding their names on first
access, an import that used to happen when ``repro`` was imported could
move into one of those intervals unnoticed; this test runs each product
driver at smoke size in a fresh interpreter, with a duck-typed
checkpointer that snapshots ``sys.modules`` at the call and at every
save, and requires every snapshot to equal the first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

CHANNEL = (
    "ChannelParams(radius_in=9e-6, radius_out=18e-6, z_expand=40e-6, "
    "taper=15e-6, length={length}, fine_spacing=1.5e-6, refinement=2, "
    "hematocrit=0.10, ctc_diameter=8e-6, ctc_radial_offset=3e-6, "
    "ctc_z0=18e-6, rbc_diameter=5.5e-6, rbc_subdivisions=1)"
)

#: driver -> (import line, call with ``checkpointer=probe``)
DRIVERS = {
    "shear_layers": (
        "from repro.experiments.shear_layers import run_shear_layers",
        "run_shear_layers(lam=0.5, n=2, ny_channel=12, nxz=4, steps=4, "
        "checkpointer=probe)",
    ),
    "tube_window": (
        "from repro.experiments.tube_window import run_tube_window",
        "run_tube_window(hematocrit=0.15, tube_diameter=28e-6, "
        "tube_length=56e-6, refinement=2, steps=3, rbc_subdivisions=1, "
        "checkpointer=probe)",
    ),
    "expanding_channel_apr": (
        "from repro.experiments.expanding_channel import ChannelParams, "
        "run_expanding_channel_apr",
        "run_expanding_channel_apr(seed=0, params="
        + CHANNEL.format(length="110e-6")
        + ", steps=3, sample_every=1, checkpointer=probe)",
    ),
    "expanding_channel_efsi": (
        "from repro.experiments.expanding_channel import ChannelParams, "
        "run_expanding_channel_efsi",
        "run_expanding_channel_efsi(seed=0, params="
        + CHANNEL.format(length="90e-6")
        + ", steps=3, sample_every=1, checkpointer=probe)",
    ),
}

PROBE = """
import json, sys, warnings
sys.path.insert(0, {src!r})
{imports}


class Probe:
    every = 1
    path = {path!r}

    def __init__(self):
        self.snapshots = [set(sys.modules)]

    def load(self):
        return None

    def save(self, **state):
        self.snapshots.append(set(sys.modules))

    def save_with(self, fn):
        self.snapshots.append(set(sys.modules))


with warnings.catch_warnings(record=True):
    warnings.simplefilter("always")
    probe = Probe()
    {call}
first = probe.snapshots[0]
print(json.dumps([sorted(s - first) for s in probe.snapshots[1:]]))
"""


@pytest.mark.slow
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_imports_nothing_new_once_timed(driver, tmp_path):
    imports, call = DRIVERS[driver]
    code = PROBE.format(src=str(SRC), imports=imports, call=call,
                        path=str(tmp_path / "checkpoint.npz"))
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, cwd=tmp_path,
    ).stdout
    new_by_save = json.loads(out.splitlines()[-1])
    assert len(new_by_save) >= 2, "driver saved fewer than twice"
    assert new_by_save[0] == [], f"first imported during set-up: {new_by_save[0]}"
    later = sorted(set().union(*new_by_save[1:]))
    assert later == [], f"first imported during a step: {later}"
