"""Fixtures for campaign-service tests.

``testjobs`` materializes a tiny experiment module on a temp PYTHONPATH
so worker *subprocesses* can import deliberately-crashing / slow /
checkpointing jobs through the ``python:module:function`` escape hatch.
"""

from __future__ import annotations

import pytest

TESTJOBS_SRC = '''\
"""Synthetic campaign jobs for the service test-suite."""
import os
import time

import numpy as np


def run_ok(params, *, checkpointer=None):
    return {"ok": True, "seen_steps": params.get("steps")}


def run_crash(params, *, checkpointer=None):
    raise RuntimeError("deliberate crash for testing")


def run_env_probe(params, *, checkpointer=None):
    return {
        "backend": os.environ.get("REPRO_PARALLEL_BACKEND"),
        "workers": os.environ.get("REPRO_PARALLEL_WORKERS"),
        "pid": os.getpid(),
    }


def run_slow(params, *, checkpointer=None):
    """Checkpointing sleeper: `steps` ticks of `dt` seconds each."""
    steps = int(params.get("steps", 50))
    dt = float(params.get("dt", 0.02))
    step_done = 0
    resumed_from = 0
    if checkpointer is not None:
        data = checkpointer.load()
        if data is not None:
            step_done = resumed_from = int(data["step"])
    while step_done < steps:
        time.sleep(dt)
        step_done += 1
        if (
            checkpointer is not None
            and checkpointer.every > 0
            and step_done % checkpointer.every == 0
        ):
            checkpointer.save(step=step_done, f_coarse=np.zeros(1))
    return {"steps": steps, "resumed_from": resumed_from}


def run_crash_once(params, *, checkpointer=None):
    """Fails on the first attempt, succeeds after (via a marker file)."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("first attempt always fails")
    return {"recovered": True}
'''


@pytest.fixture()
def testjobs(tmp_path_factory, monkeypatch):
    """Importable module path usable as ``python:campaign_testjobs:<fn>``."""
    root = tmp_path_factory.mktemp("testjobs")
    (root / "campaign_testjobs.py").write_text(TESTJOBS_SRC)
    # Worker subprocesses inherit PYTHONPATH.
    monkeypatch.setenv("PYTHONPATH", str(root))
    return "campaign_testjobs"
