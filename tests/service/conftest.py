"""Fixtures for campaign-service tests.

``testjobs`` materializes a tiny experiment module on a temp PYTHONPATH
so worker *subprocesses* can import deliberately-crashing / gated /
checkpointing jobs through the ``python:module:function`` test seam.
"""

from __future__ import annotations

import time

import pytest

TESTJOBS_SRC = '''\
"""Synthetic campaign jobs for the service test-suite."""
import os
import time

import numpy as np


def run_ok(params, *, checkpointer=None):
    return {"ok": True, "seen_steps": params.get("steps"), "pid": os.getpid()}


def run_crash(params, *, checkpointer=None):
    raise RuntimeError("deliberate crash for testing")


def run_gated(params, *, checkpointer=None):
    """Checkpointing job that waits on a handshake instead of a clock.

    It counts to `steps`, saving a shard every `checkpointer.every`
    steps.  When it reaches step `hold` it creates `<gate>.held` and
    waits until `<gate>.release` exists, so a test acts on a job that is
    known to be mid-run rather than one that is probably still running.
    """
    steps = int(params["steps"])
    step_done = resumed_from = 0
    if checkpointer is not None:
        data = checkpointer.load()
        if data is not None:
            step_done = resumed_from = int(data["step"])
    while step_done < steps:
        if step_done == params.get("hold"):
            gate = params["gate"]
            open(gate + ".held", "w").close()
            deadline = time.monotonic() + 60.0
            while not os.path.exists(gate + ".release"):
                if time.monotonic() > deadline:
                    raise RuntimeError("gate never released")
                time.sleep(0.005)
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


@pytest.fixture(scope="module")
def testjobs(tmp_path_factory):
    """Importable module path usable as ``python:campaign_testjobs:<fn>``."""
    root = tmp_path_factory.mktemp("testjobs")
    (root / "campaign_testjobs.py").write_text(TESTJOBS_SRC)
    # Worker subprocesses inherit PYTHONPATH.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(root))
        yield "campaign_testjobs"


def wait_for(path, proc=None, timeout=60.0):
    """Block until ``path`` exists; fail early if ``proc`` exits first."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        if proc is not None and proc.poll() is not None:
            pytest.fail(f"campaign ended before {path.name} appeared")
        if time.monotonic() > deadline:
            pytest.fail(f"{path.name} never appeared")
        time.sleep(0.005)
