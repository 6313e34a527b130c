"""Campaign status while a campaign runs: the ledger is the status source.

The scheduler writes one fsync'd ledger line per job transition, so the
report folded from the ledger (``build_report``, what ``campaign status``
prints) is current to the last transition even mid-run.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading

from repro.service import (
    CampaignManifest,
    CampaignRunner,
    JobSpec,
    build_report,
)

from .conftest import wait_for


def _cli_status(camp) -> str:
    """``python -m repro campaign status`` in a fresh interpreter."""
    import repro

    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [src_root, env.get("PYTHONPATH")] if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "status", str(camp)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _row_status(text: str, job: str) -> str:
    match = re.search(rf"^\s+{job}\s+\S+\s+(\S+)", text, re.MULTILINE)
    assert match is not None, text
    return match.group(1)


def test_status_while_running_reads_the_ledger(tmp_path, testjobs):
    # j0 holds at its first step until the test releases it, so it is
    # queried while it runs; max_parallel = 1 keeps j1 waiting behind it.
    gate = tmp_path / "j0"
    manifest = CampaignManifest(
        name="live",
        max_parallel=1,
        jobs=[
            JobSpec(
                job_id="j0",
                experiment=f"python:{testjobs}:run_gated",
                params={"steps": 2, "hold": 0, "gate": str(gate)},
            ),
            JobSpec(
                job_id="j1",
                experiment=f"python:{testjobs}:run_gated",
                params={"steps": 2},
            ),
        ],
    )
    camp = tmp_path / "camp"
    runner = CampaignRunner(manifest, camp)
    result: dict = {}
    t = threading.Thread(target=lambda: result.update(runner.run()))
    t.start()
    try:
        wait_for(gate.with_name("j0.held"))
        jobs = build_report(camp)["jobs"]
        assert jobs["j0"]["status"] == "running"
        assert jobs["j1"]["status"] == "pending"
        text = _cli_status(camp)
        assert _row_status(text, "j0") == "running"
        assert _row_status(text, "j1") == "pending"
    finally:
        gate.with_name("j0.release").touch()
        t.join(timeout=60)
    assert not t.is_alive()
    assert result["counts"]["completed"] == 2

    jobs = build_report(camp)["jobs"]
    assert {j: jobs[j]["status"] for j in jobs} == {
        "j0": "completed", "j1": "completed",
    }
    text = _cli_status(camp)
    assert _row_status(text, "j0") == "completed"
    assert _row_status(text, "j1") == "completed"
