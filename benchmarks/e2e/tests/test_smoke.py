"""The commands end to end, in subprocesses, at smoke size."""

import json
import re
import shutil
import subprocess
import sys

import pytest
from conftest import E2E, ROOT

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--seed", "3",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return out, proc.stdout


def test_smoke_emits_exactly_the_declared_names(bench, smoke_dir):
    out, stdout = smoke_dir
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for workload in (w["name"] for w in bench["workloads"]):
        assert NAME.match(workload)
        untraced = json.loads((out / f"e2e_{workload}_seed3.json").read_text())
        traced = json.loads((out / f"layers_{workload}.json").read_text())
        assert list(untraced["metrics"]) == e2e
        assert list(traced["metrics"]) == per_layer
        for name, entry in {**untraced["metrics"], **traced["metrics"]}.items():
            assert NAME.match(name)
            assert entry["unit"] and isinstance(entry["value"], (int, float))
            assert f"  {name} " in stdout  # printed by name
        assert untraced["steps"] <= 5 and untraced["failed"] == 0
        assert traced["failed"] == 0
        # resolved default configuration and the machine travel with the record
        assert untraced["record"]["config"] == {
            "fsi_backend": "serial", "fsi_workers": 1,
            "kernels": "numpy", "dtype": "float64"}
        assert untraced["machine"]["nproc"] >= 1
        trace = json.loads((out / f"trace_{workload}.json").read_text())
        assert trace["spans"] and {"name", "start_ms", "end_ms", "parent"} <= set(
            trace["spans"][0])
    assert not list((E2E / ".work").glob("*"))  # scratch is removed


def test_layers_a_workload_never_calls_report_zero(smoke_dir):
    out, _ = smoke_dir
    for workload in ("channel_efsi", "bulk_lbm"):
        m = json.loads((out / f"layers_{workload}.json").read_text())["metrics"]
        for name in ("core.refinement.self_ms", "core.refinement.init_fine_calls",
                     "core.seeding.maintain_calls", "core.moving.moves",
                     "core.moving.move_ms", "core.apr.init_ms"):
            assert m[name]["value"] == 0
    bulk = json.loads((out / "layers_bulk_lbm.json").read_text())["metrics"]
    assert bulk["membrane.forces_ms"]["value"] == 0
    assert bulk["parallel.dist.messages_per_step"]["value"] > 0
    assert bulk["kernels.bytes_per_update_computed"]["value"] == 632.0


def test_one_measurement_prints_the_result_object_last(bench):
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "bulk_lbm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for m in bench["end_to_end"]:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and entry["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and the benchmark's own files:
    non-zero exit, no result object."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bulk_lbm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
