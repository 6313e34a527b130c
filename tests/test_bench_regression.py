"""The bench-regression watchdog: record flattening and diff verdicts."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_regression",
    Path(__file__).resolve().parents[1] / "benchmarks" / "regression.py",
)
reg = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reg)


def _artifact(phases, config=None, cpu_count=1, extra=None):
    doc = {
        "config": config or {"shape": [12, 12, 12], "steps": 10},
        "machine": {"cpu_count": cpu_count},
        "result": {
            "phase_ms_per_step": dict(phases),
            "total_ms_per_step": sum(phases.values()),
        },
    }
    if extra:
        doc.update(extra)
    return doc


BASE_PHASES = {"forces": 4.0, "spread": 2.0, "collide_stream": 4.0}


def test_collect_records_finds_nested_phase_dicts():
    doc = _artifact(BASE_PHASES, extra={
        "parallel": {
            "curves": {
                "threads": {"2": {"phase_ms_per_step": {"forces": 3.0}}}
            }
        }
    })
    recs = reg.collect_records(doc)
    assert set(recs) == {"result", "parallel/curves/threads/2"}
    assert recs["result"]["forces"] == 4.0


def test_collect_records_folds_scalar_ms_and_skips_baseline():
    doc = {
        "baseline": {"result": {"ms_per_step": 9.0}},  # frozen reference
        "result": {"curves": {"processes": {"2": {"ms_per_step": 5.0}}}},
    }
    recs = reg.collect_records(doc)
    assert recs == {"result/curves/processes/2": {"total": 5.0}}


def test_strict_mode_flags_large_slowdown():
    base = _artifact(BASE_PHASES)
    cur = _artifact({**BASE_PHASES, "forces": 7.0})  # 1.75x
    report = reg.compare(base, cur)
    assert report["mode"] == "strict"
    assert [r["phase"] for r in report["regressions"]] == ["forces"]
    assert report["regressions"][0]["ratio"] == pytest.approx(1.75)


def test_strict_mode_tolerates_noise_threshold():
    base = _artifact(BASE_PHASES)
    cur = _artifact({**BASE_PHASES, "forces": 5.0})  # 1.25x < 1.5x gate
    assert reg.compare(base, cur)["regressions"] == []


def test_strict_mode_ignores_tiny_absolute_regressions():
    base = _artifact({**BASE_PHASES, "tiny": 0.01})
    cur = _artifact({**BASE_PHASES, "tiny": 0.05})  # 5x but 0.04 ms
    assert reg.compare(base, cur)["regressions"] == []


def test_share_mode_on_machine_mismatch():
    base = _artifact(BASE_PHASES, cpu_count=1)
    # same config, 4-core machine, everything uniformly 3x faster: no flag
    cur = _artifact(
        {k: v / 3 for k, v in BASE_PHASES.items()}, cpu_count=4
    )
    report = reg.compare(base, cur)
    assert report["mode"] == "share"
    assert report["config_match"] is True
    assert report["regressions"] == []


def test_share_mode_flags_disproportionate_phase():
    base = _artifact(BASE_PHASES, cpu_count=1)
    # uniformly faster machine, but "spread" kept its absolute cost:
    # its share of the step balloons
    cur = _artifact(
        {"forces": 4.0 / 3, "spread": 2.0, "collide_stream": 4.0 / 3},
        cpu_count=4,
    )
    report = reg.compare(base, cur)
    flagged = [r["phase"] for r in report["regressions"]]
    assert flagged == ["spread"]
    assert report["regressions"][0]["share_delta"] > 0.1


def test_normalize_config_fills_defaults_and_drops_measurements():
    cfg = reg.normalize_config(
        {"shape": [12, 12, 12], "jit_compile_s": {"collide_bgk": 1.2}}
    )
    legacy_defaults = {
        "kernels": "numpy",
        "dtype": "float64",
        "halo_pack": False,
        "overlap": False,
        "weighted_split": False,
        "dims": None,
    }
    assert cfg == {"shape": [12, 12, 12], **legacy_defaults}
    assert reg.normalize_config(None) == legacy_defaults


def test_normalize_config_recurses_into_nested_workloads():
    """The scaling artifact nests the Fig. 8 workload under ``weak``; an
    old baseline without the new knobs must still match a new artifact
    recording them explicitly as their legacy values."""
    old = reg.normalize_config({"weak": {"block": [16, 16, 16]}})
    new = reg.normalize_config(
        {"weak": {"block": [16, 16, 16], "halo_pack": False,
                  "overlap": False}}
    )
    assert old == new
    packed = reg.normalize_config(
        {"weak": {"block": [16, 16, 16], "halo_pack": True}}
    )
    assert packed != old


def test_configs_match_across_artifact_generations():
    """An old artifact (jit_compile_s in config, no kernels/dtype keys)
    matches a new default-config artifact: the measurement key is dropped
    and the workload keys default."""
    old = _artifact(
        BASE_PHASES,
        config={"shape": [12, 12, 12], "steps": 10,
                "jit_compile_s": {"collide_bgk": 0.9}},
    )
    new = _artifact(
        BASE_PHASES,
        config={"shape": [12, 12, 12], "steps": 10,
                "kernels": "numpy", "dtype": "float64"},
    )
    assert reg.configs_match(old, new)


def test_configs_differ_on_dtype():
    a = _artifact(BASE_PHASES, config={"shape": [12, 12, 12],
                                       "dtype": "float64"})
    b = _artifact(BASE_PHASES, config={"shape": [12, 12, 12],
                                       "dtype": "float32"})
    assert not reg.configs_match(a, b)


def test_configs_differ_from_legacy_default_dtype():
    a = _artifact(BASE_PHASES, config={"shape": [12, 12, 12]})
    b = _artifact(BASE_PHASES, config={"shape": [12, 12, 12],
                                       "dtype": "float32"})
    assert not reg.configs_match(a, b)


def test_comm_volume_checked_exactly_when_config_matches():
    base = _artifact(BASE_PHASES, cpu_count=1, extra={
        "curves": {"2": {"ms_per_step": 3.0, "bytes_per_step": 1000.0,
                         "messages_per_step": 12.0}},
    })
    cur = _artifact(BASE_PHASES, cpu_count=4, extra={
        "curves": {"2": {"ms_per_step": 1.0, "bytes_per_step": 1100.0,
                         "messages_per_step": 12.0}},
    })
    report = reg.compare(base, cur)
    comm = [r for r in report["regressions"] if r["phase"] == "bytes_per_step"]
    assert len(comm) == 1
    assert comm[0]["current"] == 1100.0
    # messages unchanged -> not flagged
    assert all(
        r["phase"] != "messages_per_step" for r in report["regressions"]
    )


def test_comm_volume_skipped_across_configs():
    base = _artifact(BASE_PHASES, config={"shape": [24, 24, 24]}, extra={
        "curves": {"2": {"ms_per_step": 3.0, "bytes_per_step": 1000.0}},
    })
    cur = _artifact(BASE_PHASES, config={"shape": [12, 12, 12]}, extra={
        "curves": {"2": {"ms_per_step": 1.0, "bytes_per_step": 4000.0}},
    })
    report = reg.compare(base, cur)
    assert report["config_match"] is False
    assert report["comm_rows"] == []


def test_cli_exit_codes(tmp_path, capsys):
    base = _artifact(BASE_PHASES)
    ok = _artifact(BASE_PHASES)
    bad = _artifact({**BASE_PHASES, "forces": 40.0})
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "ok.json").write_text(json.dumps(ok))
    (tmp_path / "bad.json").write_text(json.dumps(bad))

    assert reg.main([
        "--baseline", str(tmp_path / "base.json"),
        "--current", str(tmp_path / "ok.json"),
    ]) == 0
    assert reg.main([
        "--baseline", str(tmp_path / "base.json"),
        "--current", str(tmp_path / "bad.json"),
        "--report", str(tmp_path / "report.json"),
    ]) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["regressions"]
    # record-only mode never fails the build
    assert reg.main([
        "--baseline", str(tmp_path / "base.json"),
        "--current", str(tmp_path / "bad.json"),
        "--no-fail",
    ]) == 0
    capsys.readouterr()


def test_cli_rejects_disjoint_artifacts(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(_artifact(BASE_PHASES)))
    (tmp_path / "b.json").write_text(json.dumps({"config": {}, "x": 1}))
    assert reg.main([
        "--baseline", str(tmp_path / "a.json"),
        "--current", str(tmp_path / "b.json"),
    ]) == 2
    capsys.readouterr()


def test_committed_baselines_self_diff_clean():
    """The in-repo artifacts must diff clean against themselves."""
    root = Path(__file__).resolve().parents[1]
    for name in (
        "BENCH_hotpaths.json",
        "BENCH_scaling.json",
        "BENCH_hotpaths_smoke.json",
        "BENCH_scaling_smoke.json",
    ):
        doc = json.loads((root / name).read_text())
        report = reg.compare(doc, doc)
        assert report["n_records_compared"] > 0, name
        assert report["regressions"] == [], name
