"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out and "Table 3" in out
    assert "41.0" in out


def test_scaling_command(capsys):
    assert main(["scaling"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 7" in out and "Fig. 8" in out
    assert "512" in out


@pytest.mark.parametrize("argv", [
    ["--halo-pack"], ["--overlap"], ["--backend", "threads"],
    ["--halo-mode", "recompute"], ["--weighted-split"], ["--dims", "4x1x1"],
    # the measured path went with it: ``scaling`` prints only the model
    ["--measured"], ["--backend", "processes"], ["--workers", "2"],
    ["--shape", "8", "8", "8"], ["--tasks", "2"], ["--steps", "2"],
])
def test_scaling_rejects_removed_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scaling", *argv])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.slow
def test_shear_command(tmp_path, capsys):
    csv = tmp_path / "profile.csv"
    assert main(["shear", "--lam", "0.5", "--ratio", "2",
                 "--ny", "12", "--steps", "300", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "bulk L2 error" in out
    assert csv.exists()
    from repro.io import read_csv

    header, data = read_csv(csv)
    assert header == ["y_m", "u_window"]
    assert len(data) > 0


def test_kernels_command(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_DTYPE", raising=False)
    assert main(["kernels"]) == 0
    assert "compute dtype: float64 [default]" in capsys.readouterr().out
    monkeypatch.setenv("REPRO_DTYPE", "float32")
    assert main(["kernels"]) == 0
    assert "compute dtype: float32 [REPRO_DTYPE=float32]" in (
        capsys.readouterr().out
    )


def test_kernels_command_reports_lattice_halves_and_affinity(capsys):
    from repro.lbm.halves import affinity_cpus, lattice_halves

    assert main(["kernels"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith(f"lattice halves: {lattice_halves()} "
                           f"[CPU affinity: {affinity_cpus()} CPU")


@pytest.mark.parametrize("argv", [
    ["kernels", "--kernels", "numpy"], ["kernels", "--warmup"],
    ["shear", "--kernels", "numpy"], ["tube", "--kernels", "numpy"],
    ["channel", "--kernels", "numpy"],
    ["profile", "shear", "--kernels", "numpy"],
    ["trace", "shear", "--kernels", "numpy"],
])
def test_removed_kernels_flags_are_rejected(argv):
    """No parser takes ``--kernels`` any more (there is one kernel set)."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["profile", "tube", "--backend", "processes"],
    ["profile", "tube", "--workers", "2"],
    ["trace", "tube", "--backend", "serial"],
    ["trace", "tube", "--workers", "1"],
])
def test_removed_fsi_pool_flags_are_rejected(argv):
    """``profile`` / ``trace`` have no backend to pick (the FSI process
    pool was removed)."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_shear_defaults_parse():
    args = build_parser().parse_args(["shear"])
    assert args.lam == 0.5
    assert args.ratio == 2


# -- smoke tests: every subcommand runs a minimal configuration ---------


def test_shear_smoke(capsys):
    assert main(["shear", "--steps", "30"]) == 0
    assert "bulk L2 error" in capsys.readouterr().out


def test_tube_smoke(capsys):
    assert main(["tube", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "target Ht" in out and "cells" in out


def test_channel_smoke(capsys):
    assert main(["channel", "--method", "apr", "--steps", "4"]) == 0
    assert "RBCs" in capsys.readouterr().out


def test_profile_smoke(capsys):
    assert main(["profile", "shear", "--steps", "20"]) == 0
    out = capsys.readouterr().out
    assert "telemetry summary" in out
    assert "coarse" in out and "fine" in out


def test_profile_writes_telemetry_artifacts(tmp_path, capsys):
    import json

    from repro.telemetry import read_events

    out_dir = tmp_path / "out"
    assert main(["profile", "tube", "--steps", "2",
                 "--telemetry-dir", str(out_dir)]) == 0
    events = read_events(out_dir / "events.jsonl")
    types = [e["type"] for e in events]
    assert types[0] == "run_start" and types[-1] == "run_end"
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["meta"]["experiment"] == "tube"
    assert summary["phases"]["step"]["count"] == 2
    # Acceptance bar: instrumented sub-phases sum to within 10% of the
    # total step wall time.
    assert summary["phase_coverage"]["step"] >= 0.9
    assert summary["counters"]["cells.inserted"]["value"] > 0
    # The process's peak RSS, sampled once at run end, in both outputs.
    peak = summary["gauges"]["process.peak_rss_mb"]
    assert peak["n_samples"] == 1 and peak["value"] > 0
    # The lattice halves in use, likewise.
    from repro.lbm.halves import lattice_halves

    assert summary["gauges"]["lbm.halves"]["value"] == lattice_halves()
    out = capsys.readouterr().out
    assert "process.peak_rss_mb" in out and "lbm.halves" in out


def test_telemetry_dir_flag_on_plain_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    assert main(["shear", "--steps", "20",
                 "--telemetry-dir", str(out_dir)]) == 0
    assert (out_dir / "events.jsonl").exists()
    assert (out_dir / "summary.json").exists()


def test_telemetry_uninstalled_after_run(tmp_path):
    from repro.telemetry import NullTelemetry, get_telemetry

    main(["shear", "--steps", "20", "--telemetry-dir", str(tmp_path / "t")])
    assert isinstance(get_telemetry(), NullTelemetry)


def test_trace_command_writes_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    assert main(["trace", "shear", "--steps", "10",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "spans" in stdout
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    names = {e["name"] for e in events}
    assert "fine" in names and "coarse" in names
    assert any(n.startswith("fine/kernels/") for n in names)


# ----------------------------------------------------------------------
# Campaign subcommands (the service layer has its own deeper suite).


def _write_campaign_manifest(tmp_path):
    manifest = tmp_path / "campaign.toml"
    manifest.write_text(
        'name = "cli-smoke"\n'
        "max_parallel = 2\n"
        "\n"
        "[[jobs]]\n"
        'id = "hot"\n'
        'experiment = "shear_layers"\n'
        "steps = 3\n"
        "[jobs.params]\n"
        "n = 2\n"
        "ny_channel = 9\n"
        "nxz = 4\n"
    )
    return manifest


def test_campaign_run_and_status(tmp_path, capsys):
    manifest = _write_campaign_manifest(tmp_path)
    out = tmp_path / "camp"
    assert main(["campaign", "run", str(manifest), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "cli-smoke" in text
    assert "1/1 completed" in text
    assert (out / "ledger.jsonl").exists()
    assert (out / "report.json").exists()

    assert main(["campaign", "status", str(out)]) == 0
    status_text = capsys.readouterr().out
    assert "completed" in status_text


def test_campaign_resume_on_finished_campaign(tmp_path, capsys):
    manifest = _write_campaign_manifest(tmp_path)
    out = tmp_path / "camp"
    assert main(["campaign", "run", str(manifest), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["campaign", "resume", str(out)]) == 0
    assert "1/1 completed" in capsys.readouterr().out


def test_campaign_resume_rejects_non_campaign_dir(tmp_path, capsys):
    assert main(["campaign", "resume", str(tmp_path)]) == 2
    assert "manifest" in capsys.readouterr().err


def test_campaign_status_rejects_non_campaign_dir(tmp_path, capsys):
    assert main(["campaign", "status", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err
    assert err.count("\n") == 1  # one line, no traceback


#: ``manifest.json`` as ``campaign run`` persisted it before inline
#: isolation was removed: every job carries ``"isolation": "process"``
#: and the scheduling knobs that are constants now.
LEGACY_MANIFEST_JSON = """\
{
  "jobs": [
    {
      "backend": null,
      "checkpoint_every": 0,
      "experiment": "shear_layers",
      "isolation": "process",
      "job_id": "hot",
      "max_attempts": 1,
      "params": {
        "n": 2
      },
      "priority": 0,
      "seed": null,
      "steps": 3,
      "timeout_s": null,
      "workers": null
    }
  ],
  "max_parallel": 2,
  "name": "cli-smoke",
  "retry_backoff_s": 0.5
}
"""


def _assert_rejected_unread(camp, capsys, *keys):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {camp / 'manifest.json'}: ")
    assert "unknown key" in err
    for key in keys:
        assert f"'{key}'" in err
    assert err.count("\n") == 1  # one line, no traceback
    assert not (camp / "ledger.jsonl").exists()  # nothing was run


def test_campaign_dir_from_older_release_is_rejected(tmp_path, capsys):
    camp = tmp_path / "camp"
    camp.mkdir()
    (camp / "manifest.json").write_text(LEGACY_MANIFEST_JSON)
    for command in ("status", "resume"):
        assert main(["campaign", command, str(camp)]) == 2
        _assert_rejected_unread(camp, capsys, "retry_backoff_s")


@pytest.mark.parametrize("command", ["resume", "status"])
def test_campaign_dir_with_inline_isolation_is_rejected(
    tmp_path, capsys, command
):
    camp = tmp_path / "camp"
    camp.mkdir()
    legacy = json.loads(LEGACY_MANIFEST_JSON.replace('"process"', '"inline"'))
    del legacy["retry_backoff_s"]
    (camp / "manifest.json").write_text(json.dumps(legacy))
    assert main(["campaign", command, str(camp)]) == 2
    _assert_rejected_unread(camp, capsys, "isolation")


@pytest.mark.parametrize("command", ["resume", "status"])
@pytest.mark.parametrize("field,value", [
    ("backend", '"processes"'), ("workers", "2"),
], ids=["backend", "workers"])
def test_campaign_dir_with_fsi_pool_job_is_rejected(
    tmp_path, capsys, command, field, value
):
    camp = tmp_path / "camp"
    camp.mkdir()
    legacy = json.loads(LEGACY_MANIFEST_JSON.replace(
        f'"{field}": null', f'"{field}": {value}'))
    del legacy["retry_backoff_s"]
    (camp / "manifest.json").write_text(json.dumps(legacy))
    assert main(["campaign", command, str(camp)]) == 2
    _assert_rejected_unread(camp, capsys, field)


@pytest.mark.parametrize("command", ["resume", "status"])
def test_campaign_dir_with_mistyped_manifest_is_rejected(
    tmp_path, capsys, command
):
    camp = tmp_path / "camp"
    camp.mkdir()
    doc = {"name": "cli-smoke", "max_parallel": 2,
           "jobs": [{"job_id": "hot", "experiment": "shear_layers",
                     "steps": "4"}]}
    (camp / "manifest.json").write_text(json.dumps(doc))
    assert main(["campaign", command, str(camp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {camp / 'manifest.json'}: ")
    assert "not supported between" in err
    assert err.count("manifest.json") == 1  # the path is printed once
    assert err.count("\n") == 1  # one line, no traceback
    assert not (camp / "ledger.jsonl").exists()  # nothing was run


def test_campaign_run_exits_nonzero_on_failures(tmp_path, capsys):
    manifest = tmp_path / "bad.toml"
    manifest.write_text(
        'name = "failing"\n'
        "[[jobs]]\n"
        'id = "boom"\n'
        'experiment = "python:nonexistent_module_xyz:run"\n'
    )
    out = tmp_path / "camp"
    assert main(["campaign", "run", str(manifest), "--out", str(out)]) == 1
    assert "failed" in capsys.readouterr().out


@pytest.mark.parametrize("text,match", [
    ('name = "bad"\n[[jobs]]\nid = "a"\nexperiment = "shear_layers"\n'
     "bogus = 1\n", "unknown key(s) ['bogus']"),
    ('name = "bad"\n[[jobs]\n', "Expected"),
    ('name = "bad"\n[[jobs]]\nid = "a"\nexperiment = "shear_layers"\n'
     'steps = "4"\n', "not supported between"),
], ids=["unknown-key", "toml-syntax", "wrong-type"])
def test_campaign_run_rejects_bad_manifest(tmp_path, capsys, text, match):
    manifest = tmp_path / "bad.toml"
    manifest.write_text(text)
    out = tmp_path / "camp"
    assert main(["campaign", "run", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ")
    assert match in err
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()  # nothing was run
