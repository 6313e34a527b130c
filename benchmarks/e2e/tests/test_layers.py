"""Metric declarations, the end-to-end arithmetic and compare.py's verdicts."""

import json
import re

import pytest
from conftest import ROOT

import compare
import layers
from workloads import BASE_SECONDS, WORKLOADS, steps_for

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_repeats_the_declarations():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == BASE_SECONDS
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [tuple(m.values()) for m in bench["end_to_end"]] == list(
        layers.END_TO_END)
    assert [tuple(m.values()) for m in bench["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def test_every_layer_metric_names_its_layer_and_what_it_moves():
    for name, unit, better, layer, moves in layers.PER_LAYER:
        assert unit and better in ("lower", "higher") and layer and moves, name


def test_tail_is_the_sample_with_exactly_ten_beyond_it():
    value, pct = layers.tail_sample([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    value, pct = layers.tail_sample([5.0, 1.0, 3.0])  # fewer than 11: the max
    assert value == 5.0 and pct == 100.0


def test_e2e_metrics_arithmetic():
    run = {"step_ms": [100.0, 200.0, 300.0, 400.0], "peak_rss_mb": 12.5}
    m = layers.e2e_metrics(run, setup_samples=[3.0, 1.0, 2.0, 9.0, 5.0, 4.0, 7.0])
    assert m == {
        "setup_s": 2.0,  # lower quartile: second smallest of seven
        "steps_per_s": 4.0,  # 4 steps in 1.0 s
        "step_ms_p50": 250.0,
        "step_ms_tail": 400.0,
        "peak_rss_mb": 12.5,
    }
    assert tuple(m) == layers.E2E_NAMES


def test_step_counts_are_a_function_of_seconds_only():
    assert [steps_for(n, BASE_SECONDS) for n in WORKLOADS] == [30, 60, 28, 100]
    assert steps_for("tube_ht20", 2 * BASE_SECONDS) == 60
    assert steps_for("channel_moves", 1) == 10  # a whole maintain interval
    assert all(steps_for(n, 60, smoke=True) <= 5 for n in WORKLOADS)


@pytest.mark.parametrize("a, b, better, status", [
    ([100, 101, 102], [104, 105, 106], "lower", "ok"),          # +4% < 10%
    ([100, 101, 102], [120, 121, 122], "lower", "worse"),
    ([100, 101, 102], [80, 81, 82], "higher", "worse"),
    ([100, 101, 102], [120, 121, 122], "higher", "ok"),
    ([80, 100, 120], [85, 100, 125], "lower", "unresolved"),    # spread 40%
    ([80, 100, 120], [50, 60, 70], "lower", "ok"),  # every run of B better
])
def test_compare_verdicts(a, b, better, status):
    assert compare.verdict(a, b, better, bound=0.10)["status"] == status


def test_compare_reports_the_ratio_with_its_base():
    row = compare.verdict([200.0], [210.0], "lower", 0.10)
    assert row["worse_by"] == pytest.approx(0.05)
    assert row["median_a"] == 200.0 and row["spread"] == 0.0
