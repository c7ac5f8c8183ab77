"""Tests for the alternating-pair benchmark runner in ``tools/``."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def result(**metrics):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}


def test_seed_list_takes_a_range_or_a_list():
    assert bench_pairs.seed_list("301-304") == [301, 302, 303, 304]
    assert bench_pairs.seed_list("5,9") == [5, 9]


def test_compare_counts_wins_by_the_metric_direction_and_ties_for_neither():
    pairs = [{"parent": result(**{"w/agent_steps_per_s": p, "w/peak_rss_mb": r}),
              "change": result(**{"w/agent_steps_per_s": c, "w/peak_rss_mb": s})}
             for p, c, r, s in [(1.0, 2.0, 10.0, 9.0), (3.0, 3.0, 10.0, 11.0),
                                (5.0, 4.0, 10.0, 10.0), (7.0, 8.0, 10.0, 9.0)]]
    better = {"agent_steps_per_s": "higher", "peak_rss_mb": "lower"}
    out = bench_pairs.compare(pairs, better)
    speed, rss = out["w/agent_steps_per_s"], out["w/peak_rss_mb"]
    assert (speed["change_wins"], speed["parent_wins"], speed["pairs"]) == (2, 1, 4)
    assert (rss["change_wins"], rss["parent_wins"]) == (2, 1)
    assert speed["parent"] == {"median": 4.0, "q1": 1.5, "q3": 6.5}
    assert speed["change"]["median"] == 3.5
    assert speed["relative_change"] == pytest.approx(-0.125)


@pytest.mark.parametrize("failed, code", [(None, 0), ((302, "change"), 1)])
def test_main_writes_the_report_and_exits_1_when_a_run_failed(monkeypatch, tmp_path,
                                                               failed, code):
    def run_once(checkout, workload, seed, seconds):
        run = result(**{"w/agent_steps_per_s": float(seed)})
        if (seed, checkout.name) == failed:
            run["failed"] = 1
        return run

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": [{"name": "agent_steps_per_s", "better": "higher", '
        '"bound": 0.25}]}')
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "301-303", "--name", "t"]
    assert bench_pairs.main(argv) == code
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["failed_runs"] == ([] if failed is None else [list(failed)])
    assert [run["seed"] for run in report["runs"]] == [301, 302, 303]
    verdict = report["metrics"]["w/agent_steps_per_s"]
    assert (verdict["gain"], verdict["within_bound"]) == (False, True)


def pairs_of(name, parent, change):
    return [{"parent": result(**{name: p}), "change": result(**{name: c})}
            for p, c in zip(parent, change)]


PARENT_RSS = [146.6, 146.8, 147.2, 146.7, 146.9, 147.0, 146.6, 147.1, 146.8, 146.9]


@pytest.mark.parametrize("change, gain", [
    ([137.5] * 9 + [147.5], True),        # 9/10 won, far beyond the parent's spread
    ([137.5] * 8 + [147.5] * 2, False),   # 8/10 won
    ([146.5] * 10, False),                # 10/10 won, but inside the parent's spread
])
def test_gain_needs_nine_of_ten_pairs_and_a_median_beyond_the_parent_iqr(change, gain):
    out = bench_pairs.compare(pairs_of("w/peak_rss_mb", PARENT_RSS, change),
                              {"peak_rss_mb": "lower"}, {"peak_rss_mb": 0.1})
    assert out["w/peak_rss_mb"]["gain"] is gain
    assert out["w/peak_rss_mb"]["within_bound"] is True


@pytest.mark.parametrize("change, within", [(80.0, True), (75.0, True), (74.0, False),
                                            (130.0, True)])
def test_within_bound_compares_the_change_median_with_the_bound(change, within):
    parent = [100.0, 99.0, 101.0, 100.0]
    out = bench_pairs.compare(pairs_of("w/agent_steps_per_s", parent, [change] * 4),
                              {"agent_steps_per_s": "higher"}, {"agent_steps_per_s": 0.25})
    assert out["w/agent_steps_per_s"]["within_bound"] is within
    assert out["w/agent_steps_per_s"]["gain"] is (change > 100.0)


def test_a_metric_without_a_bound_has_no_bound_verdict():
    out = bench_pairs.compare(pairs_of("w/x", [1.0, 2.0], [3.0, 4.0]), {"x": "higher"})
    assert out["w/x"]["within_bound"] is None
    assert out["w/x"]["gain"] is True
