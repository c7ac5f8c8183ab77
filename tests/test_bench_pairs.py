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
        '{"run_seconds": 1, "end_to_end": [{"name": "agent_steps_per_s", "better": "higher"}]}')
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "301-303", "--name", "t"]
    assert bench_pairs.main(argv) == code
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["failed_runs"] == ([] if failed is None else [list(failed)])
    assert [run["seed"] for run in report["runs"]] == [301, 302, 303]
