"""The benchmark's own tests: tiny runs of every workload, and each
correctness check shown to reject a corrupted output.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from cocktail import agent, dataset

import checks
import run
import workloads
from calibrate import Clock
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]

#: Smallest sizes that still exercise every check: 30 harvest records hold
#: two records of the localizer's validation fold.
TINY = {
    "train-fast": dataclasses.replace(workloads.WORKLOADS["train-fast"], episodes=3),
    "harvest-fast": dataclasses.replace(workloads.WORKLOADS["harvest-fast"], episodes=30),
    "train-full": dataclasses.replace(workloads.WORKLOADS["train-full"], episodes=1),
}


@pytest.fixture(scope="module")
def train_episodes():
    log = workloads.EpisodeLog(Clock()).install()
    try:
        qtable, _ = agent.train(4, 7, agent.AgentConfig(fast=True))
    finally:
        log.uninstall()
    return log.episodes, qtable


@pytest.fixture(scope="module")
def harvest(tmp_path_factory):
    log = workloads.EpisodeLog(Clock()).install()
    try:
        records, _ = dataset.build_dataset(
            workloads.harvest_policy(), 8, 7, agent.AgentConfig(fast=True))
    finally:
        log.uninstall()
    path = tmp_path_factory.mktemp("harvest") / "dataset.jsonl"
    dataset.write_dataset(path, records)
    return log.episodes, records, path


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_passes_its_checks(name, trace, capsys):
    result = run.run_workload(name, 3, 0.0, trace, setup_runs=0, spec=TINY[name])
    assert result["correct"], capsys.readouterr().err
    assert result["failed"] == 0 and result["attempted"] >= TINY[name].episodes
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    if trace:
        assert metrics["agent.steps"]["value"] > 0
        assert metrics["scene.render.calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for k, m in metrics.items() if k != "setup_s")


def test_trajectory_with_one_action_changed_is_rejected(train_episodes):
    episodes, qtable = train_episodes
    for episode in episodes:
        checks.replay_episode(episode, agent.FAST_MAX_EPISODE_STEPS)
    checks.check_qtable(qtable, sum(r.steps for _, _, r in episodes))
    scene, pose, result = episodes[0]
    state, action, reward, next_state = result.trajectory[0]
    swapped = {"left": "right", "right": "left", "up": "down", "down": "up", "none": "left"}
    bad = dataclasses.replace(result, trajectory=(
        (state, swapped[action], reward, next_state),) + result.trajectory[1:])
    with pytest.raises(checks.CheckFailed):
        checks.replay_episode((scene, pose, bad), agent.FAST_MAX_EPISODE_STEPS)


def test_qtable_with_a_lost_visit_is_rejected(train_episodes):
    episodes, qtable = train_episodes
    with pytest.raises(checks.CheckFailed):
        checks.check_qtable(qtable, sum(r.steps for _, _, r in episodes) + 1)


def test_record_with_label_sign_flipped_is_rejected(harvest):
    episodes, records, _ = harvest
    checks.check_gcc_labels(records)
    checks.check_labels_from_poses(episodes, records)
    index = next(i for i, r in enumerate(records) if abs(r.azimuth_deg) >= 15.0)
    rec = records[index]
    flipped = dataset.LabeledRecord(rec.features, -rec.azimuth_deg, rec.elevation_deg,
                                    rec.episode_id)
    bad = records[:index] + [flipped] + records[index + 1:]
    with pytest.raises(checks.CheckFailed):
        checks.check_gcc_labels(bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_labels_from_poses(episodes, bad)


@pytest.mark.parametrize("field", ["features", "azimuth_deg", "count"])
def test_dataset_file_with_one_byte_changed_is_rejected(harvest, tmp_path, field):
    _, records, path = harvest
    checks.check_roundtrip(path, records)
    data = bytearray(path.read_bytes())
    # The first digit after the field's key.
    at = data.index(f'"{field}":'.encode()) + len(field) + 3
    while not chr(data[at]).isdigit():
        at += 1
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip(corrupt, records)


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 50, 60, 0],
                    ["b", 15, 20, 1]]
    own = tracer.self_seconds()
    assert own["a"] * 1e9 == pytest.approx(60)
    assert own["b"] * 1e9 == pytest.approx(25 + 5)
    assert own["c"] * 1e9 == pytest.approx(10)


def test_tracer_restores_every_wrapped_name():
    from cocktail import frontend, scene

    before = (agent.render_binaural, agent.run_episode, scene.source_envelope,
              frontend.GammatoneStream.process, dataset.EvidenceBuffer.maybe_capture)
    tracer = Tracer().install()
    assert agent.render_binaural is not before[0]
    tracer.uninstall()
    after = (agent.render_binaural, agent.run_episode, scene.source_envelope,
             frontend.GammatoneStream.process, dataset.EvidenceBuffer.maybe_capture)
    assert after == before


def test_harvest_policy_centres_a_visible_face():
    table = workloads.harvest_policy()
    action = lambda loc, face: agent.ACTIONS[int(np.argmax(  # noqa: E731
        table.values[(loc * agent.N_FACE_BUCKETS + face) * agent.N_PAN_BUCKETS]))]
    assert [action(2, f) for f in (3, 4, 5, 1, 7)] == ["left", "none", "right", "down", "up"]
    assert [action(loc, 9) for loc in range(5)] == ["left", "left", "none", "right", "right"]


def test_run_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert child.returncode != 0
    assert child.stdout.strip() == ""
