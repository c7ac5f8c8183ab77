"""Tests for evidence capture, proprioceptive labeling, and JSONL storage."""

import json

import numpy as np
import pytest

from cocktail.agent import ACTIONS, AgentConfig, N_STATES, new_qtable
from cocktail.dataset import (
    AZIMUTH_LABEL_LIMIT_DEG,
    CAPTURE_DEBOUNCE_S,
    CAPTURE_THRESHOLD,
    EVIDENCE_WINDOW_SAMPLES,
    EvidenceBuffer,
    LabeledRecord,
    build_dataset,
    label_on_fixation,
    read_dataset,
    write_dataset,
)
from cocktail.errors import (
    DomainError,
    FormatError,
    InputError,
    ParseError,
)
from cocktail.features import FEATURE_DIM, extract_features
from cocktail.frontend import AZIMUTH_BINS, AzimuthPosterior
from cocktail.scene import HeadPose

FAST = AgentConfig(fast=True)


def peaked_posterior(peak):
    probs = np.full(len(AZIMUTH_BINS), (1.0 - peak) / (len(AZIMUTH_BINS) - 1))
    probs[18] = peak
    return AzimuthPosterior(probs)


def recent_audio(n=EVIDENCE_WINDOW_SAMPLES, seed=0):
    """A ``(2, n)`` stereo window like the one an episode keeps."""
    return np.random.default_rng(seed).normal(size=(2, n))


# ---------------------------------------------------------------------------
# Evidence capture


def test_capture_requires_full_ring():
    buf = EvidenceBuffer()
    short = recent_audio(EVIDENCE_WINDOW_SAMPLES - 1)
    assert buf.maybe_capture(0.0, peaked_posterior(0.9), short, HeadPose(0, 0)) is None
    assert buf.captures == []


def test_capture_threshold_is_inclusive():
    recent = recent_audio()
    buf = EvidenceBuffer()
    below = peaked_posterior(CAPTURE_THRESHOLD - 0.01)
    at = peaked_posterior(CAPTURE_THRESHOLD)
    assert buf.maybe_capture(0.0, below, recent, HeadPose(0, 0)) is None
    cap = buf.maybe_capture(0.0, at, recent, HeadPose(0, 0))
    assert cap is not None
    assert cap.posterior_peak == pytest.approx(CAPTURE_THRESHOLD)


def test_capture_debounce_interval():
    recent = recent_audio()
    buf = EvidenceBuffer()
    post = peaked_posterior(0.5)
    pose = HeadPose(10.0, -5.0)
    assert buf.maybe_capture(0.0, post, recent, pose) is not None
    assert buf.maybe_capture(CAPTURE_DEBOUNCE_S - 0.1, post, recent, pose) is None
    assert buf.maybe_capture(CAPTURE_DEBOUNCE_S, post, recent, pose) is not None
    assert len(buf.captures) == 2


def test_capture_records_pose_and_ring_contents():
    recent = recent_audio(EVIDENCE_WINDOW_SAMPLES + 100, seed=5)
    expected = recent[:, -EVIDENCE_WINDOW_SAMPLES:].copy()
    buf = EvidenceBuffer()
    cap = buf.maybe_capture(1.5, peaked_posterior(0.5), recent, HeadPose(25.0, 10.0))
    assert cap.pan_deg == 25.0 and cap.tilt_deg == 10.0 and cap.time_s == 1.5
    assert np.array_equal(cap.left, expected[0])
    assert np.array_equal(cap.right, expected[1])
    # Later writes to the episode's array must not reach the stored snapshot.
    recent[:] = 0.0
    assert np.array_equal(cap.left, expected[0])
    assert np.array_equal(cap.right, expected[1])


# ---------------------------------------------------------------------------
# Labeled records


def test_labeled_record_validation():
    good = np.zeros(FEATURE_DIM)
    LabeledRecord(features=good, azimuth_deg=0.0, elevation_deg=0.0, episode_id=0)
    with pytest.raises(DomainError):
        LabeledRecord(features=np.zeros((2, 2)), azimuth_deg=0.0,
                      elevation_deg=0.0, episode_id=0)
    with pytest.raises(DomainError):
        LabeledRecord(features=np.full(FEATURE_DIM, np.nan), azimuth_deg=0.0,
                      elevation_deg=0.0, episode_id=0)
    with pytest.raises(DomainError):
        LabeledRecord(features=good, azimuth_deg=AZIMUTH_LABEL_LIMIT_DEG + 1,
                      elevation_deg=0.0, episode_id=0)
    with pytest.raises(DomainError):
        LabeledRecord(features=good, azimuth_deg=0.0,
                      elevation_deg=-61.0, episode_id=0)
    with pytest.raises(DomainError):
        LabeledRecord(features=good, azimuth_deg=0.0,
                      elevation_deg=0.0, episode_id=-1)


def test_label_on_fixation_relative_pose_labels():
    buf = EvidenceBuffer()
    cap = buf.maybe_capture(0.0, peaked_posterior(0.5), recent_audio(seed=3),
                            HeadPose(10.0, 5.0))
    records = label_on_fixation([cap], HeadPose(25.0, 10.0), episode_id=7)
    assert len(records) == 1
    rec = records[0]
    assert rec.azimuth_deg == 15.0
    assert rec.elevation_deg == 5.0
    assert rec.episode_id == 7
    assert np.array_equal(rec.features, extract_features(cap.left, cap.right))


def test_label_on_fixation_empty_captures():
    assert label_on_fixation([], HeadPose(0, 0), 0) == []


# ---------------------------------------------------------------------------
# JSON Lines persistence


def sample_records(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        LabeledRecord(
            features=rng.normal(size=FEATURE_DIM),
            azimuth_deg=float(5 * rng.integers(-10, 11)),
            elevation_deg=float(5 * rng.integers(-4, 5)),
            episode_id=i,
        )
        for i in range(n)
    ]


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "data.jsonl"
    records = sample_records()
    write_dataset(path, records, meta={"note": "unit"})
    loaded, header = read_dataset(path)
    assert header["count"] == len(records)
    assert header["feature_dim"] == FEATURE_DIM
    assert header["note"] == "unit"
    for orig, back in zip(records, loaded):
        assert np.array_equal(orig.features, back.features)
        assert orig.azimuth_deg == back.azimuth_deg
        assert orig.elevation_deg == back.elevation_deg
        assert orig.episode_id == back.episode_id


def test_rewrite_is_byte_identical(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_dataset(first, sample_records(), meta={"k": 1})
    loaded, header = read_dataset(first)
    meta = {k: v for k, v in header.items()
            if k not in ("format", "version", "feature_dim", "count")}
    write_dataset(second, loaded, meta=meta)
    assert first.read_bytes() == second.read_bytes()


def test_write_rejects_reserved_meta_keys(tmp_path):
    with pytest.raises(InputError):
        write_dataset(tmp_path / "x.jsonl", [], meta={"count": 5})


def test_write_rejects_wrong_feature_dim(tmp_path):
    rec = LabeledRecord(features=np.zeros(7), azimuth_deg=0.0,
                        elevation_deg=0.0, episode_id=0)
    with pytest.raises(DomainError):
        write_dataset(tmp_path / "x.jsonl", [rec])


def test_read_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_dataset(tmp_path / "absent.jsonl")


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(FormatError):
        read_dataset(path)


def test_read_reports_parse_error_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    write_dataset(path, sample_records(2))
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        read_dataset(path)
    assert info.value.line == 3


def _corrupt(tmp_path, mutate, n=2):
    """Write a valid dataset, apply ``mutate`` to its parsed lines, rewrite."""
    path = tmp_path / "corrupt.jsonl"
    write_dataset(path, sample_records(n))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    mutate(lines)
    path.write_text(
        "\n".join(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                  for obj in lines) + "\n"
    )
    return path


def test_read_rejects_unknown_format(tmp_path):
    def mutate(lines):
        lines[0]["format"] = "other"
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_unsupported_version(tmp_path):
    def mutate(lines):
        lines[0]["version"] = 99
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_bad_feature_dim_header(tmp_path):
    def mutate(lines):
        lines[0]["feature_dim"] = "wide"
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_count_mismatch(tmp_path):
    def mutate(lines):
        lines[0]["count"] = 5
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_extra_record_field(tmp_path):
    def mutate(lines):
        lines[1]["extra"] = 1
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_missing_record_field(tmp_path):
    def mutate(lines):
        del lines[1]["episode_id"]
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_boolean_numbers(tmp_path):
    def mutate(lines):
        lines[1]["azimuth_deg"] = True
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))

    def mutate_id(lines):
        lines[1]["episode_id"] = True
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate_id))


def test_read_rejects_short_feature_vector(tmp_path):
    def mutate(lines):
        lines[1]["features"] = lines[1]["features"][:-1]
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_non_numeric_feature(tmp_path):
    def mutate(lines):
        lines[1]["features"][0] = "loud"
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_out_of_range_label(tmp_path):
    def mutate(lines):
        lines[1]["azimuth_deg"] = 200.0
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_numbers_too_large_for_a_float(tmp_path):
    def mutate(lines):
        lines[1]["features"][0] = 10**400
    with pytest.raises(FormatError):
        read_dataset(_corrupt(tmp_path, mutate))


def test_read_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "binary.jsonl"
    write_dataset(path, sample_records(1))
    path.write_bytes(b"\x80" + path.read_bytes())
    with pytest.raises(FormatError):
        read_dataset(path)


# ---------------------------------------------------------------------------
# End-to-end dataset building


def approach_policy_table():
    """A handcrafted policy: center the face, else steer by the heard side."""
    qt = new_qtable()
    for state in range(N_STATES):
        loc = state // 50
        bucket = (state % 50) // 5
        if bucket < 9:
            col, row = bucket % 3, bucket // 3
            if col == 0:
                action = "left"
            elif col == 2:
                action = "right"
            elif row == 0:
                action = "down"
            elif row == 2:
                action = "up"
            else:
                action = "none"
        else:
            action = {0: "left", 1: "left", 2: "none", 3: "right", 4: "right"}[loc]
        qt.values[state, ACTIONS.index(action)] = 1.0
    return qt


def test_build_dataset_labels_match_ground_truth():
    qt = approach_policy_table()
    records, stats = build_dataset(qt, 12, seed=5, config=FAST)
    assert stats["episodes"] == 12
    assert stats["successes"] >= 6
    assert stats["records"] == len(records) == stats["successes"]
    # Proprioceptive labels are bounded by the fixation tolerance.
    assert stats["max_azimuth_label_error_deg"] <= 10.0
    assert stats["max_elevation_label_error_deg"] <= 10.0
    for rec in records:
        assert rec.features.size == FEATURE_DIM


def test_build_dataset_is_deterministic(tmp_path):
    qt = approach_policy_table()
    paths = []
    for name in ("one.jsonl", "two.jsonl"):
        records, _ = build_dataset(qt, 6, seed=9, config=FAST)
        path = tmp_path / name
        write_dataset(path, records)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_build_dataset_rejects_bad_episode_count():
    with pytest.raises(DomainError):
        build_dataset(new_qtable(), 0, config=FAST)
