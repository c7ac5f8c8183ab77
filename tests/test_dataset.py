"""Tests for evidence capture, proprioceptive labeling, and JSONL storage."""

import json

import numpy as np
import pytest

from cocktail.agent import (
    ACTIONS,
    CAPTURE_DEBOUNCE_S,
    CAPTURE_THRESHOLD,
    EVIDENCE_WINDOW_SAMPLES,
    N_STATES,
    AgentConfig,
    EpisodeAudio,
    EvidenceBuffer,
    new_qtable,
)
from cocktail.dataset import (
    AZIMUTH_LABEL_LIMIT_DEG,
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
from cocktail.scene import (
    HeadPose,
    Scene,
    SpeakerSpec,
    SpeechSource,
    TurnSchedule,
)

FAST = AgentConfig(fast=True)


def peaked_posterior(peak):
    probs = np.full(len(AZIMUTH_BINS), (1.0 - peak) / (len(AZIMUTH_BINS) - 1))
    probs[18] = peak
    return AzimuthPosterior(probs)


SCENE = Scene(
    speakers=(SpeakerSpec(id=1, azimuth_world=20.0, elevation_world=0.0,
                          speech=SpeechSource(seed=4)),),
    schedule=TurnSchedule(((0.0, 10.0, 1),)),
    noise_level=0.01,
)


def heard_at(pose, seconds=0.5, seed=0):
    """An episode record that heard the first ``seconds`` of a scene at ``pose``."""
    heard = EpisodeAudio(SCENE, FAST.corr_window_n, seed)
    heard.hear(pose, 0.0, seconds)
    return heard


# ---------------------------------------------------------------------------
# Evidence capture


def test_capture_requires_full_ring():
    buf = EvidenceBuffer()
    short = heard_at(HeadPose(0, 0), seconds=0.4)
    assert buf.maybe_capture(0.0, peaked_posterior(0.9), short, HeadPose(0, 0)) is None
    assert buf.captures == []


def test_capture_threshold_is_inclusive():
    recent = heard_at(HeadPose(0, 0))
    buf = EvidenceBuffer()
    below = peaked_posterior(CAPTURE_THRESHOLD - 0.01)
    at = peaked_posterior(CAPTURE_THRESHOLD)
    assert buf.maybe_capture(0.0, below, recent, HeadPose(0, 0)) is None
    cap = buf.maybe_capture(0.0, at, recent, HeadPose(0, 0))
    assert cap is not None
    assert cap.posterior_peak == pytest.approx(CAPTURE_THRESHOLD)


def test_capture_debounce_interval():
    pose = HeadPose(10.0, -5.0)
    recent = heard_at(pose)
    buf = EvidenceBuffer()
    post = peaked_posterior(0.5)
    assert buf.maybe_capture(0.0, post, recent, pose) is not None
    assert buf.maybe_capture(CAPTURE_DEBOUNCE_S - 0.1, post, recent, pose) is None
    assert buf.maybe_capture(CAPTURE_DEBOUNCE_S, post, recent, pose) is not None
    assert len(buf.captures) == 2


def test_capture_records_pose_and_ring_contents():
    pose = HeadPose(25.0, 10.0)
    heard = EpisodeAudio(SCENE, FAST.corr_window_n, seed=5)
    first = heard.hear(pose, 0.0, 0.3)
    second = heard.hear(pose, 0.3, 0.3)
    expected = np.concatenate([first, second], axis=1)[:, -EVIDENCE_WINDOW_SAMPLES:]
    buf = EvidenceBuffer()
    cap = buf.maybe_capture(1.5, peaked_posterior(0.5), heard, pose)
    assert cap.pan_deg == 25.0 and cap.tilt_deg == 10.0 and cap.time_s == 1.5
    assert np.array_equal(cap.audio, expected)
    # Later writes to the episode's audio must not reach the stored snapshot.
    first[:] = 0.0
    second[:] = 0.0
    assert np.array_equal(cap.audio, expected)


def test_capture_needs_the_whole_window_heard_at_the_capture_pose():
    here, there = HeadPose(0.0, 0.0), HeadPose(5.0, 0.0)
    heard = heard_at(there)
    heard.hear(here, 0.5, 0.1)
    buf = EvidenceBuffer()
    post = peaked_posterior(0.5)
    assert buf.maybe_capture(0.6, post, heard, here) is None
    assert buf.maybe_capture(0.6, post, heard, there) is None
    heard.hear(here, 0.6, 0.4)
    assert buf.maybe_capture(1.0, post, heard, here) is not None
    assert [c.time_s for c in buf.captures] == [1.0]


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
    pose = HeadPose(10.0, 5.0)
    buf = EvidenceBuffer()
    cap = buf.maybe_capture(0.0, peaked_posterior(0.5), heard_at(pose, seed=3), pose)
    records = label_on_fixation([cap], HeadPose(25.0, 10.0), episode_id=7)
    assert len(records) == 1
    rec = records[0]
    assert rec.azimuth_deg == 15.0
    assert rec.elevation_deg == 5.0
    assert rec.episode_id == 7
    assert np.array_equal(rec.features, extract_features(cap.audio))


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


@pytest.mark.parametrize("field, value", [
    ("version", True), ("version", 1.0), ("feature_dim", True), ("count", 1.0),
])
def test_read_rejects_header_integers_of_another_type(tmp_path, field, value):
    """``True == 1`` and ``1.0 == 1`` in Python, so a header that compares
    equal to the right integer is still refused unless it is a JSON integer.
    The file holds one one-feature record, which ``feature_dim`` 1 reads."""
    path = tmp_path / "header.jsonl"
    header = {"format": "cocktail-dataset", "version": 1, "feature_dim": 1, "count": 1}
    record = {"azimuth_deg": 0.0, "elevation_deg": 0.0, "episode_id": 0, "features": [0.5]}

    def write(header):
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")

    write(header)
    assert len(read_dataset(path)[0]) == 1
    write({**header, field: value})
    with pytest.raises(FormatError, match=f"{field} must be an integer"):
        read_dataset(path)


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
