"""Acceptance gate: ten numbered end-to-end criteria for the package.

Each test states one measurable claim about the system and asserts it at a
fixed tolerance, together with a wall-clock budget.  ``pytest -v`` therefore
prints one pass/fail line per criterion.

The expensive stages are shared where that does not weaken the claim: the
2000-episode policy is trained once (its training time is budgeted under
criterion 7) and reused by the dataset criteria, and criterion 9's record
harvest is a module fixture whose build time is excluded from the localizer
budget.  Criterion 8 times its own harvest.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from cocktail import agent, avsync, cli, dataset, fuzzy, localizer
from cocktail.scene import (
    SAMPLE_RATE,
    HeadPose,
    Scene,
    SpeakerSpec,
    SpeechSource,
    TurnSchedule,
    mouth_area_signal,
    render_binaural,
)

FAST = agent.AgentConfig(fast=True)


def single_speaker_scene(azimuth, elevation, duration=30.0, seed=7):
    speaker = SpeakerSpec(
        id=1,
        azimuth_world=azimuth,
        elevation_world=elevation,
        speech=SpeechSource(seed=seed),
    )
    return Scene(
        speakers=(speaker,),
        schedule=TurnSchedule(((0.0, duration, 1),)),
        noise_level=0.01,
    )


# ---------------------------------------------------------------------------
# Shared expensive fixtures


@pytest.fixture(scope="module")
def trained_rl():
    """The 2000-episode fast-mode policy, with its wall-clock time."""
    t0 = time.perf_counter()
    qtable, train_stats = agent.train(2000, seed=11, config=FAST)
    greedy = agent.evaluate(qtable, 100, seed=77, config=FAST, policy="greedy")
    random_ = agent.evaluate(qtable, 100, seed=77, config=FAST, policy="random")
    elapsed = time.perf_counter() - t0
    return {
        "qtable": qtable,
        "train_stats": train_stats,
        "greedy": greedy,
        "random": random_,
        "elapsed_s": elapsed,
    }


@pytest.fixture(scope="module")
def harvested_records(trained_rl):
    """A ≥2000-record harvest for the localizer criterion (untimed here)."""
    records, stats = dataset.build_dataset(
        trained_rl["qtable"], 2100, seed=123, config=FAST
    )
    return records, stats


# ---------------------------------------------------------------------------
# Criterion 1 — correlation statistics match independent oracles


def naive_pearson_r(xs, ys):
    """Textbook two-pass Pearson r in pure Python, as an independent oracle."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def t_density(u, df):
    coeff = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0))
    coeff /= math.sqrt(df * math.pi)
    return coeff * (1.0 + u * u / df) ** (-(df + 1) / 2.0)


def test_criterion_1_pearson_r_and_p_match_independent_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260824)

    # r agrees with the two-pass oracle on 1000 random pairs of every size.
    for _ in range(1000):
        n = int(rng.integers(3, 1001))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n) + rng.uniform(-2.0, 2.0) * x
        r, _ = avsync.pearson(x, y)
        assert abs(r - naive_pearson_r(x.tolist(), y.tolist())) <= 1e-12

    # p at (n=100, r=0.48) agrees with direct integration of the t density.
    # Build a pair whose sample correlation is exactly 0.48: project two
    # normal draws to orthonormal zero-mean vectors and mix them.
    a = rng.standard_normal(100)
    a -= a.mean()
    a /= math.sqrt(float(a @ a))
    b = rng.standard_normal(100)
    b -= b.mean()
    b -= float(b @ a) * a
    b /= math.sqrt(float(b @ b))
    y = 0.48 * a + math.sqrt(1.0 - 0.48**2) * b
    r, p = avsync.pearson(a, y)
    assert abs(r - 0.48) < 1e-12

    df = 98
    t_stat = 0.48 * math.sqrt(df / (1.0 - 0.48**2))
    tail, _ = quad(t_density, t_stat, np.inf, args=(df,))
    assert abs(p - 2.0 * tail) < 1e-6
    assert p < 1e-5

    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# Criterion 2 — matched speakers correlate, mismatched speakers do not


def test_criterion_2_matched_vs_mismatched_mouth_audio_pairing():
    t0 = time.perf_counter()
    duration = 120.0
    talker = SpeakerSpec(id=1, azimuth_world=-30.0, elevation_world=0.0,
                         speech=SpeechSource(seed=11))
    silent = SpeakerSpec(id=2, azimuth_world=30.0, elevation_world=0.0,
                         speech=SpeechSource(seed=99))
    scene = Scene(
        speakers=(talker, silent),
        schedule=TurnSchedule(((0.0, duration, 1),)),
        noise_level=0.01,
    )
    clip = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, duration, seed=42)
    env1, env2 = cli.stereo_envelopes_10hz(clip.audio)
    _, mouth_talker = mouth_area_signal(talker, scene.schedule, 0.0, duration,
                                        seed=42)
    _, mouth_silent = mouth_area_signal(silent, scene.schedule, 0.0, duration,
                                        seed=42)

    matched = avsync.correlate_min_p(env1, env2, mouth_talker, window_n=100)
    mismatched = avsync.correlate_min_p(env1, env2, mouth_silent, window_n=100)
    assert len(matched) == len(mismatched) == 12
    assert all(res is not None for res in matched)
    assert all(res is not None for res in mismatched)

    matched_r = np.array([res.r for res in matched])
    matched_p = np.array([res.p for res in matched])
    assert matched_r.mean() >= 0.4
    assert np.mean(matched_p < 0.05) >= 0.8

    mismatched_r = np.array([res.r for res in mismatched])
    mismatched_p = np.array([res.p for res in mismatched])
    assert np.mean(np.abs(mismatched_r)) <= 0.15
    assert np.mean(mismatched_p > 0.05) >= 0.6

    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# Criterion 3 — turn-taking detection across seeds


def test_criterion_3_turn_taking_detection_across_five_seeds():
    t0 = time.perf_counter()
    for seed in range(5):
        first = SpeakerSpec(id=1, azimuth_world=-30.0, elevation_world=0.0,
                            speech=SpeechSource(seed=100 + seed))
        second = SpeakerSpec(id=2, azimuth_world=30.0, elevation_world=0.0,
                             speech=SpeechSource(seed=200 + seed))
        segments = tuple(
            (10.0 * k, 10.0 * (k + 1), 1 if k % 2 == 0 else 2)
            for k in range(10)
        )
        scene = Scene(speakers=(first, second),
                      schedule=TurnSchedule(segments), noise_level=0.01)
        rows = cli.turn_taking_rows(scene, 100.0, seed, 10.0)
        assert len(rows) == 10
        correct = sum(predicted == true for _, _, _, predicted, true in rows)
        assert correct >= 9, f"seed {seed}: only {correct}/10 windows correct"
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# Criterion 4 — attention map localizes single sources within 5 degrees


def test_criterion_4_attention_map_within_5_degrees():
    t0 = time.perf_counter()
    noise_level = 0.003

    # The scene satisfies the >= 10 dB SNR condition: compare the clean
    # rendered level against the additive noise floor.
    clean = render_binaural(
        Scene(
            speakers=(SpeakerSpec(id=1, azimuth_world=0.0,
                                  elevation_world=0.0,
                                  speech=SpeechSource(seed=43)),),
            schedule=TurnSchedule(((0.0, 1.0, 1),)),
            noise_level=0.0,
        ),
        HeadPose(0.0, 0.0), 0.0, 1.0, seed=42,
    )
    rms = math.sqrt(float(np.mean(clean.left**2 + clean.right**2)) / 2.0)
    assert 20.0 * math.log10(rms / noise_level) >= 10.0

    rows = cli.attention_map_rows(
        [-60.0, -30.0, 0.0, 30.0, 60.0], duration=1.0,
        noise_level=noise_level, elevation=0.0, seed=42,
    )
    for azimuth, estimate, error, _ in rows:
        assert error <= 5.0, (
            f"source at {azimuth:+.0f} deg estimated at {estimate:+.1f} deg"
        )
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# Criterion 5 — fuzzy classification equals brute-force membership argmax


def oracle_memberships(azimuth):
    values = []
    for center in fuzzy.TERM_CENTERS:
        if center == min(fuzzy.TERM_CENTERS) and azimuth <= center:
            values.append(1.0)
        elif center == max(fuzzy.TERM_CENTERS) and azimuth >= center:
            values.append(1.0)
        else:
            values.append(max(0.0, 1.0 - abs(azimuth - center) / fuzzy.HALF_WIDTH))
    return values


def oracle_classify(azimuth):
    values = oracle_memberships(azimuth)
    best = min(
        range(len(values)),
        key=lambda i: (-values[i], abs(fuzzy.TERM_CENTERS[i]), i),
    )
    return fuzzy.TERMS[best]


def test_criterion_5_classification_matches_membership_argmax():
    t0 = time.perf_counter()
    for azimuth in range(-90, 91):
        assert fuzzy.classify(azimuth) == oracle_classify(azimuth), (
            f"disagreement at {azimuth} deg"
        )

    boundaries = []
    for azimuth in range(-90, 90):
        left_term = fuzzy.classify(azimuth)
        right_term = fuzzy.classify(azimuth + 1)
        if left_term != right_term:
            # Report the side whose class center is closer to straight ahead:
            # that is the angle where the two memberships tie.
            centers = dict(zip(fuzzy.TERMS, fuzzy.TERM_CENTERS))
            if abs(centers[left_term]) < abs(centers[right_term]):
                boundaries.append(azimuth)
            else:
                boundaries.append(azimuth + 1)
    assert boundaries == [-45, -15, 15, 45]
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Criterion 6 — analytic envelope of a pure tone


def test_criterion_6_envelope_of_sine_within_one_percent():
    t0 = time.perf_counter()
    n = SAMPLE_RATE
    t = np.arange(n) / SAMPLE_RATE
    x = 0.5 * np.sin(2.0 * np.pi * 1000.0 * t)
    envelope = avsync.analytic_envelope(x)
    margin = n // 20  # central 90%
    central = envelope[margin : n - margin]
    assert np.max(np.abs(central - 0.5)) / 0.5 <= 0.01
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Criterion 7 — trained head control beats the random baseline


def test_criterion_7_trained_policy_beats_random_baseline(trained_rl):
    greedy = trained_rl["greedy"]
    random_ = trained_rl["random"]
    assert greedy.success_rate >= 0.90, (
        f"greedy success {greedy.success_rate:.2f} < 0.90"
    )
    assert random_.success_rate <= 0.20, (
        f"random baseline {random_.success_rate:.2f} > 0.20"
    )
    assert greedy.median_steps < random_.median_steps
    assert trained_rl["elapsed_s"] < 300.0


def test_trained_policy_pans_monotonically_toward_far_right_source(trained_rl):
    result = agent.run_episode(
        single_speaker_scene(60.0, 0.0),
        HeadPose(0.0, 0.0),
        trained_rl["qtable"],
        config=FAST,
        rng=np.random.default_rng(0),
        epsilon=0.0,
        learn=False,
        render_seed=5,
    )
    actions = [action for _, action, _, _ in result.trajectory]
    assert result.success
    assert "left" not in actions
    assert actions.count("right") >= 10
    assert result.final_pose.pan >= 50.0


# ---------------------------------------------------------------------------
# Criterion 8 — harvested labels stay within tolerance of ground truth


def test_criterion_8_dataset_labels_within_15_degrees(trained_rl):
    t0 = time.perf_counter()
    records, stats = dataset.build_dataset(
        trained_rl["qtable"], 560, seed=123, config=FAST
    )
    assert stats["successes"] >= 500
    assert len(records) == stats["records"] == stats["successes"]
    assert stats["max_azimuth_label_error_deg"] <= 15.0
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# Criterion 9 — localizer accuracy, gradients, and reference loss


def test_criterion_9_localizer_accuracy_gradients_and_uniform_loss(
    harvested_records, zero_model,
):
    records, _ = harvested_records
    assert len(records) >= 2000
    t0 = time.perf_counter()

    model, stats = localizer.train_localizer(
        records, seed=0, epochs=localizer.DEFAULT_EPOCHS
    )
    assert stats["val_azimuth_within_10_deg"] >= 0.80, (
        f"held-out azimuth accuracy {stats['val_azimuth_within_10_deg']:.3f}"
    )
    assert stats["val_elevation_within_10_deg"] >= 0.60, (
        f"held-out elevation accuracy {stats['val_elevation_within_10_deg']:.3f}"
    )

    # Finite-difference gradient check on real features.
    check_model = localizer.new_localizer(seed=3)
    x = np.stack([rec.features for rec in records[:6]])
    az = np.array([localizer.azimuth_class(rec.azimuth_deg)
                   for rec in records[:6]])
    el = np.array([localizer.elevation_class(rec.elevation_deg)
                   for rec in records[:6]])
    _, grads = localizer.loss_and_grads(check_model, x, az, el)
    rng = np.random.default_rng(0)
    worst = 0.0
    for name, param in check_model.parameters():
        flat = param.reshape(-1)
        grad = grads[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(25, flat.size), replace=False):
            step = 1e-5
            original = flat[idx]
            flat[idx] = original + step
            upper = localizer.loss(check_model, x, az, el)
            flat[idx] = original - step
            lower = localizer.loss(check_model, x, az, el)
            flat[idx] = original
            numeric = (upper - lower) / (2.0 * step)
            scale = max(abs(numeric), abs(grad[idx]), 1e-10)
            worst = max(worst, abs(numeric - grad[idx]) / scale)
    assert worst < 1e-4, f"gradient check max relative error {worst:.2e}"

    # A zeroed network scores both heads uniformly.
    uniform = localizer.loss(zero_model, x, az, el)
    assert abs(uniform - (math.log(65.0) + math.log(25.0))) < 1e-9

    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# Criterion 10 — the fast pipeline is byte-reproducible


def test_criterion_10_fast_pipeline_is_byte_reproducible(tmp_path, capsys):
    out_first = tmp_path / "first"
    out_second = tmp_path / "second"
    for out in (out_first, out_second):
        code = cli.main([
            "pipeline", "--fast", "--seed", "42", "--out-dir", str(out),
        ])
        assert code == 0
    capsys.readouterr()

    summary_first = (out_first / cli.SUMMARY_FILE).read_bytes()
    summary_second = (out_second / cli.SUMMARY_FILE).read_bytes()
    assert summary_first == summary_second

    dataset_first = (out_first / cli.DATASET_FILE).read_bytes()
    dataset_second = (out_second / cli.DATASET_FILE).read_bytes()
    assert dataset_first == dataset_second

    summary = json.loads(summary_first)
    assert summary["seed"] == 42
    assert summary["fast"] is True
    assert summary["dataset_size"] > 0
    assert 0.0 <= summary["localizer_az_acc"] <= 1.0
