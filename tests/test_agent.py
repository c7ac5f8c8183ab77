"""Tests for the tabular Q-learning head-control agent."""

from types import SimpleNamespace

import numpy as np
import pytest

from cocktail import agent as ag
from cocktail import avsync
from cocktail.agent import (
    ACTIONS,
    EVIDENCE_WINDOW_SAMPLES,
    AgentConfig,
    EpisodeResult,
    N_ACTIONS,
    N_STATES,
    QTable,
    encode_state,
    epsilon_at,
    evaluate,
    face_bucket,
    is_fixated,
    load_qtable,
    new_qtable,
    pan_bucket,
    q_update,
    run_episode,
    run_episodes,
    sample_eval_scene,
    sample_training_scene,
    save_qtable,
    select_action,
    train,
)
from cocktail.errors import DomainError, FormatError, InputError
from cocktail.scene import (
    GRID_H,
    GRID_W,
    HeadPose,
    Scene,
    SpeakerSpec,
    SpeechSource,
    TurnSchedule,
    mouth_area_signal,
    render_binaural,
)

FAST = AgentConfig(fast=True)


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
# State encoding


def test_encode_state_center_no_face_pan_zero():
    # location term 2 (center), no face (bucket 9), pan 0 (bucket 2):
    # 2 * 50 + 9 * 5 + 2.
    assert encode_state(2, None, 0.0) == 147


def test_face_bucket_center_cell():
    assert face_bucket((GRID_W // 2, GRID_H // 2)) == 4


def test_face_bucket_corners_and_missing():
    assert face_bucket((0, 0)) == 0
    assert face_bucket((GRID_W - 1, 0)) == 2
    assert face_bucket((0, GRID_H - 1)) == 6
    assert face_bucket((GRID_W - 1, GRID_H - 1)) == 8
    assert face_bucket(None) == 9


def test_face_bucket_rejects_out_of_grid():
    with pytest.raises(DomainError):
        face_bucket((GRID_W, 0))
    with pytest.raises(DomainError):
        face_bucket((0, -1))


def test_pan_bucket_edges():
    assert pan_bucket(-80.0) == 0
    assert pan_bucket(80.0) == 4  # clamped upper edge
    assert pan_bucket(0.0) == 2
    assert pan_bucket(15.0) == 2
    assert pan_bucket(16.0) == 3
    assert pan_bucket(-17.0) == 1
    assert pan_bucket(47.0) == 3
    assert pan_bucket(48.0) == 4


def test_pan_bucket_rejects_out_of_range():
    with pytest.raises(DomainError):
        pan_bucket(80.5)


def test_encode_state_rejects_bad_location():
    with pytest.raises(DomainError):
        encode_state(5, None, 0.0)
    with pytest.raises(DomainError):
        encode_state(-1, None, 0.0)


def test_encode_state_closure_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        loc = int(rng.integers(0, 5))
        if rng.random() < 0.3:
            face = None
        else:
            face = (int(rng.integers(0, GRID_W)), int(rng.integers(0, GRID_H)))
        pan = float(rng.uniform(-80.0, 80.0))
        state = encode_state(loc, face, pan)
        assert 0 <= state < N_STATES


# ---------------------------------------------------------------------------
# Policy


def test_select_action_greedy_argmax():
    rng = np.random.default_rng(0)
    assert select_action(np.array([0.0, 2.0, 1.0, 0.0, 0.0]), 0.0, rng) == 1


def test_select_action_tie_breaks_to_lowest_index():
    rng = np.random.default_rng(0)
    assert select_action(np.zeros(5), 0.0, rng) == 0
    assert select_action(np.array([5.0, 1.0, 5.0, 0.0, 0.0]), 0.0, rng) == 0


def test_select_action_epsilon_one_is_uniform():
    rng = np.random.default_rng(123)
    counts = np.zeros(N_ACTIONS)
    n = 10000
    for _ in range(n):
        counts[select_action(np.zeros(5), 1.0, rng)] += 1
    # Binomial(10000, 0.2): mean 2000, sigma 40; all counts within 3 sigma.
    assert np.all(np.abs(counts - n / N_ACTIONS) <= 3 * np.sqrt(n * 0.2 * 0.8))


def test_select_action_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        select_action(np.zeros(4), 0.0, rng)
    with pytest.raises(DomainError):
        select_action(np.zeros(5), 1.5, rng)


# ---------------------------------------------------------------------------
# Q update


def test_q_update_nonterminal_from_zero():
    qt = new_qtable()
    assert q_update(qt, 3, 1, 1.0, 4, terminal=False) == pytest.approx(0.1)
    assert qt.values[3, 1] == pytest.approx(0.1)


def test_q_update_terminal_value():
    qt = new_qtable()
    assert q_update(qt, 0, 0, 1.48, 1, terminal=True) == pytest.approx(0.148)


def test_q_update_zero_learning_rate_is_identity(monkeypatch):
    monkeypatch.setattr(ag, "LEARNING_RATE", 0.0)
    qt = new_qtable()
    qt.values[:] = 0.5
    q_update(qt, 2, 2, 3.0, 3, terminal=False)
    assert np.all(qt.values == 0.5)


def test_q_update_bootstraps_from_next_state_max():
    qt = new_qtable()
    qt.values[7] = [0.0, 2.0, 0.0, 0.0, 0.0]
    q_update(qt, 1, 0, 0.0, 7, terminal=False)
    # target = 0 + 0.9 * 2; update = 0.1 * 1.8
    assert qt.values[1, 0] == pytest.approx(0.18)


def test_q_update_increments_visit_count():
    qt = new_qtable()
    q_update(qt, 5, 3, 1.0, 6, terminal=False)
    q_update(qt, 5, 3, 1.0, 6, terminal=False)
    assert qt.visit_counts[5, 3] == 2
    assert qt.visit_counts.sum() == 2


def test_q_update_fixed_point_constant_terminal_reward():
    qt = new_qtable()
    c = 2.5
    for _ in range(200):
        q_update(qt, 0, 0, c, 0, terminal=True)
    assert abs(qt.values[0, 0] - c) < 1e-6


# ---------------------------------------------------------------------------
# Exploration schedule and fixation test


def test_epsilon_anneal_endpoints_and_midpoint():
    assert epsilon_at(0, 100) == pytest.approx(0.5)
    assert epsilon_at(99, 100) == pytest.approx(0.05)
    assert epsilon_at(50, 101) == pytest.approx(0.275)
    assert epsilon_at(0, 1) == pytest.approx(0.05)


def test_is_fixated_inclusive_tolerance():
    assert is_fixated(HeadPose(0.0, 0.0), 10.0, -10.0)
    assert not is_fixated(HeadPose(0.0, 0.0), 10.5, 0.0)
    assert not is_fixated(HeadPose(0.0, 0.0), 0.0, 10.5)
    assert is_fixated(HeadPose(20.0, -5.0), 25.0, 4.0)


# ---------------------------------------------------------------------------
# Q table container and persistence


def test_new_qtable_shape_and_zero():
    qt = new_qtable()
    assert qt.values.shape == (N_STATES, N_ACTIONS)
    assert qt.visit_counts.shape == (N_STATES, N_ACTIONS)
    assert qt.visit_counts.dtype == np.int64
    assert not qt.values.any()
    assert not qt.visit_counts.any()


def test_qtable_roundtrip(tmp_path):
    qt = new_qtable()
    qt.values[:] = np.random.default_rng(1).normal(size=qt.values.shape)
    qt.visit_counts[10, 2] = 17
    path = tmp_path / "table.npz"
    save_qtable(path, qt)
    loaded = load_qtable(path)
    assert np.array_equal(loaded.values, qt.values)
    assert np.array_equal(loaded.visit_counts, qt.visit_counts)


def test_load_qtable_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_qtable(tmp_path / "nope.npz")


def test_load_qtable_garbage_file(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_text("not an archive")
    with pytest.raises(FormatError):
        load_qtable(path)


def test_load_qtable_missing_arrays(tmp_path):
    path = tmp_path / "partial.npz"
    with open(path, "wb") as fh:
        np.savez(fh, values=np.zeros((N_STATES, N_ACTIONS)))
    with pytest.raises(FormatError):
        load_qtable(path)


def test_load_qtable_bad_shape(tmp_path):
    path = tmp_path / "shape.npz"
    with open(path, "wb") as fh:
        np.savez(fh, values=np.zeros((3, 3)), visit_counts=np.zeros((3, 3), int))
    with pytest.raises(FormatError):
        load_qtable(path)


def test_load_qtable_non_finite(tmp_path):
    values = np.zeros((N_STATES, N_ACTIONS))
    values[0, 0] = np.nan
    path = tmp_path / "nan.npz"
    with open(path, "wb") as fh:
        np.savez(fh, values=values, visit_counts=np.zeros_like(values, dtype=np.int64))
    with pytest.raises(FormatError):
        load_qtable(path)


def test_save_qtable_rejects_bare_array(tmp_path):
    with pytest.raises(DomainError):
        save_qtable(tmp_path / "q.npz", np.zeros((N_STATES, N_ACTIONS)))


# ---------------------------------------------------------------------------
# Episode runner


def test_run_episode_already_fixating_succeeds_in_hold_steps():
    # Speaker dead ahead of the initial pose; the all-zero table's greedy
    # action is "none" by tie-break, so the episode is three fixated steps.
    scene = single_speaker_scene(0.0, 0.0)
    qt = new_qtable()
    result = run_episode(scene, HeadPose(0.0, 0.0), qt, config=FAST)
    assert result.success
    assert result.steps == 3
    assert result.total_reward >= 3.0
    assert result.total_reward == pytest.approx(3.0)
    assert result.final_pose == HeadPose(0.0, 0.0)
    assert len(result.trajectory) == result.steps
    assert all(step[1] == "none" for step in result.trajectory)


def test_full_fidelity_episode_already_fixating_succeeds_in_hold_steps():
    # The default config is full fidelity: 32 bands, 0.2 s frames of two
    # hops, 0.5 s steps.
    scene = single_speaker_scene(0.0, 0.0)
    result = run_episode(scene, HeadPose(0.0, 0.0), new_qtable(), config=AgentConfig())
    assert result.success
    assert result.steps == 3
    assert len(result.trajectory) == result.steps
    assert all(step[1] == "none" for step in result.trajectory)
    assert [step[2] for step in result.trajectory] == pytest.approx([1.0] * 3)
    assert result.final_pose == HeadPose(0.0, 0.0)
    assert [(c.pan_deg, c.tilt_deg) for c in result.captures] == [(0.0, 0.0)]


@pytest.mark.parametrize("config", [FAST, AgentConfig()], ids=["fast", "full"])
def test_run_episode_does_not_depend_on_the_frontend_thread_count(frontend_threads, config):
    """A learning, exploring episode on one frontend thread and on two gives
    the same result and Q table bit for bit."""
    runs = []
    for threads in (1, 2):
        frontend_threads(threads)
        qt = new_qtable()
        r = run_episode(single_speaker_scene(70.0, 0.0), HeadPose(0.0, 0.0), qt, config=config,
                        rng=np.random.default_rng(4), epsilon=0.5, learn=True, render_seed=6)
        captures = [(c.time_s, c.pan_deg, c.tilt_deg, c.audio.tobytes(), c.posterior_peak)
                    for c in r.captures]
        runs.append((r.success, r.steps, r.total_reward, r.final_pose, r.trajectory, captures,
                     qt.values.tobytes(), qt.visit_counts.tobytes()))
    assert runs[0] == runs[1]
    assert runs[0][1] > 1 and runs[0][5]


def test_run_episode_captures_initial_pose_evidence():
    scene = single_speaker_scene(0.0, 0.0)
    result = run_episode(scene, HeadPose(0.0, 0.0), new_qtable(), config=FAST)
    assert len(result.captures) == 1
    cap = result.captures[0]
    assert cap.pan_deg == 0.0
    assert cap.tilt_deg == 0.0
    assert cap.posterior_peak >= 0.25


def recording_renders(monkeypatch):
    """Route the agent's renders through a recorder of ``(t0, audio)``."""
    renders = []

    def recording_render(*args, **kwargs):
        clip = render_binaural(*args, **kwargs)
        renders.append((args[2], clip.audio))
        return clip

    monkeypatch.setattr(ag, "render_binaural", recording_render)
    return renders


def test_run_episode_captures_the_last_window_of_rendered_audio(monkeypatch):
    # The speaker sits outside the fixation box and the zero table holds
    # still, so the episode runs all 40 steps and captures at 2 s and 4 s.
    renders = recording_renders(monkeypatch)
    scene = single_speaker_scene(45.0, 0.0)
    result = run_episode(scene, HeadPose(0.0, 0.0), new_qtable(), config=FAST)
    assert [cap.time_s for cap in result.captures] == [2.0, 4.0]
    for cap in result.captures:
        audio = np.concatenate([a for t0, a in renders if t0 < cap.time_s], axis=1)
        assert np.array_equal(cap.audio, audio[:, -EVIDENCE_WINDOW_SAMPLES:])


def scripted_actions(monkeypatch, script):
    """Make the agent take ``script[k]`` at step ``k`` and ``none`` after."""
    taken = []

    def choose(q_row, epsilon, rng):
        taken.append(script[len(taken)] if len(taken) < len(script) else "none")
        return ACTIONS.index(taken[-1])

    monkeypatch.setattr(ag, "select_action", choose)


def test_run_episode_captures_no_window_heard_at_two_poses(monkeypatch):
    # The head turns right at step 17, at 3.7 s, so the evidence window
    # before 4.0 s holds 0.2 s heard at pan 0 and 0.3 s at pan 5: no
    # capture then.  The first window all heard at pan 5 ends at 4.2 s.
    scripted_actions(monkeypatch, ["none"] * 17 + ["right"])
    result = run_episode(single_speaker_scene(45.0, 0.0), HeadPose(0.0, 0.0),
                         new_qtable(), config=FAST)
    assert result.steps == FAST.max_steps
    assert [(c.time_s, c.pan_deg) for c in result.captures] == [(2.0, 0.0), (4.2, 5.0)]


def test_full_fidelity_episode_that_moves_still_captures(monkeypatch):
    # Each 0.5 s step is one evidence window heard at one pose, so the head
    # turning right on every step does not stop the 4.0 s capture.
    scripted_actions(monkeypatch, ["right"] * 5)
    result = run_episode(single_speaker_scene(25.0, 0.0), HeadPose(0.0, 0.0),
                         new_qtable(), config=AgentConfig())
    assert result.success and result.steps == 5
    assert [(c.time_s, c.pan_deg) for c in result.captures] == [(2.0, 0.0), (4.0, 20.0)]


def test_run_episode_without_a_correlation_takes_no_mouth_samples(monkeypatch):
    calls = []

    def recording_mouth(*args, **kwargs):
        calls.append(args[2:])
        return mouth_area_signal(*args, **kwargs)

    monkeypatch.setattr(ag, "mouth_area_signal", recording_mouth)
    result = run_episode(single_speaker_scene(45.0, 0.0), HeadPose(0.0, 0.0),
                         new_qtable(), config=FAST)
    assert result.steps == FAST.max_steps and result.total_reward == 0.0
    assert calls == []


def test_run_episode_without_a_correlation_takes_no_envelope(monkeypatch):
    # Speaker outside the fixation box and a zero table that holds still:
    # 40 steps, none fixated, so no correlation ever reads an envelope.
    calls = []
    monkeypatch.setattr(ag, "analytic_envelope", lambda x: calls.append(x))
    result = run_episode(single_speaker_scene(45.0, 0.0), HeadPose(0.0, 0.0),
                         new_qtable(), config=FAST)
    assert result.steps == FAST.max_steps and result.total_reward == 0.0
    assert calls == []


def test_run_episode_without_a_correlation_renders_only_the_preroll_tail_and_steps(
    monkeypatch,
):
    # Speaker outside the fixation box and a zero table that holds still:
    # 40 unfixated steps, so nothing reads the pre-roll's head.
    renders = recording_renders(monkeypatch)
    result = run_episode(single_speaker_scene(45.0, 0.0), HeadPose(0.0, 0.0),
                         new_qtable(), config=FAST)
    assert result.steps == FAST.max_steps
    assert sum(audio.shape[1] for _, audio in renders) == 24_000 + 4_800 * result.steps
    assert all(t0 > 0 for t0, _ in renders)


def eager_envelopes(chunks):
    """The 10 Hz envelope of each chunk, taken on its own."""
    return [avsync.resample_envelope(avsync.analytic_envelope(c), 48_000, 10) for c in chunks]


def eager_mouth(scene, steps):
    """The mouth samples of the pre-roll, then of each fast step, taken on their own."""
    step_s = FAST.step_s
    spans = [(0.0, ag.PREROLL_S)] + [(ag.PREROLL_S + k * step_s, step_s) for k in range(steps)]
    return [mouth_area_signal(scene.speakers[0], scene.schedule, t0, d, seed=0)[1]
            for t0, d in spans]


def test_run_episode_reading_the_preroll_renders_its_head_once(monkeypatch):
    """A window one sample longer than the pre-roll reads it on every
    fixated step: its head is rendered once, at the first read, and each
    correlation sees the envelope of head plus tail taken as one chunk."""
    renders = recording_renders(monkeypatch)
    calls = []

    def recording_correlation(*args, **kwargs):
        calls.append(args)
        return avsync.correlate_min_p(*args, **kwargs)

    monkeypatch.setattr(ag, "correlate_min_p", recording_correlation)
    monkeypatch.setattr(AgentConfig, "corr_window_n", property(lambda self: 21))
    scene = single_speaker_scene(0.0, 0.0)
    result = run_episode(scene, HeadPose(0.0, 0.0), new_qtable(), config=FAST)
    assert result.success and len(calls) == result.steps == 3

    assert [t0 for t0, _ in renders] == [1.5, 2.0, 0.0, 2.1, 2.2]
    assert sum(audio.shape[1] for _, audio in renders) == 96_000 + 4_800 * result.steps
    head = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, 1.5, seed=0).audio
    assert np.array_equal(renders[2][1], head)
    chunks = [np.concatenate([head, renders[0][1]], axis=1)]
    chunks += [audio for t0, audio in renders if t0 >= ag.PREROLL_S]
    eager = eager_envelopes(chunks)
    mouth = eager_mouth(scene, result.steps)
    for k, (left, right, m) in enumerate(calls):
        env = np.concatenate(eager[: k + 2], axis=1)[:, -21:]
        assert np.array_equal(left, env[0]) and np.array_equal(right, env[1])
        assert np.array_equal(m, np.concatenate(mouth[: k + 2])[-21:])


@pytest.mark.parametrize("window", [3, 4, 22])
def test_run_episode_correlates_the_eager_envelope_of_the_chunks_read(monkeypatch, window):
    """Each correlation gets the window of the envelope and mouth samples
    taken of every chunk on arrival, bit for bit, while only the chunks some
    window reads are enveloped, each once.  The chunks are the pre-roll,
    its deferred head and its tail as one, then one per step."""
    renders = recording_renders(monkeypatch)
    enveloped, calls = [], []

    def steps():
        return [audio for t0, audio in renders if t0 >= ag.PREROLL_S]

    def recording_envelope(x):
        enveloped.append((next((i + 1 for i, c in enumerate(steps()) if c is x), 0), x))
        return avsync.analytic_envelope(x)

    def recording_correlation(*args, **kwargs):
        result = avsync.correlate_min_p(*args, **kwargs)
        calls.append((1 + len(steps()), args, result[0]))
        return result

    monkeypatch.setattr(ag, "analytic_envelope", recording_envelope)
    monkeypatch.setattr(ag, "correlate_min_p", recording_correlation)
    monkeypatch.setattr(AgentConfig, "corr_window_n", property(lambda self: window))
    # A face in the right third of the view turns the head right, else it
    # holds: with the speaker at 25 degrees that is two unfixated steps,
    # then three fixated ones, each correlated.
    qt = new_qtable()
    for state in range(N_STATES):
        if (state % 50) // 5 in (2, 5, 8):
            qt.values[state, ACTIONS.index("right")] = 1.0
    scene = single_speaker_scene(25.0, 0.0)
    result = run_episode(scene, HeadPose(0.0, 0.0), qt, config=FAST)
    assert [step[1] for step in result.trajectory] == ["right"] * 3 + ["none"] * 2
    assert result.success and len(calls) == 3

    head = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, 1.5, seed=0).audio
    chunks = [np.concatenate([head, renders[0][1]], axis=1)] + steps()
    eager = eager_envelopes(chunks)
    eager_mouths = eager_mouth(scene, result.steps)
    ends = np.cumsum([e.shape[1] for e in eager])
    read = set()
    for (n, (left, right, mouth), corr), step in zip(calls, result.trajectory[2:]):
        env = np.concatenate(eager[:n], axis=1)[:, -window:]
        assert np.array_equal(left, env[0]) and np.array_equal(right, env[1])
        assert np.array_equal(mouth, np.concatenate(eager_mouths[:n])[-window:])
        assert corr == avsync.correlate_min_p(env[0], env[1], mouth, window_n=window)[0]
        assert step[2] == avsync.reward(True, corr).total
        read |= {i for i in range(n) if ends[i] > ends[n - 1] - window}
    assert [i for i, _ in enveloped] == sorted(read)
    assert all(np.array_equal(x, chunks[i]) for i, x in enveloped)


class FakeRender:
    """Stands in for ``render_binaural``: slices a fixed ``(2, n)`` signal
    by the absolute sample index."""

    def __init__(self, signal):
        self.signal = signal

    def __call__(self, scene, pose, t0, duration, seed=0):
        i = round(t0 * 48_000)
        return SimpleNamespace(audio=self.signal[:, i : i + round(duration * 48_000)])


def test_episode_audio_keeps_at_most_the_window_plus_one_span(monkeypatch):
    """Heard spans of any whole number of 10 Hz samples, the record keeps
    spans only while the newer ones fall short of ``window_n`` samples (or
    of an evidence window, when that is longer), and its envelope, mouth
    samples and evidence window are the eager ones at every point."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    scene = single_speaker_scene(0.0, 0.0)
    evidence_n10 = round(ag.EVIDENCE_WINDOW_S * 10)

    @hyp.settings(max_examples=30, deadline=None, database=None)
    @hyp.given(
        window=st.integers(1, 30),
        lengths=st.lists(st.integers(1, 8), min_size=1, max_size=12),
        reads=st.lists(st.booleans(), min_size=12, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(window, lengths, reads, seed):
        render = FakeRender(np.random.default_rng(seed).standard_normal((2, 96 * 4800)))
        monkeypatch.setattr(ag, "render_binaural", render)
        heard = ag.EpisodeAudio(scene, window, seed=3)
        env, mouth, t0 = [], [], 0.0
        for n10, read in zip(lengths, reads):
            d = n10 / 10
            chunk = render.signal[:, round(t0 * 48_000) : round((t0 + d) * 48_000)]
            env.append(avsync.resample_envelope(avsync.analytic_envelope(chunk), 48_000, 10))
            mouth.append(mouth_area_signal(scene.speakers[0], scene.schedule, t0, d, seed=3)[1])
            heard.hear(HeadPose(0.0, 0.0), t0, d)
            t0 += d
            kept = [span.n10 for span in heard._spans]
            total = sum(e.shape[1] for e in env)
            assert sum(kept) - kept[0] < max(window, evidence_n10)
            assert sum(kept) >= min(window, total)
            if total >= evidence_n10:
                end = total * 4800
                assert np.array_equal(heard.evidence(HeadPose(0.0, 0.0)),
                                      render.signal[:, end - EVIDENCE_WINDOW_SAMPLES : end])
            if read:
                got = heard.correlation_window()
                if total < window:
                    assert got is None
                else:
                    left, right, m = got
                    expect = np.concatenate(env, axis=1)[:, -window:]
                    assert np.array_equal(left, expect[0]) and np.array_equal(right, expect[1])
                    assert np.array_equal(m, np.concatenate(mouth)[-window:])

    check()


def test_episode_audio_evidence_is_the_last_window_heard_at_one_pose(monkeypatch):
    """``hear`` renders only a span's last half second, and ``evidence``
    returns the last half second of time, which is always rendered, only
    if every span it touches was heard at the asked pose."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    poses = [HeadPose(0.0, 0.0), HeadPose(5.0, 0.0), HeadPose(5.0, -5.0)]
    n_ev = EVIDENCE_WINDOW_SAMPLES

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        spans=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 2)),
                       min_size=1, max_size=15),
        ask=st.integers(0, 2),
    )
    def check(spans, ask):
        # Sample i of the signal holds i, so a window names where it came from.
        signal = np.tile(np.arange(120 * 4800, dtype=np.float64), (2, 1))
        render = FakeRender(signal)
        monkeypatch.setattr(ag, "render_binaural", render)
        heard = ag.EpisodeAudio(single_speaker_scene(0.0, 0.0), 50, seed=0)
        timeline, end = [], 0
        for n10, p in spans:
            audio = heard.hear(poses[p], end / 48_000, n10 / 10)
            n = n10 * 4800
            assert audio.shape == (2, min(n, n_ev))
            assert np.array_equal(audio, signal[:, end + n - audio.shape[1] : end + n])
            timeline += [p] * n
            end += n
        got = heard.evidence(poses[ask])
        if end < n_ev or set(timeline[-n_ev:]) != {ask}:
            assert got is None
        else:
            assert np.array_equal(got, signal[:, end - n_ev : end])

    check()


def test_run_episode_breaking_fixation_terminates_as_failure():
    # Handcraft a policy that steps into the tolerance box and then back
    # out: face in the right grid column -> pan right, face in the center
    # column -> pan left.  Acquiring and then breaking fixation must end the
    # episode immediately as a failure.
    qt = new_qtable()
    for state in range(N_STATES):
        bucket = (state % 50) // 5
        if bucket < 9 and bucket % 3 == 2:
            qt.values[state, ACTIONS.index("right")] = 1.0
        elif bucket < 9 and bucket % 3 == 1:
            qt.values[state, ACTIONS.index("left")] = 1.0
    scene = single_speaker_scene(15.0, 0.0)
    result = run_episode(scene, HeadPose(0.0, 0.0), qt, config=FAST)
    assert not result.success
    assert result.steps == 2
    assert [step[1] for step in result.trajectory] == ["right", "left"]
    assert result.trajectory[0][2] == pytest.approx(1.0)  # fixated step
    assert result.trajectory[1][2] == pytest.approx(0.0)  # broke fixation


def test_run_episode_learning_updates_visited_entries_only():
    scene = single_speaker_scene(0.0, 0.0)
    qt = new_qtable()
    result = run_episode(
        scene,
        HeadPose(0.0, 0.0),
        qt,
        config=FAST,
        rng=np.random.default_rng(3),
        epsilon=0.0,
        learn=True,
    )
    assert qt.visit_counts.sum() == result.steps
    assert np.count_nonzero(qt.values) <= result.steps


def test_run_episode_is_deterministic():
    scene = single_speaker_scene(20.0, 5.0)
    results = []
    tables = []
    for _ in range(2):
        qt = new_qtable()
        res = run_episode(
            scene,
            HeadPose(0.0, 0.0),
            qt,
            config=FAST,
            rng=np.random.default_rng(11),
            epsilon=0.4,
            learn=True,
            render_seed=5,
        )
        results.append(res)
        tables.append(qt)
    assert results[0].trajectory == results[1].trajectory
    assert results[0].total_reward == results[1].total_reward
    assert np.array_equal(tables[0].values, tables[1].values)
    assert np.array_equal(tables[0].visit_counts, tables[1].visit_counts)


def test_run_episode_rejects_multi_speaker_scene():
    speakers = (
        SpeakerSpec(id=1, azimuth_world=-30.0, elevation_world=0.0,
                    speech=SpeechSource(seed=1)),
        SpeakerSpec(id=2, azimuth_world=30.0, elevation_world=0.0,
                    speech=SpeechSource(seed=2)),
    )
    scene = Scene(
        speakers=speakers,
        schedule=TurnSchedule(((0.0, 30.0, 1),)),
        noise_level=0.01,
    )
    with pytest.raises(DomainError):
        run_episode(scene, HeadPose(0.0, 0.0), new_qtable(), config=FAST)


def test_run_episode_rejects_bare_array_table():
    scene = single_speaker_scene(0.0, 0.0)
    with pytest.raises(DomainError):
        run_episode(
            scene, HeadPose(0.0, 0.0), np.zeros((N_STATES, N_ACTIONS)), config=FAST
        )


# ---------------------------------------------------------------------------
# Scene samplers


def test_training_scene_lattice_properties():
    rng = np.random.default_rng(9)
    for _ in range(200):
        scene, pose = sample_training_scene(rng)
        speaker = scene.speakers[0]
        assert pose.pan in {-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0}
        assert pose.tilt in {-10.0, -5.0, 0.0, 5.0, 10.0}
        assert abs(speaker.azimuth_world - pose.pan) <= 60.0
        assert abs(speaker.elevation_world - pose.tilt) <= 15.0
        assert speaker.azimuth_world % 5 == 0
        assert speaker.elevation_world % 5 == 0
        assert abs(speaker.elevation_world) <= 30.0
        assert scene.noise_level == 0.01


def test_eval_scene_offsets_start_outside_tolerance():
    rng = np.random.default_rng(10)
    for _ in range(200):
        scene, pose = sample_eval_scene(rng)
        offset = abs(scene.speakers[0].azimuth_world - pose.pan)
        assert 15.0 <= offset <= 60.0


# ---------------------------------------------------------------------------
# Training and evaluation loops


def test_train_is_deterministic_and_counts_successes():
    runs = []
    for _ in range(2):
        qt, stats = train(3, seed=2, config=FAST)
        runs.append((qt, stats))
    (qt1, stats1), (qt2, stats2) = runs
    assert np.array_equal(qt1.values, qt2.values)
    assert np.array_equal(qt1.visit_counts, qt2.visit_counts)
    assert stats1 == stats2
    assert stats1.episodes == 3
    assert 0 <= stats1.successes <= 3


def test_run_episodes_seeds_each_episode_from_seed_and_index():
    qt = new_qtable()
    got = list(run_episodes(qt, 2, 7, FAST, epsilon=1.0, sampler=sample_eval_scene))
    assert [i for i, _, _ in got] == [0, 1]
    for i, scene, result in got:
        ref_scene, pose = sample_eval_scene(np.random.default_rng([7, i, 0]))
        ref = run_episode(
            ref_scene, pose, qt, config=FAST, rng=np.random.default_rng([7, i, 1]),
            epsilon=1.0, render_seed=7 * 1_000_003 + i,
        )
        assert scene == ref_scene
        assert result.trajectory == ref.trajectory


def test_every_loop_reaches_run_episode_through_the_agent_module(monkeypatch):
    """Replacing ``agent.run_episode`` sees each episode of train, evaluate
    and build_dataset, with the episode's exploration and render seed."""
    from cocktail.dataset import build_dataset

    calls = []

    def fake(scene, init_pose, qtable, **kwargs):
        calls.append(kwargs)
        return EpisodeResult(False, 1, 0.0, init_pose, (), ((0, "none", 0.0, 0),))

    monkeypatch.setattr(ag, "run_episode", fake)
    train(3, seed=4, config=FAST)
    evaluate(new_qtable(), 2, seed=5, config=FAST, policy="random")
    build_dataset(new_qtable(), 2, seed=6, config=FAST)
    assert [c["learn"] for c in calls] == [True] * 3 + [False] * 4
    assert [c["epsilon"] for c in calls] == [
        epsilon_at(0, 3), epsilon_at(1, 3), epsilon_at(2, 3), 1.0, 1.0, 0.0, 0.0
    ]
    assert [c["render_seed"] for c in calls] == [
        s * 1_000_003 + i for s, i in ((4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (6, 0), (6, 1))
    ]
    assert all(c["config"] is FAST for c in calls)


def test_train_rejects_bad_episode_count():
    with pytest.raises(DomainError):
        train(0, config=FAST)


def test_evaluate_is_repeatable_and_validates_policy():
    qt = new_qtable()
    first = evaluate(qt, 2, seed=5, config=FAST, policy="random")
    second = evaluate(qt, 2, seed=5, config=FAST, policy="random")
    assert first == second
    assert first.episodes == 2
    assert len(first.steps) == 2
    with pytest.raises(DomainError):
        evaluate(qt, 2, policy="softmax")
    with pytest.raises(DomainError):
        evaluate(qt, 0, config=FAST)


# ---------------------------------------------------------------------------
# Config


def test_agent_config_modes():
    fast, slow = AgentConfig(fast=True), AgentConfig()
    assert fast.step_s < slow.step_s
    assert fast.num_bands < slow.num_bands
    assert fast.corr_window_n == 50 and slow.corr_window_n == 100
    assert fast.max_steps == 40 and slow.max_steps == 60
