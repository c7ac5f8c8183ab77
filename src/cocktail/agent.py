"""Tabular Q-learning head control: orient toward the active speaker.

The agent lives in a loop of listen, look, move.  Its observation is heavily
discretized into 250 states:

* 5 auditory location terms (the fuzzy classification of the azimuth
  posterior's peak, head-relative),
* 10 visual buckets (which cell of a 3x3 partition of the camera grid holds
  the face, or "no face"),
* 5 pan buckets (coarse proprioception of the current pan angle).

Five actions move the head in 5-degree steps or keep it still.  The reward
is the audio-visual objective ``r_face + r_corr`` from
:mod:`cocktail.avsync`: one point for holding a face in view plus the
significant positive correlation between that face's mouth area and the
binaural envelope.  An episode models a single attention event: it succeeds
when the head stays within the fixation tolerance of the active speaker for
three consecutive steps, and it ends in failure the moment an acquired
fixation is broken.  Without that rule the reward admits a degenerate
optimum: oscillating across the tolerance boundary collects the face reward
on alternate steps forever, which under discounting outvalues finishing the
episode.  Ending the event on the first break makes holding strictly
better, so the learned policy fixates and stays.  On success, the
episode's evidence captures (see :mod:`cocktail.dataset`) can be labeled
from the final pose alone.

Everything is deterministic given the seeds: scenes, rendering, exploration
and the simulator's noise streams all derive from explicit integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import frontend
from .avsync import analytic_envelope, correlate_min_p, resample_envelope, reward
from .dataset import EVIDENCE_WINDOW_S, EVIDENCE_WINDOW_SAMPLES, EvidenceBuffer
from .errors import DomainError, FormatError, InputError
from .fuzzy import classify, term_index
from .scene import (
    ACTIONS,
    GRID_H,
    GRID_W,
    MOUTH_RATE_HZ,
    PAN_LIMIT_DEG,
    SAMPLE_RATE,
    HeadPose,
    Scene,
    SpeakerSpec,
    SpeechSource,
    TurnSchedule,
    mouth_area_signal,
    observe_visual,
    render_binaural,
    step_head,
)

#: Discrete state space: 5 locations x 10 face buckets x 5 pan buckets.
N_LOCATIONS = 5
N_FACE_BUCKETS = 10
N_PAN_BUCKETS = 5
N_STATES = N_LOCATIONS * N_FACE_BUCKETS * N_PAN_BUCKETS
N_ACTIONS = len(ACTIONS)

LEARNING_RATE = 0.1
DISCOUNT = 0.9
EPSILON_START = 0.5
EPSILON_FINAL = 0.05

#: Fixation: both relative angles within this tolerance...
FIXATION_TOLERANCE_DEG = 10.0
#: ...for this many consecutive post-action poses.
FIXATION_HOLD_STEPS = 3

MAX_EPISODE_STEPS = 60
FAST_MAX_EPISODE_STEPS = 40

#: Audio heard at the initial pose before the first step, so the evidence
#: window is full and the posterior is warmed up when the episode starts;
#: :func:`run_episode` renders its head only if a correlation reads it.
PREROLL_S = 2.0

#: Background noise level for sampled training/evaluation scenes.
SCENE_NOISE_LEVEL = 0.01

#: Schedule length for sampled scenes; comfortably longer than any episode.
SCENE_DURATION_S = 40.0


@dataclass(frozen=True)
class AgentConfig:
    """Episode timing/resolution knobs.

    ``fast`` trades fidelity for speed: coarser time steps, fewer gammatone
    bands, frame-length analysis hops, and a shorter correlation window
    (5 s instead of 10 s at the 10 Hz mouth rate).  The state space, reward
    and termination rules are identical in both modes.  The window also
    bounds the raw audio an episode keeps for its envelopes (see
    :class:`EnvelopeWindow`): the window plus at most one chunk.
    """

    fast: bool = False

    @property
    def step_s(self) -> float:
        return 0.1 if self.fast else 0.5

    @property
    def num_bands(self) -> int:
        return 8 if self.fast else frontend.NUM_BANDS

    @property
    def frame_s(self) -> float:
        return 0.1 if self.fast else frontend.FRAME_S

    @property
    def corr_window_n(self) -> int:
        return 50 if self.fast else 100

    @property
    def max_steps(self) -> int:
        return FAST_MAX_EPISODE_STEPS if self.fast else MAX_EPISODE_STEPS


# ---------------------------------------------------------------------------
# State encoding


def face_bucket(face) -> int:
    """Bucket a face grid position into a 3x3 partition; 9 means no face."""
    if face is None:
        return 9
    gx, gy = face
    if not (0 <= gx < GRID_W and 0 <= gy < GRID_H):
        raise DomainError(f"face cell ({gx}, {gy}) outside the camera grid")
    return (gy * 3 // GRID_H) * 3 + (gx * 3 // GRID_W)


def pan_bucket(pan_deg: float) -> int:
    """Coarse pan proprioception: five 32-degree buckets over [-80, 80]."""
    if not -PAN_LIMIT_DEG <= pan_deg <= PAN_LIMIT_DEG:
        raise DomainError(f"pan {pan_deg} outside +/-{PAN_LIMIT_DEG}")
    return min(N_PAN_BUCKETS - 1, int((pan_deg + PAN_LIMIT_DEG) // 32))


def encode_state(loc_index: int, face, pan_deg: float) -> int:
    """Flatten (location term, face bucket, pan bucket) into one state id."""
    if not 0 <= loc_index < N_LOCATIONS:
        raise DomainError(f"location index {loc_index} outside 0..{N_LOCATIONS - 1}")
    return (
        loc_index * N_FACE_BUCKETS * N_PAN_BUCKETS
        + face_bucket(face) * N_PAN_BUCKETS
        + pan_bucket(pan_deg)
    )


# ---------------------------------------------------------------------------
# Q table and policy


@dataclass
class QTable:
    """Action values plus per-(state, action) visit counts.

    ``values`` is the 250 x 5 table of Q estimates; ``visit_counts`` records
    how many learning updates each entry has received, which makes coverage
    of the state space inspectable after training.
    """

    values: np.ndarray
    visit_counts: np.ndarray


def new_qtable() -> QTable:
    return QTable(
        values=np.zeros((N_STATES, N_ACTIONS)),
        visit_counts=np.zeros((N_STATES, N_ACTIONS), dtype=np.int64),
    )


def _validate_qtable(qtable) -> QTable:
    if not isinstance(qtable, QTable):
        raise DomainError(f"expected a QTable, got {type(qtable).__name__}")
    if qtable.values.shape != (N_STATES, N_ACTIONS):
        raise DomainError(
            f"qtable values shape {qtable.values.shape} != ({N_STATES}, {N_ACTIONS})"
        )
    if qtable.visit_counts.shape != (N_STATES, N_ACTIONS):
        raise DomainError(
            f"qtable counts shape {qtable.visit_counts.shape}"
            f" != ({N_STATES}, {N_ACTIONS})"
        )
    if not np.all(np.isfinite(qtable.values)):
        raise DomainError("qtable contains non-finite values")
    if np.any(qtable.visit_counts < 0):
        raise DomainError("qtable visit counts must be nonnegative")
    return qtable


def select_action(q_row: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy action choice; greedy ties break to the lowest index."""
    row = np.asarray(q_row, dtype=np.float64)
    if row.shape != (N_ACTIONS,):
        raise DomainError(f"q_row must have {N_ACTIONS} entries, got {row.shape}")
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(N_ACTIONS))
    return int(np.argmax(row))


def q_update(
    qtable: QTable,
    state: int,
    action: int,
    reward_value: float,
    next_state: int,
    terminal: bool,
) -> float:
    """One Q-learning backup; returns the updated entry.

    ``Q[s, a] += lr * (r + 0.9 * max_a' Q[s', a'] * [not terminal] - Q[s, a])``

    The entry's visit count is incremented alongside the value update.
    """
    q = qtable.values
    target = reward_value
    if not terminal:
        target += DISCOUNT * float(np.max(q[next_state]))
    q[state, action] += LEARNING_RATE * (target - q[state, action])
    qtable.visit_counts[state, action] += 1
    return float(q[state, action])


def epsilon_at(episode: int, total: int) -> float:
    """Linear exploration anneal from 0.5 to 0.05 over training."""
    if total <= 1:
        return EPSILON_FINAL
    frac = min(1.0, max(0.0, episode / (total - 1)))
    return EPSILON_START + (EPSILON_FINAL - EPSILON_START) * frac


def is_fixated(pose: HeadPose, azimuth_world: float, elevation_world: float) -> bool:
    """Is the head pointing at the source? Both angles within tolerance."""
    return (
        abs(azimuth_world - pose.pan) <= FIXATION_TOLERANCE_DEG
        and abs(elevation_world - pose.tilt) <= FIXATION_TOLERANCE_DEG
    )


# ---------------------------------------------------------------------------
# Episode runner


class EnvelopeWindow:
    """The 10 Hz binaural envelope of an episode's newest ``window_n``
    samples, taken only when a correlation reads it.

    :meth:`add` keeps each chunk, ``n`` a whole number of 10 Hz samples,
    either as its rendered ``(2, n)`` audio or as a function that renders
    that audio when a correlation first reads the chunk.  It drops the
    oldest chunk as soon as the newer ones alone cover the window, so fewer
    than ``window_n`` plus one chunk's samples are ever kept, and a chunk
    dropped unread is never rendered.  :meth:`last` replaces each chunk it
    reads by that chunk's 10 Hz envelope, once, with the same
    :func:`analytic_envelope` and :func:`resample_envelope` calls on the
    same audio as enveloping every chunk on arrival would make, so the
    result is the same bit for bit.  A chunk no correlation reads is never
    enveloped.
    """

    def __init__(self, window_n: int):
        self.window_n = window_n
        self._chunks: list[list] = []  # [10 Hz samples, audio or its renderer, enveloped?]

    def add(self, audio, n10: int | None = None) -> None:
        """Keep a ``(2, n)`` chunk, or a function rendering one ``n10``
        10 Hz samples long on first read."""
        if n10 is None:
            n10 = audio.shape[1] * MOUTH_RATE_HZ // SAMPLE_RATE
        self._chunks.append([n10, audio, False])
        while sum(c[0] for c in self._chunks[1:]) >= self.window_n:
            del self._chunks[0]

    def last(self) -> np.ndarray:
        """The ``(2, window_n)`` envelope of the newest ``window_n`` samples."""
        for chunk in self._chunks:
            if not chunk[2]:
                audio = chunk[1]() if callable(chunk[1]) else chunk[1]
                env = analytic_envelope(audio)
                chunk[1:] = resample_envelope(env, SAMPLE_RATE, MOUTH_RATE_HZ), True
        return np.concatenate([c[1] for c in self._chunks], axis=1)[:, -self.window_n :]


def _preroll_audio(scene: Scene, pose: HeadPose, tail: np.ndarray, seed: int) -> np.ndarray:
    """The whole pre-roll at ``pose``: its head, rendered now, then ``tail``."""
    head = render_binaural(scene, pose, 0.0, PREROLL_S - EVIDENCE_WINDOW_S, seed=seed).audio
    return np.concatenate([head, tail], axis=1)


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one attention episode.

    ``trajectory`` holds one ``(state, action, reward, next_state)`` tuple
    per step, so its length always equals ``steps``.
    """

    success: bool
    steps: int
    total_reward: float
    final_pose: HeadPose
    captures: tuple
    trajectory: tuple


def run_episode(
    scene: Scene,
    init_pose: HeadPose,
    qtable: QTable,
    *,
    config: AgentConfig | None = None,
    rng: np.random.Generator | None = None,
    epsilon: float = 0.0,
    learn: bool = False,
    render_seed: int = 0,
) -> EpisodeResult:
    """Run one fixation episode; optionally update ``qtable`` in place.

    The episode opens with a ``PREROLL_S`` pre-roll at the initial pose.
    Only its last ``EVIDENCE_WINDOW_S`` is rendered up front: it warms up
    the posterior and fills the evidence window.  The head before it is
    rendered when a correlation first reads the pre-roll's envelope, once,
    and never if none does (:class:`EnvelopeWindow`).  The pre-roll's mouth
    samples are taken whole at the start.

    The loop then alternates observe / act / listen: the agent encodes its
    state from the current posterior, visuals and pan; possibly snapshots
    evidence (the recent audio window was rendered at the pre-action pose,
    keeping captures pose-consistent); picks an action; renders the next
    ``config.step_s`` of audio at the new pose; and scores the step with the
    audio-visual reward.  The binaural envelope that reward correlates with
    the mouth is taken only of the chunks a correlation reads, when it first
    reads them.  Success is three consecutive fixated steps; breaking an
    acquired fixation ends the episode in failure (one attention event per
    episode, so boundary oscillation cannot outvalue holding).
    """
    if config is None:
        config = AgentConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    if len(scene.speakers) != 1:
        raise DomainError("run_episode requires a single-speaker scene")
    _validate_qtable(qtable)
    speaker = scene.speakers[0]

    tracker = frontend.AzimuthTracker(config.num_bands, config.frame_s)
    evidence = EvidenceBuffer()
    recent = np.zeros((2, 0))
    env = EnvelopeWindow(config.corr_window_n)
    pose = init_pose

    def listen(t0: float, duration: float) -> None:
        """Render ``[t0, t0 + duration)`` at `pose`; buffer and analyze it.

        The envelope window keeps a step's audio as it is, and in place of
        the pre-roll's tail a renderer of the whole pre-roll (head, then this
        tail) that runs only if a correlation reads it."""
        nonlocal recent
        stereo = render_binaural(scene, pose, t0, duration, seed=render_seed).audio
        # Trimming the chunk first bounds what the kept slice holds alive.
        recent = np.concatenate(
            [recent, stereo[:, -EVIDENCE_WINDOW_SAMPLES:]], axis=1
        )[:, -EVIDENCE_WINDOW_SAMPLES:]
        if t0 < PREROLL_S:
            env.add(partial(_preroll_audio, scene, pose, stereo, render_seed),
                    n10=round(PREROLL_S * MOUTH_RATE_HZ))
        else:
            env.add(stereo)  # first, so a chunk it drops is freed before the frontend runs
        tracker.feed(stereo)

    def observe() -> int:
        loc = term_index(classify(frontend.estimate_location(tracker.posterior)))
        face = None
        for sid, gx, gy in observe_visual(scene, pose):
            if sid == speaker.id:
                face = (gx, gy)
        return encode_state(loc, face, pose.pan)

    # Pre-roll at the initial pose.  Only its final evidence-window span is
    # rendered now: it warms up the posterior and fills the evidence window.
    listen(PREROLL_S - EVIDENCE_WINDOW_S, EVIDENCE_WINDOW_S)
    _, mouth = mouth_area_signal(speaker, scene.schedule, 0.0, PREROLL_S, seed=render_seed)

    total_reward = 0.0
    hold = 0
    steps = 0
    success = False
    trajectory = []
    state = observe()
    for k in range(config.max_steps):
        t = PREROLL_S + k * config.step_s
        evidence.maybe_capture(t, tracker.posterior, recent, pose)
        action = select_action(qtable.values[state], epsilon, rng)
        pose = step_head(pose, ACTIONS[action])
        listen(t, config.step_s)
        _, areas = mouth_area_signal(speaker, scene.schedule, t, config.step_s, seed=render_seed)
        mouth = np.concatenate([mouth, areas])
        fixated = is_fixated(pose, speaker.azimuth_world, speaker.elevation_world)
        broken = hold > 0 and not fixated
        hold = hold + 1 if fixated else 0
        corr = None
        if fixated and mouth.size >= config.corr_window_n:
            w = config.corr_window_n
            left, right = env.last()
            corr = correlate_min_p(left, right, mouth[-w:], window_n=w)[0]
        step_reward = reward(fixated, corr)
        total_reward += step_reward.total
        steps = k + 1
        success = hold >= FIXATION_HOLD_STEPS
        terminal = success or broken or steps >= config.max_steps
        next_state = observe()
        if learn:
            q_update(qtable, state, action, step_reward.total, next_state, terminal)
        trajectory.append((state, ACTIONS[action], step_reward.total, next_state))
        state = next_state
        if success or broken:
            break
    return EpisodeResult(
        success=success,
        steps=steps,
        total_reward=total_reward,
        final_pose=pose,
        captures=tuple(evidence.captures),
        trajectory=tuple(trajectory),
    )


# ---------------------------------------------------------------------------
# Scene sampling, training, evaluation


def _sampled_scene(rng, offset_steps):
    init_pan = 5.0 * int(rng.integers(-4, 5))
    init_tilt = 5.0 * int(rng.integers(-2, 3))
    azimuth = float(np.clip(init_pan + 5.0 * offset_steps, -90.0, 90.0))
    elevation = float(np.clip(init_tilt + 5.0 * int(rng.integers(-3, 4)), -30.0, 30.0))
    speaker = SpeakerSpec(
        id=1,
        azimuth_world=azimuth,
        elevation_world=elevation,
        speech=SpeechSource(seed=int(rng.integers(1, 2**31))),
    )
    scene = Scene(
        speakers=(speaker,),
        schedule=TurnSchedule(((0.0, SCENE_DURATION_S, 1),)),
        noise_level=SCENE_NOISE_LEVEL,
    )
    return scene, HeadPose(init_pan, init_tilt)


def sample_training_scene(rng: np.random.Generator):
    """A single-speaker scene on the 5-degree lattice around the start pose.

    Azimuth offsets span 0..60 degrees either side; elevation offsets stay
    within 15 degrees so the face is vertically inside the field of view
    whenever the pan is right.
    """
    return _sampled_scene(rng, int(rng.integers(-12, 13)))


def sample_eval_scene(rng: np.random.Generator):
    """Like :func:`sample_training_scene` but offsets are at least 15 degrees,
    so an undirected random walk rarely stumbles into fixation."""
    magnitude = int(rng.integers(3, 13))
    sign = 1 if rng.random() < 0.5 else -1
    return _sampled_scene(rng, sign * magnitude)


@dataclass(frozen=True)
class TrainStats:
    episodes: int
    successes: int
    final_success_rate: float


@dataclass(frozen=True)
class EvalStats:
    episodes: int
    success_rate: float
    median_steps: float
    steps: tuple


def run_episodes(
    qtable: QTable,
    num_episodes: int,
    seed: int,
    config: AgentConfig | None,
    *,
    learn: bool = False,
    epsilon: float = 0.0,
    sampler=sample_training_scene,
):
    """Run seeded episodes ``0 .. num_episodes - 1``; yield ``(i, scene, result)``.

    Episode ``i`` draws its scene from ``sampler(default_rng([seed, i, 0]))``,
    explores with ``default_rng([seed, i, 1])`` and renders with seed
    ``(seed * 1_000_003 + i) % 2**31``, so every episode is reproducible on
    its own.  While learning, exploration anneals by :func:`epsilon_at`;
    otherwise it stays at ``epsilon``.
    """
    if num_episodes <= 0:
        raise DomainError(f"num_episodes must be positive, got {num_episodes}")
    for i in range(num_episodes):
        scene, pose0 = sampler(np.random.default_rng([seed, i, 0]))
        result = run_episode(
            scene,
            pose0,
            qtable,
            config=config,
            rng=np.random.default_rng([seed, i, 1]),
            epsilon=epsilon_at(i, num_episodes) if learn else epsilon,
            learn=learn,
            render_seed=(seed * 1_000_003 + i) % (2**31),
        )
        yield i, scene, result


def train(
    num_episodes: int, seed: int = 0, config: AgentConfig | None = None
) -> tuple[QTable, TrainStats]:
    """Train a fresh Q table on sampled scenes with annealed exploration."""
    qtable = new_qtable()
    outcomes = [
        result.success
        for _, _, result in run_episodes(qtable, num_episodes, seed, config, learn=True)
    ]
    stats = TrainStats(
        episodes=num_episodes,
        successes=int(np.sum(outcomes)),
        final_success_rate=float(np.mean(outcomes[-100:])),
    )
    return qtable, stats


def evaluate(
    qtable: QTable,
    num_episodes: int,
    seed: int = 0,
    config: AgentConfig | None = None,
    policy: str = "greedy",
) -> EvalStats:
    """Evaluate a policy on a seeded scene set (no learning).

    ``policy`` is ``"greedy"`` (epsilon 0) or ``"random"`` (epsilon 1).  The
    scene sequence depends only on ``seed``, so both policies can be scored
    on identical episodes.
    """
    if policy not in ("greedy", "random"):
        raise DomainError(f"policy must be 'greedy' or 'random', got {policy!r}")
    epsilon = 0.0 if policy == "greedy" else 1.0
    steps = []
    successes = []
    for _, _, result in run_episodes(
        qtable, num_episodes, seed, config, epsilon=epsilon, sampler=sample_eval_scene
    ):
        steps.append(result.steps)
        successes.append(result.success)
    return EvalStats(
        episodes=num_episodes,
        success_rate=float(np.mean(successes)),
        median_steps=float(np.median(steps)),
        steps=tuple(steps),
    )


# ---------------------------------------------------------------------------
# Persistence


def save_qtable(path, qtable: QTable) -> None:
    """Save a Q table (values and visit counts) to ``path`` as a .npz file.

    The file handle is opened explicitly so the exact filename is used.
    """
    qt = _validate_qtable(qtable)
    with open(path, "wb") as fh:
        np.savez(fh, values=qt.values, visit_counts=qt.visit_counts)


def load_qtable(path) -> QTable:
    """Load and validate a Q table written by :func:`save_qtable`."""
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh)
            data = {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise InputError(f"no such Q-table file: {path}") from None
    except (ValueError, OSError) as exc:
        raise FormatError(f"not a valid Q-table file: {path}") from exc
    missing = {"values", "visit_counts"} - set(data)
    if missing:
        raise FormatError(f"Q-table file missing arrays: {sorted(missing)}")
    try:
        return _validate_qtable(
            QTable(values=data["values"], visit_counts=data["visit_counts"])
        )
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
