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
better, so the learned policy fixates and stays.  While it listens, the
episode snapshots evidence (:class:`EvidenceBuffer`): the last half second
of audio, all heard at one head pose, whenever the posterior is confident
and a debounce interval has passed.  On success, :mod:`cocktail.dataset`
labels those captures from the final pose alone.

Everything is deterministic given the seeds: scenes, rendering, exploration
and the simulator's noise streams all derive from explicit integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frontend
from .avsync import analytic_envelope, correlate_min_p, resample_envelope, reward
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
#: its head is rendered only if a correlation reads it (:class:`EpisodeAudio`).
PREROLL_S = 2.0

#: Background noise level for sampled training/evaluation scenes.
SCENE_NOISE_LEVEL = 0.01

#: Schedule length for sampled scenes; comfortably longer than any episode.
SCENE_DURATION_S = 40.0


@dataclass(frozen=True)
class AgentConfig:
    """Episode timing/resolution knobs.

    ``fast`` trades fidelity for speed: fewer gammatone bands, a shorter
    correlation window (5 s instead of 10 s at the 10 Hz mouth rate), and
    shorter episodes of at most 40 steps of 0.1 s, finer than full
    fidelity's 60 steps of 0.5 s.  Both modes analyze the same
    non-overlapping 0.1 s frames (``frontend.FRAME_S``), and the state
    space, reward and termination rules are identical in both modes.  The
    window also bounds the audio an episode keeps (see
    :class:`EpisodeAudio`): the window plus at most one step.
    """

    fast: bool = False

    @property
    def step_s(self) -> float:
        return 0.1 if self.fast else 0.5

    @property
    def num_bands(self) -> int:
        return 8 if self.fast else frontend.NUM_BANDS

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
# Evidence capture


#: Posterior peak probability required before an evidence snapshot fires.
CAPTURE_THRESHOLD = 0.25

#: Minimum time between successive captures within one episode.
CAPTURE_DEBOUNCE_S = 2.0

#: Length of the audio snapshot kept for feature extraction.
EVIDENCE_WINDOW_S = 0.5

#: Samples in one evidence window at the audio rate.
EVIDENCE_WINDOW_SAMPLES = int(EVIDENCE_WINDOW_S * SAMPLE_RATE)


@dataclass(frozen=True, eq=False)
class EvidenceCapture:
    """An unlabeled ``(2, n)`` audio snapshot plus the head pose that recorded it."""

    time_s: float
    pan_deg: float
    tilt_deg: float
    audio: np.ndarray
    posterior_peak: float


class EvidenceBuffer:
    """Collects evidence snapshots according to the confidence/debounce rule."""

    def __init__(self):
        self.captures: list[EvidenceCapture] = []
        self._last_t: float | None = None

    def maybe_capture(self, t_s, posterior, heard: EpisodeAudio, pose: HeadPose):
        """Snapshot the last evidence window ``heard`` holds if the
        posterior peak clears the threshold.

        Returns the new :class:`EvidenceCapture`, whose audio is a copy, or
        ``None`` when the posterior is too flat, the debounce interval has
        not elapsed, or ``heard`` holds no evidence window heard at ``pose``.
        """
        peak = float(np.max(posterior.probs))
        if peak < CAPTURE_THRESHOLD:
            return None
        if self._last_t is not None and t_s - self._last_t < CAPTURE_DEBOUNCE_S:
            return None
        audio = heard.evidence(pose)
        if audio is None:
            return None
        capture = EvidenceCapture(
            time_s=float(t_s),
            pan_deg=pose.pan,
            tilt_deg=pose.tilt,
            audio=np.array(audio),
            posterior_peak=peak,
        )
        self.captures.append(capture)
        self._last_t = float(t_s)
        return capture


# ---------------------------------------------------------------------------
# Episode runner


@dataclass
class _Span:
    """``n10`` 10 Hz samples from ``t0`` heard at ``pose``: the ``audio``
    rendered after the first ``head_s``, and once read, the span's 10 Hz
    envelope and mouth samples."""

    pose: HeadPose
    t0: float
    head_s: float
    n10: int
    audio: np.ndarray
    env10: np.ndarray | None = None
    mouth: np.ndarray | None = None


class EpisodeAudio:
    """What one episode heard: consecutive spans of time, each with its pose.

    :meth:`hear` renders only a span's last ``EVIDENCE_WINDOW_S``, and
    :meth:`evidence` returns the last evidence window only if all of it was
    heard at one pose.  The first time :meth:`correlation_window` reads a
    span it renders the rest, and takes the span's 10 Hz envelope and mouth
    samples with the same calls taking them on arrival would make, so the
    result is the same bit for bit, and a span no correlation reads costs
    none of them.  The oldest span is dropped once the newer ones cover
    both the correlation window and an evidence window.
    """

    def __init__(self, scene: Scene, window_n: int, seed: int):
        self.scene, self.window_n, self.seed = scene, window_n, seed
        self._keep_n = max(window_n, round(EVIDENCE_WINDOW_S * MOUTH_RATE_HZ))
        self._spans: list[_Span] = []

    def hear(self, pose: HeadPose, t0: float, duration: float) -> np.ndarray:
        """Record ``[t0, t0 + duration)`` as heard at ``pose``; return the
        ``(2, n)`` audio of its last ``min(duration, EVIDENCE_WINDOW_S)``."""
        head_s = max(duration - EVIDENCE_WINDOW_S, 0.0)
        audio = render_binaural(self.scene, pose, t0 + head_s, duration - head_s,
                                seed=self.seed).audio
        self._spans.append(_Span(pose, t0, head_s, round(duration * MOUTH_RATE_HZ), audio))
        self._spans = self._newest(self._keep_n, lambda s: s.n10) or self._spans
        return audio

    def _newest(self, n: int, size) -> list[_Span] | None:
        """The fewest newest spans whose ``size`` adds up to ``n``, or ``None``."""
        k = len(self._spans)
        while n > 0 and k > 0:
            k -= 1
            n -= size(self._spans[k])
        return None if n > 0 else self._spans[k:]

    def evidence(self, pose: HeadPose) -> np.ndarray | None:
        """The last ``EVIDENCE_WINDOW_SAMPLES`` heard, or ``None`` unless
        every span they come from was heard at ``pose``."""
        spans = self._newest(EVIDENCE_WINDOW_SAMPLES, lambda s: s.audio.shape[1])
        if spans is None or any(s.pose != pose for s in spans):
            return None
        return np.concatenate([s.audio for s in spans], axis=1)[:, -EVIDENCE_WINDOW_SAMPLES:]

    def correlation_window(self):
        """``(left, right, mouth)``: the binaural 10 Hz envelope and the mouth
        samples of the newest ``window_n`` samples, or ``None`` while fewer
        have been heard."""
        spans = self._newest(self.window_n, lambda s: s.n10)
        if spans is None:
            return None
        for s in spans:
            if s.env10 is None:
                audio = s.audio
                if s.head_s > 0:
                    head = render_binaural(self.scene, s.pose, s.t0, s.head_s, seed=self.seed)
                    audio = np.concatenate([head.audio, audio], axis=1)
                s.env10 = resample_envelope(analytic_envelope(audio), SAMPLE_RATE, MOUTH_RATE_HZ)
                _, s.mouth = mouth_area_signal(self.scene.speakers[0], self.scene.schedule,
                                               s.t0, s.n10 / MOUTH_RATE_HZ, seed=self.seed)
        w = self.window_n
        left, right = np.concatenate([s.env10 for s in spans], axis=1)[:, -w:]
        return left, right, np.concatenate([s.mouth for s in spans])[-w:]


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

    The episode hears through one :class:`EpisodeAudio`: first a
    ``PREROLL_S`` pre-roll at the initial pose, which warms up the posterior
    and fills the evidence window, then ``config.step_s`` per step.  Each
    step observes (posterior, visuals, pan), possibly snapshots evidence
    heard at the current pose, acts, hears at the new pose, and scores the
    audio-visual reward, whose correlation reads the record.  Success is
    three consecutive fixated steps; breaking an acquired fixation ends the
    episode in failure (one attention event per episode, so boundary
    oscillation cannot outvalue holding).
    """
    if config is None:
        config = AgentConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    if len(scene.speakers) != 1:
        raise DomainError("run_episode requires a single-speaker scene")
    _validate_qtable(qtable)
    speaker = scene.speakers[0]

    tracker = frontend.AzimuthTracker(config.num_bands)
    heard = EpisodeAudio(scene, config.corr_window_n, render_seed)
    evidence = EvidenceBuffer()
    pose = init_pose

    def observe() -> int:
        loc = term_index(classify(frontend.estimate_location(tracker.posterior)))
        face = None
        for sid, gx, gy in observe_visual(scene, pose):
            if sid == speaker.id:
                face = (gx, gy)
        return encode_state(loc, face, pose.pan)

    tracker.feed(heard.hear(pose, 0.0, PREROLL_S))

    total_reward = 0.0
    hold = 0
    steps = 0
    success = False
    trajectory = []
    state = observe()
    for k in range(config.max_steps):
        t = PREROLL_S + k * config.step_s
        evidence.maybe_capture(t, tracker.posterior, heard, pose)
        action = select_action(qtable.values[state], epsilon, rng)
        pose = step_head(pose, ACTIONS[action])
        tracker.feed(heard.hear(pose, t, config.step_s))
        fixated = is_fixated(pose, speaker.azimuth_world, speaker.elevation_world)
        broken = hold > 0 and not fixated
        hold = hold + 1 if fixated else 0
        corr = None
        window = heard.correlation_window() if fixated else None
        if window is not None:
            corr = correlate_min_p(*window, window_n=config.corr_window_n)[0]
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
