"""The benchmark's workloads: fixed-size rounds of the listen-look-move loop.

Every round is one whole unit of work, made from a round seed:

* ``train-fast``: ``agent.train`` of a fresh Q table, fast mode.
* ``harvest-fast``: a greedy fast-mode ``dataset.build_dataset`` under a
  hand-written policy, the dataset written and read back, and the localizer
  fitted on what was read.
* ``train-full``: full-fidelity Q-learning episodes on a fresh Q table, in
  scenes whose speaker sits 50 to 65 degrees from the start pose.

Each round's outputs are checked by :mod:`checks` before the next begins.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from cocktail import agent, dataset, frontend, localizer
from cocktail.scene import ACTIONS, HeadPose, Scene, SpeakerSpec, SpeechSource, TurnSchedule

from calibrate import EVERY_S, Clock
from checks import (
    CheckFailed,
    check_gcc_labels,
    check_labels_from_poses,
    check_localizer,
    check_qtable,
    check_roundtrip,
    qtable_digest,
    replay_episode,
    require,
)


@dataclass(frozen=True)
class Spec:
    name: str
    config: agent.AgentConfig
    episodes: int
    kind: str  # "train", "harvest" or "far"

    @property
    def harvest(self) -> bool:
        return self.kind == "harvest"


#: Episodes per round.  A round should be a few seconds long, so that a run
#: measures several whole rounds.
WORKLOADS = {
    "train-fast": Spec("train-fast", agent.AgentConfig(fast=True), 40, "train"),
    # 100 records put 9 in the localizer's validation fold.
    "harvest-fast": Spec("harvest-fast", agent.AgentConfig(fast=True), 100, "harvest"),
    "train-full": Spec("train-full", agent.AgentConfig(fast=False), 2, "far"),
}


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# Inputs


def harvest_policy() -> agent.QTable:
    """A greedy policy written from the public state layout.

    A state is ``(location term, face bucket, pan bucket)`` flattened as
    ``loc * N_FACE_BUCKETS * N_PAN_BUCKETS + face * N_PAN_BUCKETS + pan``.
    Face buckets 0..8 are the cells of a 3x3 partition of the camera grid,
    row-major with rows running up and columns running right; 9 is "no
    face".  With a face in view the policy centres it, pan first; otherwise
    it turns toward the auditory term (far left and left turn left, right
    and far right turn right, centre holds still).
    """
    table = agent.new_qtable()
    for loc in range(agent.N_LOCATIONS):
        for face in range(agent.N_FACE_BUCKETS):
            if face == 9:
                action = "left" if loc < 2 else "right" if loc > 2 else "none"
            else:
                row, col = divmod(face, 3)
                action = ("left" if col == 0 else "right" if col == 2
                          else "down" if row == 0 else "up" if row == 2 else "none")
            for pan in range(agent.N_PAN_BUCKETS):
                state = (loc * agent.N_FACE_BUCKETS + face) * agent.N_PAN_BUCKETS + pan
                table.values[state, ACTIONS.index(action)] = 1.0
    return table


def far_scene(rng: np.random.Generator):
    """A single speaker 50 to 65 degrees to either side of the start pose.

    The start pose and elevation offset follow the agent's training scenes;
    the azimuth offset is large enough that an exploring head almost never
    reaches the speaker, so episodes run their full length and every round
    does the same amount of work.
    """
    pan = 5.0 * int(rng.integers(-4, 5))
    tilt = 5.0 * int(rng.integers(-2, 3))
    offset = 5.0 * int(rng.integers(10, 14)) * (1 if rng.random() < 0.5 else -1)
    speaker = SpeakerSpec(id=1, azimuth_world=pan + offset,
                          elevation_world=tilt + 5.0 * int(rng.integers(-3, 4)),
                          speech=SpeechSource(seed=int(rng.integers(1, 2**31))))
    scene = Scene(speakers=(speaker,),
                  schedule=TurnSchedule(((0.0, agent.SCENE_DURATION_S, 1),)),
                  noise_level=agent.SCENE_NOISE_LEVEL)
    return scene, HeadPose(pan, tilt)


def train_far(spec: Spec, seed: int):
    """Q-learning as ``agent.train`` does it, on :func:`far_scene` scenes."""
    qtable = agent.new_qtable()
    for i in range(spec.episodes):
        scene, pose = far_scene(np.random.default_rng([seed, i, 0]))
        agent.run_episode(scene, pose, qtable, config=spec.config,
                          rng=np.random.default_rng([seed, i, 1]),
                          epsilon=agent.epsilon_at(i, spec.episodes), learn=True,
                          render_seed=seed * 1000 + i)
    return qtable


def prepare(spec: Spec):
    """Set-up before the first round: the workload's inputs and the filter
    designs its episodes would otherwise build on first use."""
    frontend.make_gammatone_bank(num_bands=spec.config.num_bands)
    frontend.make_beamformer_bank()
    if spec.harvest:
        frontend.band_weights(dataset.EVIDENCE_WINDOW_SAMPLES // 2 + 1)
        return harvest_policy()
    return None


class EpisodeLog:
    """Records every ``agent.run_episode`` call: inputs, result, duration.

    ``agent.train`` looks ``run_episode`` up in ``cocktail.agent`` and
    ``dataset.build_dataset`` imports it from there on each call, so one
    replacement there sees every episode of every workload.  Between
    episodes it samples the calibration clock, at most every
    ``calibrate.EVERY_S``; ``calibration_s`` is the time that took.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.clear()
        self._original = None

    def install(self):
        original = self._original = agent.run_episode

        def logged(scene, init_pose, qtable, **kwargs):
            if time.perf_counter() - self.clock.last >= EVERY_S:
                self.calibration_s += self.clock.sample()
            t0 = time.perf_counter()
            result = original(scene, init_pose, qtable, **kwargs)
            self.seconds.append(time.perf_counter() - t0)
            self.episodes.append((scene, init_pose, result))
            return result

        agent.run_episode = logged
        return self

    def uninstall(self):
        agent.run_episode = self._original

    def clear(self):
        self.episodes: list[tuple] = []
        self.seconds: list[float] = []
        self.calibration_s = 0.0


# ---------------------------------------------------------------------------
# One round


@dataclass
class Round:
    """One round's figures.  Times are calibrated: wall time times ``scale``."""

    scale: float  # calibrate.Clock.factor over the round
    seconds: float  # the program's time in the round, checks excluded
    agent_seconds: float  # agent.train, dataset.build_dataset or train_far
    episode_seconds: list[float]
    episodes: int
    steps: int
    fixated_steps: int
    successes: int
    records: int = 0
    io_seconds: float = 0.0  # dataset write plus read
    fit_seconds: float = 0.0
    val_az_within_10: float = 0.0
    fits: int = 0
    digest: str = ""
    error: str = ""  # the first failed check, if any

    @property
    def ops(self) -> int:
        """Operations attempted: episodes, labelled records and fits."""
        return self.episodes + self.records + self.fits


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_round(spec: Spec, policy, seed: int, log: EpisodeLog, workdir: Path,
              tracer=None) -> Round:
    """Run one round, then check its outputs; a failed check is kept in
    ``Round.error``."""
    call = tracer.call if tracer is not None else _plain_call
    if tracer is not None:
        tracer.install()
    # Installed above the tracer, so calibration stays outside episode spans.
    log.install()
    try:
        log.clear()
        log.clock.sample()
        t0 = time.perf_counter()
        if spec.harvest:
            records, stats = dataset.build_dataset(policy, spec.episodes, seed, spec.config)
            t1 = time.perf_counter()
            path = workdir / "dataset.jsonl"
            call("dataset.write", dataset.write_dataset, path, records)
            back, _ = call("dataset.read", dataset.read_dataset, path)
            t2 = time.perf_counter()
            _, fit = call("localizer.fit", localizer.train_localizer, back, seed)
            t3 = time.perf_counter()
            if tracer is not None:
                tracer.counters["dataset.write.bytes"] += path.stat().st_size
        elif spec.kind == "train":
            qtable, stats = agent.train(spec.episodes, seed, spec.config)
            t1 = t2 = t3 = time.perf_counter()
        else:
            qtable, stats = train_far(spec, seed), None
            t1 = t2 = t3 = time.perf_counter()
        log.clock.sample()
    finally:
        log.uninstall()
        if tracer is not None:
            tracer.uninstall()

    scale = log.clock.factor(t0, t3)
    results = [r for _, _, r in log.episodes]
    done = Round(scale=scale, seconds=(t3 - t0 - log.calibration_s) * scale,
                 agent_seconds=(t1 - t0 - log.calibration_s) * scale,
                 episode_seconds=[s * scale for s in log.seconds],
                 episodes=len(results), steps=sum(r.steps for r in results),
                 fixated_steps=sum(t[2] >= 1.0 for r in results for t in r.trajectory),
                 successes=sum(r.success for r in results))
    if spec.harvest:
        done.records, done.fits = len(records), 1
        done.io_seconds, done.fit_seconds = (t2 - t1) * scale, (t3 - t2) * scale
        done.val_az_within_10 = fit.get("val_azimuth_within_10_deg", 0.0)
    try:
        require(done.episodes == spec.episodes,
                f"{done.episodes} episodes run of {spec.episodes}")
        fixated = sum(sum(replay_episode(ep, spec.config.max_steps)) for ep in log.episodes)
        require(fixated == done.fixated_steps, "rewarded steps are not the fixated ones")
        if spec.harvest:
            require(np.array_equal(policy.values, harvest_policy().values),
                    "the greedy harvest changed its policy")
            check_qtable(policy, 0)
            require(stats["successes"] == done.successes
                    and stats["records"] == done.records,
                    f"build_dataset stats {stats} disagree with its episodes")
            check_labels_from_poses(log.episodes, records)
            check_gcc_labels(records)
            done.digest = check_roundtrip(path, records)
            check_localizer(fit)
        else:
            check_qtable(qtable, done.steps)
            require(stats is None or stats.successes == done.successes,
                    "train stats disagree with its episodes")
            done.digest = qtable_digest(qtable)
    except CheckFailed as exc:
        done.error = str(exc)
    return done


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(rounds: list[Round], setup_s: float, peak_rss_mb: float) -> dict:
    agent_s = sum(r.agent_seconds for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "agent_steps_per_s": (sum(r.steps for r in rounds) / agent_s, "steps/s"),
        "episodes_per_s": (sum(r.episodes for r in rounds) / agent_s, "episodes/s"),
        "episode_p50_ms": (1e3 * statistics.median(
            s for r in rounds for s in r.episode_seconds), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def workload_figures(spec: Spec, rounds: list[Round]) -> dict:
    """Figures that apply to one workload only; printed, not gated."""
    durations = sorted(s for r in rounds for s in r.episode_seconds)
    first = rounds[0]
    out = {"rounds": (len(rounds), "count"), "episodes": (len(durations), "count"),
           "calibration_scale": (statistics.median(r.scale for r in rounds), "ratio"),
           "uncalibrated_agent_steps_per_s": (
               sum(r.steps for r in rounds)
               / sum(r.agent_seconds / r.scale for r in rounds), "steps/s")}
    if len(durations) >= 100:
        out["episode_p90_ms"] = (1e3 * statistics.quantiles(durations, n=10)[-1], "ms")
    if spec.harvest:
        out["records_per_s"] = (sum(r.records for r in rounds)
                                / sum(r.agent_seconds + r.io_seconds for r in rounds),
                                "records/s")
        out["labeled_records"] = (first.records, "count")
        out["localizer_fit_s"] = (statistics.median(r.fit_seconds for r in rounds), "s")
        out["localizer_val_az_within_10"] = (first.val_az_within_10, "fraction")
        out["dataset_digest"] = (first.digest, "sha256")
    else:
        out["train_successes"] = (first.successes, "count")
        out["qtable_digest"] = (first.digest, "sha256")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(done: Round, tracer) -> dict:
    """Per-layer figures of one traced round, times calibrated."""
    own = defaultdict(float, {k: v * done.scale for k, v in tracer.self_seconds().items()})
    calls = tracer.span_counts()
    c = tracer.counters
    return {
        "scene.render.calls": (calls["scene.render"], "count"),
        "scene.render.self_s": (own["scene.render"], "s"),
        "scene.render.samples": (c["scene.render.samples"], "count"),
        "scene.envelope.self_s": (own["scene.envelope"], "s"),
        "scene.mouth.self_s": (own["scene.mouth"], "s"),
        "scene.visual.self_s": (own["scene.visual"], "s"),
        "frontend.gammatone.self_s": (own["frontend.gammatone"], "s"),
        "frontend.gammatone.band_samples": (c["frontend.gammatone.band_samples"], "count"),
        "frontend.beamform.self_s": (own["frontend.beamform"], "s"),
        "frontend.beamform.frames": (c["frontend.beamform.frames"], "count"),
        "frontend.posterior.self_s": (own["frontend.posterior"], "s"),
        "frontend.posterior.updates": (c["frontend.posterior.updates"], "count"),
        "frontend.analyzed_per_rendered": (
            _ratio(c["frontend.analyzed_samples"], c["scene.render.samples"]), "ratio"),
        "avsync.envelope.self_s": (own["avsync.envelope"], "s"),
        "avsync.envelope.samples": (c["avsync.envelope.samples"], "count"),
        "avsync.envelope_used_ratio": (
            _ratio(c["avsync.env10_used"], c["avsync.env10_computed"]), "ratio"),
        "avsync.correlation.calls": (c["avsync.correlation.calls"], "count"),
        "avsync.correlation.self_s": (own["avsync.correlation"], "s"),
        "avsync.corr_per_fixated_step": (
            _ratio(c["avsync.correlation.calls"], done.fixated_steps), "ratio"),
        "features.extract.calls": (c["features.extract.calls"], "count"),
        "features.extract.self_s": (own["features.extract"], "s"),
        "dataset.captures": (c["dataset.captures"], "count"),
        "dataset.capture.self_s": (own["dataset.capture"], "s"),
        "dataset.captures_labeled_ratio": (_ratio(done.records, c["dataset.captures"]),
                                           "ratio"),
        "dataset.write.self_s": (own["dataset.write"], "s"),
        "dataset.write.bytes": (c["dataset.write.bytes"], "bytes"),
        "dataset.read.self_s": (own["dataset.read"], "s"),
        "dataset.labeled_records": (done.records, "count"),
        "agent.steps": (done.steps, "count"),
        "agent.fixated_steps": (done.fixated_steps, "count"),
        "agent.successes": (done.successes, "count"),
        "agent.episode.self_s": (own["agent.episode"], "s"),
        "agent.q_update.calls": (c["agent.q_update.calls"], "count"),
        "localizer.fit.self_s": (own["localizer.fit"], "s"),
        "localizer.batches": (c["localizer.batches"], "count"),
        "localizer.samples": (c["localizer.samples"], "count"),
        "localizer.val_az_within_10": (done.val_az_within_10, "fraction"),
    }


#: Self times of layers that some workloads never enter: there they read
#: exactly zero on every run, so they are printed rather than reported.
PRINTED_ONLY = ("avsync.correlation.self_s", "features.extract.self_s",
                "dataset.write.self_s", "dataset.read.self_s", "localizer.fit.self_s",
                "localizer.fit_s")


def per_layer(traced: list[tuple[Round, object]], plain: list[Round]):
    """Medians over traced rounds, plus the figures of the untraced rounds
    of the same run: the tracing overhead and the harvest rates.  Returns
    ``(reported, printed_only)``."""
    per_round = [layer_metrics(done, tracer) for done, tracer in traced]
    out = {name: (statistics.median(m[name][0] for m in per_round), unit)
           for name, (_, unit) in per_round[0].items()}
    # Traced and untraced rounds run the same episodes; compare them one by
    # one, so that first-use costs of the first round do not count.
    slowdown = [statistics.median(t) / statistics.median(p) for t, p in zip(
        zip(*(done.episode_seconds for done, _ in traced)),
        zip(*(r.episode_seconds for r in plain)))]
    out["trace.overhead"] = (statistics.median(slowdown) - 1.0, "fraction")
    out["dataset.records_per_s"] = (
        _ratio(sum(r.records for r in plain),
               sum(r.agent_seconds + r.io_seconds for r in plain)), "records/s")
    out["localizer.fit_s"] = (statistics.median(r.fit_seconds for r in plain), "s")
    printed = {name: out.pop(name) for name in PRINTED_ONLY}
    return out, printed
