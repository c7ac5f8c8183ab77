"""Correctness checks on workload outputs, computed apart from the program.

Every check raises :class:`CheckFailed` with a reason.  None compares against
a stored copy of earlier output: each either recomputes a quantity with the
benchmark's own arithmetic (head kinematics, fixation, Woodworth ITD, label
offsets) or tests a property the method must have (reward range, Q-value
range, visit counts, a byte-exact dataset round trip).
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from cocktail.dataset import read_dataset, write_dataset
from cocktail.errors import CocktailError

#: Head step per action, (pan, tilt) in degrees; clamp limits of the motors.
STEP_DEG = 5.0
MOVES = {"none": (0, 0), "left": (-1, 0), "right": (1, 0), "up": (0, 1), "down": (0, -1)}
PAN_LIMIT, TILT_LIMIT = 80.0, 30.0
FIXATION_DEG = 10.0
HOLD_STEPS = 3
#: Largest Q value: the per-step reward is at most 2 and the discount 0.9,
#: so no return exceeds 2 / (1 - 0.9).
Q_MAX = 20.0
#: Woodworth spherical head: radius (m), speed of sound (m/s), audio rate.
HEAD_RADIUS_M, SOUND_M_S, RATE_HZ = 0.0875, 343.0, 48000
GCC_MAX_LAG = 48
#: Slack of the label-to-ITD check: the label is within the fixation
#: tolerance of the truth, and the GCC peak sits on an integer lag.
LABEL_SLACK_DEG, LAG_SLACK = 10.0, 1.0
#: Held-out azimuth accuracy (within 10 degrees) the localizer must reach.
#: Fitted on 91 records, it misses about 3% of validation records; failing
#: this on a 9-record fold takes five misses.
MIN_VAL_AZ_WITHIN_10 = 0.5


class CheckFailed(AssertionError):
    """A workload output violates a property the method must have."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Episodes and Q tables


def replay_episode(episode, max_steps: int) -> list[bool]:
    """Replay one episode's actions from its start pose; return the per-step
    fixation flags.

    ``episode`` is ``(scene, init_pose, result)`` as recorded around
    ``agent.run_episode``.
    """
    scene, pose0, result = episode
    speaker = scene.speakers[0]
    az, el = speaker.azimuth_world, speaker.elevation_world
    pan, tilt = pose0.pan, pose0.tilt
    traj = result.trajectory
    require(len(traj) == result.steps, f"{len(traj)} transitions for {result.steps} steps")
    require(1 <= result.steps <= max_steps, f"episode of {result.steps} steps")
    fixated = []
    hold = 0
    for k, (state, action, reward, next_state) in enumerate(traj):
        require(action in MOVES, f"step {k}: unknown action {action!r}")
        require(_pan_bucket(pan) == state % 5, f"step {k}: state {state} at pan {pan}")
        dp, dt = MOVES[action]
        pan = min(PAN_LIMIT, max(-PAN_LIMIT, pan + STEP_DEG * dp))
        tilt = min(TILT_LIMIT, max(-TILT_LIMIT, tilt + STEP_DEG * dt))
        require(_pan_bucket(pan) == next_state % 5,
                f"step {k}: next state {next_state} at pan {pan}")
        visible = abs(az - pan) <= 30.0 and abs(el - tilt) <= 20.0
        require(visible == ((next_state // 5) % 10 != 9),
                f"step {k}: face bucket of state {next_state} disagrees with the view")
        if k + 1 < len(traj):
            require(traj[k + 1][0] == next_state, f"step {k}: state chain broken")
        fix = abs(az - pan) <= FIXATION_DEG and abs(el - tilt) <= FIXATION_DEG
        broken = hold > 0 and not fix
        hold = hold + 1 if fix else 0
        require(not (broken or hold >= HOLD_STEPS) or k == len(traj) - 1,
                f"step {k}: episode went on after it had ended")
        fixated.append(fix)
        if fix:
            require(1.0 <= reward <= 2.0, f"step {k}: fixated step rewarded {reward}")
        else:
            require(reward == 0.0, f"step {k}: unfixated step rewarded {reward}")
    require((pan, tilt) == (result.final_pose.pan, result.final_pose.tilt),
            f"replayed pose {(pan, tilt)} != final pose {result.final_pose}")
    held = len(fixated) >= HOLD_STEPS and all(fixated[-HOLD_STEPS:])
    require(result.success == held, f"success={result.success} but replay held={held}")
    if not result.success:
        broken = len(fixated) >= 2 and fixated[-2] and not fixated[-1]
        require(broken or result.steps == max_steps,
                f"failed episode ended after {result.steps} steps without a break")
    return fixated


def _pan_bucket(pan: float) -> int:
    return min(4, int((pan + PAN_LIMIT) // 32))


def check_qtable(qtable, steps_learned: int) -> None:
    """Visit counts sum to the learning steps taken; values finite in [0, 20]."""
    values = qtable.values
    require(np.all(np.isfinite(values)), "Q table holds non-finite values")
    require(values.min() >= 0.0 and values.max() <= Q_MAX,
            f"Q values span [{values.min()}, {values.max()}], outside [0, {Q_MAX}]")
    visits = int(qtable.visit_counts.sum())
    require(visits == steps_learned, f"{visits} Q visits for {steps_learned} steps")


def qtable_digest(qtable) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(qtable.values, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(qtable.visit_counts, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Records and datasets


def woodworth_lag(azimuth_deg: float) -> float:
    """Interaural delay in samples for a head-relative azimuth."""
    theta = math.radians(max(-90.0, min(90.0, azimuth_deg)))
    return HEAD_RADIUS_M / SOUND_M_S * (math.sin(theta) + theta) * RATE_HZ


def check_gcc_labels(records) -> None:
    """Each record's GCC peak lag lies within the Woodworth ITD of its
    azimuth label, widened by the fixation tolerance and one sample."""
    for i, rec in enumerate(records):
        gcc = np.asarray(rec.features[: 2 * GCC_MAX_LAG + 1])
        lag = int(np.argmax(gcc)) - GCC_MAX_LAG
        lo = woodworth_lag(rec.azimuth_deg - LABEL_SLACK_DEG) - LAG_SLACK
        hi = woodworth_lag(rec.azimuth_deg + LABEL_SLACK_DEG) + LAG_SLACK
        require(lo <= lag <= hi,
                f"record {i}: GCC peak at lag {lag} outside [{lo:.1f}, {hi:.1f}] "
                f"for azimuth label {rec.azimuth_deg}")


def check_labels_from_poses(episodes, records) -> None:
    """Records are the captures of successful episodes, in order, labelled
    by the final pose relative to the capture pose."""
    expected = []
    for index, (_, _, result) in enumerate(episodes):
        if result.success:
            final = result.final_pose
            expected += [(final.pan - c.pan_deg, final.tilt - c.tilt_deg, index)
                         for c in result.captures]
    got = [(r.azimuth_deg, r.elevation_deg, r.episode_id) for r in records]
    require(got == expected, f"{len(got)} records disagree with {len(expected)} "
                             "captures of successful episodes")


def check_roundtrip(path, records) -> str:
    """The file reads back equal to ``records`` and re-serialises to the same
    bytes; returns the file's digest."""
    path = Path(path)
    try:
        back, header = read_dataset(path)
    except (CocktailError, ValueError) as exc:
        raise CheckFailed(f"dataset does not read back: {exc}") from exc
    require(len(back) == len(records) == header.get("count"),
            f"read {len(back)} records of {len(records)} written")
    for i, (a, b) in enumerate(zip(records, back)):
        require(np.array_equal(a.features, b.features)
                and (a.azimuth_deg, a.elevation_deg, a.episode_id)
                == (b.azimuth_deg, b.elevation_deg, b.episode_id),
                f"record {i} reads back different")
    again = path.with_name(path.name + ".again")
    write_dataset(again, back)
    data = path.read_bytes()
    try:
        require(again.read_bytes() == data, "dataset does not re-serialise byte for byte")
    finally:
        again.unlink()
    return hashlib.sha256(data).hexdigest()[:16]


def check_localizer(stats) -> None:
    acc = stats.get("val_azimuth_within_10_deg")
    require(acc is not None, "no validation fold")
    require(acc >= MIN_VAL_AZ_WITHIN_10,
            f"validation azimuth accuracy {acc} below {MIN_VAL_AZ_WITHIN_10}")
