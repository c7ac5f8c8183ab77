"""Self-supervised dataset collection: evidence capture, labeling, storage.

During an episode the agent continuously keeps the most recent half second
of binaural audio in a :class:`RingBuffer`.  Whenever the auditory azimuth
posterior is confident enough (and a debounce interval has passed) the
:class:`EvidenceBuffer` snapshots that audio together with the head pose at
capture time.  Nothing is labeled yet: the label arrives only when the
episode ends in a successful fixation, at which point the agent's own final
head pose serves as a proprioceptive stand-in for the source direction.
Each capture then becomes a :class:`LabeledRecord` pairing the snippet's
GCC/ILD features with the source direction *relative to the capture pose*:

    ``azimuth_deg  = final_pan  - capture_pan``
    ``elevation_deg = final_tilt - capture_tilt``

Records are persisted as JSON Lines: one metadata header line followed by
one record per line.  Serialization is canonical (sorted keys, compact
separators, shortest-repr floats) so a read/write round trip is
byte-identical, which the pipeline relies on for reproducibility checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolationError,
    DomainError,
    FormatError,
    InputError,
    ParseError,
)
from .features import FEATURE_DIM, extract_features
from .scene import SAMPLE_RATE, HeadPose

#: Posterior peak probability required before an evidence snapshot fires.
CAPTURE_THRESHOLD = 0.25

#: Minimum time between successive captures within one episode.
CAPTURE_DEBOUNCE_S = 2.0

#: Length of the audio snapshot kept for feature extraction.
EVIDENCE_WINDOW_S = 0.5

#: Samples in one evidence window at the audio rate.
EVIDENCE_WINDOW_SAMPLES = int(EVIDENCE_WINDOW_S * SAMPLE_RATE)

#: Pan labels live in [-160, 160]: the head pan range is +/-80 degrees and a
#: source can sit up to 80 degrees beyond the capture pan on either side.
AZIMUTH_LABEL_LIMIT_DEG = 160.0

#: Tilt labels live in [-60, 60]: +/-30 degrees of tilt plus +/-30 degrees of
#: source elevation.
ELEVATION_LABEL_LIMIT_DEG = 60.0

_FORMAT_NAME = "cocktail-dataset"
_FORMAT_VERSION = 1
_RECORD_KEYS = frozenset({"azimuth_deg", "elevation_deg", "episode_id", "features"})
_HEADER_KEYS = ("format", "version", "feature_dim", "count")


class RingBuffer:
    """Fixed-capacity rolling window over a stereo sample stream."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise DomainError(f"ring capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._left = np.zeros(self.capacity)
        self._right = np.zeros(self.capacity)
        self._pos = 0
        self._count = 0

    @property
    def full(self) -> bool:
        return self._count >= self.capacity

    def push(self, left: np.ndarray, right: np.ndarray) -> None:
        """Append a stereo chunk, discarding the oldest samples on overflow."""
        l = np.asarray(left, dtype=np.float64)
        r = np.asarray(right, dtype=np.float64)
        if l.ndim != 1 or r.ndim != 1 or l.size != r.size:
            raise DomainError("ring push needs two equal-length 1-D chunks")
        n = l.size
        if n == 0:
            return
        if n >= self.capacity:
            self._left[:] = l[n - self.capacity :]
            self._right[:] = r[n - self.capacity :]
            self._pos = 0
            self._count = self.capacity
            return
        first = min(n, self.capacity - self._pos)
        self._left[self._pos : self._pos + first] = l[:first]
        self._right[self._pos : self._pos + first] = r[:first]
        rest = n - first
        if rest:
            self._left[:rest] = l[first:]
            self._right[:rest] = r[first:]
        self._pos = (self._pos + n) % self.capacity
        self._count = min(self.capacity, self._count + n)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """The window contents in chronological order; requires a full ring."""
        if not self.full:
            raise ContractViolationError(
                f"ring snapshot requires a full buffer "
                f"({self._count}/{self.capacity} samples)"
            )
        left = np.concatenate([self._left[self._pos :], self._left[: self._pos]])
        right = np.concatenate([self._right[self._pos :], self._right[: self._pos]])
        return left, right


@dataclass(frozen=True, eq=False)
class EvidenceCapture:
    """An unlabeled audio snapshot plus the head pose that recorded it."""

    time_s: float
    pan_deg: float
    tilt_deg: float
    left: np.ndarray
    right: np.ndarray
    posterior_peak: float


class EvidenceBuffer:
    """Collects evidence snapshots according to the confidence/debounce rule."""

    def __init__(self):
        self.captures: list[EvidenceCapture] = []
        self._last_t: float | None = None

    def maybe_capture(self, t_s, posterior, ring: RingBuffer, pose: HeadPose):
        """Snapshot the ring if the posterior peak clears the threshold.

        Returns the new :class:`EvidenceCapture`, or ``None`` when the
        posterior is too flat, the debounce interval has not elapsed, or
        the ring is not yet full.
        """
        if not ring.full:
            return None
        peak = float(np.max(posterior.probs))
        if peak < CAPTURE_THRESHOLD:
            return None
        if self._last_t is not None and t_s - self._last_t < CAPTURE_DEBOUNCE_S:
            return None
        left, right = ring.snapshot()
        capture = EvidenceCapture(
            time_s=float(t_s),
            pan_deg=pose.pan,
            tilt_deg=pose.tilt,
            left=left,
            right=right,
            posterior_peak=peak,
        )
        self.captures.append(capture)
        self._last_t = float(t_s)
        return capture


@dataclass(frozen=True, eq=False)
class LabeledRecord:
    """One training example: features plus the proprioceptive direction label."""

    features: np.ndarray
    azimuth_deg: float
    elevation_deg: float
    episode_id: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", feats)
        if feats.ndim != 1:
            raise DomainError(f"features must be 1-D, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise DomainError("features contain non-finite values")
        if not -AZIMUTH_LABEL_LIMIT_DEG <= self.azimuth_deg <= AZIMUTH_LABEL_LIMIT_DEG:
            raise DomainError(
                f"azimuth label {self.azimuth_deg} outside "
                f"[-{AZIMUTH_LABEL_LIMIT_DEG}, {AZIMUTH_LABEL_LIMIT_DEG}]"
            )
        if not (
            -ELEVATION_LABEL_LIMIT_DEG
            <= self.elevation_deg
            <= ELEVATION_LABEL_LIMIT_DEG
        ):
            raise DomainError(
                f"elevation label {self.elevation_deg} outside "
                f"[-{ELEVATION_LABEL_LIMIT_DEG}, {ELEVATION_LABEL_LIMIT_DEG}]"
            )
        if self.episode_id < 0:
            raise DomainError(f"episode_id must be >= 0, got {self.episode_id}")


def label_on_fixation(
    captures, final_pose: HeadPose, episode_id: int
) -> list[LabeledRecord]:
    """Turn a successful episode's captures into labeled records, proprioceptively.

    Only a successful fixation licenses labeling: the final pose then points
    at the source to within the fixation tolerance.  Each capture's label is
    the final pose expressed relative to the capture pose.
    """
    records = []
    for cap in captures:
        records.append(
            LabeledRecord(
                features=extract_features(cap.left, cap.right),
                azimuth_deg=float(final_pose.pan - cap.pan_deg),
                elevation_deg=float(final_pose.tilt - cap.tilt_deg),
                episode_id=int(episode_id),
            )
        )
    return records


# ---------------------------------------------------------------------------
# JSON Lines persistence


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_dataset(path, records, meta: dict | None = None) -> None:
    """Write records as JSON Lines: a header line, then one record per line.

    ``meta`` entries are merged into the header; the reserved keys
    (format/version/feature_dim/count) are always regenerated and may not be
    supplied.  Output is canonical, so writing the result of
    :func:`read_dataset` reproduces the file byte for byte.
    """
    records = list(records)
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "feature_dim": FEATURE_DIM,
        "count": len(records),
    }
    if meta:
        clash = set(meta) & set(_HEADER_KEYS)
        if clash:
            raise InputError(f"meta may not override reserved keys: {sorted(clash)}")
        header.update(meta)
    lines = [_dump(header)]
    for rec in records:
        if rec.features.size != FEATURE_DIM:
            raise DomainError(
                f"record feature dim {rec.features.size} != {FEATURE_DIM}"
            )
        lines.append(
            _dump(
                {
                    "azimuth_deg": float(rec.azimuth_deg),
                    "elevation_deg": float(rec.elevation_deg),
                    "episode_id": int(rec.episode_id),
                    "features": [float(v) for v in rec.features],
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_line(n: int, line: str):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=n) from exc
    if not isinstance(obj, dict):
        raise FormatError(f"line {n}: expected a JSON object")
    return obj


def _require_number(value, what: str, n: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"line {n}: {what} must be a number, got {value!r}")
    return float(value)


def read_dataset(path) -> tuple[list[LabeledRecord], dict]:
    """Read a JSON Lines dataset; returns ``(records, header)``.

    Raises :class:`InputError` for a missing file, :class:`ParseError` (with
    the line number) for malformed JSON, and :class:`FormatError` for an
    unknown format name, unsupported version, or schema violations.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"no such dataset file: {path}") from None
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty dataset file")
    header = _parse_line(1, lines[0])
    if header.get("format") != _FORMAT_NAME:
        raise FormatError(
            f"not a {_FORMAT_NAME} file (format={header.get('format')!r})"
        )
    if header.get("version") != _FORMAT_VERSION:
        raise FormatError(
            f"unsupported dataset version {header.get('version')!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    feature_dim = header.get("feature_dim")
    if not isinstance(feature_dim, int) or feature_dim <= 0:
        raise FormatError(f"bad feature_dim in header: {feature_dim!r}")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        obj = _parse_line(i, line)
        if set(obj) != _RECORD_KEYS:
            raise FormatError(
                f"line {i}: record fields {sorted(obj)} != {sorted(_RECORD_KEYS)}"
            )
        feats = obj["features"]
        if not isinstance(feats, list) or len(feats) != feature_dim:
            raise FormatError(
                f"line {i}: features must be a list of {feature_dim} numbers"
            )
        values = [_require_number(v, "feature", i) for v in feats]
        if not isinstance(obj["episode_id"], int) or isinstance(obj["episode_id"], bool):
            raise FormatError(f"line {i}: episode_id must be an integer")
        try:
            rec = LabeledRecord(
                features=np.array(values),
                azimuth_deg=_require_number(obj["azimuth_deg"], "azimuth_deg", i),
                elevation_deg=_require_number(
                    obj["elevation_deg"], "elevation_deg", i
                ),
                episode_id=obj["episode_id"],
            )
        except DomainError as exc:
            raise FormatError(f"line {i}: {exc}") from exc
        records.append(rec)
    count = header.get("count")
    if count != len(records):
        raise FormatError(
            f"header count {count!r} does not match {len(records)} records"
        )
    return records, header


def build_dataset(qtable, num_episodes: int, seed: int = 0, config=None):
    """Run greedy fixation episodes under a (trained) policy and harvest records.

    Episodes come from the agent's training-scene distribution; failed
    episodes contribute nothing.  Returns ``(records, stats)`` where the
    stats dict reports episode/success/record counts and the worst label
    error against the simulator's ground truth (labels are proprioceptive,
    so this error is bounded by the fixation tolerance).
    """
    # Imported here: agent imports this module's buffer types, so importing
    # agent at module scope would create a cycle.
    from .agent import run_episodes

    records: list[LabeledRecord] = []
    successes = 0
    max_az_err = 0.0
    max_el_err = 0.0
    for i, scene, result in run_episodes(qtable, num_episodes, seed, config):
        if not result.success:
            continue
        successes += 1
        new = label_on_fixation(result.captures, result.final_pose, i)
        speaker = scene.speakers[0]
        for cap, rec in zip(result.captures, new):
            truth_az = speaker.azimuth_world - cap.pan_deg
            truth_el = speaker.elevation_world - cap.tilt_deg
            max_az_err = max(max_az_err, abs(rec.azimuth_deg - truth_az))
            max_el_err = max(max_el_err, abs(rec.elevation_deg - truth_el))
        records.extend(new)
    stats = {
        "episodes": num_episodes,
        "successes": successes,
        "records": len(records),
        "max_azimuth_label_error_deg": max_az_err,
        "max_elevation_label_error_deg": max_el_err,
    }
    return records, stats
