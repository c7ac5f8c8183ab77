"""Self-supervised dataset collection: labeling, storage, harvest.

While an episode runs, the agent snapshots its most recent half second of
binaural audio, with the head pose at capture time, whenever the azimuth
posterior is confident enough (:class:`cocktail.agent.EvidenceBuffer`).
Nothing is labeled yet: the label arrives only when the episode ends in a
successful fixation, at which point the agent's own final head pose serves
as a proprioceptive stand-in for the source direction.  Each capture then
becomes a :class:`LabeledRecord` pairing the snippet's GCC/ILD features
with the source direction *relative to the capture pose*:

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

from .agent import run_episodes
# perfbench looks these two up here; this module itself does not use them.
from .agent import EVIDENCE_WINDOW_SAMPLES, EvidenceBuffer  # noqa: F401
from .errors import DomainError, FormatError, InputError, ParseError
from .features import FEATURE_DIM, extract_features
from .scene import HeadPose

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
                features=extract_features(cap.audio),
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


def json_number(value, what: str) -> float:
    """A JSON number as a float; a bool, a string or anything else raises
    :class:`FormatError`, which names the value ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{what} is too large for a float") from None


def json_integer(value, what: str) -> int:
    """A JSON integer; a bool, a float or anything else raises :class:`FormatError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


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
    except UnicodeDecodeError as exc:
        raise FormatError(f"dataset file {path} is not UTF-8 text: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty dataset file")
    header = _parse_line(1, lines[0])
    if header.get("format") != _FORMAT_NAME:
        raise FormatError(
            f"not a {_FORMAT_NAME} file (format={header.get('format')!r})"
        )
    version = json_integer(header.get("version"), "header version")
    if version != _FORMAT_VERSION:
        raise FormatError(f"unsupported dataset version {version} (expected {_FORMAT_VERSION})")
    feature_dim = json_integer(header.get("feature_dim"), "header feature_dim")
    if feature_dim <= 0:
        raise FormatError(f"bad feature_dim in header: {feature_dim!r}")
    count = json_integer(header.get("count"), "header count")
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
        what = f"line {i}: feature"
        values = [json_number(v, what) for v in feats]
        episode_id = json_integer(obj["episode_id"], f"line {i}: episode_id")
        try:
            rec = LabeledRecord(
                features=np.array(values),
                azimuth_deg=json_number(obj["azimuth_deg"], f"line {i}: azimuth_deg"),
                elevation_deg=json_number(obj["elevation_deg"], f"line {i}: elevation_deg"),
                episode_id=episode_id,
            )
        except DomainError as exc:
            raise FormatError(f"line {i}: {exc}") from exc
        records.append(rec)
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
