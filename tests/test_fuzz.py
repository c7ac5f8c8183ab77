"""Property-based fuzzing of the file readers and the ``simulate`` and
``avsync`` commands.

Whatever bytes a scene, dataset, mouth-area or WAV file holds, only
:class:`CocktailError` subclasses may escape a reader, and ``cocktail
simulate`` and ``cocktail avsync --wav`` may exit only 0, 2 or 3.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cocktail import cli
from cocktail.dataset import LabeledRecord, read_dataset, write_dataset
from cocktail.errors import CocktailError
from cocktail.features import FEATURE_DIM

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class Raw(str):
    """A JSON number token written as is: overflowing, non-finite or long."""


RAW_NUMBERS = st.sampled_from([
    "1e400", "-1e400", "1e-400", "NaN", "Infinity", "-Infinity", "1e308",
    "-1e308", "4.9e-324", "1" + "0" * 400, "-" + "9" * 400, "1" * 5000,
    "22369.621125", "22369.7",
]).map(Raw)
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**30), max_value=10**30),
    RAW_NUMBERS,
)
VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=8,
)


def maybe(strategy):
    """A plausible value for a field, or any JSON value at all."""
    return st.one_of(strategy, VALUES)


def dump(value) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(dump(v) for v in value) + "]"
    return json.dumps(value)


def scenes(duration, field, angle, number, time):
    """Scene documents; ``field`` wraps each field's plausible strategy."""
    speaker = st.fixed_dictionaries(
        {"id": field(st.integers(0, 3)), "azimuth_deg": field(angle),
         "elevation_deg": field(angle)},
        optional={
            "seed": field(st.integers(-1, 2**40)),
            "modulation_band": field(st.lists(number, min_size=2, max_size=2)),
            "mouth_gain": field(number),
            "mouth_baseline": field(number),
        },
    )
    segment = st.tuples(time, time, st.one_of(st.none(), st.integers(0, 3))).map(list)
    return st.fixed_dictionaries(
        {"duration_s": duration,
         "speakers": field(st.lists(speaker, min_size=1, max_size=2))},
        optional={
            "schedule": field(st.lists(segment, min_size=1, max_size=3)),
            "noise_level": field(number),
        },
    )


ANY_SCENE = st.one_of(VALUES, scenes(maybe(NUMBERS), maybe, NUMBERS, NUMBERS, NUMBERS))
# ``simulate`` renders the whole duration, so no duration here may be a
# valid one above 0.2 s.  The other fields stay mostly plausible, so that
# many scenes get as far as rendering.
SHORT_SCENE = scenes(
    st.one_of(
        st.floats(min_value=1e-9, max_value=0.2),
        st.one_of(
            st.floats(max_value=0.2),
            st.integers(max_value=0),
            st.sampled_from(["1e400", "NaN", "1e308", "1" + "0" * 400, "4.9e-324"]).map(Raw),
            st.none(),
            st.text(max_size=3),
        ),
    ),
    lambda plausible: plausible,
    st.floats(min_value=-35.0, max_value=35.0),
    st.floats(min_value=-1.0, max_value=20.0),
    st.floats(min_value=-0.1, max_value=0.3),
)


def write(directory, name, data) -> Path:
    path = Path(directory) / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")
    return path


@FUZZ
@given(doc=ANY_SCENE)
def test_load_scene_config_raises_only_package_errors(doc):
    with tempfile.TemporaryDirectory() as d:
        try:
            scene, duration = cli.load_scene_config(write(d, "scene.json", dump(doc)))
        except CocktailError:
            return
    assert 0.0 < duration <= cli.MAX_SCENE_S
    for start, end, _ in scene.schedule.segments:
        assert abs(start) <= cli.MAX_SCENE_S and abs(end) <= cli.MAX_SCENE_S


def _valid_dataset_bytes() -> bytes:
    rng = np.random.default_rng(0)
    records = [
        LabeledRecord(features=rng.normal(size=FEATURE_DIM),
                      azimuth_deg=float(az), elevation_deg=0.0, episode_id=i)
        for i, az in enumerate((-20.0, 35.5))
    ]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "dataset.jsonl"
        write_dataset(path, records)
        return path.read_bytes()


VALID_DATASET = _valid_dataset_bytes()


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.integers(0, len(VALID_DATASET) - 1), st.integers(0, 255),
                  st.sampled_from(["replace", "insert", "delete"])),
        min_size=1, max_size=6,
    )
)
def test_read_dataset_on_mutated_bytes_raises_only_package_errors(edits):
    with tempfile.TemporaryDirectory() as d:
        try:
            read_dataset(write(d, "dataset.jsonl", mutate(VALID_DATASET, edits)))
        except CocktailError:
            pass


MOUTH_LINES = st.one_of(
    st.text(st.characters(codec="utf-8"), max_size=20),
    st.builds(lambda t, a: f"{t},{a}", NUMBERS.map(str), NUMBERS.map(str)),
)


@FUZZ
@given(
    header=st.sampled_from(["time_s,area", "time_s,area ", "time,area", ""]),
    lines=st.lists(MOUTH_LINES, max_size=6),
    raw=st.binary(max_size=40),
)
def test_read_mouth_csv_raises_only_package_errors(header, lines, raw):
    with tempfile.TemporaryDirectory() as d:
        for data in ("\n".join([header, *lines]), raw):
            try:
                areas = cli.read_mouth_csv(write(d, "mouth.csv", data))
            except CocktailError:
                continue
            assert areas.ndim == 1 and areas.size >= 1


@settings(FUZZ, max_examples=50)
@given(doc=SHORT_SCENE)
def test_simulate_exits_only_0_2_or_3(doc):
    with tempfile.TemporaryDirectory() as d:
        path = write(d, "scene.json", dump(doc))
        code = cli.main(["simulate", "--scene", str(path), "--out-dir", d])
    assert code in (0, 2, 3)


def mutate(data: bytes, edits) -> bytes:
    """``data`` with each ``(position, byte, kind)`` edit applied in turn."""
    data = bytearray(data)
    for pos, byte, kind in edits:
        pos = min(pos, len(data) - 1)
        if kind == "replace":
            data[pos] = byte
        elif kind == "insert":
            data.insert(pos, byte)
        elif len(data) > 1:
            del data[pos]
    return bytes(data)


def _valid_wav_bytes() -> bytes:
    """0.6 s of stereo noise whose level follows a 10 Hz ramp."""
    rng = np.random.default_rng(1)
    level = np.repeat(np.linspace(0.1, 0.5, 6), 4800)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "audio.wav"
        cli.write_wav(path, level * rng.uniform(-1.0, 1.0, (2, level.size)))
        return path.read_bytes()


VALID_WAV = _valid_wav_bytes()
MOUTH_6 = "time_s,area\n" + "".join(f"{0.05 + k / 10},{0.5 + k / 10}\n" for k in range(6))


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.one_of(st.integers(0, 47), st.integers(0, len(VALID_WAV) - 1)),
                  st.integers(0, 255), st.sampled_from(["replace", "insert", "delete"])),
        max_size=4,
    ),
    keep=st.one_of(st.none(), st.integers(0, len(VALID_WAV))),
)
def test_wav_reader_and_avsync_on_mutated_bytes(edits, keep):
    data = mutate(VALID_WAV, edits)[:keep]
    with tempfile.TemporaryDirectory() as d:
        wav = write(d, "audio.wav", data)
        try:
            audio, _ = cli.read_wav(wav)
        except CocktailError:
            pass
        else:
            assert audio.ndim == 2 and audio.shape[0] == 2
        code = cli.main(["avsync", "--wav", str(wav), "--mouth",
                         str(write(d, "mouth.csv", MOUTH_6)), "--window-s", "0.3",
                         "--out-dir", d])
    assert code in (0, 2, 3)
