"""Command line experiment runner.

Binds the simulator, auditory frontend, audio-visual synchrony detector,
RL agent, dataset builder, and localizer into reproducible experiments that
emit plot-ready CSV/JSON artifacts (numbers, not images).

Subcommands
-----------
``simulate``        render a scene to a stereo WAV plus mouth-area CSVs
``avsync``          windowed envelope/mouth correlation (WAV+CSV or synthetic)
``turn-taking``     two-speaker active-speaker detection per window
``attention-map``   azimuth-estimation sweep over source directions
``train-rl``        train the Q-learning head controller
``build-dataset``   harvest self-supervised records under a trained policy
``train-localizer`` fit the MLP localizer on a dataset
``eval-localizer``  score a localizer on a dataset fold
``pipeline``        the four learning stages end to end with one seed

Every subcommand accepts ``--seed`` (default: ``$COCKTAIL_SEED`` or 42) and
``--out-dir`` and is fully deterministic for a fixed seed.  Exit codes: 0
success, 2 input error (an unreadable or unwritable path included), 3
degenerate data, 4 internal contract violation.

Scene configuration files are JSON documents::

    {
      "duration_s": 120.0,
      "noise_level": 0.01,
      "speakers": [
        {"id": 1, "azimuth_deg": -30, "elevation_deg": 0, "seed": 11}
      ],
      "schedule": [[0.0, 120.0, 1]]
    }

``schedule`` entries are ``[start_s, end_s, speaker_id|null]`` (null =
silence) and default to the first speaker talking for the whole duration.
Optional speaker keys: ``modulation_band``, ``mouth_gain``,
``mouth_baseline``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import wave
from pathlib import Path

import numpy as np

from . import agent as rl
from . import dataset as ds
from . import frontend
from . import localizer as lz
from .avsync import ALPHA, analytic_envelope, correlate_min_p, resample_envelope
from .errors import (
    EXIT_DEGENERATE_DATA,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    ContractViolationError,
    DegenerateDataError,
    DomainError,
    FormatError,
    InputError,
    ParseError,
    read_text,
)
from .scene import (
    MOUTH_RATE_HZ,
    SAMPLE_RATE,
    HeadPose,
    Scene,
    SpeakerSpec,
    SpeechSource,
    TurnSchedule,
    as_stereo,
    mouth_area_signal,
    render_binaural,
)

SEED_ENV = "COCKTAIL_SEED"
DEFAULT_SEED = 42

QTABLE_FILE = "qtable.npz"
DATASET_FILE = "dataset.jsonl"
MODEL_FILE = "localizer.npz"
SUMMARY_FILE = "summary.json"


# ---------------------------------------------------------------------------
# Shared plumbing


def resolve_seed(arg_seed) -> int:
    """``--seed`` wins; otherwise $COCKTAIL_SEED; otherwise 42.

    Seeds key numpy's seed sequences, so they must not be negative.
    """
    seed = arg_seed if arg_seed is not None else os.environ.get(SEED_ENV, DEFAULT_SEED)
    try:
        seed = int(seed)
    except ValueError:
        raise InputError(f"{SEED_ENV} must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return seed


def _out_dir(args) -> Path:
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _fmt(value) -> str:
    """Shortest exact decimal form, for CSV cells that round-trip."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# Scene configuration files


#: The longest scene ``simulate`` can write: a 16-bit stereo WAV stores
#: ``36 + 4 * frames`` in its 32-bit RIFF size field.
MAX_SCENE_S = ((2**32 - 1 - 36) // 4) / SAMPLE_RATE


def _require(obj, key, what):
    if key not in obj:
        raise FormatError(f"{what} is missing required key {key!r}")
    return obj[key]


def finite_float(text) -> float:
    """``float(text)``, refusing NaN and +/-inf with a :class:`ValueError`.

    Parses the scene config's numbers and every float command line flag.
    """
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def count(text) -> int:
    """``int(text)``, refusing a negative value with a :class:`ValueError`;
    parses every count flag."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text} is negative")
    return value


def load_scene_config(path) -> tuple[Scene, float]:
    """Parse a scene JSON document into a :class:`Scene` plus its duration.

    ``NaN``, ``Infinity``, ``-Infinity`` and numbers too large for a float,
    which Python's JSON reader would otherwise accept, raise
    :class:`FormatError` wherever they appear, and so do a duration or
    schedule time beyond :data:`MAX_SCENE_S`.  Nothing is coerced: a
    speaker id, seed or schedule speaker id that is not a JSON integer,
    or any other field that is not a JSON number (a bool or a string
    included), raises :class:`FormatError` too.
    """
    text = read_text(path, "scene file")
    try:
        doc = json.loads(text, parse_constant=finite_float, parse_float=finite_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:
        # A non-finite number, an integer past Python's digit limit, or
        # arrays nested too deep.
        raise FormatError(f"unreadable scene config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("scene config must be a JSON object")

    duration = ds.json_number(_require(doc, "duration_s", "scene config"), "duration_s")
    if not 0 < duration <= MAX_SCENE_S:
        raise FormatError(
            f"duration_s must be positive and at most {MAX_SCENE_S:.1f} s, "
            "the longest a 16-bit stereo WAV file holds"
        )

    speaker_docs = _require(doc, "speakers", "scene config")
    if not isinstance(speaker_docs, list) or not speaker_docs:
        raise FormatError("speakers must be a non-empty list")
    speakers = []
    for entry in speaker_docs:
        if not isinstance(entry, dict):
            raise FormatError("each speaker must be a JSON object")
        sid = ds.json_integer(_require(entry, "id", "speaker"), "speaker id")
        azimuth = ds.json_number(_require(entry, "azimuth_deg", "speaker"), "azimuth_deg")
        elevation = ds.json_number(_require(entry, "elevation_deg", "speaker"), "elevation_deg")
        seed = ds.json_integer(entry.get("seed", 0), "seed")
        band = entry.get("modulation_band", [0.5, 8.0])
        if not isinstance(band, list) or len(band) != 2:
            raise FormatError(f"modulation_band must be [low_hz, high_hz], got {band!r}")
        band = tuple(ds.json_number(hz, "modulation_band") for hz in band)
        gain = ds.json_number(entry.get("mouth_gain", 1.0), "mouth_gain")
        baseline = ds.json_number(entry.get("mouth_baseline", 0.5), "mouth_baseline")
        speakers.append(
            SpeakerSpec(
                id=sid,
                azimuth_world=azimuth,
                elevation_world=elevation,
                speech=SpeechSource(seed=seed, modulation_band=band),
                mouth_gain=gain,
                mouth_baseline=baseline,
            )
        )

    segments_doc = doc.get("schedule")
    if segments_doc is None:
        segments = ((0.0, duration, speakers[0].id),)
    else:
        if not isinstance(segments_doc, list) or not segments_doc:
            raise FormatError("schedule must be a non-empty list")
        segments = []
        for seg in segments_doc:
            if not isinstance(seg, list) or len(seg) != 3:
                raise FormatError(
                    "each schedule entry must be [start_s, end_s, speaker_id]"
                )
            start, end = (ds.json_number(x, "schedule time") for x in seg[:2])
            sid = None if seg[2] is None else ds.json_integer(seg[2], "schedule speaker id")
            if max(abs(start), abs(end)) > MAX_SCENE_S:
                raise FormatError(f"schedule entry {seg!r} is beyond {MAX_SCENE_S:.1f} s")
            segments.append((start, end, sid))
        segments = tuple(segments)

    noise = ds.json_number(doc.get("noise_level", 0.01), "noise_level")
    scene = Scene(
        speakers=tuple(speakers),
        schedule=TurnSchedule(segments),
        noise_level=noise,
    )
    return scene, duration


# ---------------------------------------------------------------------------
# WAV and mouth-CSV files


def write_wav(path, audio) -> None:
    """Write ``(2, n)`` audio as a stereo 16-bit PCM WAV at 48 kHz; samples
    are clipped to [-1, 1]."""
    pcm = np.clip(as_stereo(audio).T, -1.0, 1.0)
    data = np.round(pcm * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(data.tobytes())


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a stereo 16-bit PCM WAV back into ``(audio, rate)``, ``audio`` a
    ``(2, n)`` float array in [-1, 1].

    A data chunk that ends part way through a frame raises
    :class:`FormatError`.
    """
    try:
        fh = wave.open(str(path), "rb")
    except FileNotFoundError:
        raise InputError(f"no such WAV file: {path}") from None
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"not a WAV file: {path} ({exc})") from exc
    except RuntimeError as exc:
        # What the wave module raises for a chunk that runs past the file.
        raise FormatError(f"not a WAV file: {path} (a chunk runs past its end)") from exc
    with fh:
        if fh.getnchannels() != 2:
            raise FormatError(
                f"{path}: expected 2 channels, got {fh.getnchannels()}"
            )
        if fh.getsampwidth() != 2:
            raise FormatError(f"{path}: expected 16-bit PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    if len(raw) % 4:
        raise FormatError(
            f"{path}: data chunk ends part way through a frame "
            f"({len(raw)} bytes is not a whole number of 4-byte frames)"
        )
    frames = np.frombuffer(raw, dtype="<i2").reshape(-1, 2)
    return frames.T.astype(np.float64, order="C") / 32767.0, rate


def write_mouth_csv(path, times, areas) -> None:
    _write_csv(path, ["time_s", "area"],
               [[_fmt(t), _fmt(a)] for t, a in zip(times, areas)])


def read_mouth_csv(path) -> np.ndarray:
    """Read the areas of a mouth-area CSV whose times step by 0.1 s."""
    lines = read_text(path, "mouth-area file").splitlines()
    if not lines or lines[0].strip() != "time_s,area":
        raise FormatError(f"{path}: expected header 'time_s,area'")
    areas = []
    prev = None
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("expected two comma-separated fields", line=n)
        try:
            t = float(parts[0])
        except ValueError:
            raise ParseError(f"bad time value {parts[0]!r}", line=n) from None
        if not np.isfinite(t):
            raise ParseError(f"time {parts[0]!r} is not finite", line=n)
        if prev is not None and abs(t - prev - 1.0 / MOUTH_RATE_HZ) > 1e-6:
            raise ParseError(
                f"time {t} is not {1.0 / MOUTH_RATE_HZ} s after {prev}", line=n
            )
        prev = t
        try:
            areas.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"bad area value {parts[1]!r}", line=n) from None
    if not areas:
        raise FormatError(f"{path}: no data rows")
    return np.array(areas)


# ---------------------------------------------------------------------------
# Experiment flows (importable; the cmd_* handlers wrap these)


def stereo_envelopes_10hz(audio, rate: int = SAMPLE_RATE):
    """The ``(2, k)`` channel envelopes of ``(2, n)`` audio, resampled to the
    mouth-area rate."""
    return resample_envelope(analytic_envelope(audio), rate, MOUTH_RATE_HZ)


def _window_samples(window_s: float, n: int) -> int:
    """``window_s`` in 10 Hz samples: InputError unless 3 to ``n`` of them."""
    samples = window_s * MOUTH_RATE_HZ
    if samples > n:
        raise InputError(f"a {window_s} s window is longer than the {n / MOUTH_RATE_HZ} s signal")
    window_n = round(max(samples, 0.0))  # round(-inf) would raise OverflowError
    if window_n < 3:
        raise InputError(f"a {window_s} s window holds fewer than 3 samples at {MOUTH_RATE_HZ} Hz")
    return window_n


def avsync_windows(env1, env2, mouth, window_s: float):
    """Min-p windowed correlations; DegenerateDataError if no window works."""
    window_n = _window_samples(window_s, len(mouth))
    results = correlate_min_p(env1, env2, mouth, window_n=window_n)
    if all(res is None for res in results):
        raise DegenerateDataError(
            "every correlation window was degenerate (constant signals)"
        )
    return results


def summarize_avsync(results) -> tuple[float, float]:
    """Mean r and the percentage of significant windows (computed ones)."""
    rs = [res.r for res in results if res is not None]
    ps = [res.p for res in results if res is not None]
    return float(np.mean(rs)), float(100.0 * np.mean(np.asarray(ps) < ALPHA))


def turn_taking_rows(scene: Scene, duration: float, seed: int, window_s: float):
    """Per-window correlations for both speakers plus the active-speaker call."""
    if len(scene.speakers) != 2:
        raise DomainError(
            f"turn-taking needs exactly 2 speakers, got {len(scene.speakers)}"
        )
    first, second = scene.speakers
    clip = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, duration, seed=seed)
    env1, env2 = stereo_envelopes_10hz(clip.audio)
    _, mouth1 = mouth_area_signal(first, scene.schedule, 0.0, duration, seed=seed)
    _, mouth2 = mouth_area_signal(second, scene.schedule, 0.0, duration, seed=seed)
    window_n = _window_samples(window_s, mouth1.size)
    res1 = correlate_min_p(env1, env2, mouth1, window_n=window_n)
    res2 = correlate_min_p(env1, env2, mouth2, window_n=window_n)
    rows = []
    for w, (r1, r2) in enumerate(zip(res1, res2)):
        candidates = []
        for speaker, res in ((first, r1), (second, r2)):
            if res is not None and res.p < ALPHA and res.r > 0.0:
                candidates.append((res.p, speaker.id))
        predicted = min(candidates)[1] if candidates else None
        true = scene.schedule.active_at((w + 0.5) * window_n / MOUTH_RATE_HZ)
        rows.append((w, r1, r2, predicted, true))
    return rows


#: The longest ``attention-map --duration-s``: a 600 s clip is 460 MB of audio.
MAX_ATTENTION_S = 600.0


def attention_map_rows(azimuths, duration: float, noise_level: float,
                       elevation: float, seed: int):
    """Estimate the source azimuth for one source placed at each direction."""
    rows = []
    for azimuth in azimuths:
        speaker = SpeakerSpec(
            id=1,
            azimuth_world=float(azimuth),
            elevation_world=float(elevation),
            speech=SpeechSource(seed=seed + 1),
        )
        scene = Scene(
            speakers=(speaker,),
            schedule=TurnSchedule(((0.0, duration, 1),)),
            noise_level=noise_level,
        )
        audio = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, duration, seed=seed).audio
        # The tracker holds one frame of bands whatever the clip's length,
        # and rejects an empty clip.
        posterior = frontend.AzimuthTracker().feed(audio)
        estimate = frontend.estimate_location(posterior)
        rows.append(
            (float(azimuth), float(estimate), abs(float(estimate) - float(azimuth)),
             float(posterior.probs.max()))
        )
    return rows


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_simulate(args) -> int:
    seed = resolve_seed(args.seed)
    out = _out_dir(args)
    scene, duration = load_scene_config(args.scene)
    pose = HeadPose(args.pan, args.tilt)
    clip = render_binaural(scene, pose, 0.0, duration, seed=seed)
    wav_path = out / "audio.wav"
    write_wav(wav_path, clip.audio)
    written = [str(wav_path)]
    for speaker in scene.speakers:
        times, areas = mouth_area_signal(
            speaker, scene.schedule, 0.0, duration, seed=seed
        )
        mouth_path = out / f"mouth_{speaker.id}.csv"
        write_mouth_csv(mouth_path, times, areas)
        written.append(str(mouth_path))
    truth = {
        "duration_s": duration,
        "noise_level": scene.noise_level,
        "pose": {"pan_deg": pose.pan, "tilt_deg": pose.tilt},
        "seed": seed,
        "speakers": [
            {
                "id": s.id,
                "azimuth_deg": s.azimuth_world,
                "elevation_deg": s.elevation_world,
            }
            for s in scene.speakers
        ],
        "schedule": [list(seg) for seg in scene.schedule.segments],
    }
    truth_path = out / "truth.json"
    _write_json(truth_path, truth)
    written.append(str(truth_path))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_avsync(args) -> int:
    seed = resolve_seed(args.seed)
    out = _out_dir(args)
    if args.synthetic:
        scene, duration = load_scene_config(args.synthetic)
        speaker_id = args.speaker if args.speaker is not None else scene.speakers[0].id
        speaker = scene.speaker(speaker_id)
        clip = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, duration, seed=seed)
        audio, rate = clip.audio, SAMPLE_RATE
        _, mouth = mouth_area_signal(speaker, scene.schedule, 0.0, duration, seed=seed)
    else:
        if not args.wav or not args.mouth:
            raise InputError("avsync needs either --synthetic or --wav plus --mouth")
        audio, rate = read_wav(args.wav)
        mouth = read_mouth_csv(args.mouth)
    env1, env2 = stereo_envelopes_10hz(audio, rate)
    results = avsync_windows(env1, env2, mouth, args.window_s)
    rows = []
    for w, res in enumerate(results):
        if res is None:
            rows.append([w, "", "", ""])
        else:
            rows.append([w, _fmt(res.r), _fmt(res.p), res.channel])
    csv_path = out / "avsync_windows.csv"
    _write_csv(csv_path, ["window", "r", "p", "channel"], rows)
    mean_r, pct = summarize_avsync(results)
    print(f"mean_r={mean_r:.4f} pct_significant={pct:.1f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_turn_taking(args) -> int:
    seed = resolve_seed(args.seed)
    out = _out_dir(args)
    scene, duration = load_scene_config(args.scene)
    rows = turn_taking_rows(scene, duration, seed, args.window_s)
    csv_rows = []
    correct = total = 0
    for w, r1, r2, predicted, true in rows:
        csv_rows.append(
            [
                w,
                _fmt(r1.r) if r1 else "",
                _fmt(r1.p) if r1 else "",
                _fmt(r2.r) if r2 else "",
                _fmt(r2.p) if r2 else "",
                "none" if predicted is None else predicted,
                "none" if true is None else true,
            ]
        )
        correct += predicted == true
        total += 1
    csv_path = out / "turn_taking.csv"
    _write_csv(
        csv_path,
        ["window", "speaker1_r", "speaker1_p", "speaker2_r", "speaker2_p",
         "predicted_active", "true_active"],
        csv_rows,
    )
    print(f"windows={total} correct={correct}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_attention_map(args) -> int:
    seed = resolve_seed(args.seed)
    out = _out_dir(args)
    try:
        azimuths = [float(v) for v in args.azimuths.split(",") if v.strip()]
    except ValueError:
        raise InputError(f"bad --azimuths list: {args.azimuths!r}") from None
    if not azimuths:
        raise InputError("--azimuths must name at least one direction")
    if args.duration_s > MAX_ATTENTION_S:
        raise InputError(f"--duration-s must be at most {MAX_ATTENTION_S:.0f} s")
    rows = attention_map_rows(
        azimuths, args.duration_s, args.noise_level, args.elevation, seed
    )
    csv_path = out / "attention_map.csv"
    _write_csv(
        csv_path,
        ["azimuth_deg", "estimate_deg", "error_deg", "posterior_peak"],
        [[_fmt(a), _fmt(e), _fmt(err), _fmt(peak)] for a, e, err, peak in rows],
    )
    worst = max(err for _, _, err, _ in rows)
    print(f"max_error_deg={worst:.1f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_train_rl(args) -> int:
    seed = resolve_seed(args.seed)
    out = _out_dir(args)
    config = rl.AgentConfig(fast=args.fast)
    qtable, stats = rl.train(args.episodes, seed=seed, config=config)
    qtable_path = out / QTABLE_FILE
    rl.save_qtable(qtable_path, qtable)
    payload = {
        "episodes": stats.episodes,
        "successes": stats.successes,
        "final_success_rate": stats.final_success_rate,
        "seed": seed,
        "fast": args.fast,
    }
    if args.eval_episodes > 0:
        greedy = rl.evaluate(
            qtable, args.eval_episodes, seed=seed + 1, config=config, policy="greedy"
        )
        payload["eval_success_rate"] = greedy.success_rate
        payload["eval_median_steps"] = greedy.median_steps
    stats_path = out / "rl_stats.json"
    _write_json(stats_path, payload)
    print(f"train_success_rate={stats.final_success_rate:.2f}")
    if "eval_success_rate" in payload:
        print(f"eval_success_rate={payload['eval_success_rate']:.2f}")
    print(f"wrote {qtable_path}")
    print(f"wrote {stats_path}")
    return EXIT_OK


def cmd_build_dataset(args) -> int:
    seed = resolve_seed(args.seed)
    out = _out_dir(args)
    qtable = rl.load_qtable(args.qtable)
    config = rl.AgentConfig(fast=args.fast)
    records, stats = ds.build_dataset(qtable, args.episodes, seed=seed, config=config)
    data_path = out / DATASET_FILE
    ds.write_dataset(data_path, records, meta={"seed": seed, "episodes": args.episodes})
    stats_path = out / "dataset_stats.json"
    _write_json(stats_path, stats)
    print(f"episodes={stats['episodes']} successes={stats['successes']} "
          f"records={stats['records']}")
    print(f"wrote {data_path}")
    print(f"wrote {stats_path}")
    return EXIT_OK


def cmd_train_localizer(args) -> int:
    seed = resolve_seed(args.seed)
    out = _out_dir(args)
    records, _ = ds.read_dataset(args.dataset)
    model, stats = lz.train_localizer(
        records,
        seed=seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        momentum=args.momentum,
    )
    model_path = out / MODEL_FILE
    lz.save_localizer(model_path, model)
    payload = dict(stats)
    payload["loss_history"] = list(payload["loss_history"])
    payload["seed"] = seed
    stats_path = out / "localizer_stats.json"
    _write_json(stats_path, payload)
    print(f"final_train_loss={stats['final_train_loss']:.4f}")
    if "val_azimuth_within_10_deg" in stats:
        print(f"val_azimuth_within_10_deg={stats['val_azimuth_within_10_deg']:.3f}")
    print(f"wrote {model_path}")
    print(f"wrote {stats_path}")
    return EXIT_OK


def _select_fold(records, fold: str):
    if fold == "all":
        return records
    mask = lz.validation_mask(len(records))
    keep = mask if fold == "val" else ~mask
    return [rec for rec, flag in zip(records, keep) if flag]


def cmd_eval_localizer(args) -> int:
    out = _out_dir(args)
    model = lz.load_localizer(args.model)
    records, _ = ds.read_dataset(args.dataset)
    subset = _select_fold(records, args.fold)
    if not subset:
        raise DegenerateDataError(f"fold {args.fold!r} selects no records")
    metrics = lz.evaluate_localizer(model, subset)
    metrics["fold"] = args.fold
    eval_path = out / "localizer_eval.json"
    _write_json(eval_path, metrics)
    print(f"azimuth_within_10_deg={metrics['azimuth_within_10_deg']:.3f} "
          f"elevation_within_10_deg={metrics['elevation_within_10_deg']:.3f}")
    print(f"wrote {eval_path}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    seed = resolve_seed(args.seed)
    out = _out_dir(args)
    fast = args.fast
    config = rl.AgentConfig(fast=fast)
    episodes = args.episodes if args.episodes else (300 if fast else 2000)
    eval_episodes = args.eval_episodes if args.eval_episodes else (40 if fast else 100)
    dataset_episodes = (
        args.dataset_episodes if args.dataset_episodes else (150 if fast else 2200)
    )
    epochs = args.epochs if args.epochs else (30 if fast else 40)

    qtable, train_stats = rl.train(episodes, seed=seed, config=config)
    rl.save_qtable(out / QTABLE_FILE, qtable)
    greedy = rl.evaluate(
        qtable, eval_episodes, seed=seed + 1, config=config, policy="greedy"
    )
    print(f"[1/4] train-rl: eval_success_rate={greedy.success_rate:.2f}")

    records, data_stats = ds.build_dataset(
        qtable, dataset_episodes, seed=seed + 2, config=config
    )
    if not records:
        raise DegenerateDataError("the policy produced no labeled records")
    ds.write_dataset(
        out / DATASET_FILE, records,
        meta={"seed": seed, "episodes": dataset_episodes},
    )
    print(f"[2/4] build-dataset: records={len(records)}")

    model, fit_stats = lz.train_localizer(records, seed=seed, epochs=epochs)
    lz.save_localizer(out / MODEL_FILE, model)
    print(f"[3/4] train-localizer: final_loss={fit_stats['final_train_loss']:.4f}")

    val_records = _select_fold(records, "val")
    metrics = lz.evaluate_localizer(model, val_records if val_records else records)
    print(f"[4/4] eval-localizer: azimuth_within_10_deg="
          f"{metrics['azimuth_within_10_deg']:.3f}")

    summary = {
        "seed": seed,
        "fast": fast,
        "rl_episodes": train_stats.episodes,
        "rl_train_success_rate": train_stats.final_success_rate,
        "rl_success_rate": greedy.success_rate,
        "rl_median_steps": greedy.median_steps,
        "dataset_episodes": data_stats["episodes"],
        "dataset_successes": data_stats["successes"],
        "dataset_size": len(records),
        "localizer_epochs": fit_stats["epochs"],
        "localizer_final_loss": fit_stats["final_train_loss"],
        "localizer_az_acc": metrics["azimuth_within_10_deg"],
        "localizer_el_acc": metrics["elevation_within_10_deg"],
    }
    summary_path = out / SUMMARY_FILE
    _write_json(summary_path, summary)
    print(f"wrote {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocktail",
        description="Simulator-backed speaker localization experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--seed", type=int, default=None,
                         help=f"RNG seed (default ${SEED_ENV} or {DEFAULT_SEED})")
        sub.add_argument("--out-dir", default=".", help="artifact directory")

    sub = subparsers.add_parser("simulate", help="render a scene to WAV + CSV")
    common(sub)
    sub.add_argument("--scene", required=True, help="scene JSON file")
    sub.add_argument("--pan", type=finite_float, default=0.0, help="head pan (deg)")
    sub.add_argument("--tilt", type=finite_float, default=0.0, help="head tilt (deg)")
    sub.set_defaults(func=cmd_simulate)

    sub = subparsers.add_parser("avsync", help="windowed mouth/envelope correlation")
    common(sub)
    sub.add_argument("--synthetic", help="scene JSON to render in-memory")
    sub.add_argument("--speaker", type=int, default=None,
                     help="speaker id for --synthetic (default: first)")
    sub.add_argument("--wav", help="stereo WAV input")
    sub.add_argument("--mouth", help="mouth-area CSV input (10 Hz)")
    sub.add_argument("--window-s", type=finite_float, default=10.0)
    sub.set_defaults(func=cmd_avsync)

    sub = subparsers.add_parser("turn-taking", help="two-speaker activity detection")
    common(sub)
    sub.add_argument("--scene", required=True, help="two-speaker scene JSON")
    sub.add_argument("--window-s", type=finite_float, default=10.0)
    sub.set_defaults(func=cmd_turn_taking)

    sub = subparsers.add_parser("attention-map", help="azimuth estimation sweep")
    common(sub)
    sub.add_argument("--azimuths", default="-60,-30,0,30,60",
                     help="comma-separated source azimuths (deg)")
    sub.add_argument("--duration-s", type=finite_float, default=1.0,
                     help=f"clip length per direction, at most {MAX_ATTENTION_S:.0f} s")
    sub.add_argument("--noise-level", type=finite_float, default=0.003)
    sub.add_argument("--elevation", type=finite_float, default=0.0)
    sub.set_defaults(func=cmd_attention_map)

    sub = subparsers.add_parser("train-rl", help="train the Q-learning controller")
    common(sub)
    sub.add_argument("--episodes", type=count, default=2000)
    sub.add_argument("--eval-episodes", type=count, default=100,
                     help="greedy evaluation episodes (0 to skip)")
    sub.add_argument("--fast", action="store_true")
    sub.set_defaults(func=cmd_train_rl)

    sub = subparsers.add_parser("build-dataset", help="harvest labeled records")
    common(sub)
    sub.add_argument("--qtable", required=True, help="trained Q-table (.npz)")
    sub.add_argument("--episodes", type=count, default=500)
    sub.add_argument("--fast", action="store_true")
    sub.set_defaults(func=cmd_build_dataset)

    sub = subparsers.add_parser("train-localizer", help="fit the MLP localizer")
    common(sub)
    sub.add_argument("--dataset", required=True, help="dataset JSONL file")
    sub.add_argument("--epochs", type=count, default=lz.DEFAULT_EPOCHS)
    sub.add_argument("--batch-size", type=count, default=lz.DEFAULT_BATCH_SIZE)
    sub.add_argument("--learning-rate", type=finite_float, default=lz.DEFAULT_LEARNING_RATE)
    sub.add_argument("--momentum", type=finite_float, default=lz.DEFAULT_MOMENTUM)
    sub.set_defaults(func=cmd_train_localizer)

    sub = subparsers.add_parser("eval-localizer", help="score a localizer")
    common(sub)
    sub.add_argument("--model", required=True, help="localizer .npz file")
    sub.add_argument("--dataset", required=True, help="dataset JSONL file")
    sub.add_argument("--fold", choices=("val", "train", "all"), default="val")
    sub.set_defaults(func=cmd_eval_localizer)

    sub = subparsers.add_parser("pipeline", help="all four learning stages")
    common(sub)
    sub.add_argument("--fast", action="store_true",
                     help="smaller episode counts and analysis windows")
    sub.add_argument("--episodes", type=count, default=0,
                     help="RL training episodes (0 = mode default)")
    sub.add_argument("--eval-episodes", type=count, default=0)
    sub.add_argument("--dataset-episodes", type=count, default=0)
    sub.add_argument("--epochs", type=count, default=0)
    sub.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DomainError, OSError) as exc:
        # OSError: a path that cannot be read or written, such as a directory
        # given as a file or an output directory that names a file.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DegenerateDataError as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_DATA
    except ContractViolationError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
