"""End-to-end checks for the ``cocktail`` command line.

Subcommands run in-process through :func:`cocktail.cli.main` so exit codes
and printed output can be asserted without spawning an interpreter.  The
rendering-heavy commands share module-scoped artifact directories.
"""

import argparse
import csv
import json
import wave
from pathlib import Path

import numpy as np
import pytest

from cocktail import agent, cli, dataset, frontend, localizer
from cocktail import scene as sc
from cocktail.errors import (
    DomainError,
    FormatError,
    InputError,
    ParseError,
)


def run_cli(argv, capsys):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Scene fixtures


@pytest.fixture(scope="module")
def scene_one(tmp_path_factory):
    """A single speaker at +20 degrees talking for six seconds."""
    path = tmp_path_factory.mktemp("scenes") / "one.json"
    path.write_text(json.dumps({
        "duration_s": 6.0,
        "noise_level": 0.01,
        "speakers": [
            {"id": 1, "azimuth_deg": 20.0, "elevation_deg": 0.0, "seed": 3},
        ],
    }))
    return path


@pytest.fixture(scope="module")
def scene_two(tmp_path_factory):
    """Two speakers alternating four-second turns for twelve seconds."""
    path = tmp_path_factory.mktemp("scenes") / "two.json"
    path.write_text(json.dumps({
        "duration_s": 12.0,
        "noise_level": 0.01,
        "speakers": [
            {"id": 1, "azimuth_deg": -30.0, "elevation_deg": 0.0, "seed": 3},
            {"id": 2, "azimuth_deg": 30.0, "elevation_deg": 0.0, "seed": 4},
        ],
        "schedule": [[0.0, 4.0, 1], [4.0, 8.0, 2], [8.0, 12.0, 1]],
    }))
    return path


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory, scene_one):
    """Artifacts from ``simulate`` on the one-speaker scene."""
    out = tmp_path_factory.mktemp("sim")
    code = cli.main([
        "simulate", "--scene", str(scene_one), "--seed", "5",
        "--out-dir", str(out),
    ])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# Seed resolution


class TestSeedResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "7")
        assert cli.resolve_seed(13) == 13

    def test_environment_variable_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "7")
        assert cli.resolve_seed(None) == 7

    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        assert cli.resolve_seed(None) == cli.DEFAULT_SEED == 42

    def test_bad_environment_value_is_input_error(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "bogus")
        with pytest.raises(InputError):
            cli.resolve_seed(None)

    def test_bad_environment_value_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(cli.SEED_ENV, "not-a-seed")
        code, _, err = run_cli(
            ["attention-map", "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert "error:" in err and cli.SEED_ENV in err


# ---------------------------------------------------------------------------
# Scene configuration parsing


class TestSceneConfig:
    def test_minimal_scene_gets_default_schedule(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "duration_s": 3.0,
            "speakers": [{"id": 9, "azimuth_deg": -10, "elevation_deg": 5}],
        }))
        scene, duration = cli.load_scene_config(path)
        assert duration == 3.0
        assert len(scene.speakers) == 1
        assert scene.speakers[0].id == 9
        assert scene.speakers[0].azimuth_world == -10.0
        assert scene.schedule.segments == ((0.0, 3.0, 9),)
        assert scene.noise_level == 0.01

    def test_schedule_and_noise_are_honoured(self, scene_two):
        scene, duration = cli.load_scene_config(scene_two)
        assert duration == 12.0
        assert scene.schedule.segments == (
            (0.0, 4.0, 1), (4.0, 8.0, 2), (8.0, 12.0, 1)
        )

    def test_null_schedule_entry_means_silence(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "duration_s": 2.0,
            "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}],
            "schedule": [[0.0, 1.0, 1], [1.0, 2.0, None]],
        }))
        scene, _ = cli.load_scene_config(path)
        assert scene.schedule.segments[1] == (1.0, 2.0, None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            cli.load_scene_config(tmp_path / "nope.json")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{\n  "duration_s": 3.0,\n  oops\n}\n')
        with pytest.raises(ParseError) as info:
            cli.load_scene_config(path)
        assert info.value.line == 3

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FormatError):
            cli.load_scene_config(path)

    @pytest.mark.parametrize("doc", [
        {"speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}]},
        {"duration_s": 3.0},
        {"duration_s": -1.0,
         "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}]},
        {"duration_s": True,
         "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}]},
        {"duration_s": 3.0, "speakers": []},
        {"duration_s": 3.0, "speakers": [{"id": 1, "azimuth_deg": 0}]},
        {"duration_s": 3.0,
         "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}],
         "schedule": [[0.0, 3.0]]},
        {"duration_s": 3.0,
         "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}],
         "noise_level": "loud"},
    ])
    def test_schema_violations(self, tmp_path, doc):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            cli.load_scene_config(path)

    def test_out_of_range_azimuth_is_domain_error(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "duration_s": 3.0,
            "speakers": [{"id": 1, "azimuth_deg": 120, "elevation_deg": 0}],
        }))
        with pytest.raises(DomainError):
            cli.load_scene_config(path)


# ---------------------------------------------------------------------------
# WAV and mouth-CSV round trips


class TestWavIO:
    def test_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        audio = 0.5 * rng.standard_normal((2, 4800)).clip(-1.9, 1.9)
        path = tmp_path / "clip.wav"
        cli.write_wav(path, audio)
        got, rate = cli.read_wav(path)
        assert rate == 48000
        assert got.shape == (2, 4800)
        np.testing.assert_allclose(got, np.clip(audio, -1, 1), atol=2e-5)

    def test_out_of_range_samples_are_clipped(self, tmp_path):
        path = tmp_path / "clip.wav"
        cli.write_wav(path, np.array([[2.0, -3.0], [0.0, 0.0]]))
        got, _ = cli.read_wav(path)
        np.testing.assert_allclose(got, [[1.0, -1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("shape", [(4800,), (1, 4800), (3, 4800), (4800, 2)])
    def test_write_takes_two_rows_only(self, tmp_path, shape):
        with pytest.raises(DomainError):
            cli.write_wav(tmp_path / "clip.wav", np.zeros(shape))

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_data_chunk_ending_mid_frame_rejected(self, tmp_path, cut):
        path = tmp_path / "clip.wav"
        cli.write_wav(path, np.zeros((2, 9600)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match="part way through a frame"):
            cli.read_wav(path)

    def test_data_chunk_ending_on_a_frame_reads_the_whole_frames(self, tmp_path):
        path = tmp_path / "clip.wav"
        cli.write_wav(path, np.full((2, 9600), 0.5))
        path.write_bytes(path.read_bytes()[:-4])
        got, _ = cli.read_wav(path)
        assert got.shape == (2, 9599)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            cli.read_wav(tmp_path / "absent.wav")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(FormatError):
            cli.read_wav(path)

    def test_mono_file_rejected(self, tmp_path):
        path = tmp_path / "mono.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(48000)
            fh.writeframes(b"\x00\x00" * 10)
        with pytest.raises(FormatError):
            cli.read_wav(path)


class TestMouthCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        times = np.arange(5) / 10.0
        areas = np.array([0.5, 0.625, 0.75, 0.5, 1.0 / 3.0])
        path = tmp_path / "mouth.csv"
        cli.write_mouth_csv(path, times, areas)
        np.testing.assert_array_equal(cli.read_mouth_csv(path), areas)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            cli.read_mouth_csv(tmp_path / "absent.csv")

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "mouth.csv"
        path.write_text("time,mouth\n0.0,0.5\n")
        with pytest.raises(FormatError):
            cli.read_mouth_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "mouth.csv"
        path.write_text("time_s,area\n0.0,0.5\n0.1,wide\n")
        with pytest.raises(ParseError) as info:
            cli.read_mouth_csv(path)
        assert info.value.line == 3

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "mouth.csv"
        path.write_text("time_s,area\n0.0,0.5,9\n")
        with pytest.raises(ParseError) as info:
            cli.read_mouth_csv(path)
        assert info.value.line == 2

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "mouth.csv"
        path.write_text("time_s,area\n")
        with pytest.raises(FormatError):
            cli.read_mouth_csv(path)

    @pytest.mark.parametrize("times, line", [
        (["0.05", "0.15", "0.35"], 4),
        (["0.0", "0.1", "0.1"], 4),
        (["0.2", "0.1"], 3),
        (["0.0", "0.1000011"], 3),
        (["0.0", "nan"], 3),
        (["inf", "0.1"], 2),
        (["soon", "0.1"], 2),
    ])
    def test_times_off_the_10hz_grid_report_line(self, tmp_path, times, line):
        path = tmp_path / "mouth.csv"
        path.write_text("time_s,area\n" + "".join(f"{t},0.5\n" for t in times))
        with pytest.raises(ParseError) as info:
            cli.read_mouth_csv(path)
        assert info.value.line == line

    def test_times_within_tolerance_are_accepted(self, tmp_path):
        path = tmp_path / "mouth.csv"
        path.write_text("time_s,area\n1000.05,0.5\n1000.1500009,0.25\n")
        np.testing.assert_array_equal(cli.read_mouth_csv(path), [0.5, 0.25])


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    def test_writes_audio_mouth_and_truth(self, sim_dir):
        assert (sim_dir / "audio.wav").exists()
        assert (sim_dir / "mouth_1.csv").exists()
        assert (sim_dir / "truth.json").exists()

    def test_audio_has_expected_length(self, sim_dir):
        audio, rate = cli.read_wav(sim_dir / "audio.wav")
        assert rate == 48000
        assert audio.shape == (2, 6 * 48000)
        assert float(np.max(np.abs(audio))) > 0.01

    def test_mouth_track_is_10hz(self, sim_dir):
        areas = cli.read_mouth_csv(sim_dir / "mouth_1.csv")
        assert areas.shape == (60,)
        assert np.all(areas >= 0.0)

    def test_truth_records_the_scene(self, sim_dir):
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert truth["duration_s"] == 6.0
        assert truth["seed"] == 5
        assert truth["pose"] == {"pan_deg": 0.0, "tilt_deg": 0.0}
        assert truth["speakers"] == [
            {"id": 1, "azimuth_deg": 20.0, "elevation_deg": 0.0}
        ]
        assert truth["schedule"] == [[0.0, 6.0, 1]]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["duration_s", "schedule_start", "schedule_end"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, field, literal):
        start, end, duration = "0.0", "1.0", "1.0"
        if field == "duration_s":
            duration = literal
        elif field == "schedule_start":
            start = literal
        else:
            end = literal
        path = tmp_path / "scene.json"
        path.write_text(
            f'{{"duration_s": {duration}, "schedule": [[{start}, {end}, 1]],'
            ' "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}]}'
        )
        code, _, err = run_cli(
            ["simulate", "--scene", str(path), "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("duration, end, noise", [
        ("1e12", "1.0", "0.01"),
        ("1e400", "1.0", "0.01"),
        ("1.0", "1e400", "0.01"),
        ("1.0", "1e308", "0.01"),
        ("1" + "0" * 400, "1.0", "0.01"),
        ("1.0", "1.0", "1" + "0" * 400),
    ], ids=["duration_1e12", "duration_1e400", "end_1e400", "end_1e308",
            "duration_long_int", "noise_long_int"])
    @pytest.mark.parametrize("command", ["simulate", "avsync"])
    def test_overflowing_scene_number_exits_2(self, tmp_path, capsys, command,
                                              duration, end, noise):
        path = tmp_path / "scene.json"
        path.write_text(
            f'{{"duration_s": {duration}, "noise_level": {noise},'
            f' "schedule": [[0.0, {end}, 1]],'
            ' "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}]}'
        )
        flag = "--scene" if command == "simulate" else "--synthetic"
        code, _, err = run_cli(
            [command, flag, str(path), "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_noise_that_overflows_exits_2_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "duration_s": 0.1, "noise_level": 1e308,
            "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}],
        }))
        code, _, err = run_cli(
            ["simulate", "--scene", str(path), "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert err.startswith("error:") and "non-finite" in err
        assert "Warning" not in err

    def test_scene_as_long_as_a_wav_file_holds_parses(self, tmp_path):
        # 36 + 4 * frames <= 2**32 - 1 allows 1_073_741_814 stereo frames.
        limit = 1_073_741_814 / 48_000
        assert cli.MAX_SCENE_S == limit
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "duration_s": limit,
            "schedule": [[0.0, limit, 1]],
            "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}],
        }))
        _, duration = cli.load_scene_config(path)
        assert duration == limit
        path.write_text(path.read_text().replace(repr(limit), "22369.7", 1))
        with pytest.raises(FormatError):
            cli.load_scene_config(path)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        speaker = {"id": 1, "azimuth_deg": 0, "elevation_deg": 0}
        for seed_arg, speech_seed in ((["--seed", "-1"], 0), ([], -1)):
            path.write_text(json.dumps({
                "duration_s": 0.1, "speakers": [{**speaker, "seed": speech_seed}],
            }))
            code, _, err = run_cli(
                ["simulate", "--scene", str(path), "--out-dir", str(tmp_path),
                 *seed_arg],
                capsys,
            )
            assert code == 2
            assert "error:" in err

    @pytest.mark.parametrize("duration", [0.01, 0.04])
    def test_scene_shorter_than_one_mouth_sample(self, tmp_path, capsys, duration):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "duration_s": duration,
            "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0}],
        }))
        code, _, _ = run_cli(
            ["simulate", "--scene", str(path), "--out-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert (tmp_path / "mouth_1.csv").read_text() == "time_s,area\n"
        audio, _ = cli.read_wav(tmp_path / "audio.wav")
        assert audio.shape == (2, round(duration * 48000))

    def test_missing_scene_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--scene", str(tmp_path / "nope.json"),
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("speaker, schedule", [
        ({"azimuth_deg": "left"}, None),
        ({"seed": "eleven"}, None),
        ({"modulation_band": 4}, None),
        ({}, [["soon", 1.0, 1]]),
        ({"id": "one"}, None),
        ({"id": 1.9}, None),
        ({"seed": True}, None),
        ({}, [[0.0, 1.0, 1.7]]),
        ({"azimuth_deg": "30"}, None),
        ({"seed": "11"}, None),
        ({"mouth_gain": "2"}, None),
    ], ids=["azimuth", "seed", "modulation_band", "schedule_start", "speaker_id",
            "float_speaker_id", "bool_seed", "float_schedule_id", "string_azimuth",
            "string_seed", "string_mouth_gain"])
    def test_mistyped_scene_field_exits_2(self, tmp_path, capsys, speaker, schedule):
        doc = {"duration_s": 1.0,
               "speakers": [{"id": 1, "azimuth_deg": 0, "elevation_deg": 0, **speaker}]}
        if schedule is not None:
            doc["schedule"] = schedule
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["simulate", "--scene", str(path), "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("case", ["scene_dir", "wav_dir", "mouth_dir", "dataset_dir",
                                  "out_dir_is_a_file", "output_name_is_a_dir"])
def test_unreadable_or_unwritable_path_exits_2(case, scene_one, sim_dir, tmp_path, capsys):
    folder = tmp_path / "folder"
    (folder / "truth.json").mkdir(parents=True)
    out = str(tmp_path / "out")
    argv = {
        "scene_dir": ["simulate", "--scene", str(folder), "--out-dir", out],
        "wav_dir": ["avsync", "--wav", str(folder), "--mouth", str(sim_dir / "mouth_1.csv"),
                    "--out-dir", out],
        "mouth_dir": ["avsync", "--wav", str(sim_dir / "audio.wav"), "--mouth", str(folder),
                      "--out-dir", out],
        "dataset_dir": ["train-localizer", "--dataset", str(folder), "--out-dir", out],
        "out_dir_is_a_file": ["simulate", "--scene", str(scene_one), "--out-dir", str(scene_one)],
        "output_name_is_a_dir": ["simulate", "--scene", str(scene_one), "--out-dir", str(folder)],
    }[case]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# avsync


class TestAvsync:
    def test_synthetic_route(self, scene_one, tmp_path, capsys):
        code, out, _ = run_cli(
            ["avsync", "--synthetic", str(scene_one), "--window-s", "2",
             "--seed", "5", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "mean_r=" in out and "pct_significant=" in out
        header, rows = read_csv(tmp_path / "avsync_windows.csv")
        assert header == ["window", "r", "p", "channel"]
        assert len(rows) == 3
        for row in rows:
            if row[1]:
                assert -1.0 <= float(row[1]) <= 1.0
                assert 0.0 <= float(row[2]) <= 1.0
                assert row[3] in ("1", "2")

    def test_wav_route_matches_artifacts(self, sim_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            ["avsync", "--wav", str(sim_dir / "audio.wav"),
             "--mouth", str(sim_dir / "mouth_1.csv"), "--window-s", "2",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "avsync_windows.csv")
        assert len(rows) == 3

    def test_no_inputs_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["avsync", "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "error:" in err

    def test_missing_wav_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["avsync", "--wav", str(tmp_path / "no.wav"),
             "--mouth", str(tmp_path / "no.csv"), "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "no such WAV file" in err

    def test_wav_cut_mid_frame_exits_2(self, sim_dir, tmp_path, capsys):
        wav = tmp_path / "cut.wav"
        wav.write_bytes((sim_dir / "audio.wav").read_bytes()[:-3])
        code, _, err = run_cli(
            ["avsync", "--wav", str(wav), "--mouth", str(sim_dir / "mouth_1.csv"),
             "--window-s", "2", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "part way through a frame" in err

    def test_mouth_times_off_the_10hz_grid_exit_2(self, sim_dir, tmp_path, capsys):
        mouth = tmp_path / "gappy.csv"
        mouth.write_text("time_s,area\n0.05,0.5\n0.15,0.6\n0.35,0.7\n")
        code, _, err = run_cli(
            ["avsync", "--wav", str(sim_dir / "audio.wav"),
             "--mouth", str(mouth), "--window-s", "2",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "line 4" in err

    def test_constant_mouth_is_degenerate_exit_3(self, sim_dir, tmp_path, capsys):
        mouth = tmp_path / "flat.csv"
        cli.write_mouth_csv(mouth, np.arange(60) / 10.0, np.full(60, 0.5))
        code, _, err = run_cli(
            ["avsync", "--wav", str(sim_dir / "audio.wav"),
             "--mouth", str(mouth), "--window-s", "2",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "degenerate" in err

    @pytest.mark.parametrize("window_s, words", [("1e308", "longer than"),
                                                 ("1e307", "longer than"),
                                                 ("0.2", "fewer than 3"),
                                                 ("-1e308", "fewer than 3")])
    def test_window_without_3_to_n_samples_exits_2(self, sim_dir, tmp_path, capsys,
                                                   window_s, words):
        code, _, err = run_cli(
            ["avsync", "--wav", str(sim_dir / "audio.wav"),
             "--mouth", str(sim_dir / "mouth_1.csv"), f"--window-s={window_s}",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert words in err

    def test_mouth_areas_whose_sums_overflow_exit_2(self, sim_dir, tmp_path, capsys):
        mouth = tmp_path / "huge.csv"
        areas = 5e307 * (0.5 + 0.5 * np.sin(np.arange(60)))
        cli.write_mouth_csv(mouth, np.arange(60) / 10.0, areas)
        code, _, err = run_cli(
            ["avsync", "--wav", str(sim_dir / "audio.wav"),
             "--mouth", str(mouth), "--window-s", "2",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "overflow" in err


# ---------------------------------------------------------------------------
# turn-taking


class TestTurnTaking:
    def test_reports_per_window_predictions(self, scene_two, tmp_path, capsys):
        code, out, _ = run_cli(
            ["turn-taking", "--scene", str(scene_two), "--window-s", "4",
             "--seed", "5", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "windows=3" in out
        header, rows = read_csv(tmp_path / "turn_taking.csv")
        assert header == ["window", "speaker1_r", "speaker1_p", "speaker2_r",
                          "speaker2_p", "predicted_active", "true_active"]
        assert len(rows) == 3
        assert [row[6] for row in rows] == ["1", "2", "1"]
        for row in rows:
            assert row[5] in ("1", "2", "none")

    def test_single_speaker_scene_exits_2(self, scene_one, tmp_path, capsys):
        code, _, err = run_cli(
            ["turn-taking", "--scene", str(scene_one), "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "exactly 2 speakers" in err

    def test_truth_is_read_at_the_centre_of_each_window_it_scores(self, scene_two,
                                                                   tmp_path, capsys):
        """A 0.54 s window spans 5 samples, 0.5 s; the truth of window 7
        (3.5 to 4 s, speaker 1's turn) is read at 3.75 s, not at 4.05 s."""
        code, _, _ = run_cli(
            ["turn-taking", "--scene", str(scene_two), "--window-s", "0.54",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "turn_taking.csv")
        assert len(rows) == 24
        assert [row[6] for row in rows] == ["1"] * 8 + ["2"] * 8 + ["1"] * 8

    @pytest.mark.parametrize("window_s", ["1e308", "100"])
    def test_window_without_3_to_n_samples_exits_2(self, scene_two, tmp_path, capsys,
                                                   window_s):
        code, _, err = run_cli(
            ["turn-taking", "--scene", str(scene_two), "--window-s", window_s,
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "window" in err
        assert not (tmp_path / "turn_taking.csv").exists()


# ---------------------------------------------------------------------------
# attention-map


class TestAttentionMap:
    def test_single_direction_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["attention-map", "--azimuths", "0", "--duration-s", "1.0",
             "--seed", "5", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "max_error_deg=" in out
        header, rows = read_csv(tmp_path / "attention_map.csv")
        assert header == ["azimuth_deg", "estimate_deg", "error_deg",
                          "posterior_peak"]
        assert len(rows) == 1
        assert float(rows[0][2]) <= 5.0

    @pytest.mark.parametrize("duration", ["1e12", str(cli.MAX_ATTENTION_S + 1.0)])
    def test_duration_beyond_the_bound_exits_2(self, tmp_path, capsys, duration):
        code, _, err = run_cli(
            ["attention-map", "--duration-s", duration, "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "at most 600 s" in err
        assert not (tmp_path / "attention_map.csv").exists()

    def test_rows_match_one_whole_clip_feed(self):
        """Each row holds the estimate and peak of one whole-clip feed of
        the tracker."""
        (row,) = cli.attention_map_rows([-20.0], 1.3, 0.003, 0.0, 5)
        scene = sc.Scene(
            speakers=(sc.SpeakerSpec(id=1, azimuth_world=-20.0, elevation_world=0.0,
                                     speech=sc.SpeechSource(seed=6)),),
            schedule=sc.TurnSchedule(((0.0, 1.3, 1),)),
            noise_level=0.003,
        )
        audio = sc.render_binaural(scene, sc.HeadPose(0.0, 0.0), 0.0, 1.3, seed=5).audio
        posterior = frontend.AzimuthTracker().feed(audio)
        estimate = frontend.estimate_location(posterior)
        assert row == (-20.0, estimate, abs(estimate + 20.0), float(posterior.probs.max()))

    def test_bad_azimuth_list_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["attention-map", "--azimuths", "0,east", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "bad --azimuths" in err

    def test_empty_azimuth_list_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["attention-map", "--azimuths", ",", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2


# ---------------------------------------------------------------------------
# train-rl and build-dataset


@pytest.fixture(scope="module")
def rl_dir(tmp_path_factory, capsysbinary=None):
    out = tmp_path_factory.mktemp("rl")
    code = cli.main([
        "train-rl", "--episodes", "3", "--eval-episodes", "2", "--fast",
        "--seed", "9", "--out-dir", str(out),
    ])
    assert code == 0
    return out


class TestTrainRl:
    def test_qtable_artifact_loads(self, rl_dir):
        qtable = agent.load_qtable(rl_dir / "qtable.npz")
        assert qtable.values.shape == (agent.N_STATES, agent.N_ACTIONS)
        assert int(qtable.visit_counts.sum()) > 0

    def test_stats_json_content(self, rl_dir):
        stats = json.loads((rl_dir / "rl_stats.json").read_text())
        assert stats["episodes"] == 3
        assert stats["seed"] == 9
        assert stats["fast"] is True
        assert 0.0 <= stats["eval_success_rate"] <= 1.0
        assert "eval_median_steps" in stats

    def test_build_dataset_chain(self, rl_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            ["build-dataset", "--qtable", str(rl_dir / "qtable.npz"),
             "--episodes", "3", "--fast", "--seed", "9",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "records=" in out
        records, meta = dataset.read_dataset(tmp_path / "dataset.jsonl")
        stats = json.loads((tmp_path / "dataset_stats.json").read_text())
        assert stats["episodes"] == 3
        assert stats["records"] == len(records)
        assert meta["seed"] == 9 and meta["episodes"] == 3

    def test_missing_qtable_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["build-dataset", "--qtable", str(tmp_path / "no.npz"),
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2


# ---------------------------------------------------------------------------
# train-localizer and eval-localizer


def synthetic_records(count, seed):
    """Linearly separable records; class identity is written into features."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        az = float(rng.integers(-12, 13) * 5)
        el = float(rng.integers(-4, 5) * 5)
        feats = 0.05 * rng.standard_normal(localizer.FEATURE_DIM)
        feats[2 + localizer.azimuth_class(az)] += 1.0
        feats[70 + localizer.elevation_class(el)] += 1.0
        records.append(dataset.LabeledRecord(
            azimuth_deg=az, elevation_deg=el, features=feats, episode_id=i,
        ))
    return records


@pytest.fixture(scope="module")
def loc_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("loc")
    data = out / "train.jsonl"
    dataset.write_dataset(data, synthetic_records(80, seed=1), meta={"seed": 1})
    code = cli.main([
        "train-localizer", "--dataset", str(data), "--epochs", "5",
        "--seed", "2", "--out-dir", str(out),
    ])
    assert code == 0
    return out


class TestTrainLocalizer:
    def test_diverging_fit_exits_3_and_writes_no_model(self, loc_dir, tmp_path, capsys):
        code, _, err = run_cli(
            ["train-localizer", "--dataset", str(loc_dir / "train.jsonl"),
             "--epochs", "3", "--learning-rate", "1e300", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "diverged" in err
        assert not (tmp_path / cli.MODEL_FILE).exists()

    def test_dataset_header_version_true_exits_2(self, loc_dir, tmp_path, capsys):
        lines = (loc_dir / "train.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = True
        data = tmp_path / "bool_version.jsonl"
        data.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        code, _, err = run_cli(
            ["train-localizer", "--dataset", str(data), "--epochs", "1",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "version must be an integer" in err
        assert not (tmp_path / cli.MODEL_FILE).exists()

    def test_model_artifact_loads(self, loc_dir):
        model = localizer.load_localizer(loc_dir / "localizer.npz")
        assert model.w1.shape == (localizer.FEATURE_DIM, localizer.HIDDEN_UNITS)

    def test_stats_json_content(self, loc_dir):
        stats = json.loads((loc_dir / "localizer_stats.json").read_text())
        assert stats["epochs"] == 5
        assert len(stats["loss_history"]) == 5
        assert stats["seed"] == 2
        assert stats["train_size"] + stats["val_size"] == 80

    def test_eval_all_fold(self, loc_dir, tmp_path, capsys):
        code, out, _ = run_cli(
            ["eval-localizer", "--model", str(loc_dir / "localizer.npz"),
             "--dataset", str(loc_dir / "train.jsonl"), "--fold", "all",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "azimuth_within_10_deg=" in out
        metrics = json.loads((tmp_path / "localizer_eval.json").read_text())
        assert metrics["fold"] == "all"
        assert metrics["count"] == 80

    def test_empty_validation_fold_exits_3(self, loc_dir, tmp_path, capsys):
        data = tmp_path / "tiny.jsonl"
        dataset.write_dataset(data, synthetic_records(6, seed=2), meta={})
        code, _, err = run_cli(
            ["eval-localizer", "--model", str(loc_dir / "localizer.npz"),
             "--dataset", str(data), "--fold", "val",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "degenerate" in err

    def test_missing_model_exits_2(self, loc_dir, tmp_path, capsys):
        code, _, err = run_cli(
            ["eval-localizer", "--model", str(tmp_path / "no.npz"),
             "--dataset", str(loc_dir / "train.jsonl"),
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2


# ---------------------------------------------------------------------------
# pipeline and argument errors


class TestPipeline:
    def test_tiny_pipeline_writes_summary(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["pipeline", "--fast", "--episodes", "20", "--eval-episodes", "5",
             "--dataset-episodes", "12", "--epochs", "2", "--seed", "3",
             "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "[4/4]" in out
        for name in (cli.QTABLE_FILE, cli.DATASET_FILE, cli.MODEL_FILE,
                     cli.SUMMARY_FILE):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / cli.SUMMARY_FILE).read_text())
        assert summary["seed"] == 3
        assert summary["fast"] is True
        assert summary["rl_episodes"] == 20
        assert summary["dataset_episodes"] == 12
        assert summary["localizer_epochs"] == 2
        assert summary["dataset_size"] == summary["dataset_successes"]


class TestArgumentErrors:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["attention-map", "--duration-s", "nan"],
        ["avsync", "--window-s", "nan"],
        ["turn-taking", "--window-s", "inf"],
    ], ids=["duration_nan", "window_nan", "window_inf"])
    def test_non_finite_float_flag_is_usage_error(self, scene_one, scene_two,
                                                  tmp_path, capsys, argv):
        inputs = {"avsync": ["--synthetic", str(scene_one)],
                  "turn-taking": ["--scene", str(scene_two)]}.get(argv[0], [])
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, *inputs, "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "invalid finite_float value" in capsys.readouterr().err


def typed_options(text, kind):
    """``(subcommand, option, required arguments)`` for every option of
    :func:`cli.build_parser` whose type parses ``text`` to a ``kind``."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    found = []
    for command, sub in subparsers.choices.items():
        required = [arg for a in sub._actions if a.required
                    for arg in (a.option_strings[0], "x")]
        for action in sub._actions:
            if not action.option_strings or action.type is None:
                continue
            try:
                parsed = action.type(text)
            except (TypeError, ValueError):
                continue
            if isinstance(parsed, kind):
                found.append((command, action.option_strings[0], required))
    return found


FLOAT_OPTIONS = typed_options("0.5", float)
#: Every integer option but the seed and the speaker id is a count.
COUNT_OPTIONS = [o for o in typed_options("3", int) if o[1] not in ("--seed", "--speaker")]


def test_float_options_are_all_found():
    assert {option for _, option, _ in FLOAT_OPTIONS} == {
        "--pan", "--tilt", "--window-s", "--duration-s", "--noise-level",
        "--elevation", "--learning-rate", "--momentum",
    }


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option, required", FLOAT_OPTIONS,
                         ids=[f"{c}{o}" for c, o, _ in FLOAT_OPTIONS])
def test_every_float_option_rejects_non_finite_values(command, option, required, value):
    parser = cli.build_parser()
    parser.parse_args([command, *required, f"{option}=0.5"])
    with pytest.raises(SystemExit) as info:
        parser.parse_args([command, *required, f"{option}={value}"])
    assert info.value.code == 2


def test_count_options_are_all_found():
    assert {option for _, option, _ in COUNT_OPTIONS} == {
        "--episodes", "--eval-episodes", "--dataset-episodes", "--epochs", "--batch-size",
    }


@pytest.mark.parametrize("command, option, required", COUNT_OPTIONS,
                         ids=[f"{c}{o}" for c, o, _ in COUNT_OPTIONS])
def test_every_count_option_rejects_negative_values(command, option, required):
    """A negative count is a usage error, refused before any work starts;
    0 still parses (skip evaluation, or take the mode's default)."""
    parser = cli.build_parser()
    args = parser.parse_args([command, *required, f"{option}=0"])
    assert getattr(args, option[2:].replace("-", "_")) == 0
    with pytest.raises(SystemExit) as info:
        parser.parse_args([command, *required, f"{option}=-1"])
    assert info.value.code == 2
