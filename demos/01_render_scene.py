"""Render a binaural scene and inspect the interaural cues it contains.

A speaker sits 40 degrees to the right of a listener facing straight ahead.
The renderer delays and attenuates each ear according to a spherical head
model, so the right ear should lead the left by roughly the Woodworth delay
for 40 degrees.  The script renders three seconds of speech-like audio,
measures the interaural lag by cross-correlating the two channels, and
compares it with the model prediction.

Run:  python demos/01_render_scene.py
"""

from pathlib import Path

import numpy as np

from cocktail.cli import write_wav
from cocktail.scene import (
    SAMPLE_RATE,
    HeadPose,
    Scene,
    SpeakerSpec,
    SpeechSource,
    TurnSchedule,
    itd_for_azimuth,
    render_binaural,
)


def main():
    azimuth = 40.0
    duration = 3.0
    speaker = SpeakerSpec(
        id=1,
        azimuth_world=azimuth,
        elevation_world=0.0,
        speech=SpeechSource(seed=7),
    )
    scene = Scene(
        speakers=(speaker,),
        schedule=TurnSchedule(((0.0, duration, 1),)),
        noise_level=0.005,
    )
    print(f"rendering {duration:.0f} s with one speaker at {azimuth:+.0f} deg ...")
    clip = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, duration, seed=1)

    # Measure the lag of the left channel relative to the right channel.
    max_lag = 48
    left, right = clip.audio - clip.audio.mean(axis=1, keepdims=True)
    lags = np.arange(-max_lag, max_lag + 1)
    scores = [
        float(np.dot(left[max_lag + lag : len(left) - max_lag + lag],
                     right[max_lag : len(right) - max_lag]))
        for lag in lags
    ]
    measured = int(lags[int(np.argmax(scores))])
    predicted = itd_for_azimuth(azimuth) * SAMPLE_RATE

    print(f"predicted interaural delay : {predicted:+.1f} samples")
    print(f"measured  interaural delay : {measured:+d} samples")
    rms_left, rms_right = np.sqrt(np.mean(clip.audio**2, axis=1))
    print(f"left-ear  RMS level        : {rms_left:.4f}")
    print(f"right-ear RMS level        : {rms_right:.4f}")
    print("(the nearer right ear is louder and leads in time)")

    out = Path("demo_out")
    out.mkdir(exist_ok=True)
    wav_path = out / "scene_40deg.wav"
    write_wav(wav_path, clip.audio)
    print(f"wrote {wav_path}")


if __name__ == "__main__":
    main()
