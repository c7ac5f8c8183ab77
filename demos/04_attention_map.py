"""Sweep a speaker across the frontal field and watch the azimuth posterior.

For each direction the script renders one second of audio, runs it through
the gammatone filterbank and the delay-and-sum beamformer bank, accumulates
the Bayesian posterior over 37 azimuth bins, and reports the location of the
posterior peak.  A small ASCII sketch of the posterior shows how sharply the
energy concentrates around the true direction.

Run:  python demos/04_attention_map.py
"""

from cocktail import frontend
from cocktail.scene import (
    HeadPose,
    Scene,
    SpeakerSpec,
    SpeechSource,
    TurnSchedule,
    render_binaural,
)


def posterior_for(azimuth, seed=42, duration=1.0, noise_level=0.003):
    speaker = SpeakerSpec(id=1, azimuth_world=azimuth, elevation_world=0.0,
                          speech=SpeechSource(seed=seed + 1))
    scene = Scene(speakers=(speaker,),
                  schedule=TurnSchedule(((0.0, duration, 1),)),
                  noise_level=noise_level)
    clip = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, duration, seed=seed)
    return frontend.AzimuthTracker().feed(clip.audio)


def sketch(posterior, width=37):
    scaled = posterior.probs / posterior.probs.max()
    return "".join(" .:-=+*#@"[min(8, int(9 * v))] for v in scaled[:width])


def main():
    print("bins span -90..+90 deg left to right; '@' marks the posterior peak\n")
    for azimuth in (-60.0, -30.0, 0.0, 30.0, 60.0):
        posterior = posterior_for(azimuth)
        estimate = frontend.estimate_location(posterior)
        print(f"source {azimuth:+5.0f} deg -> estimate {estimate:+5.0f} deg   "
              f"|{sketch(posterior)}|")


if __name__ == "__main__":
    main()
