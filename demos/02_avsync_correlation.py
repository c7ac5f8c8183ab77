"""Correlate audio envelopes against mouth movements, matched and mismatched.

Two people face the listener; only the first is talking.  The script
extracts the 10 Hz amplitude envelope of each ear, then correlates it
window-by-window against each person's mouth-opening track.  The talker's
mouth follows their own loudness, so the matched pairing shows strong,
significant correlations; the silent person's mouth only jitters around its
resting size, so the mismatched pairing hovers near zero.

This matched-vs-mismatched gap is the signal that later tells the agent
"the person I am looking at is the one I am hearing".

Run:  python demos/02_avsync_correlation.py
"""

from cocktail.avsync import ALPHA, correlate_min_p
from cocktail.cli import stereo_envelopes_10hz, summarize_avsync
from cocktail.scene import (
    HeadPose,
    Scene,
    SpeakerSpec,
    SpeechSource,
    TurnSchedule,
    mouth_area_signal,
    render_binaural,
)


def report(title, results):
    print(f"\n{title}")
    print("  window      r          p            verdict")
    for w, res in enumerate(results):
        if res is None:
            print(f"  {w:>6}   (window degenerate)")
            continue
        verdict = "correlated" if res.p < ALPHA else "no evidence"
        print(f"  {w:>6}   {res.r:+.3f}   {res.p:<10.3g}   {verdict}")
    mean_r, share = summarize_avsync(results)
    print(f"  mean r = {mean_r:+.3f}; significant in {share:.0f}% of windows")


def main():
    duration = 40.0
    talker = SpeakerSpec(id=1, azimuth_world=-20.0, elevation_world=0.0,
                         speech=SpeechSource(seed=11))
    silent = SpeakerSpec(id=2, azimuth_world=25.0, elevation_world=0.0,
                         speech=SpeechSource(seed=99))
    scene = Scene(
        speakers=(talker, silent),
        schedule=TurnSchedule(((0.0, duration, 1),)),  # only speaker 1 talks
        noise_level=0.01,
    )
    print(f"rendering {duration:.0f} s; speaker 1 talks, speaker 2 is silent ...")
    clip = render_binaural(scene, HeadPose(0.0, 0.0), 0.0, duration, seed=42)
    env1, env2 = stereo_envelopes_10hz(clip.audio)
    _, mouth_talker = mouth_area_signal(talker, scene.schedule, 0.0, duration,
                                        seed=42)
    _, mouth_silent = mouth_area_signal(silent, scene.schedule, 0.0, duration,
                                        seed=42)

    window_n = 50  # five-second windows at 10 Hz
    report("matched pairing (talker's mouth vs heard envelope):",
           correlate_min_p(env1, env2, mouth_talker, window_n=window_n))
    report("mismatched pairing (silent person's mouth vs heard envelope):",
           correlate_min_p(env1, env2, mouth_silent, window_n=window_n))


if __name__ == "__main__":
    main()
