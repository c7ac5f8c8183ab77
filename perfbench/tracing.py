"""Spans and counters recorded from the benchmark's side of each layer boundary.

Nothing in ``src/`` is edited.  A :class:`Tracer` replaces a public function
under the name its caller looks it up by (``agent`` imports
``render_binaural``, ``analytic_envelope`` and ``correlate_min_p`` by name, so
those are replaced in ``cocktail.agent``; ``agent`` calls the frontend through
the module, so those are replaced in ``cocktail.frontend``) and restores every
original on :meth:`Tracer.uninstall`.

A span is ``[name, start_ns, end_ns, parent_index]``.  Spans stay in memory
and are written out once, when the run ends.  A layer's self time is the sum
over its spans of the span's duration minus the durations of its direct
children; calls are synchronous, so children never overlap one another.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from functools import wraps

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder plus named counters for one traced round."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # Per-episode bookkeeping for the 10 Hz envelope usage ratio.
        self._env10_total = 0
        self._env10_covered = 0

    # -- spans --------------------------------------------------------------

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count(tracer, args,
        result)`` may add to counters after the call returns."""
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _now(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = _now()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.span(name, fn)(*args, **kwargs)

    def counted(self, fn, count):
        """Wrap ``fn`` to update counters only, without a span."""

        @wraps(fn)
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, args, result)
            return result

        return probe

    # -- install / uninstall --------------------------------------------------

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        from cocktail import agent, dataset, frontend, localizer, scene

        for owner, attr, name, count in (
            (agent, "run_episode", "agent.episode", _end_episode),
            (agent, "render_binaural", "scene.render", _count_render),
            (scene, "source_envelope", "scene.envelope", None),
            (agent, "mouth_area_signal", "scene.mouth", None),
            (agent, "observe_visual", "scene.visual", None),
            (frontend.GammatoneStream, "process", "frontend.gammatone", _count_gammatone),
            (frontend, "beamform_salience", "frontend.beamform", _count_beamform),
            (frontend, "update_posterior", "frontend.posterior", _count_posterior),
            (agent, "analytic_envelope", "avsync.envelope", _count_envelope),
            (agent, "resample_envelope", "avsync.envelope", _count_resample),
            (agent, "correlate_min_p", "avsync.correlation", _count_correlation),
            (agent, "q_update", None, _count_q_update),
            (dataset.EvidenceBuffer, "maybe_capture", "dataset.capture", _count_capture),
            (dataset, "extract_features", "features.extract", _count_features),
            (localizer, "loss_and_grads", None, _count_batch),
        ):
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, count) if name
                    else self.counted(original, count))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_seconds(self) -> defaultdict[str, float]:
        """Self time per span name, in seconds (0.0 for a name never seen)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_ns):
            out[name] += (end - start - children) / 1e9
        return out

    def span_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def export(self, origin_ns: int) -> dict:
        """Spans as ``[name_index, start_ns, end_ns, parent]`` rows, times
        relative to ``origin_ns``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s - origin_ns, e - origin_ns, p] for n, s, e, p in self.spans]
        return {"names": names, "spans": rows}


# ---------------------------------------------------------------------------
# Counters: ``count(tracer, call_args, result)``


def _end_episode(t, args, result):
    t._env10_total = t._env10_covered = 0


def _count_render(t, args, clip):
    t.counters["scene.render.samples"] += len(clip.left)


def _count_gammatone(t, args, out):
    t.counters["frontend.gammatone.band_samples"] += out.size
    t.counters["frontend.analyzed_samples"] += out.shape[-1]


def _count_beamform(t, args, salience):
    t.counters["frontend.beamform.frames"] += salience.shape[0]


def _count_posterior(t, args, result):
    t.counters["frontend.posterior.updates"] += 1


def _count_envelope(t, args, env):
    t.counters["avsync.envelope.samples"] += env.size


def _count_resample(t, args, env10):
    t.counters["avsync.env10_computed"] += env10.size
    t._env10_total += env10.size


def _count_correlation(t, args, result):
    # The agent resamples both channels on every step, so each channel's
    # 10 Hz series holds half of the episode's total.  A correlation reads
    # the last ``window`` samples of each; count each sample once.
    length, window = t._env10_total // 2, len(args[0])
    new = length - max(t._env10_covered, length - window)
    t._env10_covered = length
    t.counters["avsync.env10_used"] += 2 * max(new, 0)
    t.counters["avsync.correlation.calls"] += 1


def _count_q_update(t, args, result):
    t.counters["agent.q_update.calls"] += 1


def _count_capture(t, args, capture):
    if capture is not None:
        t.counters["dataset.captures"] += 1


def _count_features(t, args, result):
    t.counters["features.extract.calls"] += 1


def _count_batch(t, args, result):
    t.counters["localizer.batches"] += 1
    t.counters["localizer.samples"] += len(args[1])
