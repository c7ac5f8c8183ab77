"""Audio-visual synchrony: envelopes, windowed Pearson correlation, reward.

The chain implemented here turns a raw cochlear (or raw audio) channel into a
slow amplitude envelope, compares that envelope against a candidate mouth-area
signal with a windowed Pearson correlation, and converts the result into a
scalar reward for the attention agent:

1. :func:`analytic_envelope` computes ``|x + j*H(x)|`` where ``H`` is the
   Hilbert transform (``scipy.signal.hilbert``), one row per channel.
2. :func:`resample_envelope` reduces the envelope to the mouth-signal rate
   (10 Hz) by averaging non-overlapping sample blocks, one row per channel.
3. :func:`pearson` computes the correlation coefficient together with a
   two-sided p-value from the exact t distribution of ``r`` under the null,
   evaluated as scipy's regularized incomplete beta function.
4. :func:`correlate_min_p` slides non-overlapping windows over an envelope
   pair and a mouth signal and keeps, per window, the channel with the
   smaller p-value.
5. :func:`reward` combines face fixation and significant correlation into the
   scalar ``r_face + r_corr`` used by the reinforcement learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import hilbert
from scipy.special import betainc

from .errors import ContractViolationError, DegenerateDataError, DomainError

#: Default significance level for the correlation gate in :func:`reward`.
ALPHA = 0.05

#: Default correlation window length in resampled envelope samples.  At the
#: 10 Hz mouth rate this spans 10 seconds of signal.
WINDOW_N = 100


# ---------------------------------------------------------------------------
# Envelope extraction


def analytic_envelope(x: np.ndarray) -> np.ndarray:
    """Amplitude envelope ``|x + j*H(x)|`` of ``x``, ``H`` the Hilbert transform.

    Input must be finite and real: either a 1-D signal or a ``(channels, n)``
    batch transformed along the last axis.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DomainError(f"envelope input must be 1-D or 2-D, got shape {arr.shape}")
    n = arr.shape[-1]
    if n < 2:
        raise DomainError(f"envelope input needs at least 2 samples, got {n}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("envelope input contains non-finite values")
    return np.abs(hilbert(arr, axis=-1))


def resample_envelope(
    envelope: np.ndarray, rate_in: int, rate_out: int
) -> np.ndarray:
    """Downsample by averaging non-overlapping blocks of samples.

    ``rate_in`` must be a positive integer multiple of ``rate_out`` and the
    envelope length must be a whole number of blocks, so every output sample
    is the mean of exactly ``rate_in // rate_out`` inputs.  With 48 kHz in and
    10 Hz out each output sample averages 4800 inputs, i.e. one tenth of a
    second of signal.  Like :func:`analytic_envelope`, it takes a 1-D
    envelope or a ``(channels, n)`` batch averaged along the last axis.
    """
    arr = np.asarray(envelope, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DomainError(f"envelope must be 1-D or 2-D, got shape {arr.shape}")
    if rate_in <= 0 or rate_out <= 0:
        raise DomainError(f"rates must be positive, got {rate_in}/{rate_out}")
    if rate_in % rate_out != 0:
        raise DomainError(
            f"rate_in={rate_in} is not an integer multiple of rate_out={rate_out}"
        )
    block = rate_in // rate_out
    if arr.shape[-1] % block != 0:
        raise DomainError(
            f"envelope length {arr.shape[-1]} is not a multiple of the block "
            f"size {block}"
        )
    return arr.reshape(*arr.shape[:-1], -1, block).mean(axis=-1)


# ---------------------------------------------------------------------------
# Pearson correlation with exact p-value


def pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pearson correlation of two equal-length series with a two-sided p-value.

    The coefficient uses the textbook two-pass formula: subtract the means,
    then ``r = sum(dx*dy) / sqrt(sum(dx^2) * sum(dy^2))``.  Under the null
    hypothesis of no correlation the statistic

        ``t = r * sqrt((n - 2) / (1 - r^2))``

    follows a t distribution with ``n - 2`` degrees of freedom, and the
    two-sided p-value equals the regularized incomplete beta

        ``p = I_x(df / 2, 1 / 2)`` with ``x = df / (df + t^2)``.

    Perfect correlation (``|r| = 1``) gives ``p = 0``.  Either series being
    constant makes ``r`` undefined and raises :class:`DegenerateDataError`.
    Requires at least three samples.
    """
    ax = np.asarray(x, dtype=np.float64)
    ay = np.asarray(y, dtype=np.float64)
    if ax.ndim != 1 or ay.ndim != 1:
        raise DomainError(
            f"correlation inputs must be 1-D, got shapes {ax.shape} and {ay.shape}"
        )
    if ax.size != ay.size:
        raise DomainError(
            f"correlation inputs must have equal length, got {ax.size} and {ay.size}"
        )
    n = ax.size
    if n < 3:
        raise DomainError(f"correlation needs at least 3 samples, got {n}")
    if not (np.all(np.isfinite(ax)) and np.all(np.isfinite(ay))):
        raise DomainError("correlation inputs contain non-finite values")
    # A constant series has undefined correlation.  Checking sample equality
    # (not just zero variance) also catches constants whose subtracted mean
    # carries round-off.
    if np.all(ax == ax[0]) or np.all(ay == ay[0]):
        raise DegenerateDataError(
            "correlation undefined: at least one series is constant"
        )
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    ssx = float(np.dot(dx, dx))
    ssy = float(np.dot(dy, dy))
    if ssx == 0.0 or ssy == 0.0:
        raise DegenerateDataError(
            "correlation undefined: at least one series is constant"
        )
    r = float(np.dot(dx, dy)) / math.sqrt(ssx * ssy)
    # Floating-point round-off can push |r| marginally past 1.
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    df = n - 2
    t_sq = r * r * df / (1.0 - r * r)
    p = float(betainc(df / 2.0, 0.5, df / (df + t_sq)))
    return r, min(1.0, max(0.0, p))


# ---------------------------------------------------------------------------
# Windowed channel selection


@dataclass(frozen=True)
class CorrelationResult:
    """Best-channel correlation for one analysis window.

    ``channel`` is 1 or 2 and names the envelope whose correlation with the
    mouth signal had the smaller p-value in this window; ``r`` and ``p`` are
    that channel's statistics and ``n`` the number of samples correlated.
    """

    r: float
    p: float
    channel: int
    n: int

    def __post_init__(self) -> None:
        if not -1.0 <= self.r <= 1.0:
            raise DomainError(f"correlation r must be in [-1, 1], got {self.r}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p-value must be in [0, 1], got {self.p}")
        if self.channel not in (1, 2):
            raise DomainError(f"channel must be 1 or 2, got {self.channel}")
        if self.n < 3:
            raise DomainError(f"window sample count must be >= 3, got {self.n}")


def correlate_min_p(
    env1: np.ndarray,
    env2: np.ndarray,
    mouth: np.ndarray,
    window_n: int = WINDOW_N,
) -> list[CorrelationResult | None]:
    """Windowed correlation of two envelopes against one mouth signal.

    The three series (already at a common rate) are cut into consecutive
    non-overlapping windows of ``window_n`` samples; a trailing partial
    window is discarded.  In each window both envelopes are correlated with
    the mouth signal and the channel with the smaller p-value wins; on an
    exact tie channel 1 is reported.  When a series is constant inside a
    window its channel is excluded there, and if both channels are excluded
    the window yields ``None``.
    """
    e1 = np.asarray(env1, dtype=np.float64)
    e2 = np.asarray(env2, dtype=np.float64)
    m = np.asarray(mouth, dtype=np.float64)
    if e1.ndim != 1 or e2.ndim != 1 or m.ndim != 1:
        raise DomainError("correlate_min_p inputs must be 1-D")
    if not (e1.size == e2.size == m.size):
        raise DomainError(
            f"correlate_min_p inputs must have equal length, got "
            f"{e1.size}/{e2.size}/{m.size}"
        )
    if window_n < 3:
        raise DomainError(f"window_n must be >= 3, got {window_n}")
    n_windows = e1.size // window_n
    results: list[CorrelationResult | None] = []
    for w in range(n_windows):
        lo = w * window_n
        hi = lo + window_n
        candidates: list[tuple[float, int, float]] = []
        for channel, env in ((1, e1), (2, e2)):
            try:
                r, p = pearson(env[lo:hi], m[lo:hi])
            except DegenerateDataError:
                continue
            candidates.append((p, channel, r))
        if not candidates:
            results.append(None)
            continue
        # Sorting on (p, channel) makes the channel-1 tie-break explicit.
        p, channel, r = min(candidates, key=lambda c: (c[0], c[1]))
        results.append(CorrelationResult(r=r, p=p, channel=channel, n=window_n))
    return results


# ---------------------------------------------------------------------------
# Reward


@dataclass(frozen=True)
class RewardBreakdown:
    """Reward components for one agent step: ``total = r_face + r_corr``."""

    r_face: float
    r_corr: float

    def __post_init__(self) -> None:
        if self.r_face not in (0.0, 1.0):
            raise DomainError(f"r_face must be 0 or 1, got {self.r_face}")
        if not 0.0 <= self.r_corr <= 1.0:
            raise DomainError(f"r_corr must be in [0, 1], got {self.r_corr}")
        if self.r_face == 0.0 and self.r_corr != 0.0:
            raise ContractViolationError(
                "r_corr must be 0 when the face reward is 0"
            )

    @property
    def total(self) -> float:
        return self.r_face + self.r_corr


def reward(
    face_fixated: bool,
    corr: CorrelationResult | None = None,
    alpha: float = ALPHA,
) -> RewardBreakdown:
    """Combine fixation and synchrony evidence into the step reward.

    ``r_face`` is 1 when a face is fixated and 0 otherwise.  ``r_corr`` is
    the positive part of the correlation coefficient, but only when the
    correlation is statistically significant (``p < alpha``); insignificant
    or negative correlations contribute nothing.  Correlation evidence is
    only meaningful while fixated, so passing ``corr`` without fixation is a
    caller bug and raises :class:`ContractViolationError`.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if corr is not None and not face_fixated:
        raise ContractViolationError(
            "correlation evidence supplied without face fixation"
        )
    r_face = 1.0 if face_fixated else 0.0
    r_corr = 0.0
    if corr is not None and corr.p < alpha:
        r_corr = max(0.0, corr.r)
    return RewardBreakdown(r_face=r_face, r_corr=r_corr)
