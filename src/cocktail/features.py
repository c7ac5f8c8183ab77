"""Binaural feature extraction for the self-supervised localizer.

Each captured audio snippet is summarised by a fixed 129-dimensional vector:

* 97 normalized cross-correlation values at integer lags -48..+48 samples
  (the generalized cross-correlation, GCC).  At 48 kHz this lag range covers
  the largest interaural delay the head geometry can produce (about 31.5
  samples at +/-90 degrees) with margin.
* 32 interaural level differences (ILD) in dB, one per gammatone band,
  evaluated spectrally from the rfft power spectra weighted by each band
  filter's squared magnitude response.

Sign conventions follow the renderer: a source on the positive-azimuth
(right) side delays the left channel, moving the GCC peak to positive lags,
and boosts the right channel, making the ILD (left minus right, in dB)
negative.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from .errors import DomainError
from .frontend import NUM_BANDS, band_weights

#: Maximum cross-correlation lag in samples (covers the physical ITD range).
MAX_LAG_SAMPLES = 48

#: Number of GCC lags: -MAX_LAG_SAMPLES .. +MAX_LAG_SAMPLES inclusive.
NUM_GCC_LAGS = 2 * MAX_LAG_SAMPLES + 1

#: Total feature dimension: GCC lags followed by per-band ILDs.
FEATURE_DIM = NUM_GCC_LAGS + NUM_BANDS

#: Regularizer added to band powers before the dB ratio so silent bands give
#: a defined (zero) level difference.
_ILD_EPS = 1e-12


def _validate_pair(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    l = np.asarray(left, dtype=np.float64)
    r = np.asarray(right, dtype=np.float64)
    if l.ndim != 1 or r.ndim != 1:
        raise DomainError(
            f"channels must be 1-D, got shapes {l.shape} and {r.shape}"
        )
    if l.size != r.size:
        raise DomainError(
            f"channels must have equal length, got {l.size} and {r.size}"
        )
    if not (np.all(np.isfinite(l)) and np.all(np.isfinite(r))):
        raise DomainError("channels contain non-finite values")
    return l, r


def gcc_features(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Energy-normalized cross-correlation at integer lags ``-MAX_LAG_SAMPLES
    .. +MAX_LAG_SAMPLES``.

    Returns ``c[k] = sum_n left[n + k] * right[n] / sqrt(E_l * E_r)`` where
    ``E_l, E_r`` are the channel energies, ordered from the most negative lag
    to the most positive.  A positive peak lag means the left channel is a
    delayed copy of the right, i.e. the source sits on the positive-azimuth
    side.  If either channel is silent the correlation is all zeros.
    """
    l, r = _validate_pair(left, right)
    n = l.size
    if n <= MAX_LAG_SAMPLES:
        raise DomainError(f"need more than {MAX_LAG_SAMPLES} samples, got {n}")
    energy = float(np.dot(l, l)) * float(np.dot(r, r))
    if energy == 0.0:
        return np.zeros(NUM_GCC_LAGS)
    # Linear cross-correlation via FFT.  Padding the left channel by
    # MAX_LAG_SAMPLES zeros shifts the lag origin so the first NUM_GCC_LAGS
    # output samples are exactly c[-MAX_LAG_SAMPLES] .. c[+MAX_LAG_SAMPLES].
    m = sfft.next_fast_len(n + 2 * MAX_LAG_SAMPLES + 8)
    fl = sfft.rfft(np.concatenate([np.zeros(MAX_LAG_SAMPLES), l]), m)
    fr = sfft.rfft(r, m)
    cc = sfft.irfft(fl * np.conj(fr), m)[:NUM_GCC_LAGS]
    return cc / np.sqrt(energy)


def ild_features(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-band interaural level differences in dB (left minus right).

    Band powers are computed spectrally: the rfft power spectrum of each
    channel is weighted by the squared magnitude response of each gammatone
    filter and summed.  The ILD of band ``b`` is

        ``10 * (log10(P_left[b] + eps) - log10(P_right[b] + eps))``

    written as a difference of logarithms so that swapping the channels
    negates the vector exactly.  Silent bands give exactly 0 dB.
    """
    l, r = _validate_pair(left, right)
    if l.size < 2:
        raise DomainError(f"need at least 2 samples, got {l.size}")
    pl = np.abs(np.fft.rfft(l)) ** 2
    pr = np.abs(np.fft.rfft(r)) ** 2
    weights = band_weights(pl.size)
    band_l = weights @ pl + _ILD_EPS
    band_r = weights @ pr + _ILD_EPS
    return 10.0 * (np.log10(band_l) - np.log10(band_r))


def extract_features(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Full 129-dimensional feature vector for one binaural snippet.

    Concatenates :func:`gcc_features` (97 values) and :func:`ild_features`
    (32 values).  The vector is finite, gain-invariant up to round-off, and
    mirror-antisymmetric: swapping the channels reverses the GCC block and
    negates the ILD block.
    """
    return np.concatenate([gcc_features(left, right), ild_features(left, right)])
