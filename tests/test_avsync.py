"""Tests for envelope extraction, Pearson statistics, and the reward rule."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.signal
import scipy.stats

from cocktail.avsync import (
    CorrelationResult,
    RewardBreakdown,
    analytic_envelope,
    correlate_min_p,
    pearson,
    resample_envelope,
    reward,
)
from cocktail.errors import (
    ContractViolationError,
    DegenerateDataError,
    DomainError,
)

# Frozen oracle for the p-value at n=100, r=0.48.  Computed once by
# high-precision numerical integration of the t density with 98 degrees of
# freedom (30-digit arithmetic):
#   t = r * sqrt((n - 2) / (1 - r^2)) = 5.41653739384095...
#   p = 2 * P(T > t)                  = 4.33998618225010e-7
ORACLE_T_100_048 = 5.416537393840953
ORACLE_P_100_048 = 4.339986182250099e-07


def t_density(u: float, df: int) -> float:
    """Student-t density, written independently of the package internals."""
    log_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - (df + 1) / 2.0 * math.log1p(u * u / df))


def p_by_integration(r: float, n: int) -> float:
    """Two-sided p-value by numerical integration of the t density."""
    df = n - 2
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    body, _ = scipy.integrate.quad(
        t_density, 0.0, t, args=(df,), epsabs=1e-13, epsrel=1e-13
    )
    return 1.0 - 2.0 * body


def p_from_r(r: float, n: int) -> float:
    """Package p-value for a pair of ``n``-sample series correlated at ``r``.

    Two fixed zero-mean orthonormal vectors are mixed so that the sample
    correlation is ``r`` to rounding; negating ``r`` negates the mix exactly.
    """
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n)
    a -= a.mean()
    a /= math.sqrt(float(a @ a))
    b = rng.standard_normal(n)
    b -= b.mean()
    b -= float(b @ a) * a
    b /= math.sqrt(float(b @ b))
    y = abs(r) * a + math.sqrt(1.0 - r * r) * b
    got_r, p = pearson(a, y if r >= 0 else -y)
    assert got_r == pytest.approx(r, abs=1e-12)
    return p


# ---------------------------------------------------------------------------
# analytic_envelope


class TestAnalyticEnvelope:
    def test_constant_signal(self):
        env = analytic_envelope(np.full(1000, -0.7))
        assert np.allclose(env, 0.7, atol=1e-12)

    def test_pure_tone_recovers_amplitude(self):
        fs = 48_000
        t = np.arange(fs) / fs
        env = analytic_envelope(0.5 * np.sin(2 * np.pi * 1000.0 * t))
        central = env[int(0.05 * fs) : int(0.95 * fs)]
        assert np.max(np.abs(central - 0.5)) < 0.005

    def test_matches_scipy_hilbert(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4801)
        ours = analytic_envelope(x)
        ref = np.abs(scipy.signal.hilbert(x))
        assert np.max(np.abs(ours - ref)) < 1e-9

    def test_matches_scipy_hilbert_even_length(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4800)
        ours = analytic_envelope(x)
        ref = np.abs(scipy.signal.hilbert(x))
        assert np.max(np.abs(ours - ref)) < 1e-9

    def test_am_tone_tracks_modulator(self):
        fs = 48_000
        t = np.arange(2 * fs) / fs
        modulator = 0.6 + 0.3 * np.sin(2 * np.pi * 3.0 * t)
        env = analytic_envelope(modulator * np.sin(2 * np.pi * 2000.0 * t))
        central = slice(int(0.1 * fs), int(1.9 * fs))
        assert np.max(np.abs(env[central] - modulator[central])) < 0.01

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        assert np.all(analytic_envelope(rng.standard_normal(512)) >= 0.0)

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 1024))
        batch = analytic_envelope(x)
        assert batch.shape == (2, 1024)
        assert np.array_equal(batch[0], analytic_envelope(x[0]))
        assert np.array_equal(batch[1], analytic_envelope(x[1]))

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            analytic_envelope(np.zeros((2, 2, 8)))
        with pytest.raises(DomainError):
            analytic_envelope(np.array([1.0]))
        with pytest.raises(DomainError):
            analytic_envelope(np.array([1.0, np.nan, 2.0]))


# ---------------------------------------------------------------------------
# resample_envelope


class TestResampleEnvelope:
    def test_block_means_against_brute_force(self):
        rng = np.random.default_rng(11)
        env = rng.random(48_000)
        out = resample_envelope(env, 48_000, 10)
        assert out.shape == (10,)
        for k in range(10):
            assert out[k] == pytest.approx(
                float(np.mean(env[k * 4800 : (k + 1) * 4800])), abs=1e-12
            )

    def test_constant_preserved(self):
        out = resample_envelope(np.full(9600, 0.25), 48_000, 10)
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_twelve_seconds_gives_120_samples(self):
        out = resample_envelope(np.zeros(12 * 48_000), 48_000, 10)
        assert out.shape == (120,)

    def test_batched_rows_match_single_calls(self):
        rng = np.random.default_rng(12)
        env = rng.random((2, 3 * 4800))
        out = resample_envelope(env, 48_000, 10)
        assert out.shape == (2, 3)
        assert np.array_equal(out[0], resample_envelope(env[0], 48_000, 10))
        assert np.array_equal(out[1], resample_envelope(env[1], 48_000, 10))

    def test_rejects_incompatible_rates_and_lengths(self):
        with pytest.raises(DomainError):
            resample_envelope(np.zeros(100), 48_000, 7)
        with pytest.raises(DomainError):
            resample_envelope(np.zeros(4801), 48_000, 10)
        with pytest.raises(DomainError):
            resample_envelope(np.zeros(100), 0, 10)
        with pytest.raises(DomainError):
            resample_envelope(np.zeros((2, 4801)), 48_000, 10)
        with pytest.raises(DomainError):
            resample_envelope(np.zeros((2, 2, 4800)), 48_000, 10)


# ---------------------------------------------------------------------------
# pearson


class TestPearson:
    def test_hand_computed_r(self):
        # dx = [-1.5, -0.5, 0.5, 1.5], dy = [-1.5, 0.5, -0.5, 1.5]
        # sum(dx*dy) = 4, sum(dx^2) = sum(dy^2) = 5  =>  r = 4/5.
        r, p = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
        assert r == pytest.approx(0.8, abs=1e-12)
        assert 0.0 < p < 1.0

    def test_perfect_correlation(self):
        x = np.arange(10.0)
        assert pearson(x, 2.0 * x + 3.0) == (1.0, 0.0)
        assert pearson(x, -0.5 * x + 1.0) == (-1.0, 0.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        r0, p0 = pearson(x, y)
        r1, p1 = pearson(3.0 * x - 7.0, 0.25 * y + 2.0)
        assert r1 == pytest.approx(r0, abs=1e-12)
        assert p1 == pytest.approx(p0, abs=1e-12)

    def test_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(3, 300))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            r, p = pearson(x, y)
            ref = scipy.stats.pearsonr(x, y)
            assert r == pytest.approx(ref.statistic, abs=1e-12)
            assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_frozen_p_value_oracle(self):
        df = 98
        t = 0.48 * math.sqrt(df / (1.0 - 0.48**2))
        assert t == pytest.approx(ORACLE_T_100_048, abs=1e-12)
        p = p_from_r(0.48, 100)
        assert p == pytest.approx(ORACLE_P_100_048, abs=1e-13)
        assert p < 1e-5

    def test_p_matches_t_density_integration(self):
        for r, n in [(0.48, 100), (0.1, 30), (0.25, 500), (0.9, 10), (0.02, 1000)]:
            assert p_from_r(r, n) == pytest.approx(
                p_by_integration(r, n), abs=1e-9
            )

    def test_p_symmetric_in_sign(self):
        assert p_from_r(0.3, 50) == p_from_r(-0.3, 50)

    def test_p_monotone_in_r_and_n(self):
        ps = [p_from_r(r, 100) for r in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        ps = [p_from_r(0.2, n) for n in (10, 30, 100, 300, 1000)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_uncorrelated_p_near_one(self):
        # r very near 0 with moderate n yields p near 1.
        _, p = pearson([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 3.0, 5.0, 4.0])
        assert p > 0.05

    def test_degenerate_series_raise(self):
        with pytest.raises(DegenerateDataError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateDataError):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            pearson([1.0, np.inf, 3.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# correlate_min_p


def _noisy(series: np.ndarray, rng: np.random.Generator, scale: float) -> np.ndarray:
    return series + scale * rng.standard_normal(series.size)


class TestCorrelateMinP:
    def test_window_count(self):
        # 120 s at 10 Hz with 10 s windows: exactly 12 full windows.
        z = np.zeros(1200)
        r = np.random.default_rng(29).standard_normal(1200)
        assert len(correlate_min_p(r, r + 1.0, r)) == 12
        assert len(correlate_min_p(z[:250], r[:250], r[:250])) == 2

    def test_matched_channel_wins(self):
        rng = np.random.default_rng(31)
        mouth = rng.random(300)
        env1 = _noisy(2.0 * mouth + 1.0, rng, 0.01)
        env2 = rng.random(300)
        results = correlate_min_p(env1, env2, mouth)
        assert len(results) == 3
        for res in results:
            assert res is not None
            assert res.channel == 1
            assert res.r > 0.99
            assert res.p < 1e-6
            assert res.n == 100

    def test_channel_two_wins_when_swapped(self):
        rng = np.random.default_rng(37)
        mouth = rng.random(300)
        env1 = rng.random(300)
        env2 = _noisy(2.0 * mouth + 1.0, rng, 0.01)
        results = correlate_min_p(env1, env2, mouth)
        assert all(res is not None and res.channel == 2 for res in results)

    def test_exact_tie_prefers_channel_one(self):
        rng = np.random.default_rng(41)
        mouth = rng.random(200)
        env = _noisy(mouth, rng, 0.1)
        results = correlate_min_p(env, env.copy(), mouth)
        assert all(res is not None and res.channel == 1 for res in results)

    def test_constant_mouth_skips_all_windows(self):
        rng = np.random.default_rng(43)
        results = correlate_min_p(
            rng.random(200), rng.random(200), np.full(200, 0.5)
        )
        assert results == [None, None]

    def test_constant_channel_excluded(self):
        rng = np.random.default_rng(47)
        mouth = rng.random(100)
        env2 = _noisy(mouth, rng, 0.05)
        results = correlate_min_p(np.full(100, 1.0), env2, mouth)
        assert len(results) == 1
        assert results[0] is not None
        assert results[0].channel == 2

    def test_mixed_degenerate_windows(self):
        rng = np.random.default_rng(53)
        mouth = rng.random(300)
        mouth[100:200] = 0.4  # second window constant -> skipped
        env = _noisy(mouth, rng, 0.05)
        results = correlate_min_p(env, rng.random(300), mouth)
        assert results[0] is not None
        assert results[1] is None
        assert results[2] is not None

    def test_custom_window_length(self):
        rng = np.random.default_rng(59)
        mouth = rng.random(100)
        results = correlate_min_p(
            _noisy(mouth, rng, 0.01), rng.random(100), mouth, window_n=20
        )
        assert len(results) == 5
        assert all(res is not None and res.n == 20 for res in results)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            correlate_min_p(np.zeros(10), np.zeros(11), np.zeros(10))
        with pytest.raises(DomainError):
            correlate_min_p(np.zeros(10), np.zeros(10), np.zeros(10), window_n=2)


# ---------------------------------------------------------------------------
# reward


class TestReward:
    def test_no_face_no_reward(self):
        out = reward(False)
        assert out.r_face == 0.0
        assert out.r_corr == 0.0
        assert out.total == 0.0

    def test_face_only(self):
        assert reward(True).total == 1.0

    def test_face_plus_significant_correlation(self):
        corr = CorrelationResult(r=0.48, p=ORACLE_P_100_048, channel=1, n=100)
        out = reward(True, corr)
        assert out.r_face == 1.0
        assert out.r_corr == pytest.approx(0.48)
        assert out.total == pytest.approx(1.48)

    def test_insignificant_correlation_ignored(self):
        corr = CorrelationResult(r=0.01, p=0.8, channel=1, n=100)
        assert reward(True, corr).total == 1.0

    def test_negative_correlation_clipped(self):
        corr = CorrelationResult(r=-0.9, p=1e-8, channel=2, n=100)
        out = reward(True, corr)
        assert out.r_corr == 0.0
        assert out.total == 1.0

    def test_alpha_threshold_is_strict(self):
        corr = CorrelationResult(r=0.5, p=0.05, channel=1, n=100)
        assert reward(True, corr, alpha=0.05).total == 1.0
        assert reward(True, corr, alpha=0.051).total == pytest.approx(1.5)

    def test_correlation_without_fixation_is_a_bug(self):
        corr = CorrelationResult(r=0.9, p=1e-9, channel=1, n=100)
        with pytest.raises(ContractViolationError):
            reward(False, corr)

    def test_breakdown_invariant(self):
        with pytest.raises(ContractViolationError):
            RewardBreakdown(r_face=0.0, r_corr=0.3)
        with pytest.raises(DomainError):
            RewardBreakdown(r_face=0.5, r_corr=0.0)

    def test_result_validation(self):
        with pytest.raises(DomainError):
            CorrelationResult(r=1.5, p=0.1, channel=1, n=100)
        with pytest.raises(DomainError):
            CorrelationResult(r=0.5, p=-0.1, channel=1, n=100)
        with pytest.raises(DomainError):
            CorrelationResult(r=0.5, p=0.1, channel=3, n=100)
        with pytest.raises(DomainError):
            reward(True, None, alpha=1.5)
