import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve

from aligncruse import alignment
from aligncruse.alignment import (
    CONFIDENCE_DECAY,
    HYSTERESIS,
    MIN_HISTORY,
    ONLINE_WINDOW,
    SILENCE_RMS,
    DelayEstimate,
    OnlineDelayEstimator,
    apply_delay,
    global_delay,
    online_delay,
)
from aligncruse.data import speech_surrogate
from aligncruse.dsp import AudioClip
from aligncruse.errors import ConfigurationError, NoSignalError


def surrogate(seed, seconds=3.0):
    rng = np.random.default_rng(seed)
    return speech_surrogate(int(seconds * 16000), rng)


def shift(x, d):
    return np.concatenate([np.zeros(d), x[: len(x) - d]])


# -- global -----------------------------------------------------------------

def test_global_identical_signals():
    x = surrogate(0)
    est = global_delay(AudioClip(x), AudioClip(x), max_delay=8000)
    assert est.delay == 0
    assert abs(est.confidence - 1.0) < 1e-9


def test_global_exact_recovery_4800():
    far = surrogate(1)
    mic = shift(far, 4800)
    est = global_delay(AudioClip(mic), AudioClip(far))
    assert est.delay == 4800
    assert abs(est.confidence - 1.0) < 1e-9


@pytest.mark.parametrize("d", [0, 1, 160, 7321, 16000])
def test_global_exact_recovery_range(d):
    far = surrogate(2, seconds=3.0)
    mic = shift(far, d)
    est = global_delay(AudioClip(mic), AudioClip(far))
    assert est.delay == d


def test_global_noisy_monte_carlo():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        far = speech_surrogate(3 * 16000, rng)
        clean = 0.5 * shift(far, 8000)
        noise = rng.standard_normal(len(far))
        noise *= np.sqrt(np.sum(clean**2) / (np.sum(noise**2) * 10.0**2))  # 20 dB SNR
        est = global_delay(AudioClip(clean + noise), AudioClip(far))
        if est.delay == 8000 and est.confidence > 0.4:
            hits += 1
    assert hits >= 99


def test_global_silent_far_raises():
    with pytest.raises(NoSignalError):
        global_delay(AudioClip(surrogate(3)), AudioClip(np.zeros(48000)))


def test_global_max_delay_validation():
    x = surrogate(4)
    with pytest.raises(ConfigurationError):
        global_delay(AudioClip(x), AudioClip(x), max_delay=20000)


def test_global_fft_matches_direct_correlation():
    rng = np.random.default_rng(8)
    mic = rng.standard_normal(400)
    far = rng.standard_normal(400)
    from aligncruse.alignment import _ncc_curve

    ncc = _ncc_curve(mic, far, 50)
    for d in range(51):
        num = np.dot(mic[d:], far[: 400 - d])
        den = np.linalg.norm(mic[d:]) * np.linalg.norm(far[: 400 - d])
        np.testing.assert_allclose(ncc[d], num / den, atol=1e-9)


def test_confidence_bounds():
    rng = np.random.default_rng(12)
    mic = rng.standard_normal(32000)
    far = rng.standard_normal(32000)
    est = global_delay(AudioClip(mic), AudioClip(far), max_delay=16000)
    assert -1.0 - 1e-9 <= est.confidence <= 1.0 + 1e-9


# -- online -------------------------------------------------------------------

def test_online_converges_to_half_second_delay():
    far = surrogate(20, seconds=6.0)
    mic = shift(far, 8000)
    est = OnlineDelayEstimator(max_delay=16000)
    results = []
    for k in range(0, len(far) - 160 + 1, 160):
        results.append(est.push(mic[k : k + 160], far[k : k + 160]))
    # converged within 3 s, then stays within one frame of the truth
    settled = [r.delay for r in results[300:]]
    assert all(abs(d - 8000) <= 160 for d in settled)
    assert any(abs(r.delay - 8000) <= 160 for r in results[: 300])


def test_online_step_change_reaches_new_delay():
    far = surrogate(21, seconds=12.0)
    n = len(far)
    half = n // 2
    mic = np.concatenate([shift(far, 4800)[:half], shift(far, 9600)[half:]])
    est = OnlineDelayEstimator(max_delay=16000)
    results = []
    for k in range(0, n - 160 + 1, 160):
        results.append(est.push(mic[k : k + 160], far[k : k + 160]))
    before = results[half // 160 - 5].delay
    assert abs(before - 4800) <= 160
    # within 4 s of the change the estimate has moved to the new value
    after_idx = half // 160 + 400
    assert abs(results[after_idx].delay - 9600) <= 160


def test_online_silence_holds_estimate_and_decays_confidence():
    far = surrogate(22, seconds=4.0)
    mic = shift(far, 3200)
    est = OnlineDelayEstimator(max_delay=8000)
    last = None
    for k in range(0, len(far) - 160 + 1, 160):
        last = est.push(mic[k : k + 160], far[k : k + 160])
    held_delay, held_conf = last.delay, last.confidence
    confs = []
    for _ in range(10):
        r = est.push(np.zeros(160), np.zeros(160))
        assert r.delay == held_delay
        confs.append(r.confidence)
    assert all(c2 < c1 for c1, c2 in zip([held_conf] + confs[:-1], confs))


def test_online_warming_up():
    est = OnlineDelayEstimator()
    r = est.push(np.ones(160), np.ones(160))
    assert r.confidence == 0.0


def test_online_causality():
    far = surrogate(23, seconds=4.0)
    mic = shift(far, 1600)
    k_stop = 200
    futures = [np.random.default_rng(s).standard_normal(len(far)) for s in (1, 2)]
    traces = []
    for fut in futures:
        m = mic.copy()
        f = far.copy()
        m[k_stop * 160 :] = fut[k_stop * 160 :]
        f[k_stop * 160 :] = fut[k_stop * 160 :][::-1]
        est = OnlineDelayEstimator(max_delay=8000)
        trace = []
        for k in range(0, len(far) - 160 + 1, 160):
            r = est.push(m[k : k + 160], f[k : k + 160])
            trace.append((r.delay, r.confidence))
        traces.append(trace[:k_stop])
    assert traces[0] == traces[1]


class _DirectOnlineEstimator:
    """The online estimator as a direct recompute of the whole trailing
    window's correlation on every hop: the reference for the running sum.

    One pass serves several ``max_delays``: a lag's NCC does not depend on
    the largest lag searched, so each estimate holds its delay over the first
    max_delay + 1 lags of one NCC, as an estimator built with that max_delay
    would. ``push`` returns one estimate per entry of ``max_delays``.
    """

    def __init__(self, max_delays):
        self.max_delays = tuple(max_delays)
        self._mic = np.zeros(ONLINE_WINDOW)
        self._far = np.zeros(ONLINE_WINDOW + max(self.max_delays))
        self._seen = 0
        self._held = [(0, 0.0)] * len(self.max_delays)

    def push(self, mic_frame, far_frame):
        n = len(mic_frame)
        self._mic = np.concatenate([self._mic[n:], mic_frame])
        self._far = np.concatenate([self._far[n:], far_frame])
        self._seen += n
        if self._seen < MIN_HISTORY:
            return [DelayEstimate(d, 0.0) for d, _ in self._held]
        if np.sqrt(np.mean(far_frame**2)) < SILENCE_RMS:
            self._held = [(d, c * CONFIDENCE_DECAY) for d, c in self._held]
            return [DelayEstimate(d, c) for d, c in self._held]
        w = min(ONLINE_WINDOW, self._seen)
        mic_w = self._mic[-w:]
        # lag d pairs mic[T-w:T) with far[T-w-d:T-d)
        corr = fftconvolve(self._far, mic_w[::-1], mode="valid")[::-1]
        mic_norm = np.sqrt(np.sum(mic_w * mic_w))
        far_sq = np.cumsum(self._far * self._far)
        upper = len(self._far) - np.arange(len(corr))
        lower = upper - w
        seg = far_sq[upper - 1] - np.where(lower > 0, far_sq[np.maximum(lower - 1, 0)], 0.0)
        denom = mic_norm * np.sqrt(np.maximum(seg, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ncc = np.where(denom > 0, corr / denom, 0.0)
        ncc = np.clip(ncc, -1.0, 1.0)
        for i, (max_delay, (held_delay, held_conf)) in enumerate(zip(self.max_delays, self._held)):
            lags = ncc[: max_delay + 1]
            d = int(np.argmax(lags))
            if lags[d] > held_conf + HYSTERESIS or d == held_delay:
                self._held[i] = (d, float(lags[d]))
            else:
                self._held[i] = (held_delay, float(lags[held_delay]))
        return [DelayEstimate(d, c) for d, c in self._held]


def _hard_stream(seconds=31.0):
    """Mic and far end over 31 s: the delay steps from 4800 to 9600 samples
    at 12 s, the far end is exactly zero for 3.5 s (longer than the window
    plus the largest lag), the mic is exactly zero for 3 s, and from 25 s on
    the mic is 60 dB down (a loudspeaker turned down). A drop of both
    signals is checked against an exact sum below: there the direct
    recompute's own rounding can pass 1e-9."""
    rng = np.random.default_rng(77)
    n = int(seconds * 16000)
    far = speech_surrogate(n, rng)
    step = 12 * 16000
    mic = np.concatenate([shift(far, 4800)[:step], shift(far, 9600)[step:]])
    mic += 0.01 * rng.standard_normal(n)
    far[5 * 16000 + 77 : 8 * 16000 + 8077] = 0.0
    mic[17 * 16000 : 20 * 16000] = 0.0
    mic[25 * 16000 + 50 :] *= 1e-3
    return mic, far


RUNNING_SUM_CASES = (16000, 5328, 100, 0)


@pytest.fixture(scope="module")
def running_vs_direct():
    """One hop loop over the hard stream for every max_delay case: per case,
    the running-sum estimates and the direct recompute's, hop by hop."""
    mic, far = _hard_stream()
    fast = [OnlineDelayEstimator(max_delay=d) for d in RUNNING_SUM_CASES]
    ref = _DirectOnlineEstimator(RUNNING_SUM_CASES)
    got = {d: [] for d in RUNNING_SUM_CASES}
    want = {d: [] for d in RUNNING_SUM_CASES}
    n_hops = len(mic) // 160
    assert n_hops * 160 >= 30 * 16000  # 14 recomputes of the window
    for k in range(n_hops):
        m, f = mic[k * 160 : (k + 1) * 160], far[k * 160 : (k + 1) * 160]
        for d, est, direct in zip(RUNNING_SUM_CASES, fast, ref.push(m, f)):
            got[d].append(est.push(m, f))
            want[d].append(direct)
    return got, want


@pytest.mark.parametrize("max_delay", RUNNING_SUM_CASES)
def test_online_running_sum_matches_direct_recompute(running_vs_direct, max_delay):
    got, want = running_vs_direct
    assert len(got[max_delay]) == len(want[max_delay]) == 31 * 100
    for k, (g, w) in enumerate(zip(got[max_delay], want[max_delay])):
        assert g.delay == w.delay, k
        assert abs(g.confidence - w.confidence) <= 1e-9, k


def test_online_running_sum_accurate_after_level_drop():
    """After both signals fall by 60 dB, the confidence stays within 1e-10
    of a long-double direct sum, checked every 20 hops from 2 s after the
    drop. Rounding is relative to the loud samples while they are in a sum:
    until the first recompute of a window with only quiet inputs the error
    is about 4e-11, after it about 1e-15."""
    rng = np.random.default_rng(78)
    n = 24 * 16000
    far = speech_surrogate(n, rng)
    far[12 * 16000 + 50 :] *= 1e-3
    mic = shift(far, 4800)
    est = OnlineDelayEstimator(max_delay=8000)
    checked = 0
    for k in range(n // 160):
        r = est.push(mic[k * 160 : (k + 1) * 160], far[k * 160 : (k + 1) * 160])
        t = (k + 1) * 160
        if t >= 14 * 16000 + 160 and k % 20 == 5 and np.any(far[t - 160 : t]):
            m = mic[t - ONLINE_WINDOW : t].astype(np.longdouble)
            f = far[t - ONLINE_WINDOW - r.delay : t - r.delay].astype(np.longdouble)
            exact = float((m @ f) / np.sqrt((m @ m) * (f @ f)))
            assert abs(r.confidence - exact) <= 1e-10, k
            checked += 1
    assert checked >= 20


def test_online_sanitizes_non_finite_input():
    far = surrogate(25, seconds=4.0)
    mic = shift(far, 1600)
    bad_mic, bad_far = mic.copy(), far.copy()
    bad_mic[32000 + 3] = np.nan
    bad_far[32000 + 9] = np.inf
    clean_mic, clean_far = mic.copy(), far.copy()
    clean_mic[32000 + 3] = 0.0
    clean_far[32000 + 9] = 0.0
    traces, counts = [], []
    for m, f in ((bad_mic, bad_far), (clean_mic, clean_far)):
        est = OnlineDelayEstimator(max_delay=8000)
        traces.append([est.push(m[k : k + 160], f[k : k + 160])
                       for k in range(0, len(far) - 160 + 1, 160)])
        counts.append(est.sanitized_samples)
    assert traces[0] == traces[1]
    assert all(np.isfinite(r.confidence) for r in traces[0])
    assert counts == [2, 0]


@pytest.mark.parametrize("mic_len,far_len", [(160, 200), (200, 160), (200, 200), (80, 80), (0, 0)])
def test_online_rejects_chunks_out_of_lockstep(mic_len, far_len):
    est = OnlineDelayEstimator(max_delay=1000)
    est.push(np.ones(160), np.ones(160))
    with pytest.raises(ConfigurationError):
        est.push(np.ones(mic_len), np.ones(far_len))


def test_online_memory_bounded():
    """Once warm, pushes leave nothing behind that the estimator's code
    allocated. Only allocations made in alignment.py are counted: numpy's
    and scipy's internal caches and CPython's free lists also grow for a
    while, about 1 KB per 500 pushes here, and stop near 13 KB."""
    far = surrogate(26, seconds=6.0)
    mic = shift(far, 3200)
    hops = [(mic[k : k + 160], far[k : k + 160]) for k in range(0, len(far) - 160 + 1, 160)]
    est = OnlineDelayEstimator()
    own = [tracemalloc.Filter(True, alignment.__file__)]
    tracemalloc.start()
    try:
        for j in range(450):  # past the first recompute of the window
            est.push(*hops[j % len(hops)])
        before = tracemalloc.take_snapshot().filter_traces(own)
        for j in range(450, 950):
            est.push(*hops[j % len(hops)])
        after = tracemalloc.take_snapshot().filter_traces(own)
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert grown <= 1024


def test_online_wrapper_returns_trace():
    far = surrogate(24, seconds=2.0)
    mic = shift(far, 800)
    est = online_delay(AudioClip(mic), AudioClip(far), max_delay=4000)
    assert isinstance(est, DelayEstimate)
    assert len(est.per_frame) == len(far) // 160


# -- apply_delay ---------------------------------------------------------------

def test_apply_delay_zero_identity():
    x = surrogate(30, seconds=1.0)
    out = apply_delay(AudioClip(x), 0)
    assert np.array_equal(out.samples, x)


def test_apply_delay_impulse():
    x = np.zeros(1000)
    x[0] = 1.0
    out = apply_delay(AudioClip(x), 160)
    assert out.samples[160] == 1.0
    assert np.sum(out.samples != 0) == 1
    assert len(out) == 1000


def test_apply_delay_round_trip_with_global():
    far = surrogate(31, seconds=2.0)
    mic = apply_delay(AudioClip(far), 5000)
    est = global_delay(mic, AudioClip(far), max_delay=8000)
    assert est.delay == 5000


def test_apply_delay_beyond_length_warns():
    with pytest.warns(UserWarning):
        out = apply_delay(AudioClip(np.ones(100)), 200)
    assert np.all(out.samples == 0)


def test_apply_delay_negative_rejected():
    with pytest.raises(ConfigurationError):
        apply_delay(AudioClip(np.ones(10)), -1)
