"""Classical cross-correlation delay estimation.

Two estimators: a whole-clip (global) one, and a frame-by-frame (online)
causal one with a trailing analysis window and peak hysteresis. Both search
non-negative lags only: the far end is assumed to lead the microphone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .dsp import SAMPLE_RATE, AudioClip
from .errors import ConfigurationError, NoSignalError

DEFAULT_MAX_DELAY = SAMPLE_RATE  # 1 s
ONLINE_WINDOW = 2 * SAMPLE_RATE  # trailing correlation window of the online mode
HYSTERESIS = 0.05                # new peak must beat the held one by this margin
SILENCE_RMS = 1e-7
CONFIDENCE_DECAY = 0.97


@dataclass
class DelayEstimate:
    delay: int                      # samples
    confidence: float               # normalized correlation peak in [-1, 1]
    per_frame: list | None = None   # (delay, confidence) trace for online mode


def _ncc_curve(mic: np.ndarray, far: np.ndarray, max_delay: int) -> np.ndarray:
    """Normalized cross-correlation of mic against far delayed by d in [0, max].

    For lag d the overlap region pairs mic[d:] with far[:n-d]; both sides are
    normalized by the overlapping segment energies, so an exact shifted copy
    scores exactly 1 at its true lag.
    """
    n = len(mic)
    max_delay = min(max_delay, n - 1)
    # corr[d] = sum_i mic[d + i] * far[i]  == cross-correlation at positive lag d
    corr = fftconvolve(mic, far[::-1], mode="full")[n - 1 : n + max_delay]
    mic_sq = np.cumsum(mic * mic)
    far_sq = np.cumsum(far * far)
    total = mic_sq[-1]
    d = np.arange(max_delay + 1)
    mic_tail = total - np.concatenate([[0.0], mic_sq[:-1]])[d]     # ||mic[d:]||^2
    far_head = far_sq[n - 1 - d]                                   # ||far[:n-d]||^2
    denom = np.sqrt(mic_tail * far_head)
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = np.where(denom > 0, corr / denom, 0.0)
    return np.clip(ncc, -1.0, 1.0)


def global_delay(mic: AudioClip, far: AudioClip, max_delay: int = DEFAULT_MAX_DELAY) -> DelayEstimate:
    """Whole-clip delay estimate: argmax of normalized cross-correlation.

    Ties resolve to the smallest lag. Raises on an all-silent far end.
    """
    if max_delay < 0 or max_delay > DEFAULT_MAX_DELAY:
        raise ConfigurationError(f"max_delay must be in [0, {DEFAULT_MAX_DELAY}]")
    m = mic.samples
    f = far.samples
    n = min(len(m), len(f))
    m, f = m[:n], f[:n]
    if not np.any(f):
        raise NoSignalError("far end is silent; no delay to estimate")
    ncc = _ncc_curve(m, f, max_delay)
    d = int(np.argmax(ncc))  # first occurrence wins ties
    return DelayEstimate(delay=d, confidence=float(ncc[d]))


class OnlineDelayEstimator:
    """Causal frame-rate delay tracker over a trailing window of past samples.

    Feed hop-sized chunks (10 ms) of both signals in lockstep. The estimate
    only moves when a new correlation peak beats the held one by the
    hysteresis margin, which suppresses jitter between adjacent near-ties.
    """

    def __init__(self, max_delay: int = DEFAULT_MAX_DELAY, window: int = ONLINE_WINDOW,
                 hysteresis: float = HYSTERESIS, min_history: int = SAMPLE_RATE // 2):
        if max_delay < 0 or max_delay > DEFAULT_MAX_DELAY:
            raise ConfigurationError(f"max_delay must be in [0, {DEFAULT_MAX_DELAY}]")
        self.max_delay = max_delay
        self.window = window
        self.hysteresis = hysteresis
        self.min_history = min_history
        self._mic = np.zeros(window)
        self._far = np.zeros(window + max_delay)
        self._seen = 0
        self._held_delay = 0
        self._held_conf = 0.0
        self.trace: list[tuple[int, float]] = []

    def push(self, mic_frame: np.ndarray, far_frame: np.ndarray) -> DelayEstimate:
        mic_frame = np.asarray(mic_frame, dtype=np.float64)
        far_frame = np.asarray(far_frame, dtype=np.float64)
        n = len(mic_frame)
        self._mic = np.concatenate([self._mic[n:], mic_frame])
        self._far = np.concatenate([self._far[n:], far_frame])
        self._seen += n

        if self._seen < self.min_history:
            est = DelayEstimate(self._held_delay, 0.0)
        elif np.sqrt(np.mean(far_frame**2)) < SILENCE_RMS:
            # hold through silence; trust in the stale peak decays
            self._held_conf *= CONFIDENCE_DECAY
            est = DelayEstimate(self._held_delay, self._held_conf)
        else:
            w = min(self.window, self._seen)
            mic_w = self._mic[-w:]
            far_hist = self._far
            # lag d pairs mic[T-w:T) with far[T-w-d:T-d)
            corr = fftconvolve(far_hist, mic_w[::-1], mode="valid")[::-1]
            corr = corr[: self.max_delay + 1]
            mic_norm = np.sqrt(np.sum(mic_w * mic_w))
            far_sq = np.cumsum(self._far * self._far)
            upper = len(self._far) - np.arange(len(corr))
            lower = upper - w
            seg = far_sq[upper - 1] - np.where(lower > 0, far_sq[np.maximum(lower - 1, 0)], 0.0)
            denom = mic_norm * np.sqrt(np.maximum(seg, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                ncc = np.where(denom > 0, corr / denom, 0.0)
            ncc = np.clip(ncc, -1.0, 1.0)
            d = int(np.argmax(ncc))
            if ncc[d] > self._held_conf + self.hysteresis or d == self._held_delay:
                self._held_delay = d
                self._held_conf = float(ncc[d])
            else:
                # refresh confidence of the held lag from the current curve
                self._held_conf = float(ncc[self._held_delay])
            est = DelayEstimate(self._held_delay, self._held_conf)
        self.trace.append((est.delay, est.confidence))
        return est


def online_delay(mic: AudioClip, far: AudioClip, max_delay: int = DEFAULT_MAX_DELAY,
                 hop: int = 160) -> DelayEstimate:
    """Runs the online estimator over whole clips; returns the final estimate
    with the full per-frame trace attached."""
    est = OnlineDelayEstimator(max_delay=max_delay)
    n = min(len(mic), len(far))
    last = DelayEstimate(0, 0.0)
    for start in range(0, n - hop + 1, hop):
        last = est.push(mic.samples[start : start + hop], far.samples[start : start + hop])
    return DelayEstimate(last.delay, last.confidence, per_frame=est.trace)


def apply_delay(x: AudioClip, delay: int) -> AudioClip:
    """Prepends ``delay`` zeros and crops the tail, preserving length."""
    if delay < 0:
        raise ConfigurationError("delay must be non-negative")
    n = len(x)
    if delay > n:
        warnings.warn(f"delay {delay} exceeds clip length {n}; output is silent")
        return AudioClip(np.zeros(n), x.sample_rate)
    out = np.concatenate([np.zeros(delay), x.samples[: n - delay]])
    return AudioClip(out, x.sample_rate)
