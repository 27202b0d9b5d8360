"""Classical cross-correlation delay estimation.

Two estimators: a whole-clip (global) one, and a frame-by-frame (online)
causal one with a trailing analysis window and peak hysteresis. Both search
non-negative lags only: the far end is assumed to lead the microphone.

The online estimator takes one 10 ms hop (``HOP`` samples) of mic and far
end per push, in lockstep. It keeps the trailing window's correlation as a
running sum that each push updates: the new mic hop's correlation against
the far end is added, and that of the mic hop leaving the window is
subtracted. Once per window length of pushes the sum is recomputed directly
from the window, so rounding cannot build up over an unbounded stream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .dsp import HOP, SAMPLE_RATE, AudioClip, sanitize
from .errors import ConfigurationError, NoSignalError

DEFAULT_MAX_DELAY = SAMPLE_RATE  # 1 s
ONLINE_WINDOW = 2 * SAMPLE_RATE  # trailing correlation window of the online mode
MIN_HISTORY = SAMPLE_RATE // 2   # the online mode reports confidence 0 before this
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

    Each ``push`` takes exactly one ``HOP``-sample (10 ms) chunk of each
    signal, in lockstep; any other length raises ``ConfigurationError``.
    Non-finite samples are replaced by 0 and counted in ``sanitized_samples``.

    The window's correlation at lags ``0..max_delay`` is a running sum: each
    push adds the new mic hop's correlation against the far samples it pairs
    with and subtracts that of the mic hop leaving the window. Lags are
    grouped in blocks of ``HOP``; the spectrum of each 2·``HOP`` far block is
    computed once, when its newest hop arrives, so one push costs one
    batched inverse FFT. The far window energy per lag moves up by ``HOP``
    lags each push, and only the ``HOP`` newest lags are computed. Every
    ``ONLINE_WINDOW`` samples the running sum is replaced by a direct
    recompute, so rounding cannot build up over an unbounded stream.

    The estimate only moves when a new correlation peak beats the held one
    by the hysteresis margin, which suppresses jitter between adjacent
    near-ties.
    """

    def __init__(self, max_delay: int = DEFAULT_MAX_DELAY):
        if max_delay < 0 or max_delay > DEFAULT_MAX_DELAY:
            raise ConfigurationError(f"max_delay must be in [0, {DEFAULT_MAX_DELAY}]")
        self.max_delay = max_delay
        self.sanitized_samples = 0
        blocks = -(-(max_delay + 1) // HOP)
        lags = blocks * HOP
        # Rows: mic, far, and far**2 summed from the start of each hop.
        # Column keep + t holds time t until the first compaction. Of the
        # history before time 0, only the last hop of far and its sums are read.
        self._keep = ONLINE_WINDOW + lags
        self._hist = np.empty((3, self._keep + ONLINE_WINDOW))
        self._hist[1:, self._keep - HOP : self._keep] = 0.0
        self._col = self._keep
        self._mic_energy = np.empty(self._hist.shape[1] // HOP)  # ||mic hop||**2 at column // HOP
        # Conjugate spectrum of far[(k-1)·HOP, (k+1)·HOP) for push k, at row
        # keep_blocks + k until the first compaction.
        keep_blocks = ONLINE_WINDOW // HOP + blocks - 1
        self._spec = np.empty((keep_blocks + ONLINE_WINDOW // HOP, HOP + 1), complex)
        self._row = keep_blocks
        self._fft_in = np.zeros((3, 2 * HOP))  # far block, new and leaving mic hop
        self._corr = np.zeros((blocks, HOP))   # [b, j]: lag b·HOP + j
        self._inv_far_norm = np.zeros(lags)    # 1 / ||far window at lag d||, 0 if silent
        self._seen = 0
        self._held_delay = 0
        self._held_conf = 0.0

    def push(self, mic_frame: np.ndarray, far_frame: np.ndarray) -> DelayEstimate:
        mic_frame = np.asarray(mic_frame, dtype=np.float64)
        far_frame = np.asarray(far_frame, dtype=np.float64)
        if mic_frame.shape != (HOP,) or far_frame.shape != (HOP,):
            raise ConfigurationError(f"each push takes one {HOP}-sample hop of mic and far, "
                                     f"got shapes {mic_frame.shape} and {far_frame.shape}")
        mic_frame, bad_mic = sanitize(mic_frame)
        far_frame, bad_far = sanitize(far_frame)
        self.sanitized_samples += bad_mic + bad_far
        mic, far, energy = self._hist
        c = self._col
        mic[c : c + HOP] = mic_frame
        far[c : c + HOP] = far_frame
        self._mic_energy[c // HOP] = np.dot(mic_frame, mic_frame)
        np.cumsum(far_frame * far_frame, out=energy[c : c + HOP])
        self._update_corr(c)
        self._seen += HOP
        self._col = c = c + HOP
        w = min(ONLINE_WINDOW, self._seen)
        # The window of lag d < HOP: the last d samples of the hop before
        # it, the whole hops between, the first HOP - d samples of the
        # newest hop. Each part is summed on its own, so a silent window
        # sums to exactly 0 and a quiet one is not lost in a loud past.
        before = energy[c - w - HOP : c - w]
        between = energy[c - w + HOP - 1 : c - HOP : HOP].sum()
        fresh = ((before[-1] - before) + between + energy[c - HOP : c])[::-1]
        inv = self._inv_far_norm
        inv[HOP:] = inv[:-HOP]
        inv[:HOP] = 0.0
        np.divide(1.0, np.sqrt(fresh), out=inv[:HOP], where=fresh > 0)

        if self._seen < MIN_HISTORY:
            est = DelayEstimate(self._held_delay, 0.0)
        elif np.sqrt(energy[c - 1] / HOP) < SILENCE_RMS:
            # hold through silence; trust in the stale peak decays
            self._held_conf *= CONFIDENCE_DECAY
            est = DelayEstimate(self._held_delay, self._held_conf)
        else:
            mic_norm = np.sqrt(self._mic_energy[(c - w) // HOP : c // HOP].sum())
            n = self.max_delay + 1
            ncc = self._corr.reshape(-1)[:n] * inv[:n]
            ncc *= 1.0 / mic_norm if mic_norm > 0 else 0.0
            np.clip(ncc, -1.0, 1.0, out=ncc)
            d = int(np.argmax(ncc))
            if ncc[d] > self._held_conf + HYSTERESIS or d == self._held_delay:
                self._held_delay = d
                self._held_conf = float(ncc[d])
            else:
                # refresh confidence of the held lag from the current curve
                self._held_conf = float(ncc[self._held_delay])
            est = DelayEstimate(self._held_delay, self._held_conf)
        if self._seen % ONLINE_WINDOW == 0:
            self._reanchor()
        return est

    def _update_corr(self, c: int) -> None:
        """Adds the correlation of the hop at column ``c`` and subtracts that
        of the mic hop leaving the window.

        For lag b·HOP + j, the hop's term is sum_i m[i]·X[HOP + i - j] over
        the far block X of index (push - b), read off one circular
        correlation of length 2·HOP. Blocks before time 0 are all zero and
        are skipped.
        """
        mic, far = self._hist[:2]
        fft_in, spec, r = self._fft_in, self._spec, self._row
        push = self._seen // HOP
        out = push - ONLINE_WINDOW // HOP
        fft_in[0] = far[c - HOP : c + HOP]
        fft_in[1, :HOP] = mic[c : c + HOP]
        if out >= 0:
            fft_in[2, :HOP] = mic[c - ONLINE_WINDOW : c - ONLINE_WINDOW + HOP]
        far_spec, mic_spec, old_spec = np.fft.rfft(fft_in)
        spec[r] = far_spec.conj()
        blocks = len(self._corr)
        n_in = min(blocks, push + 1)
        z = spec[r - n_in + 1 : r + 1] * mic_spec
        if out >= 0:
            n_out = min(blocks, out + 1)
            r_out = r - ONLINE_WINDOW // HOP
            z[n_in - n_out :] -= spec[r_out - n_out + 1 : r_out + 1] * old_spec
        self._corr[:n_in] += np.fft.irfft(z, 2 * HOP)[::-1, HOP:]
        self._row = r + 1

    def _reanchor(self) -> None:
        """Recomputes the window's correlation directly, then moves the
        retained history to the front of its buffers.

        The first window is left as summed: nothing has been subtracted
        from it yet, and its lags reach back before time 0.
        """
        mic, far = self._hist[:2]
        c = self._col
        if self._seen > ONLINE_WINDOW:
            lags = self._corr.size
            corr = fftconvolve(far[c - ONLINE_WINDOW - lags + 1 : c],
                               mic[c - ONLINE_WINDOW : c][::-1], mode="valid")
            self._corr[:] = corr[::-1].reshape(self._corr.shape)
        keep = self._keep
        self._hist[:, :keep] = self._hist[:, c - keep : c]
        self._mic_energy[: keep // HOP] = self._mic_energy[(c - keep) // HOP : c // HOP]
        self._col = keep
        keep_blocks = len(self._spec) - ONLINE_WINDOW // HOP
        self._spec[:keep_blocks] = self._spec[-keep_blocks:]
        self._row = keep_blocks


def online_delay(mic: AudioClip, far: AudioClip, max_delay: int = DEFAULT_MAX_DELAY) -> DelayEstimate:
    """Runs the online estimator hop by hop over whole clips; returns the
    final estimate with the per-hop (delay, confidence) trace attached."""
    est = OnlineDelayEstimator(max_delay=max_delay)
    n = min(len(mic), len(far))
    per_frame = []
    for start in range(0, n - HOP + 1, HOP):
        e = est.push(mic.samples[start : start + HOP], far.samples[start : start + HOP])
        per_frame.append((e.delay, e.confidence))
    delay, confidence = per_frame[-1] if per_frame else (0, 0.0)
    return DelayEstimate(delay, confidence, per_frame=per_frame)


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
