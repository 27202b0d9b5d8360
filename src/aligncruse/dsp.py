"""STFT front end shared by inference, training and the loss consistency pass.

The frame geometry is fixed here and nowhere else: 16 kHz audio, 320-sample
(20 ms) windows advanced by a 160-sample (10 ms) hop, 161 bins. Every
checkpoint's input and mask layers are sized for 161 bins
(``ModelConfig.n_bins``), so no other geometry can run a model.

Conventions are fixed so test vectors are reproducible bit-for-bit:

* analysis and synthesis both use the square-root of a *periodic* Hann
  window, which satisfies constant overlap-add exactly at 50% overlap;
* the forward DFT is unnormalized, the inverse carries the 1/N factor;
* frame k covers samples [k*HOP, k*HOP + WIN) -- no zero padding of
  the first frame, so output only starts once a full window is available.

Because ``WIN == 2 * HOP``, a frame is two consecutive half-windows, and
overlap-add adds the second half of each segment to the first half of the
next. ``frame`` and ``overlap_add`` are the only framing and overlap-add:
analysis and synthesis, the autodiff STFT ops and the streaming engine all
call them.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

SAMPLE_RATE = 16000
HOP = 160               # 10 ms
WIN = 2 * HOP           # 20 ms; also the DFT length
N_BINS = WIN // 2 + 1
LOG_EPS = 1e-12


def make_sqrt_hann(win_len: int) -> np.ndarray:
    """Square root of the periodic Hann window of length ``win_len``.

    Squared entries at 50% overlap sum to 1 at every interior sample
    position, which is what makes the analysis/synthesis pair exact.
    """
    if win_len < 2 or win_len % 2 != 0:
        raise ConfigurationError(f"window length must be even and >= 2, got {win_len}")
    n = np.arange(win_len)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / win_len)
    return np.sqrt(hann)


WINDOW = make_sqrt_hann(WIN)


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.samples)):
            raise ConfigurationError("audio samples must be finite")

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class SpectralFrames:
    """Complex (t, f) matrix of analysis frames."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ShapeError(f"spectral frames must be 2-D, got {self.data.shape}")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


def frame(x: np.ndarray) -> np.ndarray:
    """(..., t, WIN) frames of (..., n) samples: frame k is
    ``x[..., k*HOP : k*HOP + WIN]``, the half-windows k and k + 1. t is 0
    when n < WIN; samples past the last whole half-window are left out."""
    halves = x[..., : x.shape[-1] // HOP * HOP].reshape(*x.shape[:-1], -1, HOP)
    return np.concatenate([halves[..., :-1, :], halves[..., 1:, :]], axis=-1)


def overlap_add(segs: np.ndarray) -> np.ndarray:
    """(..., (t + 1) * h) sum of (..., t, 2h) segments laid h samples apart:
    the second half of each segment is added to the first half of the next."""
    *lead, t, w = segs.shape
    h = w // 2
    out = np.zeros((*lead, t + 1, h))
    out[..., :-1, :] += segs[..., :h]
    out[..., 1:, :] += segs[..., h:]
    return out.reshape(*lead, -1)


def analyze(frames: np.ndarray) -> np.ndarray:
    """Spectra (..., t, N_BINS) of (..., t, WIN) frames, which are windowed
    in place: every caller passes frames fresh from ``frame``, and a
    windowed copy of a long clip's frames would cost one more pass and
    allocation of its size."""
    frames *= WINDOW
    return np.fft.rfft(frames, axis=-1)


def synthesize(spec: np.ndarray) -> np.ndarray:
    """Windowed (..., t, WIN) segments of (..., t, N_BINS) spectra, for
    ``overlap_add``."""
    segs = np.fft.irfft(spec, n=WIN, axis=-1)
    segs *= WINDOW
    return segs


def stft(clip: AudioClip) -> SpectralFrames:
    if clip.sample_rate != SAMPLE_RATE:
        raise ConfigurationError(f"expected {SAMPLE_RATE} Hz input, got {clip.sample_rate}")
    if len(clip) < WIN:
        raise ShapeError(f"clip of {len(clip)} samples is shorter than one window ({WIN})")
    return SpectralFrames(analyze(frame(clip.samples)))


def istft(frames: SpectralFrames) -> AudioClip:
    """Overlap-add synthesis; inverse of :func:`stft` on the interior."""
    if frames.n_bins != N_BINS:
        raise ShapeError(f"expected {N_BINS} bins, got {frames.n_bins}")
    return AudioClip(overlap_add(synthesize(frames.data)))


def log_power(frames: SpectralFrames) -> np.ndarray:
    """ln(|X|^2 + eps) features with shape (1, t, f); finite for any input."""
    if not np.isfinite(frames.data).all():
        raise ConfigurationError("spectral frames must be finite")
    power = frames.data.real**2 + frames.data.imag**2
    return np.log(power + LOG_EPS)[None, :, :]


def sanitize(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``x`` with its non-finite samples replaced by 0, and how many there were."""
    finite = np.isfinite(x)
    if finite.all():
        return x, 0
    return np.where(finite, x, 0.0), int(x.size - np.count_nonzero(finite))


class StreamingFramer:
    """Accumulates pushed samples and returns the frames each push completes.

    Single-owner state; any chunking gives ``frame`` of everything pushed.
    Samples may carry leading axes (a stacked mic/far pair is (2, n)), which
    must stay the same from push to push.
    """

    def __init__(self):
        self._backlog = None

    def push(self, samples: np.ndarray) -> np.ndarray:
        """Returns the (..., n, WIN) frames completed by this push."""
        x = np.asarray(samples, dtype=np.float64)
        if self._backlog is not None:
            x = np.concatenate([self._backlog, x], axis=-1)
        frames = frame(x)
        self._backlog = x[..., frames.shape[-2] * HOP :].copy()
        return frames


# -- 16-bit PCM WAV ------------------------------------------------------------------

def open_wav(path) -> wave.Wave_read:
    """Opens a WAV file for reading; it must be mono 16-bit PCM at ``SAMPLE_RATE``."""
    w = wave.open(str(path), "rb")
    if w.getnchannels() != 1 or w.getsampwidth() != 2 or w.getframerate() != SAMPLE_RATE:
        w.close()
        raise ConfigurationError(f"{path}: expected mono 16-bit PCM at {SAMPLE_RATE} Hz")
    return w


def create_wav(path) -> wave.Wave_write:
    """Opens a WAV file for writing as mono 16-bit PCM at ``SAMPLE_RATE``."""
    w = wave.open(str(path), "wb")
    w.setnchannels(1)
    w.setsampwidth(2)
    w.setframerate(SAMPLE_RATE)
    return w


def pcm_to_float(raw: bytes) -> np.ndarray:
    """Little-endian int16 samples as floats in [-1, 1)."""
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def float_to_pcm(samples: np.ndarray) -> bytes:
    """Floats rounded and clipped to little-endian int16 samples."""
    return np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()


def read_wav(path) -> AudioClip:
    """Reads a mono 16 kHz 16-bit PCM RIFF file into [-1, 1) floats."""
    with open_wav(path) as w:
        raw = w.readframes(w.getnframes())
    return AudioClip(pcm_to_float(raw))


def write_wav(path, clip: AudioClip) -> None:
    if clip.sample_rate != SAMPLE_RATE:
        raise ConfigurationError(f"can only write {SAMPLE_RATE} Hz audio")
    with create_wav(path) as w:
        w.writeframes(float_to_pcm(clip.samples))
