"""Synthetic scenario generation for training and the long-delay test sets.

Everything is deterministic from a 64-bit seed: sources are an
envelope-modulated pink-noise speech surrogate, the echo path is a delayed,
optionally distorted far end signal convolved with an exponentially decaying
random room impulse response, and mixing gains realize the drawn
signal-to-echo / signal-to-noise ratios exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

from . import dsp
from .dsp import SAMPLE_RATE, WIN, AudioClip
from .errors import ConfigurationError

LD_M_RANGE = (0.3, 0.5)   # seconds, moderate long-delay set
LD_H_RANGE = (0.5, 1.0)   # seconds, hard long-delay set


@dataclass
class ScenarioConfig:
    delay_range: tuple = (0.0, 0.5)        # seconds
    ser_range: tuple | None = (-10.0, 10.0)  # dB; None = echo kept at unit gain
    snr_range: tuple | None = (0.0, 40.0)    # dB; None = no noise
    rir_decay: tuple | None = (0.1, 0.5)     # RT60 seconds; None = unit impulse
    nonlinearity: str = "none"               # none | hard-clip | tanh-gain
    clip_len: float = 10.0                   # seconds
    near_active: bool = True                 # False = far-end single talk
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.delay_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigurationError(f"delay range must satisfy 0 <= lo <= hi <= 1, got {self.delay_range}")
        if self.clip_len * SAMPLE_RATE < WIN:
            raise ConfigurationError("clip too short for one analysis window")
        if self.nonlinearity not in ("none", "hard-clip", "tanh-gain"):
            raise ConfigurationError(f"unknown nonlinearity {self.nonlinearity!r}")


@dataclass
class Scenario:
    far: AudioClip
    near: AudioClip
    rir: np.ndarray
    delay: int               # samples
    mic: AudioClip
    target: AudioClip        # the near end signal, training reference
    metadata: dict = field(default_factory=dict)


def speech_surrogate(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Speech-like test signal: pink noise gated into bursts with a slow
    syllabic amplitude modulation and silent pauses."""
    white = rng.standard_normal(n_samples)
    # pink-ish spectrum via 1/sqrt(f) shaping
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / SAMPLE_RATE)
    shape = 1.0 / np.sqrt(np.maximum(freqs, 50.0))
    pink = np.fft.irfft(spec * shape, n=n_samples)
    pink /= np.max(np.abs(pink)) + 1e-12

    # burst/pause gating
    env = np.zeros(n_samples)
    pos = 0
    while pos < n_samples:
        burst = int(rng.uniform(0.25, 1.0) * SAMPLE_RATE)
        pause = int(rng.uniform(0.05, 0.4) * SAMPLE_RATE)
        end = min(pos + burst, n_samples)
        env[pos:end] = 1.0
        # soft edges to avoid clicks
        ramp = min(160, end - pos)
        env[pos : pos + ramp] *= np.linspace(0, 1, ramp)
        env[max(pos, end - ramp) : end] *= np.linspace(1, 0, ramp)
        pos = end + pause
    # syllabic AM around 4 Hz
    t = np.arange(n_samples) / SAMPLE_RATE
    am = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(2.5, 5.0) * t + rng.uniform(0, 2 * np.pi))
    return 0.3 * pink * env * am


DIRECT_TO_REVERB_DB = (6.0, 14.0)  # drawn direct-to-reverberant energy ratio


def make_rir(rt60: float, rng: np.random.Generator) -> np.ndarray:
    """Direct path plus exponentially decaying white-noise reverberation,
    normalized to unit energy.

    The tail envelope reaches -60 dB at rt60 * fs samples. Tail energy sits
    a drawn 6-14 dB below the direct tap, the regime of loudspeaker-to-mic
    coupling this pipeline models; it also keeps the echo onset identifiable
    to cross-correlation at frame resolution.
    """
    if not (0.05 <= rt60 <= 1.0):
        raise ConfigurationError(f"rt60 must be in [0.05, 1.0], got {rt60}")
    n = math.ceil(rt60 * SAMPLE_RATE)
    envelope = np.exp(-3.0 * np.log(10.0) * np.arange(n) / (rt60 * SAMPLE_RATE))
    tail = rng.standard_normal(n) * envelope
    tail[0] = 0.0
    drr = rng.uniform(*DIRECT_TO_REVERB_DB)
    tail_energy = float(np.sum(tail**2))
    if tail_energy > 0:
        tail *= math.sqrt(10.0 ** (-drr / 10.0) / tail_energy)
    h = tail
    h[0] = 1.0
    return h / np.linalg.norm(h)


def _apply_nonlinearity(x: np.ndarray, kind: str, rng: np.random.Generator, meta: dict) -> np.ndarray:
    if kind == "none":
        return x
    if kind == "hard-clip":
        peak = np.max(np.abs(x)) + 1e-12
        thresh = rng.uniform(0.2, 0.8) * peak
        meta["clip_threshold"] = float(thresh)
        return np.clip(x, -thresh, thresh)
    if kind == "tanh-gain":
        drive = rng.uniform(1.0, 4.0)
        meta["tanh_drive"] = float(drive)
        return np.tanh(drive * x)
    raise ConfigurationError(f"unknown nonlinearity {kind!r}")


def _convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    if len(h) == 1:
        return x * h[0]
    if len(h) < 128:
        return np.convolve(x, h)[: len(x)]
    return fftconvolve(x, h)[: len(x)]


def synth_scenario(cfg: ScenarioConfig, rng: np.random.Generator | None = None) -> Scenario:
    """Draws one scenario; identical (cfg, seed) pairs are bit-identical."""
    rng = rng or np.random.default_rng(np.random.PCG64(cfg.seed))
    n = int(round(cfg.clip_len * SAMPLE_RATE))
    meta: dict = {"seed": cfg.seed, "nonlinearity": cfg.nonlinearity}

    far = speech_surrogate(n, rng)
    near = speech_surrogate(n, rng) if cfg.near_active else np.zeros(n)

    delay = int(round(rng.uniform(*cfg.delay_range) * SAMPLE_RATE))
    meta["delay_samples"] = delay

    if cfg.rir_decay is None:
        rir = np.ones(1)
        meta["rt60_s"] = 0.0
    else:
        rt60 = float(rng.uniform(*cfg.rir_decay))
        rir = make_rir(rt60, rng)
        meta["rt60_s"] = rt60

    delayed = np.concatenate([np.zeros(delay), far[: n - delay]])
    echo = _convolve(_apply_nonlinearity(delayed, cfg.nonlinearity, rng, meta), rir)

    e_echo = float(np.sum(echo**2))
    e_near = float(np.sum(near**2))
    if cfg.ser_range is not None and e_near > 0 and e_echo > 0:
        ser = float(rng.uniform(*cfg.ser_range))
        echo = echo * math.sqrt(e_near / (e_echo * 10.0 ** (ser / 10.0)))
        meta["ser_db"] = ser
    else:
        meta["ser_db"] = None

    signal = near + echo
    if cfg.snr_range is not None:
        snr = float(rng.uniform(*cfg.snr_range))
        noise = rng.standard_normal(n)
        e_sig = float(np.sum(signal**2))
        noise *= math.sqrt(e_sig / (np.sum(noise**2) * 10.0 ** (snr / 10.0)))
        meta["snr_db"] = snr
    else:
        noise = np.zeros(n)
        meta["snr_db"] = None

    mic = signal + noise
    # only scale down, never up, so degenerate configs mix exactly
    peak = np.max(np.abs(mic))
    scale = 1.0 if peak <= 0.999 else 0.999 / peak
    meta["norm_scale"] = scale
    mic = mic * scale
    near = near * scale

    return Scenario(
        far=AudioClip(far),
        near=AudioClip(near),
        rir=rir,
        delay=delay,
        mic=AudioClip(mic),
        target=AudioClip(near),
        metadata=meta,
    )


def child_seed(seed: int, index: int) -> int:
    """Stable per-sample seed derivation."""
    ss = np.random.SeedSequence([seed, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def ld_scenario_config(kind: str, seed: int, clip_len: float = 10.0) -> ScenarioConfig:
    kind = kind.lower().replace("ld-", "")
    if kind == "m":
        delay_range = LD_M_RANGE
    elif kind == "h":
        delay_range = LD_H_RANGE
    else:
        raise ConfigurationError(f"kind must be 'm' or 'h', got {kind!r}")
    # far-end single talk: silent near end so echo suppression is measurable
    return ScenarioConfig(
        delay_range=delay_range,
        ser_range=None,
        snr_range=(25.0, 40.0),
        rir_decay=(0.1, 0.3),
        nonlinearity="none",
        clip_len=clip_len,
        near_active=False,
        seed=seed,
    )


def make_ld_set(kind: str, n: int, seed: int, out_dir, clip_len: float = 10.0) -> list[dict]:
    """Writes ``n`` far-end single-talk clips with long delays plus a
    JSON-lines manifest; returns the manifest rows."""
    if n < 1:
        raise ConfigurationError("need at least one sample")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(n):
        cfg = ld_scenario_config(kind, seed=child_seed(seed, i), clip_len=clip_len)
        sc = synth_scenario(cfg)
        clip_id = f"{kind.lower().replace('ld-', '')}{i:04d}"
        paths = {
            "mic_path": f"{clip_id}_mic.wav",
            "far_path": f"{clip_id}_far.wav",
            "target_path": f"{clip_id}_target.wav",
        }
        dsp.write_wav(out_dir / paths["mic_path"], sc.mic)
        dsp.write_wav(out_dir / paths["far_path"], sc.far)
        dsp.write_wav(out_dir / paths["target_path"], sc.target)
        rows.append({
            "id": clip_id,
            **paths,
            "delay_samples": sc.delay,
            "ser_db": sc.metadata["ser_db"],
            "snr_db": sc.metadata["snr_db"],
            "rt60_s": sc.metadata["rt60_s"],
            "nonlinearity": sc.metadata["nonlinearity"],
            "seed": sc.metadata["seed"],
        })
    with open(out_dir / "manifest.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return rows


def read_manifest(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
