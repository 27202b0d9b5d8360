import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aligncruse import autodiff as ad
from aligncruse import dsp
from aligncruse.dsp import (
    HOP,
    WIN,
    WINDOW,
    AudioClip,
    SpectralFrames,
    StreamingFramer,
    istft,
    log_power,
    make_sqrt_hann,
    stft,
)
from aligncruse.errors import ConfigurationError, ShapeError


def dft_oracle(x):
    """Direct O(n^2) discrete Fourier transform, first half spectrum."""
    n = len(x)
    k = np.arange(n // 2 + 1)[:, None]
    m = np.arange(n)[None, :]
    w = np.exp(-2j * np.pi * k * m / n)
    return w @ x


def loop_frames(x):
    """Reference framing: one gathered row per hop-advanced window."""
    t = (len(x) - WIN) // HOP + 1 if len(x) >= WIN else 0
    idx = HOP * np.arange(t)[:, None] + np.arange(WIN)[None, :]
    return x[idx]


def loop_overlap_add(segs):
    """Reference overlap-add: each segment added into place in turn."""
    out = np.zeros((len(segs) - 1) * HOP + WIN)
    for k in range(len(segs)):
        out[k * HOP : k * HOP + WIN] += segs[k]
    return out


# Below one window, exact multiples of HOP, and ragged tails.
LENGTHS = [0, 1, 159, 160, 319, 320, 321, 479, 480, 481, 1000, 1600, 16037]


# -- window ---------------------------------------------------------------

def test_sqrt_hann_len4_hand_values():
    w = make_sqrt_hann(4)
    np.testing.assert_allclose(w, [0.0, 0.70710678, 1.0, 0.70710678], atol=1e-8)


def test_sqrt_hann_320_endpoints_and_peak():
    w = make_sqrt_hann(320)
    assert w[0] == 0.0
    assert np.argmax(w) == 160
    assert np.all((w >= 0) & (w <= 1))


@pytest.mark.parametrize("win_len", [4, 8, 320, 642])
def test_sqrt_hann_cola(win_len):
    w2 = make_sqrt_hann(win_len) ** 2
    hop = win_len // 2
    # every interior sample position is covered by exactly two hops
    np.testing.assert_allclose(w2[:hop] + w2[hop:], 1.0, atol=1e-12)


@pytest.mark.parametrize("bad", [0, 1, 3, -2])
def test_sqrt_hann_rejects_bad_length(bad):
    with pytest.raises(ConfigurationError):
        make_sqrt_hann(bad)


def test_geometry_constants():
    assert (dsp.SAMPLE_RATE, HOP, WIN, dsp.N_BINS) == (16000, 160, 320, 161)
    assert np.array_equal(WINDOW, make_sqrt_hann(320))


# -- framing and overlap-add ----------------------------------------------

@pytest.mark.parametrize("n", LENGTHS)
def test_frame_equals_loop_framing(n):
    x = np.random.default_rng(n).standard_normal(n)
    got = dsp.frame(x)
    ref = loop_frames(x)
    assert got.shape == ref.shape == (max(0, (n - WIN) // HOP + 1), WIN)
    assert np.array_equal(got, ref)
    # leading axes frame independently
    pair = np.stack([x, -x])
    assert np.array_equal(dsp.frame(pair), np.stack([ref, -ref]))


@pytest.mark.parametrize("t", [0, 1, 2, 3, 17])
def test_overlap_add_equals_loop(t):
    segs = np.random.default_rng(t).standard_normal((t, WIN))
    got = dsp.overlap_add(segs)
    assert np.array_equal(got, loop_overlap_add(segs))
    assert np.array_equal(dsp.overlap_add(np.stack([segs, 2 * segs]))[1], 2 * got)


# -- stft -----------------------------------------------------------------

def test_stft_zero_clip():
    spec = stft(AudioClip(np.zeros(1000)))
    assert spec.data.shape == (5, 161)
    assert np.all(spec.data == 0)


def test_stft_frame_count_480():
    spec = stft(AudioClip(np.zeros(480)))
    assert spec.n_frames == 2


def test_stft_too_short_clip():
    with pytest.raises(ShapeError):
        stft(AudioClip(np.zeros(100)))


def test_stft_cosine_peaks_at_bin5():
    # 250 Hz == bin 5 of a 320-point DFT at 16 kHz
    n = np.arange(3200)
    clip = AudioClip(np.cos(2 * np.pi * 5 * n / 320))
    spec = stft(clip)
    mags = np.abs(spec.data)
    assert np.all(np.argmax(mags, axis=1) == 5)


def test_stft_matches_direct_dft_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3 * 160 + 320)
    spec = stft(AudioClip(x))
    for k in range(spec.n_frames):
        seg = x[k * 160 : k * 160 + 320] * WINDOW
        np.testing.assert_allclose(spec.data[k], dft_oracle(seg), atol=1e-9)


@pytest.mark.parametrize("n", [n for n in LENGTHS if n >= WIN])
def test_stft_istft_equal_loop_references(n):
    x = np.random.default_rng(n).standard_normal(n)
    spec = stft(AudioClip(x)).data
    assert np.array_equal(spec, np.fft.rfft(loop_frames(x) * WINDOW, n=WIN, axis=1))
    segs = np.fft.irfft(spec, n=WIN, axis=1) * WINDOW
    assert np.array_equal(istft(SpectralFrames(spec)).samples, loop_overlap_add(segs))


def _grad_of(op, leaf, g):
    """Output of ``op(leaf)`` and the leaf's gradient of <out, g>."""
    out = op(leaf)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(g))))
    return out.data, leaf.grad


@pytest.mark.parametrize("n", [n for n in LENGTHS if n >= WIN])
def test_stft_graph_istft_graph_equal_loop_references(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    frames = loop_frames(x)
    t = len(frames)

    g = rng.standard_normal((2, t, dsp.N_BINS))
    out, dx = _grad_of(ad.stft_graph, ad.Tensor(x.copy(), requires_grad=True), g)
    spec = np.fft.rfft(frames * WINDOW, n=WIN, axis=1)
    assert np.array_equal(out, np.stack([spec.real, spec.imag]))
    gseg = (np.fft.ifft(g[0] + 1j * g[1], n=WIN, axis=1) * WIN).real * WINDOW
    ref_dx = np.zeros(n)
    ref_dx[: (t + 1) * HOP] = loop_overlap_add(gseg)
    assert np.array_equal(dx, ref_dx)

    z = rng.standard_normal((2, t, dsp.N_BINS))
    g = rng.standard_normal((t + 1) * HOP)
    out, dz = _grad_of(ad.istft_graph, ad.Tensor(z.copy(), requires_grad=True), g)
    segs = np.fft.irfft(z[0] + 1j * z[1], n=WIN, axis=1) * WINDOW
    assert np.array_equal(out, loop_overlap_add(segs))
    delta = np.full(dsp.N_BINS, 2.0)
    delta[[0, -1]] = 1.0
    r = np.fft.rfft(loop_frames(g) * WINDOW, n=WIN, axis=1)
    assert np.array_equal(dz, np.stack([r.real, r.imag]) * (delta / WIN))


def test_stft_linearity():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 960))
    a, b = 1.7, -0.4
    lhs = stft(AudioClip(a * x + b * y)).data
    rhs = a * stft(AudioClip(x)).data + b * stft(AudioClip(y)).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_stft_causality_bit_exact():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1600)
    k = 3
    y = x.copy()
    y[k * 160 + 320 :] += rng.standard_normal(1600 - k * 160 - 320)
    a = stft(AudioClip(x)).data
    b = stft(AudioClip(y)).data
    assert np.array_equal(a[: k + 1], b[: k + 1])


def test_parseval_single_frame():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(320)
    spec = stft(AudioClip(x)).data[0]
    full = np.concatenate([spec, np.conj(spec[-2:0:-1])])
    time_energy = np.sum((x * WINDOW) ** 2)
    freq_energy = np.sum(np.abs(full) ** 2) / WIN
    np.testing.assert_allclose(time_energy, freq_energy, rtol=1e-9)


# -- istft ----------------------------------------------------------------

def test_istft_zero_frames():
    clip = istft(SpectralFrames(np.zeros((4, 161), dtype=complex)))
    assert np.all(clip.samples == 0)
    assert len(clip) == 3 * 160 + 320


def test_istft_bin_count_mismatch():
    with pytest.raises(ShapeError):
        istft(SpectralFrames(np.zeros((4, 100), dtype=complex)))


def test_istft_dc_only_frame():
    # inverse DFT of spectrum [320, 0, ..., 0] is a constant 1, then windowed
    spec = np.zeros((1, 161), dtype=complex)
    spec[0, 0] = 320.0
    clip = istft(SpectralFrames(spec))
    np.testing.assert_allclose(clip.samples, WINDOW, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_interior(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(16 * 160 + 320)
    y = istft(stft(AudioClip(x))).samples
    assert len(y) == len(x)
    interior = slice(320, len(x) - 320)
    assert np.max(np.abs(y[interior] - x[interior])) < 1e-6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_round_trip_interior_property(seed, n_hops):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_hops * 160 + 320)
    y = istft(stft(AudioClip(x))).samples
    interior = slice(320, len(x) - 320)
    if interior.stop > interior.start:
        assert np.max(np.abs(y[interior] - x[interior])) < 1e-6


# -- log power ------------------------------------------------------------

def test_log_power_unit_magnitude():
    spec = SpectralFrames(np.full((3, 161), 1.0 + 0j))
    feats = log_power(spec)
    assert feats.shape == (1, 3, 161)
    np.testing.assert_allclose(feats, 0.0, atol=1e-11)


def test_log_power_floor_at_zero():
    feats = log_power(SpectralFrames(np.zeros((2, 161), dtype=complex)))
    np.testing.assert_allclose(feats, np.log(1e-12))
    assert np.all(np.isfinite(feats))


def test_log_power_magnitude_e():
    spec = SpectralFrames(np.full((1, 161), np.e + 0j))
    np.testing.assert_allclose(log_power(spec), 2.0, atol=1e-9)


# -- streaming framer -----------------------------------------------------

def test_streaming_framer_matches_batch():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2000)
    framer = StreamingFramer()
    got = []
    for start in range(0, 2000, 37):
        got.extend(framer.push(x[start : start + 37]))
    batch = loop_frames(x)
    assert len(got) == len(batch)
    assert np.array_equal(np.asarray(got), batch)


@pytest.mark.parametrize("seed", range(4))
def test_streaming_framer_random_chunkings_of_a_pair(seed):
    """Any chunking of a stacked (2, n) pair gives the loop framing of each
    row, including chunks of 0 samples and a ragged end."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 3000))
    pair = rng.standard_normal((2, n))
    framer = StreamingFramer()
    got, pos = [], 0
    while pos < n:
        step = int(rng.integers(0, 700))
        frames = framer.push(pair[:, pos : pos + step])
        assert frames.shape[::2] == (2, WIN)
        got.append(frames)
        pos += step
    got = np.concatenate(got, axis=1) if got else np.zeros((2, 0, WIN))
    for row in range(2):
        assert np.array_equal(got[row], loop_frames(pair[row]))


# -- wav io ---------------------------------------------------------------

def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    x = np.clip(rng.standard_normal(4000) * 0.1, -1, 0.99)
    path = tmp_path / "clip.wav"
    dsp.write_wav(path, AudioClip(x))
    back = dsp.read_wav(path)
    assert len(back) == 4000
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768.0


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(b"\x00" * 64)
    with pytest.raises(ConfigurationError):
        dsp.read_wav(path)


def test_wav_rejects_8khz(tmp_path):
    """Audio at another rate cannot enter: the reader refuses the file."""
    path = tmp_path / "8k.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(dsp.float_to_pcm(np.zeros(800)))
    with pytest.raises(ConfigurationError, match="16000 Hz"):
        dsp.read_wav(path)
    with pytest.raises(ConfigurationError):
        dsp.open_wav(path)


# -- FFT convolution, no scipy at runtime -----------------------------------------

@pytest.mark.parametrize("n_a,n_b,mode", [
    (48159, 32000, "valid"),   # the online estimator's re-anchor
    (160000, 16000, "full"),   # a 10 s clip through the longest room response
    (64000, 800, "full"),      # a 4 s clip through the shortest
    (3000, 5000, "valid"),
    (1000, 17, "full"),
    (1, 1, "full"), (1, 2, "full"), (2, 1, "full"), (2, 2, "full"), (2, 9, "full"),
    (1, 1, "valid"), (1, 2, "valid"), (2, 1, "valid"), (2, 2, "valid"), (9, 2, "valid"),
])
def test_fftconvolve_matches_scipy(n_a, n_b, mode):
    from scipy.signal import fftconvolve as ref_conv

    rng = np.random.default_rng(n_a + 7 * n_b)
    a, b = rng.standard_normal(n_a), rng.standard_normal(n_b)
    ref = ref_conv(a, b, mode=mode)
    got = dsp.fftconvolve(a, b, mode)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fft_length_is_five_smooth():
    from scipy.fft import next_fast_len

    assert all(dsp._fast_len(n) == next_fast_len(n, real=True) for n in range(1, 5000))


def test_fftconvolve_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        dsp.fftconvolve(np.ones(4), np.ones(3), "same")


def test_package_imports_without_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import aligncruse

    src = str(Path(aligncruse.__file__).resolve().parents[1])
    code = (
        "import importlib, pkgutil, sys, aligncruse\n"
        "for m in pkgutil.iter_modules(aligncruse.__path__):\n"
        "    importlib.import_module('aligncruse.' + m.name)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
