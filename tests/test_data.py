import json
import math

import numpy as np
import pytest

from aligncruse import data, dsp
from aligncruse.alignment import global_delay
from aligncruse.data import (
    ScenarioConfig,
    child_seed,
    ld_scenario_config,
    make_ld_set,
    make_rir,
    read_manifest,
    speech_surrogate,
    synth_scenario,
)
from aligncruse.errors import ConfigurationError


# -- rir -----------------------------------------------------------------------

def test_rir_length_and_energy():
    rir = make_rir(0.1, np.random.default_rng(0))
    assert len(rir) == 1600
    np.testing.assert_allclose(np.sum(rir**2), 1.0, atol=1e-9)


def test_rir_envelope_decay_60db():
    # deterministic part of the construction: envelope at n = rt60 * fs
    rt60 = 0.1
    n = rt60 * 16000
    env = math.exp(-3.0 * math.log(10.0) * n / (rt60 * 16000))
    assert abs(20 * math.log10(env) - (-60.0)) < 1e-9


def test_rir_direct_tap_positive():
    for seed in range(5):
        rir = make_rir(0.2, np.random.default_rng(seed))
        assert rir[0] > 0


def test_rir_convolution_with_impulse():
    rir = make_rir(0.05, np.random.default_rng(3))
    x = np.zeros(2000)
    x[0] = 1.0
    out = data._convolve(x, rir)
    np.testing.assert_allclose(out[: len(rir)], rir, atol=1e-12)


def test_rir_range_validation():
    with pytest.raises(ConfigurationError):
        make_rir(0.01, np.random.default_rng(0))


# -- scenario -----------------------------------------------------------------

def degenerate_cfg(seed=7):
    return ScenarioConfig(
        delay_range=(0.0, 0.0),
        ser_range=None,
        snr_range=None,
        rir_decay=None,
        nonlinearity="none",
        clip_len=2.0,
        seed=seed,
    )


def test_degenerate_scenario_mic_is_near_plus_far():
    sc = synth_scenario(degenerate_cfg())
    np.testing.assert_array_equal(sc.mic.samples, sc.near.samples + sc.far.samples)


def test_scenario_determinism_bitwise():
    cfg = ScenarioConfig(clip_len=2.0, seed=41)
    a = synth_scenario(cfg)
    b = synth_scenario(ScenarioConfig(clip_len=2.0, seed=41))
    assert np.array_equal(a.mic.samples, b.mic.samples)
    assert np.array_equal(a.far.samples, b.far.samples)
    assert a.delay == b.delay


def test_scenario_delay_in_configured_range():
    for i in range(20):
        cfg = ScenarioConfig(delay_range=data.LD_M_RANGE, clip_len=2.0, seed=i)
        sc = synth_scenario(cfg)
        assert 0.3 <= sc.delay / 16000 <= 0.5


def test_scenario_mixing_ratios_match_draws():
    cfg = ScenarioConfig(delay_range=(0.0, 0.1), ser_range=(-6.0, 6.0),
                         snr_range=(5.0, 30.0), clip_len=2.0, seed=9)
    sc = synth_scenario(cfg)
    meta = sc.metadata
    scale = meta["norm_scale"]
    near = sc.near.samples / scale
    # reconstruct echo-plus-noise from components
    residual = sc.mic.samples / scale - near
    # regenerate noise-free version to split: instead verify via energies logged
    # SER check: energy ratio between near and echo
    delayed = np.concatenate([np.zeros(sc.delay), sc.far.samples[: len(sc.far) - sc.delay]])
    echo = data._convolve(delayed, sc.rir)
    ser_scale = math.sqrt(np.sum(near**2) / (np.sum(echo**2) * 10 ** (meta["ser_db"] / 10)))
    echo = echo * ser_scale
    measured_ser = 10 * math.log10(np.sum(near**2) / np.sum(echo**2))
    assert abs(measured_ser - meta["ser_db"]) < 0.1
    noise = residual - echo
    measured_snr = 10 * math.log10(np.sum((near + echo) ** 2) / np.sum(noise**2))
    assert abs(measured_snr - meta["snr_db"]) < 0.1


def test_scenario_peak_bounded():
    cfg = ScenarioConfig(ser_range=(-20.0, -15.0), snr_range=(0.0, 5.0), clip_len=1.0, seed=3)
    sc = synth_scenario(cfg)
    assert np.max(np.abs(sc.mic.samples)) <= 1.0


def test_scenario_delay_ground_truth_recoverable():
    cfg = ScenarioConfig(delay_range=(0.2, 0.4), ser_range=None, snr_range=None,
                         rir_decay=None, clip_len=3.0, near_active=False, seed=17)
    sc = synth_scenario(cfg)
    est = global_delay(sc.mic, sc.far, max_delay=8000)
    assert est.delay == sc.delay


def test_scenario_nonlinearities_run():
    for kind in ("hard-clip", "tanh-gain"):
        cfg = ScenarioConfig(nonlinearity=kind, clip_len=1.0, seed=5)
        sc = synth_scenario(cfg)
        assert np.all(np.isfinite(sc.mic.samples))


def test_invalid_delay_range():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(delay_range=(0.5, 0.2))
    with pytest.raises(ConfigurationError):
        ScenarioConfig(delay_range=(0.0, 1.5))


# -- LD sets --------------------------------------------------------------------

def test_ld_h_delays_in_range(tmp_path):
    rows = make_ld_set("ld-h", 6, seed=11, out_dir=tmp_path, clip_len=2.5)
    for row in rows:
        assert 0.5 <= row["delay_samples"] / 16000 <= 1.0


def test_ld_m_counts_and_manifest(tmp_path):
    rows = make_ld_set("m", 5, seed=1, out_dir=tmp_path, clip_len=2.0)
    assert len(rows) == 5
    manifest = read_manifest(tmp_path / "manifest.jsonl")
    assert manifest == rows
    for row in manifest:
        for key in ("id", "mic_path", "far_path", "target_path", "delay_samples",
                    "ser_db", "snr_db", "rt60_s", "nonlinearity", "seed"):
            assert key in row


def test_ld_targets_silent(tmp_path):
    rows = make_ld_set("m", 2, seed=2, out_dir=tmp_path, clip_len=2.0)
    for row in rows:
        clip = dsp.read_wav(tmp_path / row["target_path"])
        assert np.all(clip.samples == 0)


def test_ld_regeneration_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    make_ld_set("h", 3, seed=77, out_dir=d1, clip_len=2.0)
    make_ld_set("h", 3, seed=77, out_dir=d2, clip_len=2.0)
    for p1 in sorted(d1.iterdir()):
        p2 = d2 / p1.name
        assert p1.read_bytes() == p2.read_bytes()


def test_child_seed_stable():
    assert child_seed(5, 0) == child_seed(5, 0)
    assert child_seed(5, 0) != child_seed(5, 1)


def test_surrogate_deterministic_and_bounded():
    a = speech_surrogate(16000, np.random.default_rng(3))
    b = speech_surrogate(16000, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= 1.0
