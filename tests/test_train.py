from dataclasses import replace

import numpy as np
import pytest

from aligncruse import autodiff as ad
from aligncruse.autodiff import Tensor
from aligncruse.data import ScenarioConfig, child_seed, synth_scenario
from aligncruse.dsp import HOP, N_BINS, WIN, WINDOW, AudioClip
from aligncruse.errors import ConfigurationError, NumericsError
from aligncruse.model import ModelConfig, init_params
from aligncruse.params_io import load_params, save_params
from aligncruse.train import (
    AdamState,
    LossConfig,
    OptimConfig,
    adam_step,
    clip_loss,
    loss_ccmse,
    train_loop,
    validate,
)

MICRO = ModelConfig(mic_channels=(2, 3, 4, 2), far_channels=(1, 2),
                    dec_channels=(3, 4, 4), align_proj=4, d_max=8, gru_channels=2)


def micro_scenarios(n, seed=0, clip_len=0.6, near_active=True):
    out = []
    for i in range(n):
        cfg = ScenarioConfig(delay_range=(0.0, 0.05), clip_len=clip_len,
                             near_active=near_active, seed=child_seed(seed, i))
        out.append(synth_scenario(cfg))
    return out


# -- loss -------------------------------------------------------------------------

def test_loss_zero_for_equal_signals():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3 * 160 + 320) * 0.1
    loss = loss_ccmse(Tensor(x), AudioClip(x), LossConfig())
    assert float(loss.data) == 0.0


def test_loss_hand_example_unit_vs_zero():
    # |S| = 0, |S_hat| = 1 everywhere -> both terms are exactly 1 at any blend
    rng = np.random.default_rng(1)
    phases = rng.uniform(0, 2 * np.pi, size=(4, 9))
    hat = np.stack([np.cos(phases), np.sin(phases)])
    ref = np.zeros_like(hat)
    for beta in (0.0, 0.3, 0.7, 1.0):
        loss = ad.ccmse_loss(Tensor(hat), ref, 0.3, beta)
        assert abs(float(loss.data) - 1.0) < 1e-12


def test_loss_nonnegative_property():
    rng = np.random.default_rng(2)
    for seed in range(5):
        hat = rng.standard_normal((2, 3, 7))
        ref = rng.standard_normal((2, 3, 7))
        loss = ad.ccmse_loss(Tensor(hat), ref, 0.3, 0.7)
        assert float(loss.data) >= 0.0


def test_loss_permutation_invariant():
    rng = np.random.default_rng(3)
    hat = rng.standard_normal((2, 4, 6))
    ref = rng.standard_normal((2, 4, 6))
    base = float(ad.ccmse_loss(Tensor(hat), ref, 0.3, 0.7).data)
    perm = rng.permutation(24)
    hat_p = hat.reshape(2, -1)[:, perm].reshape(2, 4, 6)
    ref_p = ref.reshape(2, -1)[:, perm].reshape(2, 4, 6)
    permuted = float(ad.ccmse_loss(Tensor(hat_p), ref_p, 0.3, 0.7).data)
    assert abs(base - permuted) < 1e-12


def test_loss_gradient_through_consistency_chain():
    # mask -> masked spectrum -> synthesis -> analysis -> loss, vs finite
    # diff at every coordinate of the mask
    rng = np.random.default_rng(4)
    t = 3
    spec_const = rng.standard_normal((2, t, N_BINS))
    target = rng.standard_normal((t - 1) * HOP + WIN) * 0.5
    # reference from the target waveform via the same analysis
    idx = HOP * np.arange(t)[:, None] + np.arange(WIN)[None, :]
    s = np.fft.rfft(target[idx] * WINDOW, n=WIN, axis=1)
    ref = np.stack([s.real, s.imag])

    def chain(mask):
        masked = ad.mul(Tensor(spec_const), mask)
        wave = ad.istft_graph(masked)
        spec_hat = ad.stft_graph(wave)
        return ad.ccmse_loss(spec_hat, ref, 0.3, 0.7)

    mask0 = rng.uniform(0.2, 1.0, size=(t, N_BINS))
    err = ad.grad_check(chain, [mask0])
    assert err < 1e-3


def test_loss_config_validation():
    with pytest.raises(ConfigurationError):
        LossConfig(compression=0.0)
    with pytest.raises(ConfigurationError):
        LossConfig(blend=1.5)


def test_clip_loss_builds_graph_both_archs():
    sc = micro_scenarios(1, seed=11)[0]
    for arch in ("align", "cruse"):
        store = init_params(MICRO, seed=1, arch=arch)
        loss, aux = clip_loss(store, sc, LossConfig())
        assert float(loss.data) > 0
        ad.backward(loss)
        assert store["mic1.w"].grad is not None


def test_validate_both_archs():
    val_set = micro_scenarios(2, seed=12)
    cruse = validate(init_params(MICRO, seed=1, arch="cruse"), val_set)
    assert np.isfinite(cruse["val_erle_db"])
    assert cruse["align_top1"] is None
    align = validate(init_params(MICRO, seed=1), val_set)
    assert np.isfinite(align["val_erle_db"])
    assert 0.0 <= align["align_top1"] <= 1.0


# -- adam --------------------------------------------------------------------------

def _scalar_store():
    cfg = MICRO
    store = init_params(cfg, seed=0, arch="cruse")
    return store


def test_adam_first_step_closed_form():
    store = _scalar_store()
    state = AdamState()
    cfg = OptimConfig(lr=1.5e-4, weight_decay=0.0, batch=1, epochs=1, grad_clip_norm=0.0)
    theta = store["mask.gain"]
    theta.data = np.array([1.0])
    grads = {n: np.zeros_like(t.data) for n, t in store.trainable()}
    grads["mask.gain"] = np.array([1.0])
    adam_step(store, state, cfg, grads=grads)
    expect = 1.0 - 1.5e-4 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(theta.data, [expect], rtol=1e-12)


def test_adam_zero_grad_is_identity():
    store = _scalar_store()
    before = {n: t.data.copy() for n, t in store.trainable()}
    state = AdamState()
    cfg = OptimConfig(lr=1e-3, weight_decay=0.0, batch=1, epochs=1)
    grads = {n: np.zeros_like(t.data) for n, t in store.trainable()}
    adam_step(store, state, cfg, grads=grads)
    for n, t in store.trainable():
        np.testing.assert_array_equal(t.data, before[n])


def test_adam_nan_grad_skips_step():
    store = _scalar_store()
    before = {n: t.data.copy() for n, t in store.trainable()}
    state = AdamState()
    grads = {n: np.zeros_like(t.data) for n, t in store.trainable()}
    grads["mask.gain"] = np.array([np.nan])
    out = adam_step(store, state, OptimConfig(batch=1, epochs=1), grads=grads)
    assert out["skipped"]
    assert state.skipped == 1
    assert state.step == 0
    for n, t in store.trainable():
        np.testing.assert_array_equal(t.data, before[n])


def test_adam_gradient_clipping():
    store = _scalar_store()
    state = AdamState()
    cfg = OptimConfig(lr=1.0, weight_decay=0.0, grad_clip_norm=5.0, batch=1, epochs=1)
    grads = {n: np.zeros_like(t.data) for n, t in store.trainable()}
    grads["mask.gain"] = np.array([100.0])
    out = adam_step(store, state, cfg, grads=grads)
    assert out["grad_norm"] == pytest.approx(100.0)
    # post-clip effective gradient is 5.0; the parameter moved by lr * 1
    assert np.all(np.isfinite(store["mask.gain"].data))


def test_optim_linear_scaling():
    cfg = OptimConfig.linear_scaled(batch=16, epochs=3)
    assert cfg.lr == pytest.approx(1.5e-4 * 16 / 400)


# -- loop ------------------------------------------------------------------------------

def _provider(n=6, seed=5):
    clips = micro_scenarios(n, seed=seed)

    def provider(epoch):
        return clips

    return provider


def test_train_loop_runs_and_logs(tmp_path):
    store = init_params(MICRO, seed=2)
    optim = OptimConfig(lr=1e-3, batch=3, epochs=2)
    hist = train_loop(_provider(), store, optim, LossConfig(),
                      seed=1, out_dir=tmp_path)
    assert len(hist) == 2
    assert (tmp_path / "metrics.jsonl").exists()
    assert (tmp_path / "ckpt_epoch001.acrs").exists()
    import json

    rows = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert {"epoch", "loss", "val_erle_db", "align_top1", "wall_s"} <= set(rows[0])


def test_train_zero_lr_freezes_parameters():
    store = init_params(MICRO, seed=3)
    before = {n: t.data.copy() for n, t in store.trainable()}
    optim = OptimConfig(lr=0.0, weight_decay=5e-6, batch=3, epochs=2)
    hist = train_loop(_provider(), store, optim, LossConfig(), seed=2)
    for n, t in store.trainable():
        np.testing.assert_array_equal(t.data, before[n])
    assert hist[0]["loss"] == pytest.approx(hist[1]["loss"])


def test_store_copy_is_independent():
    """Training a copy (a train-mode forward that moves the running
    statistics, a backward and an Adam step) leaves the original's tensors
    and gradients untouched, so a rerun from the original is bit-identical."""
    store = init_params(MICRO, seed=6)
    before = {n: t.data.copy() for n, t in store.tensors.items()}
    copy = store.copy()
    assert list(copy.tensors) == list(store.tensors)
    assert [n for n, _ in copy.trainable()] == [n for n, _ in store.trainable()]
    loss, _ = clip_loss(copy, micro_scenarios(1, seed=4)[0], LossConfig())
    ad.backward(loss)
    adam_step(copy, AdamState(), OptimConfig(lr=1e-3, batch=1))
    for name, t in store.tensors.items():
        assert np.array_equal(t.data, before[name]), name
        assert t.grad is None, name
    moved = [n for n, t in copy.tensors.items() if not np.array_equal(t.data, before[n])]
    assert "enc3.bn.running_var" in moved and "gru.wih" in moved


def test_train_determinism_bitwise(tmp_path):
    outs = []
    for run in range(2):
        store = init_params(MICRO, seed=4)
        optim = OptimConfig(lr=1e-3, batch=2, epochs=2)
        train_loop(_provider(4, seed=9), store, optim, LossConfig(), seed=3,
                   out_dir=tmp_path / f"run{run}")
        outs.append((tmp_path / f"run{run}" / "latest.acrs").read_bytes())
    assert outs[0] == outs[1]


def test_train_resume_bit_identical(tmp_path):
    provider = _provider(4, seed=13)
    optim4 = OptimConfig(lr=1e-3, batch=2, epochs=4)

    store_full = init_params(MICRO, seed=5)
    train_loop(provider, store_full, optim4, LossConfig(), seed=4, out_dir=tmp_path / "full")

    store_half = init_params(MICRO, seed=5)
    optim2 = OptimConfig(lr=1e-3, batch=2, epochs=2)
    train_loop(provider, store_half, optim2, LossConfig(), seed=4, out_dir=tmp_path / "half")
    store_res = init_params(MICRO, seed=5)
    train_loop(provider, store_res, optim4, LossConfig(), seed=4, out_dir=tmp_path / "resumed",
               resume_from=tmp_path / "half" / "latest.acrs")

    full, _ = load_params(tmp_path / "full" / "latest.acrs")
    resumed, _ = load_params(tmp_path / "resumed" / "latest.acrs")
    for name in full.tensors:
        assert np.array_equal(full[name].data, resumed[name].data), name


@pytest.mark.parametrize("other", ["d_max", "arch"])
def test_train_resume_rejects_checkpoint_of_another_model(tmp_path, other):
    """Resuming from a checkpoint built for another configuration or
    architecture raises before any of its tensors reach the store."""
    ckpt = tmp_path / "other.acrs"
    if other == "d_max":
        saved = init_params(replace(MICRO, d_max=5), seed=7)
    else:
        saved = init_params(MICRO, seed=7, arch="cruse")
    save_params(ckpt, saved, extra={"epoch": np.array([0.0])})
    store = init_params(MICRO, seed=7)
    tensors = store.tensors
    with pytest.raises(ConfigurationError):
        train_loop(_provider(2), store, OptimConfig(lr=1e-3, batch=2, epochs=2), LossConfig(),
                   resume_from=ckpt)
    assert store.tensors is tensors


def test_train_divergence_aborts():
    store = init_params(MICRO, seed=6)
    # absurd lr forces the loss to blow up
    optim = OptimConfig(lr=50.0, weight_decay=0.0, batch=3, epochs=12, grad_clip_norm=0.0)
    with pytest.raises(NumericsError):
        train_loop(_provider(3, seed=21), store, optim, LossConfig(), seed=5)
