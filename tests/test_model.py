import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from aligncruse import autodiff as ad
from aligncruse import dsp
from aligncruse import model as model_mod
from aligncruse.autodiff import Tensor
from aligncruse.data import ScenarioConfig, ld_scenario_config, synth_scenario
from aligncruse.dsp import WIN, AudioClip, SpectralFrames
from aligncruse.errors import ConfigurationError, ContractViolationError, ShapeError
from aligncruse.model import (
    ALIGN_POOL,
    BLOCK,
    BN_LAYERS,
    CAUSAL_DECAY,
    CONV_KERNEL,
    DEC_KERNEL_F,
    ENC_BLOCKS,
    ENC_FREQS,
    STRIDE_F,
    AlignState,
    DelayDistribution,
    ModelConfig,
    StreamingEnhancer,
    align_block,
    apply_mask,
    enhance,
    forward,
    init_params,
    param_count,
    param_shapes,
    skip_block,
)

TINY = ModelConfig.tiny()


def tiny_store(seed=0, arch="align"):
    return init_params(TINY, seed=seed, arch=arch)


def rand_feats(t, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((channels, t, 161))


# -- config ---------------------------------------------------------------------

def test_frequency_chain():
    """ENC_FREQS holds the widths the encoder convs produce from N_BINS, and
    the transposed convs walk them back up; the alignment pools ENC_FREQS[2]."""
    x = Tensor(np.zeros((1, 1, dsp.N_BINS)))
    widths = [x.shape[2]]
    for _ in range(4):
        x = ad.conv2d_causal(x, Tensor(np.zeros((1, 1, *CONV_KERNEL))), stride_f=STRIDE_F)
        widths.append(x.shape[2])
    assert tuple(widths) == ENC_FREQS == (161, 81, 41, 21, 11)
    for f in reversed(ENC_FREQS[:-1]):
        x = ad.conv2d_transpose(x, Tensor(np.zeros((1, 1, 1, DEC_KERNEL_F))), stride_f=STRIDE_F)
        assert x.shape[2] == f
    cfg = ModelConfig()
    assert cfg.bottleneck == 352
    pooled = ad.max_pool_freq(Tensor(np.zeros((1, 1, ENC_FREQS[2]))), ALIGN_POOL)
    assert pooled.shape[2] == cfg.align_bins == 10


def test_config_holds_only_sizes():
    assert [f.name for f in fields(ModelConfig)] == [
        "mic_channels", "far_channels", "dec_channels", "align_proj", "d_max", "gru_channels"]
    assert ModelConfig().scaled(0.5) == ModelConfig(
        mic_channels=(8, 20, 36, 16), far_channels=(4, 12), dec_channels=(16, 24, 24),
        gru_channels=14)


def test_tiny_preset():
    assert TINY.mic_channels == (4, 10, 18, 8)
    assert TINY.far_channels == (2, 6)
    assert TINY.dec_channels == (8, 12, 12)
    assert TINY.d_max == 50
    assert TINY.align_proj == 16
    assert TINY.bottleneck == 88


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(d_max=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(mic_channels=(4, 5))


@pytest.mark.parametrize("field, value", [
    ("mic_channels", (0, 40, 72, 32)),
    ("far_channels", (8, -3)),
    ("dec_channels", (32, 48, 4.0)),
    ("mic_channels", 16),
    ("mic_channels", [4, 10, 18, 8]),  # a list config would never equal a loaded one
    ("gru_channels", 0),
    ("gru_channels", True),
    ("align_proj", 2.5),
    ("align_proj", -1),
    ("d_max", np.float64(50.0)),
])
def test_config_rejects_bad_sizes(field, value):
    """Each size must be an int >= 1; a bad one is a ConfigurationError
    here, not an OverflowError, ValueError or TypeError in init_params."""
    with pytest.raises(ConfigurationError):
        replace(ModelConfig.tiny(), **{field: value})


def test_config_accepts_numpy_ints():
    cfg = ModelConfig(d_max=np.int64(7), align_proj=np.int32(3))
    assert init_params(cfg).param_count() == param_count(cfg)


# -- parameter budget --------------------------------------------------------------

def test_param_count_default_in_band():
    n = param_count(ModelConfig())
    assert 700_000 <= n <= 800_000


def test_param_delta_is_align_projections():
    cfg = ModelConfig()
    delta = param_count(cfg, "align") - param_count(cfg, "cruse")
    assert 5_000 <= delta <= 20_000
    mic_dim = cfg.mic_channels[1] * cfg.align_bins
    far_dim = cfg.far_channels[1] * cfg.align_bins
    proj = (mic_dim + far_dim) * cfg.align_proj + 2 * cfg.align_proj
    assert delta == proj


def test_no_bias_feeds_batch_norm():
    for arch in ("align", "cruse"):
        shapes = param_shapes(TINY, arch)
        assert not [n for n in shapes if n.endswith(".b") and n[:-2] in BN_LAYERS]
        assert {n for n in shapes if n.endswith(".b")} == {
            "gru.b", "skip1.b", "skip2.b", "skip3.b", "skip4.b", "mask.b"}


def test_param_count_matches_store():
    store = tiny_store()
    assert store.param_count() == param_count(TINY, "align")
    assert store.param_count() == sum(int(np.prod(s)) for s in param_shapes(TINY).values())


def test_init_deterministic():
    a, b = tiny_store(seed=3), tiny_store(seed=3)
    for name in a.tensors:
        assert np.array_equal(a[name].data, b[name].data)


# -- skip block ----------------------------------------------------------------------

def test_skip_zero_conv_passes_decoder():
    enc = Tensor(np.random.default_rng(0).standard_normal((3, 4, 5)))
    dec = Tensor(np.random.default_rng(1).standard_normal((2, 4, 5)))
    out = skip_block(enc, dec, Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, dec.data)


def test_skip_identity_conv_passes_encoder():
    enc = Tensor(np.random.default_rng(2).standard_normal((3, 4, 5)))
    dec = Tensor(np.zeros((3, 4, 5)))
    out = skip_block(enc, dec, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, enc.data, atol=1e-15)


def test_skip_matches_affine_oracle():
    rng = np.random.default_rng(3)
    enc, dec = rng.standard_normal((4, 3, 6)), rng.standard_normal((2, 3, 6))
    w, b = rng.standard_normal((2, 4)), rng.standard_normal(2)
    out = skip_block(Tensor(enc), Tensor(dec), Tensor(w), Tensor(b)).data
    expect = np.einsum("oc,ctf->otf", w, enc) + b[:, None, None] + dec
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_skip_shape_mismatch():
    with pytest.raises(ShapeError):
        skip_block(Tensor(np.zeros((3, 4, 5))), Tensor(np.zeros((2, 4, 6))),
                   Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


# -- align block -----------------------------------------------------------------------

def _identity_proj_store():
    cfg = ModelConfig(mic_channels=(2, 4, 6, 2), far_channels=(2, 3),
                      dec_channels=(4, 5, 5), align_proj=30, d_max=12, gru_channels=2)
    store = init_params(cfg, seed=1)
    wq = np.zeros((40, 30))
    wq[:30, :30] = np.eye(30)
    store.tensors["align.wq"] = Tensor(wq, requires_grad=True)
    store.tensors["align.wk"] = Tensor(np.eye(30), requires_grad=True)
    store.tensors["align.bq"] = Tensor(np.zeros(30), requires_grad=True)
    store.tensors["align.bk"] = Tensor(np.zeros(30), requires_grad=True)
    return cfg, store


@pytest.mark.parametrize("d0", [0, 3, 7])
def test_align_recovers_shift_with_identity_projections(d0):
    cfg, store = _identity_proj_store()
    rng = np.random.default_rng(42)
    t = 30
    base = rng.standard_normal((3, t, 41))
    x_far = base
    x_mic = np.zeros((4, t, 41))
    x_mic[:3, d0:, :] = base[:, : t - d0, :]  # mic's shared channels lag far by d0
    x_mic[3] = rng.standard_normal((t, 41)) * 0.01
    _, dist = align_block(Tensor(x_mic), Tensor(x_far), store)
    assert int(np.argmax(dist.data)) == d0


def test_align_equivariance_plus_one_frame():
    cfg, store = _identity_proj_store()
    rng = np.random.default_rng(43)
    t = 30
    base = rng.standard_normal((3, t, 41))
    for d0 in (4, 5):
        x_far = base
        x_mic = np.zeros((4, t, 41))
        x_mic[:3, d0:, :] = base[:, : t - d0, :]
        _, dist = align_block(Tensor(x_mic), Tensor(x_far), store)
        assert int(np.argmax(dist.data)) == d0


def test_align_matches_bruteforce_weighted_sum():
    store = tiny_store(seed=5)
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = int(rng.integers(8, 20))
        x_mic = rng.standard_normal((TINY.mic_channels[1], t, 41))
        x_far = rng.standard_normal((TINY.far_channels[1], t, 41))
        aligned, dist = align_block(Tensor(x_mic), Tensor(x_far), store)
        d = dist.data
        expect = np.zeros_like(x_far)
        for lag in range(TINY.d_max):
            for i in range(t):
                if i - lag >= 0:
                    expect[:, i, :] += d[lag] * x_far[:, i - lag, :]
        np.testing.assert_allclose(aligned.data, expect, atol=1e-10)


def test_align_distribution_normalized_both_modes():
    store = tiny_store(seed=7)
    rng = np.random.default_rng(8)
    x_mic = rng.standard_normal((TINY.mic_channels[1], 12, 41))
    x_far = rng.standard_normal((TINY.far_channels[1], 12, 41))
    _, d_utt = align_block(Tensor(x_mic), Tensor(x_far), store, mode="utterance")
    assert abs(d_utt.data.sum() - 1) < 1e-6
    _, d_causal = align_block(Tensor(x_mic), Tensor(x_far), store, mode="causal")
    assert d_causal.mode == "per-frame"
    np.testing.assert_allclose(d_causal.probs.sum(axis=1), 1.0, atol=1e-6)


def test_align_shape_checks():
    store = tiny_store()
    with pytest.raises(ShapeError):
        align_block(Tensor(np.zeros((10, 5, 41))), Tensor(np.zeros((6, 4, 41))), store)


# -- forward -----------------------------------------------------------------------

@pytest.mark.parametrize("t", [1, 2, 9])
def test_forward_mask_shape_contract(t):
    store = tiny_store()
    mask, dist = forward(store, rand_feats(t, 1), rand_feats(t, 2), mode="infer")
    assert mask.data.shape == (1, t, 161)
    assert dist.probs.shape == (TINY.d_max,)


def test_forward_mask_bounds():
    store = tiny_store(seed=11)
    gain = float(store["mask.gain"].data[0])
    mask, _ = forward(store, rand_feats(30, 3), rand_feats(30, 4), mode="infer")
    assert np.all(mask.data >= 0)
    assert np.all(mask.data <= gain)
    assert gain > 0 and np.isfinite(gain)


def test_forward_zero_inputs_constant_mask():
    # the convs have no bias and fresh init zeroes every other bias, so zero
    # features propagate as zeros and the mask is exactly gain * sigmoid(0)
    store = tiny_store(seed=12)
    zeros = np.zeros((1, 6, 161))
    mask, _ = forward(store, zeros, zeros, mode="infer")
    np.testing.assert_allclose(mask.data, 0.5, atol=1e-12)


def test_forward_bias_only_pathway_hand_traced():
    store = tiny_store(seed=13)
    store.tensors["mask.b"] = Tensor(np.array([0.7]), requires_grad=True)
    store.tensors["mask.gain"] = Tensor(np.array([1.3]), requires_grad=True)
    zeros = np.zeros((1, 4, 161))
    mask, _ = forward(store, zeros, zeros, mode="infer")
    expect = 1.3 / (1.0 + np.exp(-0.7))
    np.testing.assert_allclose(mask.data, expect, atol=1e-12)


def test_forward_shape_mismatch():
    store = tiny_store()
    with pytest.raises(ShapeError):
        forward(store, rand_feats(4), rand_feats(5))


# -- cruse ---------------------------------------------------------------------------

def test_cruse_mask_shape():
    store = tiny_store(arch="cruse")
    stacked = rand_feats(7, seed=20, channels=2)
    mask, dist = forward(store, stacked[:1], stacked[1:], mode="infer")
    assert mask.data.shape == (1, 7, 161)
    assert dist is None


def test_cruse_gradcheck_end_to_end():
    cfg = ModelConfig(mic_channels=(2, 3, 4, 2), far_channels=(1, 2),
                      dec_channels=(3, 4, 4), align_proj=4, d_max=5, gru_channels=2)
    store = init_params(cfg, seed=2, arch="cruse")
    feats = np.random.default_rng(0).standard_normal((2, 4, 161)) * 0.5
    mic, far = feats[:1], feats[1:]

    def loss_of():
        mask, _ = forward(store, mic, far, mode="infer")
        return ad.mul(ad.sum_all(ad.mul(mask, mask)), Tensor(np.asarray(1.0 / mask.size)))

    loss = loss_of()
    ad.backward(loss)
    # spot-check a few parameters with central differences
    rng = np.random.default_rng(1)
    worst = 0.0
    for name in ("mic1.w", "gru.whh", "mask.w", "skip2.w", "skip2.b"):
        tensor = store[name]
        flat = tensor.data.reshape(-1)
        grad = tensor.grad.reshape(-1)
        for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[j]
            eps = 1e-5
            flat[j] = orig + eps
            with ad.no_grad():
                fp = float(forward(store, mic, far, mode="infer")[0].data.__pow__(2).mean())
            flat[j] = orig - eps
            with ad.no_grad():
                fm = float(forward(store, mic, far, mode="infer")[0].data.__pow__(2).mean())
            flat[j] = orig
            num = (fp - fm) / (2 * eps)
            worst = max(worst, abs(num - grad[j]) / max(1.0, abs(num), abs(grad[j])))
    assert worst < 1e-3


# -- apply_mask -------------------------------------------------------------------------

def _rand_spec(t=4, seed=0):
    rng = np.random.default_rng(seed)
    return SpectralFrames(rng.standard_normal((t, 161)) + 1j * rng.standard_normal((t, 161)))


def test_apply_mask_identity():
    spec = _rand_spec()
    out = apply_mask(np.ones((1, 4, 161)), spec)
    np.testing.assert_array_equal(out.data, spec.data)


def test_apply_mask_zero():
    out = apply_mask(np.zeros((1, 4, 161)), _rand_spec())
    assert np.all(out.data == 0)


def test_apply_mask_polar_oracle():
    spec = _rand_spec(seed=5)
    rng = np.random.default_rng(6)
    mask = rng.uniform(0, 2, size=(4, 161))
    out = apply_mask(mask, spec)
    np.testing.assert_allclose(np.abs(out.data), mask * np.abs(spec.data), atol=1e-12)
    nz = np.abs(spec.data) > 0
    np.testing.assert_allclose(np.angle(out.data)[nz & (mask > 0)],
                               np.angle(spec.data)[nz & (mask > 0)], atol=1e-12)


def test_apply_mask_negative_rejected():
    mask = np.ones((1, 4, 161))
    mask[0, 0, 0] = -0.1
    with pytest.raises(ContractViolationError):
        apply_mask(mask, _rand_spec())


# -- enhance ------------------------------------------------------------------------------

def _scenario_pair(seed=0, seconds=1.2):
    cfg = ScenarioConfig(delay_range=(0.0, 0.2), clip_len=seconds, seed=seed)
    sc = synth_scenario(cfg)
    return sc.mic, sc.far


def test_enhance_identity_mask_is_istft_of_stft():
    mic, far = _scenario_pair(1)
    store = tiny_store()
    out, _ = enhance(mic, far, store, force_identity_mask=True)
    ref = dsp.istft(dsp.stft(mic)).samples
    n = len(ref)
    interior = slice(320, n - 320)
    assert np.max(np.abs(out.samples[interior] - mic.samples[interior])) < 1e-6
    assert len(out) == len(mic)


def test_enhance_silent_far_well_formed():
    mic, _ = _scenario_pair(2)
    silent = AudioClip(np.zeros(len(mic)))
    store = tiny_store(seed=21)
    out, dist = enhance(mic, silent, store)
    assert np.all(np.isfinite(out.samples))
    assert abs(dist.probs.sum() - 1.0) < 1e-6


def test_enhance_length_mismatch_warns():
    mic, far = _scenario_pair(4)
    short = AudioClip(far.samples[:-400])
    with pytest.warns(UserWarning):
        out, _ = enhance(mic, short, tiny_store())
    assert len(out) == len(mic)


@pytest.mark.parametrize("mode", ["utterance", "causal"])
@pytest.mark.parametrize("n", [0, 1, WIN - 1, WIN])
def test_enhance_short_clips_both_modes(n, mode):
    """Below one window both modes give zeros and a uniform distribution;
    at one window both give one frame."""
    rng = np.random.default_rng(n)
    mic, far = (AudioClip(rng.standard_normal(n) * 0.1) for _ in range(2))
    out, dist = enhance(mic, far, tiny_store(seed=22), mode=mode)
    assert len(out) == n
    if n < WIN:
        assert np.all(out.samples == 0)
        assert np.array_equal(dist.probs, np.full(TINY.d_max, 1.0 / TINY.d_max))
    else:
        assert np.any(out.samples != 0)
        assert dist.probs.shape == ((TINY.d_max,) if mode == "utterance" else (1, TINY.d_max))


# -- streaming ---------------------------------------------------------------------------

def test_streaming_matches_graph_when_dmax_is_one():
    # with d_max == 1 both align modes reduce to the identity shift, so the
    # streaming engine must reproduce the graph forward end to end
    cfg = ModelConfig(mic_channels=(4, 10, 18, 8), far_channels=(2, 6),
                      dec_channels=(8, 12, 12), align_proj=16, d_max=1, gru_channels=7)
    store = init_params(cfg, seed=31)
    for name, t in store.tensors.items():
        if name.endswith(".b") or name.endswith(".beta"):
            t.data = t.data + np.random.default_rng(hash(name) % 2**32).standard_normal(t.data.shape) * 0.05
    mic, far = _scenario_pair(6, seconds=0.8)
    utt = enhance(mic, far, store, mode="utterance")[0].samples
    causal = enhance(mic, far, store, mode="causal")[0].samples
    t = (len(mic) - 320) // 160 + 1
    valid = t * 160
    assert len(utt) == len(causal) == len(mic)
    assert np.max(np.abs(utt - causal)) < 1e-6
    # past the last complete frame both modes are silent, not a fade
    assert not utt[valid:].any() and not causal[valid:].any()


def test_streaming_causality_exact():
    mic, far = _scenario_pair(7, seconds=1.0)
    store = tiny_store(seed=32)
    k_cut = 40  # frames
    cut = k_cut * 160 + 320
    out_a = enhance(mic, far, store, mode="causal")[0].samples
    mic2 = mic.samples.copy()
    far2 = far.samples.copy()
    rng = np.random.default_rng(1)
    mic2[cut:] = rng.standard_normal(len(mic2) - cut) * 0.3
    far2[cut:] = rng.standard_normal(len(far2) - cut) * 0.3
    out_b = enhance(AudioClip(mic2), AudioClip(far2), store, mode="causal")[0].samples
    # outputs up to and including frame k_cut are bit-identical
    assert np.array_equal(out_a[: k_cut * 160], out_b[: k_cut * 160])


def test_delay_distribution_validation():
    with pytest.raises(ContractViolationError):
        DelayDistribution(np.array([0.5, 0.4]))
    with pytest.raises(ContractViolationError):
        DelayDistribution(np.array([1.5, -0.5]))
    d = DelayDistribution(np.array([0.25, 0.75]))
    assert d.argmax() == 1


# -- streaming kernels ---------------------------------------------------------------------

def _perturbed_store(seed):
    """Tiny store with random biases, batch-norm gamma and beta and running
    statistics: identity statistics would hide a wrongly folded batch-norm."""
    store = tiny_store(seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for name, t in store.tensors.items():
        if name.endswith((".b", ".beta", ".bq", ".bk")):
            t.data = t.data + rng.standard_normal(t.data.shape) * 0.1
        elif name.endswith(".gamma"):
            t.data = rng.uniform(0.5, 1.5, t.data.shape)
        elif name.endswith(".running_mean"):
            t.data = rng.standard_normal(t.data.shape) * 0.5
        elif name.endswith(".running_var"):
            t.data = rng.uniform(0.3, 3.0, t.data.shape)
    return store


def _stream_10ms(store, mic, far):
    """Streams in 10 ms pushes; returns the samples, the per-push delay
    distributions joined into one (frames, d_max) array, and the engine."""
    eng = StreamingEnhancer(store)
    outs, dists = [], []
    for k in range(0, len(mic) - 159, 160):
        outs.append(eng.push(mic[k : k + 160], far[k : k + 160]))
        dists.append(eng.frame_dists)
    return np.concatenate(outs), np.concatenate(dists), eng


def _stream_pushes(store, mic, far, sizes):
    """Streams pushes of ``sizes`` samples each, in turn; returns the joined
    samples and per-frame delay distributions."""
    eng = StreamingEnhancer(store)
    outs, dists = [], []
    pos = 0
    for step in sizes:
        if pos >= len(mic):
            break
        outs.append(eng.push(mic[pos : pos + step], far[pos : pos + step]))
        dists.append(eng.frame_dists)
        pos += step
    return np.concatenate(outs), np.concatenate(dists)


def test_streaming_chunk_invariance():
    """Any chunking gives the samples and delay distributions of one
    whole-clip push to 1e-12: pushes of 1, BLOCK - 1, BLOCK and BLOCK + 1
    frames (the first push carries the extra hop of the first frame), and
    pushes of random sample counts, past the alignment ring wrap."""
    store = _perturbed_store(42)
    mic, far = _scenario_pair(5, seconds=1.5)
    n_frames = (len(mic) - 320) // 160 + 1
    assert n_frames > 2 * TINY.d_max + BLOCK
    whole = StreamingEnhancer(store)
    ref = whole.push(mic.samples, far.samples)
    ref_dists = whole.frame_dists
    assert ref_dists.shape == (n_frames, TINY.d_max)
    out, dist = enhance(mic, far, store, mode="causal")
    assert np.array_equal(out.samples[: len(ref)], ref)
    assert np.array_equal(dist.probs, ref_dists)

    rng = np.random.default_rng(0)
    schemes = {k: [(k + 1) * 160] + [k * 160] * n_frames for k in (1, BLOCK - 1, BLOCK, BLOCK + 1)}
    schemes["random"] = rng.integers(1, 700, size=len(mic)).tolist()
    for name, sizes in schemes.items():
        got, got_dists = _stream_pushes(store, mic.samples, far.samples, sizes)
        assert got.shape == ref.shape and got_dists.shape == ref_dists.shape, name
        assert np.max(np.abs(got - ref)) < 1e-12, name
        assert np.max(np.abs(got_dists - ref_dists)) < 1e-12, name


def test_streaming_equals_causal_graph_past_ring_wrap():
    store = _perturbed_store(40)
    mic, far = _scenario_pair(8, seconds=1.5)
    spec_m, spec_f = dsp.stft(mic), dsp.stft(far)
    assert spec_m.n_frames > 2 * TINY.d_max  # the alignment rings wrap round
    streamed, streamed_dists, _ = _stream_10ms(store, mic.samples, far.samples)
    with ad.no_grad():
        mask, dist = forward(store, dsp.log_power(spec_m), dsp.log_power(spec_f),
                             mode="infer", align_mode="causal")
    ref = dsp.istft(apply_mask(mask.data, spec_m)).samples
    n = spec_m.n_frames * 160
    assert len(streamed) == n
    assert np.max(np.abs(streamed - ref[:n])) < 1e-9
    np.testing.assert_allclose(streamed_dists, dist.probs, rtol=0, atol=1e-9)


class _ShiftedAlignState:
    """Reference alignment step that shifts its key and feature histories by
    one frame every step, lag 0 first."""

    def __init__(self, cfg, c_far, f):
        self.cfg = cfg
        self.k_hist = np.zeros((cfg.d_max, cfg.align_proj))
        self.far_hist = np.zeros((cfg.d_max, c_far, f))
        self.scores = np.zeros(cfg.d_max)

    def step(self, mic_frame, far_frame, wq, bq, wk, bk):
        pool = ALIGN_POOL
        fb = mic_frame.shape[1] // pool
        pm = mic_frame[:, : fb * pool].reshape(mic_frame.shape[0], fb, pool).max(axis=-1)
        pf = far_frame[:, : fb * pool].reshape(far_frame.shape[0], fb, pool).max(axis=-1)
        q = pm.reshape(-1) @ wq + bq
        k = pf.reshape(-1) @ wk + bk
        self.k_hist[1:] = self.k_hist[:-1].copy()
        self.k_hist[0] = k
        self.far_hist[1:] = self.far_hist[:-1].copy()
        self.far_hist[0] = far_frame
        self.scores = CAUSAL_DECAY * self.scores + self.k_hist @ q
        e = np.exp(self.scores - self.scores.max())
        dist = e / e.sum()
        return np.einsum("d,dcf->cf", dist, self.far_hist), dist


def test_ring_align_state_matches_shifted_histories():
    store = _perturbed_store(41)
    c_mic, c_far, f = TINY.mic_channels[1], TINY.far_channels[1], ENC_FREQS[2]
    weights = [store[n].data for n in ("align.wq", "align.bq", "align.wk", "align.bk")]
    ring, ref = AlignState(TINY, c_far, f), _ShiftedAlignState(TINY, c_far, f)
    rng = np.random.default_rng(9)
    for _ in range(3 * TINY.d_max):
        m, x = rng.standard_normal((c_mic, f)), rng.standard_normal((c_far, f))
        got_a, got_d = ring.step(m, x, *weights)
        ref_a, ref_d = ref.step(m, x, *weights)
        np.testing.assert_allclose(got_d, ref_d, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_a, ref_a, rtol=0, atol=1e-12)


def test_streaming_sanitizes_non_finite_input():
    sc = synth_scenario(ld_scenario_config("m", 3, 3.0))
    far = sc.far.samples
    at = 2 * 16000
    clean = sc.mic.samples.copy()
    clean[at] = 0.0
    dirty = sc.mic.samples.copy()
    dirty[at] = np.nan
    store = tiny_store(seed=33)
    got, _, eng = _stream_10ms(store, dirty, far)
    ref, _, eng_ref = _stream_10ms(store, clean, far)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, ref)
    assert eng.sanitized_samples == 1
    assert eng_ref.sanitized_samples == 0
    eng.push(np.zeros(2), np.array([np.inf, -np.inf]))
    assert eng.sanitized_samples == 3


def test_streaming_rejected_push_changes_no_state():
    """A push of unequal mic and far chunks raises ShapeError and changes no
    state: continuing gives the samples and delay distributions of an engine
    that never saw it, so mic and far stay in lockstep."""
    store = tiny_store(seed=34)
    mic, far = _scenario_pair(9, seconds=0.6)
    m, f = mic.samples, far.samples
    eng, ref = StreamingEnhancer(store), StreamingEnhancer(store)
    for e in (eng, ref):
        e.push(m[:320], f[:320])
    with pytest.raises(ShapeError):
        eng.push(m[320:480], f[320:400])
    with pytest.raises(ShapeError):
        eng.push(np.stack([m[320:480]] * 2), np.stack([f[320:480]] * 2))
    assert eng.sanitized_samples == 0
    for k in range(320, len(m) - 159, 160):
        got = eng.push(m[k : k + 160], f[k : k + 160])
        want = ref.push(m[k : k + 160], f[k : k + 160])
        assert np.array_equal(got, want)
        assert np.array_equal(eng.frame_dists, ref.frame_dists)


def test_streaming_memory_bounded():
    """Once warm, 10 ms pushes leave nothing behind that model.py allocated:
    the delay distributions of a push replace those of the last one."""
    sc = synth_scenario(ld_scenario_config("m", 4, 3.0))
    mic, far = sc.mic.samples, sc.far.samples
    hops = [(mic[k : k + 160], far[k : k + 160]) for k in range(0, len(mic) - 159, 160)]
    eng = StreamingEnhancer(_perturbed_store(43))
    own = [tracemalloc.Filter(True, model_mod.__file__)]
    tracemalloc.start()
    try:
        for j in range(150):  # past the first ring wrap
            eng.push(*hops[j % len(hops)])
        before = tracemalloc.take_snapshot().filter_traces(own)
        for j in range(150, 650):
            eng.push(*hops[j % len(hops)])
        after = tracemalloc.take_snapshot().filter_traces(own)
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert grown <= 1024


@pytest.mark.parametrize("cfg", [TINY, ModelConfig.paper()], ids=["tiny", "paper"])
def test_streaming_setup_reads_weights_by_view(cfg):
    """Building the engine copies and casts no conv, GRU or alignment weight
    and makes no work buffer: at paper scale it allocates under 2 MB, most of
    it the alignment's far-feature ring."""
    store = init_params(cfg, seed=1)
    StreamingEnhancer(store)  # warm imports and caches
    tracemalloc.start()
    try:
        eng = StreamingEnhancer(store)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if cfg is not TINY:
        assert allocated <= 2 * 1024 * 1024
    names = [f"{n}.w" for n in ENC_BLOCKS + ("dec1", "dec2", "dec3", "mask")]
    names += ["gru.wih", "gru.whh", "gru.b", "align.wq", "align.bq", "align.wk", "align.bk"]
    held = [layer._w for layer in eng._enc + eng._dec] + list(eng._gru_w) + list(eng._align_w)
    assert len(held) == len(names)
    for name, arr in zip(names, held):
        assert arr.dtype == np.float64, name
        assert np.shares_memory(arr, store[name].data), name
