"""The echo-cancellation network: two-branch causal conv encoder, a built-in
cross-attention alignment block over the far-end features, a GRU bottleneck,
and a transposed-conv decoder that emits a bounded magnitude mask.

Two evaluation paths share one parameter store:

* a graph (utterance) path used for training -- one delay distribution per
  clip, batch-norm in train or frozen mode;
* a streaming (causal) path used for real-time inference -- per-frame delay
  distributions from a leaky score accumulator over ring-indexed key and
  feature histories, per-block frame kernels over preallocated conv
  histories, frame-by-frame overlap-add synthesis, 20 ms algorithmic
  latency. Weights and batch-norm statistics are read when the engine is
  built; batch-norm runs as a per-channel affine.

The baseline variant ("cruse") is ``forward`` with the alignment block
skipped: its far-end features must already be aligned, and its parameter
count differs from the aligned model by exactly the alignment projections.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import BnStats, Tensor
from .dsp import AudioClip, SpectralFrames, StftConfig
from .errors import ConfigurationError, ContractViolationError, ShapeError


def _conv_out(f: int, kf: int, stride: int) -> int:
    return (f + 2 * ((kf - 1) // 2) - kf) // stride + 1


@dataclass(frozen=True)
class ModelConfig:
    mic_channels: tuple = (16, 40, 72, 32)
    far_channels: tuple = (8, 24)
    dec_channels: tuple = (32, 48, 48)
    conv_kernel: tuple = (4, 3)
    conv_stride_f: int = 2
    dec_kernel_f: int = 3
    align_pool: int = 4
    align_proj: int = 16
    d_max: int = 100
    gru_channels: int = 28
    n_bins: int = 161
    causal_decay: float = 0.99

    def __post_init__(self):
        if self.d_max < 1 or self.align_proj < 1:
            raise ConfigurationError("d_max and align_proj must be >= 1")
        if not (self.mic_channels and self.far_channels and self.dec_channels):
            raise ConfigurationError("channel lists must be non-empty")
        if len(self.mic_channels) != 4 or len(self.far_channels) != 2 or len(self.dec_channels) != 3:
            raise ConfigurationError("expected 4 mic, 2 far and 3 decoder conv blocks")

    @property
    def enc_freqs(self) -> tuple:
        """Frequency sizes after each encoder stage, starting at n_bins."""
        sizes = [self.n_bins]
        for _ in range(4):
            sizes.append(_conv_out(sizes[-1], self.conv_kernel[1], self.conv_stride_f))
        return tuple(sizes)

    @property
    def bottleneck(self) -> int:
        return self.mic_channels[-1] * self.enc_freqs[-1]

    @property
    def gru_hidden(self) -> int:
        return self.gru_channels * self.enc_freqs[-1]

    @property
    def align_bins(self) -> int:
        return self.enc_freqs[2] // self.align_pool

    def scaled(self, factor: float) -> "ModelConfig":
        """Channel-scaled variant (kernel geometry and bin count unchanged)."""
        def sc(ch):
            return tuple(max(1, round(c * factor)) for c in ch)

        return ModelConfig(
            mic_channels=sc(self.mic_channels),
            far_channels=sc(self.far_channels),
            dec_channels=sc(self.dec_channels),
            conv_kernel=self.conv_kernel,
            conv_stride_f=self.conv_stride_f,
            dec_kernel_f=self.dec_kernel_f,
            align_pool=self.align_pool,
            align_proj=self.align_proj,
            d_max=self.d_max,
            gru_channels=max(1, round(self.gru_channels * factor)),
            n_bins=self.n_bins,
            causal_decay=self.causal_decay,
        )

    @classmethod
    def paper(cls) -> "ModelConfig":
        return cls()

    @classmethod
    def tiny(cls) -> "ModelConfig":
        """Desk-scale preset: quarter channels, d_max 50, projection 16."""
        cfg = cls().scaled(0.25)
        return ModelConfig(
            mic_channels=cfg.mic_channels,
            far_channels=cfg.far_channels,
            dec_channels=cfg.dec_channels,
            align_proj=16,
            d_max=50,
            gru_channels=cfg.gru_channels,
        )


@dataclass
class DelayDistribution:
    """Probability vector over integer frame delays; one row per frame in
    per-frame mode."""

    probs: np.ndarray
    mode: str = "utterance"  # utterance | per-frame

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.mode not in ("utterance", "per-frame"):
            raise ConfigurationError(f"unknown distribution mode {self.mode!r}")
        if np.any(self.probs < 0):
            raise ContractViolationError("delay probabilities must be non-negative")
        sums = self.probs.sum(axis=-1)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            raise ContractViolationError("each delay distribution must sum to 1")

    @property
    def d_max(self) -> int:
        return self.probs.shape[-1]

    def argmax(self) -> int | np.ndarray:
        return int(np.argmax(self.probs)) if self.mode == "utterance" else np.argmax(self.probs, axis=-1)


# -- parameters ----------------------------------------------------------------

ENC_BLOCKS = ("mic1", "mic2", "far1", "far2", "enc3", "enc4")


def _enc_channel_plan(cfg: ModelConfig):
    mic, far = cfg.mic_channels, cfg.far_channels
    return {
        "mic1": (1, mic[0]),
        "mic2": (mic[0], mic[1]),
        "far1": (1, far[0]),
        "far2": (far[0], far[1]),
        "enc3": (mic[1] + far[1], mic[2]),
        "enc4": (mic[2], mic[3]),
    }


def param_shapes(cfg: ModelConfig, arch: str = "align") -> OrderedDict:
    """Name -> shape for every trainable tensor, in creation order."""
    if arch not in ("align", "cruse"):
        raise ConfigurationError(f"arch must be 'align' or 'cruse', got {arch!r}")
    kt, kf = cfg.conv_kernel
    shapes: OrderedDict[str, tuple] = OrderedDict()
    plan = _enc_channel_plan(cfg)
    for name in ENC_BLOCKS:
        c_in, c_out = plan[name]
        shapes[f"{name}.w"] = (c_out, c_in, kt, kf)
        shapes[f"{name}.b"] = (c_out,)
        shapes[f"{name}.bn.gamma"] = (c_out,)
        shapes[f"{name}.bn.beta"] = (c_out,)
    if arch == "align":
        mic_dim = cfg.mic_channels[1] * cfg.align_bins
        far_dim = cfg.far_channels[1] * cfg.align_bins
        shapes["align.wq"] = (mic_dim, cfg.align_proj)
        shapes["align.bq"] = (cfg.align_proj,)
        shapes["align.wk"] = (far_dim, cfg.align_proj)
        shapes["align.bk"] = (cfg.align_proj,)
    h = cfg.gru_hidden
    shapes["gru.wih"] = (3 * h, cfg.bottleneck)
    shapes["gru.whh"] = (3 * h, h)
    shapes["gru.b"] = (3 * h,)
    dec_in = (cfg.gru_channels,) + cfg.dec_channels[:2]
    enc_skip = (cfg.mic_channels[3], cfg.mic_channels[2], cfg.mic_channels[1], cfg.mic_channels[0])
    for i in range(3):
        shapes[f"skip{i + 1}.w"] = (dec_in[i], enc_skip[i])
        shapes[f"skip{i + 1}.b"] = (dec_in[i],)
        shapes[f"dec{i + 1}.w"] = (dec_in[i], cfg.dec_channels[i], 1, cfg.dec_kernel_f)
        shapes[f"dec{i + 1}.b"] = (cfg.dec_channels[i],)
        shapes[f"dec{i + 1}.bn.gamma"] = (cfg.dec_channels[i],)
        shapes[f"dec{i + 1}.bn.beta"] = (cfg.dec_channels[i],)
    shapes["skip4.w"] = (cfg.dec_channels[2], enc_skip[3])
    shapes["skip4.b"] = (cfg.dec_channels[2],)
    shapes["mask.w"] = (cfg.dec_channels[2], 1, 1, cfg.dec_kernel_f)
    shapes["mask.b"] = (1,)
    shapes["mask.gain"] = (1,)
    return shapes


BN_LAYERS = ENC_BLOCKS + ("dec1", "dec2", "dec3")


class ParamStore:
    """Named parameter tensors plus per-layer batch-norm running statistics."""

    def __init__(self, cfg: ModelConfig, arch: str = "align"):
        self.cfg = cfg
        self.arch = arch
        self.tensors: OrderedDict[str, Tensor] = OrderedDict()
        self.bn_stats: dict[str, BnStats] = {}

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def trainable(self):
        return [(n, t) for n, t in self.tensors.items() if t.requires_grad]

    def param_count(self) -> int:
        return sum(t.size for _, t in self.trainable())

    def zero_grad(self):
        for _, t in self.trainable():
            t.zero_grad()

    def copy(self) -> "ParamStore":
        out = ParamStore(self.cfg, self.arch)
        for n, t in self.tensors.items():
            c = Tensor(t.data.copy(), requires_grad=t.requires_grad)
            out.tensors[n] = c
        out.bn_stats = {n: s.copy() for n, s in self.bn_stats.items()}
        return out


def init_params(cfg: ModelConfig, seed: int = 0, arch: str = "align") -> ParamStore:
    """Uniform fan-in initialization; deterministic in (cfg, seed, arch)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    store = ParamStore(cfg, arch)
    for name, shape in param_shapes(cfg, arch).items():
        if name.endswith(".gamma"):
            data = np.ones(shape)
        elif name.endswith((".beta", ".b", ".bq", ".bk")):
            data = np.zeros(shape)
        elif name == "mask.gain":
            data = np.ones(shape)
        else:
            if name.endswith(".wq") or name.endswith(".wk"):
                fan_in = shape[0]
            elif name == "gru.wih" or name == "gru.whh":
                fan_in = cfg.gru_hidden
            elif name.startswith("skip"):
                fan_in = shape[1]
            elif name.startswith("dec") or name == "mask.w":
                fan_in = shape[0] * shape[3]  # transposed layout (c_in, c_out, 1, kf)
            else:
                fan_in = shape[1] * shape[2] * shape[3]
            k = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-k, k, size=shape)
        store.tensors[name] = Tensor(data, requires_grad=True)
    for layer in BN_LAYERS:
        stats = BnStats(store.tensors[f"{layer}.bn.gamma"].size)
        stats.initialized = True  # identity stats; valid frozen state for inference
        store.bn_stats[layer] = stats
    return store


def param_count(cfg: ModelConfig, arch: str = "align") -> int:
    return sum(int(np.prod(s)) for s in param_shapes(cfg, arch).values())


# -- graph building blocks -------------------------------------------------------

def _conv_block(store: ParamStore, name: str, x: Tensor, mode: str) -> Tensor:
    h = ad.conv2d_causal(x, store[f"{name}.w"], store[f"{name}.b"], stride_f=store.cfg.conv_stride_f)
    h = ad.batch_norm(h, store[f"{name}.bn.gamma"], store[f"{name}.bn.beta"],
                      store.bn_stats[name], mode)
    return ad.elu(h)


def _deconv_block(store: ParamStore, name: str, x: Tensor, mode: str, out_pad: int) -> Tensor:
    h = ad.conv2d_transpose(x, store[f"{name}.w"], store[f"{name}.b"],
                            stride_f=store.cfg.conv_stride_f, out_pad_f=out_pad)
    h = ad.batch_norm(h, store[f"{name}.bn.gamma"], store[f"{name}.bn.beta"],
                      store.bn_stats[name], mode)
    return ad.elu(h)


def skip_block(enc_feat: Tensor, dec_feat: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1x1 conv of the encoder map onto the decoder channel depth, then add."""
    c_e, t, f = enc_feat.data.shape
    if dec_feat.data.shape[1:] != (t, f):
        raise ShapeError("skip connection time/frequency mismatch")
    flat = ad.reshape(enc_feat, (c_e, t * f))
    mapped = ad.reshape(ad.matmul(w, flat), (w.data.shape[0], t, f))
    return ad.add(ad.add(mapped, ad.reshape(b, (-1, 1, 1))), dec_feat)


def _flatten_cf(x: Tensor) -> Tensor:
    c, t, f = x.data.shape
    return ad.reshape(ad.transpose(x, (1, 0, 2)), (t, c * f))


def _unflatten_cf(x: Tensor, c: int, f: int) -> Tensor:
    t = x.data.shape[0]
    return ad.transpose(ad.reshape(x, (t, c, f)), (1, 0, 2))


def align_block(x_mic: Tensor, x_far: Tensor, store: ParamStore,
                mode: str = "utterance"):
    """Soft far-end alignment from pooled-feature cross-attention.

    Queries come from the mic branch, keys from the far branch; the score for
    lag d is the time-axis dot product of queries with keys delayed by d. The
    softmax over lags weights a sum of shifted far-end feature maps, so a flat
    distribution blends several candidate delays instead of committing.
    """
    cfg = store.cfg
    if x_mic.data.shape[1] != x_far.data.shape[1] or x_mic.data.shape[2] != x_far.data.shape[2]:
        raise ShapeError("align block inputs must share time and frequency axes")
    if x_mic.data.shape[1] < 1:
        raise ShapeError("align block needs at least one frame")
    if mode == "causal":
        aligned, dist = _align_causal_np(x_mic.data, x_far.data, store)
        return Tensor(aligned), dist
    pm = ad.max_pool_freq(x_mic, cfg.align_pool)
    pf = ad.max_pool_freq(x_far, cfg.align_pool)
    q = ad.add(ad.matmul(_flatten_cf(pm), store["align.wq"]), store["align.bq"])
    k = ad.add(ad.matmul(_flatten_cf(pf), store["align.wk"]), store["align.bk"])
    scores = ad.delay_scores(q, k, cfg.d_max)
    d = ad.softmax_lastdim(scores)
    aligned = ad.weighted_delay_sum(x_far, d)
    return aligned, d


def _align_causal_np(mic_feat: np.ndarray, far_feat: np.ndarray, store: ParamStore):
    """Frame-recursive variant: a leaky accumulator of per-frame attention
    scores yields one delay distribution per frame, used to align that frame
    only. Matches the streaming engine bit for bit."""
    cfg = store.cfg
    c_far, t, f = far_feat.shape
    wq, bq = store["align.wq"].data, store["align.bq"].data
    wk, bk = store["align.wk"].data, store["align.bk"].data
    state = AlignState(cfg, c_far, f)
    aligned = np.empty_like(far_feat)
    dists = np.empty((t, cfg.d_max))
    for i in range(t):
        aligned[:, i, :], dists[i] = state.step(mic_feat[:, i, :], far_feat[:, i, :],
                                                wq, bq, wk, bk)
    return aligned, DelayDistribution(dists, mode="per-frame")


class AlignState:
    """Causal alignment state: key and feature history rings and the leaky
    score accumulator.

    The rings are written in place at ``pos``; slot ``(pos - lag) % d_max``
    holds the frame ``lag`` frames back, so no history is ever shifted.
    """

    def __init__(self, cfg: ModelConfig, c_far: int, f: int):
        d = cfg.d_max
        self.cfg = cfg
        self.k_ring = np.zeros((d, cfg.align_proj))
        self.far_ring = np.zeros((d, c_far, f))
        self._far_flat = self.far_ring.reshape(d, -1)
        self.scores = np.zeros(d)  # in lag order
        self.pos = d - 1
        self._lags = np.arange(d)

    def step(self, mic_frame: np.ndarray, far_frame: np.ndarray, wq, bq, wk, bk):
        pool = self.cfg.align_pool
        fb = mic_frame.shape[1] // pool
        pm = mic_frame[:, : fb * pool].reshape(mic_frame.shape[0], fb, pool).max(axis=-1)
        pf = far_frame[:, : fb * pool].reshape(far_frame.shape[0], fb, pool).max(axis=-1)
        q = pm.reshape(-1) @ wq + bq
        k = pf.reshape(-1) @ wk + bk
        self.pos = pos = (self.pos + 1) % self.cfg.d_max
        self.k_ring[pos] = k
        self.far_ring[pos] = far_frame
        # the slot of each lag; the map is its own inverse, so it also gives
        # the lag held in each slot
        slots = (pos - self._lags) % self.cfg.d_max
        self.scores = self.cfg.causal_decay * self.scores + (self.k_ring @ q)[slots]
        e = np.exp(self.scores - self.scores.max())
        dist = e / e.sum()
        aligned = (dist[slots] @ self._far_flat).reshape(far_frame.shape)
        return aligned, dist


DEC_STAGE_NAMES = ("dec1", "dec2", "dec3")


def _decoder(store: ParamStore, skips: list[Tensor], bottleneck_out: Tensor, mode: str) -> Tensor:
    cfg = store.cfg
    freqs = cfg.enc_freqs  # (161, 81, 41, 21, 11)
    x = bottleneck_out
    for i, name in enumerate(DEC_STAGE_NAMES):
        x = skip_block(skips[3 - i], x, store[f"skip{i + 1}.w"], store[f"skip{i + 1}.b"])
        target = freqs[3 - i]
        cur = x.data.shape[2]
        out_pad = target - ((cur - 1) * cfg.conv_stride_f - 2 + cfg.dec_kernel_f)
        x = _deconv_block(store, name, x, mode, out_pad)
    x = skip_block(skips[0], x, store["skip4.w"], store["skip4.b"])
    out_pad = cfg.n_bins - ((x.data.shape[2] - 1) * cfg.conv_stride_f - 2 + cfg.dec_kernel_f)
    pre = ad.conv2d_transpose(x, store["mask.w"], store["mask.b"],
                              stride_f=cfg.conv_stride_f, out_pad_f=out_pad)
    return ad.mul(ad.sigmoid(pre), store["mask.gain"])


def forward(store: ParamStore, mic_feat, far_feat, mode: str = "infer",
            align_mode: str = "utterance"):
    """Full graph forward. Inputs are (1, t, n_bins) log-power features.

    Returns (mask, delay_distribution); the mask is a Tensor in [0, gain]
    of shape (1, t, n_bins). ``mode`` selects batch-norm behaviour. A
    "cruse" store skips the alignment block: ``far_feat`` must already be
    aligned, and the distribution is None.
    """
    cfg = store.cfg
    mic_feat = mic_feat if isinstance(mic_feat, Tensor) else Tensor(mic_feat)
    far_feat = far_feat if isinstance(far_feat, Tensor) else Tensor(far_feat)
    if mic_feat.data.shape != far_feat.data.shape:
        raise ShapeError("mic and far feature shapes must match")
    if mic_feat.data.shape[0] != 1 or mic_feat.data.shape[2] != cfg.n_bins:
        raise ShapeError(f"expected (1, t, {cfg.n_bins}) features")

    m1 = _conv_block(store, "mic1", mic_feat, mode)
    m2 = _conv_block(store, "mic2", m1, mode)
    f1 = _conv_block(store, "far1", far_feat, mode)
    f2 = _conv_block(store, "far2", f1, mode)
    dist = None
    if store.arch == "align":
        f2, dist = align_block(m2, f2, store, mode=align_mode)
        if isinstance(dist, Tensor):
            dist = DelayDistribution(dist.data, mode="utterance")
    e3 = _conv_block(store, "enc3", ad.concat([m2, f2], axis=0), mode)
    e4 = _conv_block(store, "enc4", e3, mode)
    h0 = Tensor(np.zeros(cfg.gru_hidden))
    h = ad.gru_seq(_flatten_cf(e4), h0, store["gru.wih"], store["gru.whh"], store["gru.b"])
    u = _unflatten_cf(h, cfg.gru_channels, cfg.enc_freqs[-1])
    return _decoder(store, [m1, m2, e3, e4], u, mode), dist


# -- mask application and end-to-end enhancement -----------------------------------

def apply_mask(mask: np.ndarray, mic_spec: SpectralFrames) -> SpectralFrames:
    """Multiplies the microphone spectrum by a non-negative magnitude mask;
    phase is untouched because the mask is real."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim == 3:
        mask = mask[0]
    if mask.shape != mic_spec.data.shape:
        raise ShapeError(f"mask shape {mask.shape} != spectrum {mic_spec.data.shape}")
    if not np.all(np.isfinite(mask)) or np.any(mask < 0):
        raise ContractViolationError("mask must be finite and non-negative")
    return SpectralFrames(mask * mic_spec.data, mic_spec.win_len, mic_spec.hop, mic_spec.fft_len)


def _prepare_pair(mic: AudioClip, far: AudioClip, stft_cfg: StftConfig):
    if mic.sample_rate != far.sample_rate:
        raise ConfigurationError("mic and far sample rates differ")
    n = min(len(mic), len(far))
    if abs(len(mic) - len(far)) > stft_cfg.hop:
        warnings.warn(
            f"length mismatch of {abs(len(mic) - len(far))} samples; trimming to {n}"
        )
    return mic.samples[:n], far.samples[:n]


def enhance(mic: AudioClip, far: AudioClip, store: ParamStore,
            stft_cfg: StftConfig | None = None, mode: str = "utterance",
            force_identity_mask: bool = False):
    """stft -> features -> forward -> mask -> istft. Output length equals the
    mic length (zero-padded tail past the last complete frame).

    A "cruse" store runs in utterance mode only, on a ``far`` that is already
    aligned to ``mic``; ``forward`` gives it no delay distribution (None)."""
    stft_cfg = stft_cfg or StftConfig()
    mic_s, far_s = _prepare_pair(mic, far, stft_cfg)

    if mode == "causal":
        eng = StreamingEnhancer(store, stft_cfg, force_identity_mask=force_identity_mask)
        out = eng.push(mic_s, far_s)
        full = np.zeros(len(mic))
        full[: len(out)] = out
        return AudioClip(full, mic.sample_rate), eng.delay_distribution()

    spec_m = dsp.stft(AudioClip(mic_s, mic.sample_rate), stft_cfg)
    spec_f = dsp.stft(AudioClip(far_s, far.sample_rate), stft_cfg)
    if force_identity_mask:
        mask = np.ones((1, spec_m.n_frames, stft_cfg.n_bins))
        dist = DelayDistribution(np.full(store.cfg.d_max, 1.0 / store.cfg.d_max))
    else:
        with ad.no_grad():
            mask_t, dist = forward(store, dsp.log_power(spec_m), dsp.log_power(spec_f),
                                   mode="infer", align_mode="utterance")
        mask = mask_t.data
    enhanced = dsp.istft(apply_mask(mask, spec_m), stft_cfg)
    full = np.zeros(len(mic))
    full[: len(enhanced)] = enhanced.samples
    return AudioClip(full, mic.sample_rate), dist


# -- streaming engine ----------------------------------------------------------------

def _bn_affine(store: ParamStore, name: str, bias: np.ndarray):
    """Frozen batch-norm after a biased layer as one per-channel affine:
    ``bn(y + bias) == y * scale + shift`` (Jacob et al. 2018, arXiv:1712.05877).
    It equals ``autodiff.batch_norm`` in inference mode up to rounding.
    """
    stats = store.bn_stats[name]
    scale = store[f"{name}.bn.gamma"].data / np.sqrt(stats.var + ad.BN_EPS)
    shift = store[f"{name}.bn.beta"].data + (bias - stats.mean) * scale
    return scale[:, None], shift[:, None]


def _elu_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """ELU of ``x`` written back into ``x``; the same values as ``autodiff.elu``."""
    np.minimum(x, 0.0, out=tmp)
    np.expm1(tmp, out=tmp)
    np.maximum(x, 0.0, out=x)
    x += tmp


class _EncoderStep:
    """One encoder block (causal conv, batch-norm, ELU), a frame at a time.

    The zero-padded history of the last k_t input frames, its im2col view,
    the weight matrix (a view of the stored weight) and batch-norm folded
    into a per-channel affine are all made here, once.
    """

    def __init__(self, store: ParamStore, name: str, f: int):
        w = store[f"{name}.w"].data
        c_out, c_in, kt, kf = w.shape
        stride = store.cfg.conv_stride_f
        pad = (kf - 1) // 2
        f_out = _conv_out(f, kf, stride)
        self._hist = np.zeros((c_in, kt, f + 2 * pad))
        self._frame = self._hist[:, -1, pad : pad + f]
        s0, s1, s2 = self._hist.strides
        self._im2col = np.lib.stride_tricks.as_strided(
            self._hist, shape=(c_in, kt, kf, f_out), strides=(s0, s1, s2, s2 * stride),
            writeable=False,
        )
        self._cols = np.empty((c_in * kt * kf, f_out))
        self._cols4 = self._cols.reshape(self._im2col.shape)
        self._w = w.reshape(c_out, -1)
        self._scale, self._shift = _bn_affine(store, name, store[f"{name}.b"].data)
        self._out = np.empty((c_out, f_out))
        self._tmp = np.empty((c_out, f_out))

    def __call__(self, *parts: np.ndarray) -> np.ndarray:
        """Takes the new (c_in, f) input frame, given as channel blocks in
        order; returns the (c_out, f_out) output frame in a buffer that the
        next call overwrites."""
        hist = self._hist
        hist[:, :-1] = hist[:, 1:]
        c = 0
        for part in parts:
            self._frame[c : c + part.shape[0]] = part
            c += part.shape[0]
        np.copyto(self._cols4, self._im2col)
        out = self._out
        np.matmul(self._w, self._cols, out=out)
        out *= self._scale
        out += self._shift
        _elu_inplace(out, self._tmp)
        return out


class _DecoderStep:
    """Skip connection plus one frequency-transposed conv stage, a frame at a
    time: one (k_f * c_out, c_in) matmul, then k_f strided adds.

    With ``bn`` the stage ends in batch-norm and ELU (dec1..dec3); without it
    the output is the pre-sigmoid mask.
    """

    def __init__(self, store: ParamStore, skip: str, name: str, f_in: int, f_out: int, bn: bool):
        stride = store.cfg.conv_stride_f
        w = store[f"{name}.w"].data
        c_in, c_out, _, kf = w.shape
        pad = (kf - 1) // 2
        self._skip_w = store[f"{skip}.w"].data
        self._skip_b = store[f"{skip}.b"].data[:, None]
        # (c_in, c_out, 1, kf) -> (kf * c_out, c_in); a small copy made once
        self._w = np.ascontiguousarray(w[:, :, 0, :].transpose(2, 1, 0)).reshape(kf * c_out, c_in)
        b = store[f"{name}.b"].data
        if bn:
            self._scale, self._shift = _bn_affine(store, name, b)
        else:
            self._scale, self._shift = np.ones((c_out, 1)), b[:, None]
        self._elu = bn
        self._x = np.empty((c_in, f_in))
        self._y = np.empty((kf * c_out, f_in))
        self._full = np.zeros((c_out, (f_in - 1) * stride + kf))
        span = stride * (f_in - 1) + 1
        self._taps = [(self._full[:, c : c + span : stride], self._y[c * c_out : (c + 1) * c_out])
                      for c in range(kf)]
        self._center = self._full[:, pad : pad + f_out]
        self._out = np.empty((c_out, f_out))
        self._tmp = np.empty((c_out, f_out))

    def __call__(self, enc: np.ndarray, x: np.ndarray) -> np.ndarray:
        h = self._x
        np.matmul(self._skip_w, enc, out=h)
        h += self._skip_b
        h += x
        np.matmul(self._w, h, out=self._y)
        self._full.fill(0.0)
        for dst, src in self._taps:
            dst += src
        out = self._out
        np.multiply(self._center, self._scale, out=out)
        out += self._shift
        if self._elu:
            _elu_inplace(out, self._tmp)
        return out


class StreamingEnhancer:
    """Causal incremental enhancement: push audio in arbitrary chunk sizes,
    receive enhanced samples with 20 ms algorithmic latency.

    Output is chunk-size invariant: any chunking produces the same samples as
    a single push of the whole clip, because processing is per-frame inside.
    The store is read when the engine is built: conv weights by view,
    batch-norm statistics folded into per-channel affines, the decoder's
    small weights copied. Build a new engine after changing the store.

    Non-finite input samples are replaced by 0 before framing and counted in
    ``sanitized_samples``.
    """

    def __init__(self, store: ParamStore, stft_cfg: StftConfig | None = None,
                 force_identity_mask: bool = False):
        if store.arch != "align":
            raise ConfigurationError("streaming requires an 'align' parameter store")
        self.store = store
        self.cfg = cfg = store.cfg
        self.stft_cfg = stft_cfg or StftConfig()
        self.force_identity_mask = force_identity_mask
        self.sanitized_samples = 0
        freqs = cfg.enc_freqs
        in_freq = {"mic1": freqs[0], "mic2": freqs[1], "far1": freqs[0],
                   "far2": freqs[1], "enc3": freqs[2], "enc4": freqs[3]}
        self._enc = [_EncoderStep(store, n, in_freq[n]) for n in ENC_BLOCKS]
        self._dec = [_DecoderStep(store, f"skip{i + 1}", name, freqs[4 - i], freqs[3 - i], bn=True)
                     for i, name in enumerate(DEC_STAGE_NAMES)]
        self._dec.append(_DecoderStep(store, "skip4", "mask", freqs[1], cfg.n_bins, bn=False))
        self._align = AlignState(cfg, cfg.far_channels[1], freqs[2])
        self._align_w = tuple(store[n].data for n in ("align.wq", "align.bq", "align.wk", "align.bk"))
        self._gru_w = tuple(store[n].data for n in ("gru.wih", "gru.whh", "gru.b"))
        self._gain = store["mask.gain"].data[0]
        self._h = np.zeros(cfg.gru_hidden)
        self._h_shape = (cfg.gru_channels, freqs[-1])
        self._mic_framer = dsp.StreamingFramer(self.stft_cfg)
        self._far_framer = dsp.StreamingFramer(self.stft_cfg)
        self._ola_tail = np.zeros(self.stft_cfg.win_len - self.stft_cfg.hop)
        self._dists: list[np.ndarray] = []

    def delay_distribution(self) -> DelayDistribution:
        if not self._dists:
            return DelayDistribution(np.full(self.cfg.d_max, 1.0 / self.cfg.d_max))
        return DelayDistribution(np.asarray(self._dists), mode="per-frame")

    def _network_frame(self, feat_m: np.ndarray, feat_f: np.ndarray) -> np.ndarray:
        """Pre-sigmoid mask of one frame from its (n_bins,) log-power features."""
        mic1, mic2, far1, far2, enc3, enc4 = self._enc
        m1 = mic1(feat_m)
        m2 = mic2(m1)
        f2 = far2(far1(feat_f))
        aligned, dist = self._align.step(m2, f2, *self._align_w)
        self._dists.append(dist)
        e3 = enc3(m2, aligned)
        e4 = enc4(e3)
        self._h, *_ = ad.gru_step_np(*self._gru_w, e4.reshape(-1), self._h)
        x = self._h.reshape(self._h_shape)
        for stage, skip in zip(self._dec, (e4, e3, m2, m1)):
            x = stage(skip, x)
        return x[0]

    def _sanitize(self, chunk) -> np.ndarray:
        x = np.asarray(chunk, dtype=np.float64)
        finite = np.isfinite(x)
        if finite.all():
            return x
        self.sanitized_samples += int(x.size - np.count_nonzero(finite))
        return np.where(finite, x, 0.0)

    def push(self, mic_chunk: np.ndarray, far_chunk: np.ndarray) -> np.ndarray:
        """Consumes equal-length sample chunks, returns enhanced samples."""
        mic_frames = self._mic_framer.push(self._sanitize(mic_chunk))
        far_frames = self._far_framer.push(self._sanitize(far_chunk))
        if len(mic_frames) != len(far_frames):
            raise ShapeError("mic and far chunks must stay in lockstep")
        n = len(mic_frames)
        if n == 0:
            return np.zeros(0)
        scfg = self.stft_cfg
        spec_m = np.fft.rfft(mic_frames * scfg.window, n=scfg.fft_len, axis=1)
        spec_f = np.fft.rfft(far_frames * scfg.window, n=scfg.fft_len, axis=1)
        feat_m = np.log(spec_m.real**2 + spec_m.imag**2 + dsp.LOG_EPS)
        feat_f = np.log(spec_f.real**2 + spec_f.imag**2 + dsp.LOG_EPS)
        pre = np.empty_like(feat_m)
        for i in range(n):
            pre[i] = self._network_frame(feat_m[i], feat_f[i])
        if self.force_identity_mask:
            mask = np.ones_like(pre)
        else:
            with np.errstate(over="ignore"):
                mask = self._gain / (1.0 + np.exp(-pre))

        segs = np.fft.irfft(mask * spec_m, n=scfg.fft_len, axis=1) * scfg.window
        hop = scfg.hop
        out = segs[:, :hop].copy()
        out[0] += self._ola_tail
        out[1:] += segs[:-1, hop:]
        self._ola_tail = segs[-1, hop:].copy()
        return out.reshape(-1)
