"""The echo-cancellation network: two-branch causal conv encoder, a built-in
cross-attention alignment block over the far-end features, a GRU bottleneck,
and a transposed-conv decoder that emits a bounded magnitude mask.

Two evaluation paths share one parameter store:

* a graph (utterance) path used for training -- one delay distribution per
  clip, batch-norm in train or frozen mode;
* a streaming (causal) path used for real-time inference -- per-frame delay
  distributions from a leaky score accumulator over ring-indexed key and
  feature histories, 20 ms algorithmic latency (one ``dsp.WIN`` window). A
  push runs the frames it completes as blocks of up to ``BLOCK`` frames:
  each conv, batch-norm affine, ELU, skip and transposed conv runs once per
  block over carried history, and only the GRU step and the alignment
  recursion run frame by frame. Weights are read by view when the engine is
  built; batch-norm runs as a per-channel affine.

The baseline variant ("cruse") is ``forward`` with the alignment block
skipped: its far-end features must already be aligned, and its parameter
count differs from the aligned model by exactly the alignment projections.

Both paths take their frame geometry from ``dsp``: 10 ms hops of 20 ms
windows, 161 bins, the only geometry a ``ModelConfig.n_bins`` of 161 fits.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import BnStats, Tensor
from .dsp import HOP, N_BINS, WIN, AudioClip, SpectralFrames
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


ALIGN_WEIGHTS = ("align.wq", "align.bq", "align.wk", "align.bk")


def _align_causal_np(mic_feat: np.ndarray, far_feat: np.ndarray, store: ParamStore):
    """Frame-recursive variant: a leaky accumulator of per-frame attention
    scores yields one delay distribution per frame, used to align that frame
    only. It is the streaming engine's alignment step, run once over the
    whole clip."""
    state = AlignState(store.cfg, far_feat.shape[0], far_feat.shape[2])
    aligned, dists = state.step(mic_feat, far_feat, *(store[n].data for n in ALIGN_WEIGHTS))
    return aligned, DelayDistribution(dists, mode="per-frame")


def _pooled_flat(x: np.ndarray, pool: int) -> np.ndarray:
    """(c, t, f) -> (t, c * (f // pool)): non-overlapping frequency max-pool,
    remainder bins dropped, frames as rows. The max is taken pairwise over
    strided views: a reduction over a last axis of ``pool`` elements is
    several times slower."""
    xt = x.transpose(1, 0, 2)
    span = x.shape[2] // pool * pool
    out = np.maximum(xt[:, :, 0:span:pool], xt[:, :, pool - 1 : span : pool], order="C")
    for j in range(1, pool - 1):
        np.maximum(out, xt[:, :, j:span:pool], out=out)
    return out.reshape(x.shape[1], -1)


class AlignState:
    """Causal alignment state: key and feature history rings and the leaky
    score accumulator.

    The rings are written in place at ``pos``; slot ``(pos - lag) % d_max``
    holds the frame ``lag`` frames back, so no history is ever shifted. The
    slots of lags 0..d_max-1 are ``_slot_of[pos + d_max : pos : -1]``, a view.
    """

    def __init__(self, cfg: ModelConfig, c_far: int, f: int):
        d = cfg.d_max
        self.cfg = cfg
        self.k_ring = np.zeros((d, cfg.align_proj))
        self.far_ring = np.zeros((d, c_far, f))
        self._far_flat = self.far_ring.reshape(d, -1)
        self.scores = np.zeros(d)  # in lag order
        self.pos = d - 1
        self._slot_of = np.arange(2 * d) % d

    def step(self, mic: np.ndarray, far: np.ndarray, wq, bq, wk, bk):
        """Aligns a block of frames: ``mic`` (c_mic, t, f) and ``far``
        (c_far, t, f), or one (c, f) frame each. The max-pool and the query
        and key projections run once over the block; the ring writes, the
        score recursion, the softmax and the weighted sum run frame by frame.
        Returns the aligned far features, shaped as ``far``, and the delay
        distributions, (t, d_max) or (d_max,) for one frame."""
        cfg = self.cfg
        d, decay = cfg.d_max, cfg.causal_decay
        c_far, f = far.shape[0], far.shape[-1]
        far3 = far.reshape(c_far, -1, f)
        t = far3.shape[1]
        q = _pooled_flat(mic.reshape(mic.shape[0], t, -1), cfg.align_pool) @ wq + bq
        k = _pooled_flat(far3, cfg.align_pool) @ wk + bk
        k_ring, far_ring, far_flat, slot_of = self.k_ring, self.far_ring, self._far_flat, self._slot_of
        scores, pos = self.scores, self.pos
        aligned = np.empty((t, c_far * f))
        dists = np.empty((t, d))
        for i in range(t):
            pos = (pos + 1) % d
            k_ring[pos] = k[i]
            far_ring[pos] = far3[:, i]
            # the slot of each lag; the map is its own inverse, so it also
            # gives the lag held in each slot
            slots = slot_of[pos + d : pos : -1]
            scores *= decay
            scores += (k_ring @ q[i])[slots]
            e = np.exp(scores - scores.max())
            dist = np.divide(e, e.sum(), out=dists[i])
            np.matmul(dist[slots], far_flat, out=aligned[i])
        self.pos = pos
        aligned = aligned.reshape(t, c_far, f).transpose(1, 0, 2)
        return aligned.reshape(far.shape), dists.reshape(far.shape[1:-1] + (d,))


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
    return SpectralFrames(mask * mic_spec.data)


def _prepare_pair(mic: AudioClip, far: AudioClip):
    if mic.sample_rate != far.sample_rate:
        raise ConfigurationError("mic and far sample rates differ")
    n = min(len(mic), len(far))
    if abs(len(mic) - len(far)) > HOP:
        warnings.warn(
            f"length mismatch of {abs(len(mic) - len(far))} samples; trimming to {n}"
        )
    return mic.samples[:n], far.samples[:n]


def enhance(mic: AudioClip, far: AudioClip, store: ParamStore, mode: str = "utterance",
            force_identity_mask: bool = False):
    """stft -> features -> forward -> mask -> istft. Output length equals the
    mic length (zero-padded tail past the last complete frame). A pair
    shorter than one window gives zeros and a uniform delay distribution in
    either mode.

    A "cruse" store runs in utterance mode only, on a ``far`` that is already
    aligned to ``mic``; ``forward`` gives it no delay distribution (None)."""
    mic_s, far_s = _prepare_pair(mic, far)
    full = np.zeros(len(mic))
    uniform = DelayDistribution(np.full(store.cfg.d_max, 1.0 / store.cfg.d_max))
    if len(mic_s) < WIN:
        return AudioClip(full, mic.sample_rate), uniform

    if mode == "causal":
        eng = StreamingEnhancer(store, force_identity_mask=force_identity_mask)
        out = eng.push(mic_s, far_s)
        full[: len(out)] = out
        return AudioClip(full, mic.sample_rate), DelayDistribution(eng.frame_dists, mode="per-frame")

    spec_m = dsp.stft(AudioClip(mic_s, mic.sample_rate))
    spec_f = dsp.stft(AudioClip(far_s, far.sample_rate))
    if force_identity_mask:
        mask = np.ones((1, spec_m.n_frames, N_BINS))
        dist = uniform
    else:
        with ad.no_grad():
            mask_t, dist = forward(store, dsp.log_power(spec_m), dsp.log_power(spec_f),
                                   mode="infer", align_mode="utterance")
        mask = mask_t.data
    enhanced = dsp.istft(apply_mask(mask, spec_m))
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


# Frames per block-kernel call. A whole-clip causal enhance at tiny scale
# takes about the same time at 24 to 48 frames, and longer at 16 and 64.
BLOCK = 32


class _Blocked:
    """Work buffers sized for the longest block seen so far, and their views
    for each block length, made on first use and kept: a call finds its
    views with ``self._views.get(t) or self._new_views(t)``. Subclasses
    define ``_alloc(cap)`` and ``_carve(t)``."""

    def __init__(self):
        self._cap = 0
        self._views: dict[int, tuple] = {}

    def _new_views(self, t: int) -> tuple:
        if t > self._cap:
            self._alloc(t)
            self._cap = t
            self._views.clear()
        views = self._views[t] = self._carve(t)
        return views


class _EncoderBlock(_Blocked):
    """One encoder block (causal conv, batch-norm, ELU) over a block of t
    frames: one GEMM of the weight, a view of the stored one, with the
    block's im2col. The history buffer holds the last k_t - 1 zero-padded
    input frames, carried from block to block, then the block's frames."""

    def __init__(self, store: ParamStore, name: str, f: int):
        super().__init__()
        w = store[f"{name}.w"].data
        self._c_out, self._c_in, self._kt, self._kf = w.shape
        self._w = w.reshape(self._c_out, -1)
        self._scale, self._shift = _bn_affine(store, name, store[f"{name}.b"].data)
        self._f, self._stride = f, store.cfg.conv_stride_f
        self._pad = (self._kf - 1) // 2
        self._f_out = _conv_out(f, self._kf, self._stride)
        self._hist = None

    def _alloc(self, cap: int):
        kt, n_out = self._kt, self._c_out * cap * self._f_out
        old, self._hist = self._hist, np.zeros((self._c_in, kt - 1 + cap, self._f + 2 * self._pad))
        if old is not None:
            self._hist[:, : kt - 1] = old[:, : kt - 1]
        self._cols = np.empty(self._c_in * kt * self._kf * cap * self._f_out)
        self._out = np.empty(n_out)
        self._tmp = np.empty(n_out)

    def _carve(self, t: int) -> tuple:
        c_in, kt, kf, pad, f_out = self._c_in, self._kt, self._kf, self._pad, self._f_out
        hist = self._hist[:, : kt - 1 + t]
        s0, s1, s2 = hist.strides
        im2col = np.lib.stride_tricks.as_strided(
            hist, shape=(c_in, kt, kf, t, f_out), strides=(s0, s1, s2, s1, s2 * self._stride),
            writeable=False,
        )
        cols = self._cols[: c_in * kt * kf * t * f_out].reshape(-1, t * f_out)
        n_out = self._c_out * t * f_out
        out = self._out[:n_out].reshape(self._c_out, -1)
        return (hist[:, kt - 1 :, pad : pad + self._f], im2col, cols.reshape(im2col.shape), cols,
                hist[:, : kt - 1], hist[:, t:], out, out.reshape(self._c_out, t, f_out),
                self._tmp[:n_out].reshape(out.shape))

    def __call__(self, *parts: np.ndarray) -> np.ndarray:
        """Takes the block's (c_in, t, f) input, given as channel blocks in
        order; returns the (c_out, t, f_out) output in a buffer that the next
        call overwrites."""
        t = parts[0].shape[1]
        views = self._views.get(t) or self._new_views(t)
        frames, im2col, cols5, cols, head, tail, out, out3, tmp = views
        c = 0
        for part in parts:
            frames[c : c + part.shape[0]] = part
            c += part.shape[0]
        np.copyto(cols5, im2col)
        head[...] = tail  # carry the last k_t - 1 frames to the next block
        np.matmul(self._w, cols, out=out)
        out *= self._scale
        out += self._shift
        ad.elu_np(out, out, tmp)
        return out3


class _DecoderBlock(_Blocked):
    """Skip connection plus one frequency-transposed conv stage over a block
    of frames: the skip GEMM, then one GEMM of the transposed-conv weight (a
    view) and k_f strided adds. With ``bn`` the stage ends in batch-norm and
    ELU (dec1..dec3); without it the output is the pre-sigmoid mask."""

    def __init__(self, store: ParamStore, skip: str, name: str, f_in: int, f_out: int, bn: bool):
        super().__init__()
        w = store[f"{name}.w"].data
        self._c_in, self._c_out, _, self._kf = w.shape
        self._w = w.reshape(self._c_in, -1).T
        self._skip_w = store[f"{skip}.w"].data
        self._skip_b = store[f"{skip}.b"].data[:, None]
        b = store[f"{name}.b"].data
        if bn:
            self._scale, self._shift = _bn_affine(store, name, b)
        else:
            self._scale, self._shift = np.ones((self._c_out, 1)), b[:, None]
        self._elu = bn
        self._f_in, self._f_out, self._stride = f_in, f_out, store.cfg.conv_stride_f

    def _alloc(self, cap: int):
        n_out = self._c_out * cap * self._f_out
        self._h = np.empty(self._c_in * cap * self._f_in)
        self._y = np.empty(self._c_out * self._kf * cap * self._f_in)
        self._out = np.empty(n_out)
        self._tmp = np.empty(n_out)

    def _carve(self, t: int) -> tuple:
        n_in, n_out = t * self._f_in, self._c_out * t * self._f_out
        h = self._h[: self._c_in * n_in].reshape(self._c_in, n_in)
        y = self._y[: self._c_out * self._kf * n_in].reshape(-1, n_in)
        out = self._out[:n_out].reshape(self._c_out, -1)
        out3 = out.reshape(self._c_out, t, self._f_out)
        taps = ad.deconv_taps(y.reshape(self._c_out, self._kf, t, self._f_in), out3, self._stride)
        return (h, h.reshape(self._c_in, t, self._f_in), y, taps, out, out3,
                self._tmp[:n_out].reshape(out.shape))

    def __call__(self, enc: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``enc`` is the (c_skip, t, f_in) encoder output, ``x`` the
        (c_in, t, f_in) decoder input; returns (c_out, t, f_out) in a buffer
        that the next call overwrites."""
        t = x.shape[1]
        h, h3, y, taps, out, out3, tmp = self._views.get(t) or self._new_views(t)
        np.matmul(self._skip_w, enc.reshape(enc.shape[0], -1), out=h)
        h += self._skip_b
        h3 += x
        np.matmul(self._w, h, out=y)
        out.fill(0.0)
        for dst, src in taps:
            dst += src
        out *= self._scale
        out += self._shift
        if self._elu:
            ad.elu_np(out, out, tmp)
        return out3


class StreamingEnhancer:
    """Causal incremental enhancement: push audio in arbitrary chunk sizes,
    receive enhanced samples with 20 ms algorithmic latency.

    The frames a push completes run as consecutive blocks of at most
    ``BLOCK`` frames. The convs, batch-norm affines, ELUs, skips and
    transposed convs run once per block over carried state; only the GRU
    and the alignment recursion step frame by frame. Output is chunk-size
    invariant up to rounding: any chunking gives the samples and delay
    distributions of a single push of the whole clip (the tests hold them
    to 1e-12).

    The store is read when the engine is built: conv, GRU and alignment
    weights by view, batch-norm statistics folded into per-channel affines.
    Work buffers are made by the first push that needs them. Build a new
    engine after changing the store.

    Mic and far are framed as one stacked pair, so they cannot fall out of
    lockstep: a push of unequal chunks raises ShapeError before any state
    changes. Analysis and synthesis are the ``dsp`` functions that
    ``enhance`` uses; the last half-window of each push's overlap-add is
    carried into the next. Non-finite input samples are replaced by 0 before
    framing and counted in ``sanitized_samples``. ``frame_dists`` holds the
    (n, d_max) delay distributions of the n frames the last push completed.
    """

    def __init__(self, store: ParamStore, force_identity_mask: bool = False):
        if store.arch != "align":
            raise ConfigurationError("streaming requires an 'align' parameter store")
        self.store = store
        self.cfg = cfg = store.cfg
        self.force_identity_mask = force_identity_mask
        self.sanitized_samples = 0
        freqs = cfg.enc_freqs
        in_freq = {"mic1": freqs[0], "mic2": freqs[1], "far1": freqs[0],
                   "far2": freqs[1], "enc3": freqs[2], "enc4": freqs[3]}
        self._enc = [_EncoderBlock(store, n, in_freq[n]) for n in ENC_BLOCKS]
        self._dec = [_DecoderBlock(store, f"skip{i + 1}", name, freqs[4 - i], freqs[3 - i], bn=True)
                     for i, name in enumerate(DEC_STAGE_NAMES)]
        self._dec.append(_DecoderBlock(store, "skip4", "mask", freqs[1], cfg.n_bins, bn=False))
        self._align = AlignState(cfg, cfg.far_channels[1], freqs[2])
        self._align_w = tuple(store[n].data for n in ALIGN_WEIGHTS)
        self._gru_w = tuple(store[n].data for n in ("gru.wih", "gru.whh", "gru.b"))
        self._h = np.zeros(cfg.gru_hidden)
        self._gain = store["mask.gain"].data[0]
        self._framer = dsp.StreamingFramer()  # frames mic and far as one (2, n) pair
        self._ola_tail = np.zeros(HOP)
        self.frame_dists = np.zeros((0, cfg.d_max))

    def _block(self, feat_m: np.ndarray, feat_f: np.ndarray):
        """Pre-sigmoid mask and delay distributions of a block of frames
        from their (1, t, n_bins) log-power features."""
        mic1, mic2, far1, far2, enc3, enc4 = self._enc
        m1 = mic1(feat_m)
        m2 = mic2(m1)
        f2 = far2(far1(feat_f))
        aligned, dists = self._align.step(m2, f2, *self._align_w)
        e3 = enc3(m2, aligned)
        e4 = enc4(e3)
        c, t, f = e4.shape
        gru_in = e4.transpose(1, 0, 2).reshape(t, c * f)
        h = self._h
        hs = np.empty((t, h.size))
        for i in range(t):
            h = hs[i] = ad.gru_step_np(*self._gru_w, gru_in[i], h)[0]
        self._h = h
        x = hs.reshape(t, -1, f).transpose(1, 0, 2)
        for stage, skip in zip(self._dec, (e4, e3, m2, m1)):
            x = stage(skip, x)
        return x[0], dists

    def push(self, mic_chunk: np.ndarray, far_chunk: np.ndarray) -> np.ndarray:
        """Consumes equal-length sample chunks, returns enhanced samples. A
        pair of unequal chunks raises ShapeError and changes no state."""
        mic = np.asarray(mic_chunk, dtype=np.float64)
        far = np.asarray(far_chunk, dtype=np.float64)
        if mic.ndim != 1 or mic.shape != far.shape:
            raise ShapeError(f"mic and far chunks must be 1-D and of equal length, "
                             f"got {mic.shape} and {far.shape}")
        pair, bad = dsp.sanitize(np.array([mic, far]))
        self.sanitized_samples += bad
        frames = self._framer.push(pair)
        n = frames.shape[1]
        self.frame_dists = np.empty((n, self.cfg.d_max))
        if n == 0:
            return np.zeros(0)
        spec = dsp.analyze(frames)
        # mic frames then far frames as one (2n, bins) spectrum, so one
        # log_power call serves both
        feat = dsp.log_power(SpectralFrames(spec.reshape(2 * n, N_BINS)))
        pre = np.empty((n, N_BINS))
        for s in range(0, n, BLOCK):
            e = min(s + BLOCK, n)
            pre[s:e], self.frame_dists[s:e] = self._block(feat[:, s:e], feat[:, n + s : n + e])
        if self.force_identity_mask:
            mask = np.ones_like(pre)
        else:
            with np.errstate(over="ignore"):
                mask = self._gain / (1.0 + np.exp(-pre))

        out = dsp.overlap_add(dsp.synthesize(mask * spec[0]))
        out[:HOP] += self._ola_tail
        self._ola_tail = out[-HOP:].copy()
        return out[:-HOP]
