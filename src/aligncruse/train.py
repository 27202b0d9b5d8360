"""Loss, optimizer and the training loop.

The loss is a compressed spectral MSE blending a phase-aware complex term
with a magnitude term, computed after propagating the enhanced time-domain
signal through the analysis transform again (consistency pass). Optimization
is Adam with decoupled weight decay and global gradient-norm clipping.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dsp
from .alignment import apply_delay
from .autodiff import Tensor
from .data import Scenario
from .dsp import N_BINS, AudioClip
from .errors import ConfigurationError, NumericsError
from .evaluation import align_success, erle
from .model import ParamStore, enhance, forward
from .params_io import load_params, save_params

PAPER_BATCH = 400
PAPER_LR = 1.5e-4


@dataclass
class LossConfig:
    compression: float = 0.3
    blend: float = 0.7          # weight of the complex (phase-aware) term

    def __post_init__(self):
        if not (0.0 < self.compression <= 1.0):
            raise ConfigurationError("compression must be in (0, 1]")
        if not (0.0 <= self.blend <= 1.0):
            raise ConfigurationError("blend must be in [0, 1]")


@dataclass
class OptimConfig:
    lr: float = PAPER_LR
    weight_decay: float = 5e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch: int = PAPER_BATCH
    epochs: int = 150
    grad_clip_norm: float = 5.0

    def __post_init__(self):
        for name in ("lr", "weight_decay", "beta1", "beta2", "eps", "grad_clip_norm"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.batch < 1 or self.epochs < 1:
            raise ConfigurationError("batch and epochs must be >= 1")

    @classmethod
    def linear_scaled(cls, batch: int, **kw) -> "OptimConfig":
        """Learning rate scaled linearly with batch size from the reference
        (batch 400, lr 1.5e-4)."""
        return cls(lr=PAPER_LR * batch / PAPER_BATCH, batch=batch, **kw)


def _stacked_spec(clip_samples: np.ndarray) -> np.ndarray:
    spec = dsp.stft(AudioClip(clip_samples)).data
    return np.stack([spec.real, spec.imag])


def loss_ccmse(enhanced_time: Tensor, target: AudioClip, cfg: LossConfig) -> Tensor:
    """Spectral compressed loss between an in-graph waveform and a target
    clip. Both sides pass through the same analysis transform, so equal
    signals give exactly zero."""
    n = enhanced_time.data.shape[0]
    if len(target) < n:
        raise ConfigurationError("target shorter than the enhanced signal")
    spec_hat = ad.stft_graph(enhanced_time)
    spec_ref = _stacked_spec(target.samples[:n])
    loss = ad.ccmse_loss(spec_hat, spec_ref, cfg.compression, cfg.blend)
    if not np.isfinite(loss.data):
        raise NumericsError("non-finite loss")
    return loss


def clip_loss(store: ParamStore, sc: Scenario, loss_cfg: LossConfig) -> tuple[Tensor, dict]:
    """Forward + loss for one scenario. Returns the scalar loss node and a
    dict with the utterance delay distribution for metric logging."""
    n = min(len(sc.mic), len(sc.far))
    spec_m = dsp.stft(AudioClip(sc.mic.samples[:n]))
    spec_const = np.stack([spec_m.data.real, spec_m.data.imag])

    far = AudioClip(sc.far.samples[:n])
    if store.arch == "cruse":
        far = apply_delay(far, sc.delay)  # the ground-truth alignment the baseline trains on
    spec_f = dsp.stft(far)
    mask, dist = forward(store, dsp.log_power(spec_m), dsp.log_power(spec_f),
                         mode="train", align_mode="utterance")

    t = spec_m.n_frames
    mask2d = ad.reshape(mask, (t, N_BINS))
    enhanced_spec = ad.mul(Tensor(spec_const), mask2d)
    wave = ad.istft_graph(enhanced_spec)
    loss = loss_ccmse(wave, sc.target, loss_cfg)
    aux = {"dist": dist, "frames": t}
    return loss, aux


# -- Adam -------------------------------------------------------------------------

class AdamState:
    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0
        self.skipped = 0

    def to_records(self) -> dict:
        out = {"adam.step": np.array([float(self.step)]),
               "adam.skipped": np.array([float(self.skipped)])}
        for name, arr in self.m.items():
            out[f"adam.m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"adam.v.{name}"] = arr
        return out

    @classmethod
    def from_records(cls, records: dict) -> "AdamState":
        state = cls()
        state.step = int(records.get("adam.step", np.zeros(1))[0])
        state.skipped = int(records.get("adam.skipped", np.zeros(1))[0])
        for key, arr in records.items():
            if key.startswith("adam.m."):
                state.m[key[len("adam.m."):]] = arr.copy()
            elif key.startswith("adam.v."):
                state.v[key[len("adam.v."):]] = arr.copy()
        return state


def adam_step(store: ParamStore, state: AdamState, cfg: OptimConfig,
              grads: dict | None = None) -> dict:
    """One update: global-norm clipping, bias-corrected Adam, decoupled weight
    decay (scaled by lr, so lr == 0 freezes everything). A non-finite gradient
    skips the step and reports it."""
    named = store.trainable()
    if grads is None:
        grads = {n: (t.grad if t.grad is not None else np.zeros_like(t.data)) for n, t in named}
    for n, _ in named:
        if n not in grads:
            raise ConfigurationError(f"missing gradient for {n!r}")
    if any(not np.all(np.isfinite(g)) for g in grads.values()):
        state.skipped += 1
        return {"skipped": True, "reason": "non-finite gradient"}

    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    scale = 1.0
    if cfg.grad_clip_norm > 0 and total > cfg.grad_clip_norm:
        scale = cfg.grad_clip_norm / total

    state.step += 1
    bc1 = 1.0 - cfg.beta1**state.step
    bc2 = 1.0 - cfg.beta2**state.step
    for name, tensor in named:
        g = grads[name] * scale
        m = state.m.setdefault(name, np.zeros_like(tensor.data))
        v = state.v.setdefault(name, np.zeros_like(tensor.data))
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        tensor.data = tensor.data * (1.0 - cfg.lr * cfg.weight_decay) \
            - cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
    return {"skipped": False, "grad_norm": total}


# -- loop -------------------------------------------------------------------------

def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence([seed, 1000 + epoch])))
    return rng.permutation(n)


def validate(store: ParamStore, val_set: list[Scenario]) -> dict:
    """Mean ERLE and alignment top-1 (±1 frame) over a fixed validation set."""
    erles, hits = [], []
    for sc in val_set:
        if store.arch == "align":
            out, dist = enhance(sc.mic, sc.far, store)
            hits.append(align_success(int(dist.argmax()), sc.delay))
        else:
            # validation mirrors the training condition: ground-truth alignment
            out, _ = enhance(sc.mic, apply_delay(sc.far, sc.delay), store)
        erles.append(erle(sc.mic, out))
    result = {"val_erle_db": float(np.mean(erles))}
    result["align_top1"] = float(np.mean(hits)) if hits else None
    return result


def train_loop(provider, store: ParamStore, optim_cfg: OptimConfig,
               loss_cfg: LossConfig, *, seed: int = 0, out_dir=None,
               val_set: list[Scenario] | None = None,
               resume_from=None, quiet: bool = True) -> list[dict]:
    """Trains in place. ``provider(epoch)`` returns the epoch's scenario list
    (deterministic in epoch, so runs are reproducible and resumable).

    Writes one checkpoint per epoch plus an append-only metrics log when
    ``out_dir`` is given. Aborts on sustained divergence (loss above 10x the
    first epoch's for 3 consecutive epochs).
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    state = AdamState()
    start_epoch = 0
    history: list[dict] = []
    if resume_from is not None:
        loaded, extra = load_params(resume_from)
        store.tensors = loaded.tensors
        store.bn_stats = loaded.bn_stats
        state = AdamState.from_records(extra)
        start_epoch = int(extra.get("epoch", np.zeros(1))[0]) + 1

    first_loss = None
    bad_epochs = 0
    for epoch in range(start_epoch, optim_cfg.epochs):
        t0 = time.perf_counter()
        scenarios = provider(epoch)
        if not scenarios:
            raise ConfigurationError("provider returned no scenarios")
        order = _epoch_order(seed, epoch, len(scenarios))
        losses = []
        events = []
        for lo in range(0, len(order), optim_cfg.batch):
            batch = [scenarios[i] for i in order[lo : lo + optim_cfg.batch]]
            store.zero_grad()
            batch_vals = []
            # per-op finite checks off for speed; the loss and the gradients
            # are still checked before every optimizer step
            check_prev, ad.CHECK_FINITE = ad.CHECK_FINITE, False
            try:
                for sc in batch:
                    loss, _ = clip_loss(store, sc, loss_cfg)
                    scaled = ad.mul(loss, Tensor(np.asarray(1.0 / len(batch))))
                    ad.backward(scaled)
                    batch_vals.append(float(loss.data))
            finally:
                ad.CHECK_FINITE = check_prev
            losses.extend(batch_vals)
            outcome = adam_step(store, state, optim_cfg)
            if outcome["skipped"]:
                events.append({"event": "step_skipped", **outcome})
        mean_loss = float(np.mean(losses))
        row = {"epoch": epoch, "loss": mean_loss}
        if val_set:
            row.update(validate(store, val_set))
        else:
            row.update({"val_erle_db": None, "align_top1": None})
        row["wall_s"] = round(time.perf_counter() - t0, 3)
        history.append(row)
        if not quiet:
            print(json.dumps(row))
        if out_dir is not None:
            with open(out_dir / "metrics.jsonl", "a") as fh:
                for ev in events:
                    fh.write(json.dumps({"epoch": epoch, **ev}) + "\n")
                fh.write(json.dumps(row) + "\n")
            extra = state.to_records()
            extra["epoch"] = np.array([float(epoch)])
            save_params(out_dir / f"ckpt_epoch{epoch:03d}.acrs", store, extra=extra)
            save_params(out_dir / "latest.acrs", store, extra=extra)

        if first_loss is None:
            first_loss = mean_loss
        bad_epochs = bad_epochs + 1 if mean_loss > 10.0 * first_loss else 0
        if bad_epochs >= 3:
            raise NumericsError(
                f"divergence: loss {mean_loss:.4g} above 10x the initial {first_loss:.4g} "
                f"for 3 consecutive epochs"
            )
    return history
