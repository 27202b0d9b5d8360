"""Objective evaluation: echo-suppression ERLE, delay-recovery scoring for
both the model and the classical aligners, and streaming runtime benchmarks.

AECMOS and human MOS columns are reported as N/A: they need an external
neural scorer / crowd raters and are out of scope here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .alignment import DEFAULT_MAX_DELAY, global_delay, online_delay
from .dsp import HOP, SAMPLE_RATE, WIN, AudioClip
from .errors import ConfigurationError, ShapeError
from .model import ParamStore, StreamingEnhancer, enhance

ERLE_EPS = 1e-12
ERLE_MIN, ERLE_MAX = -20.0, 80.0


def erle(mic: AudioClip, enhanced: AudioClip) -> float:
    """Echo return loss enhancement over the whole clip, clamped to
    [-20, 80] dB. Meaningful on far-end single-talk material."""
    if len(mic) != len(enhanced):
        raise ShapeError(f"length mismatch: mic {len(mic)} vs enhanced {len(enhanced)}")
    num = float(np.sum(mic.samples**2)) + ERLE_EPS
    den = float(np.sum(enhanced.samples**2)) + ERLE_EPS
    return float(np.clip(10.0 * np.log10(num / den), ERLE_MIN, ERLE_MAX))


def align_success(est_delay_frames: int, true_delay_samples: int, tol_frames: int = 1) -> bool:
    true_frames = int(round(true_delay_samples / HOP))
    return abs(est_delay_frames - true_frames) <= tol_frames


def confidence_interval(values) -> float:
    """Half-width of the normal 95% interval: 1.96 * sigma / sqrt(n)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


@dataclass
class EvalReport:
    system: str
    rows: list = field(default_factory=list)
    runtime: dict = field(default_factory=dict)
    warnings: int = 0

    def add_row(self, **kw):
        self.rows.append(kw)

    def aggregates(self) -> dict:
        out: dict = {"n": len(self.rows), "skipped": self.warnings}
        if not self.rows:
            return out
        for key in ("erle_db", "abs_delay_err_frames"):
            vals = [r[key] for r in self.rows if r.get(key) is not None]
            if vals:
                out[f"mean_{key}"] = float(np.mean(vals))
                out[f"ci95_{key}"] = confidence_interval(vals)
        succ = [r["success_at_1"] for r in self.rows if r.get("success_at_1") is not None]
        if succ:
            out["success_at_1"] = float(np.mean(succ))
        out["aecmos"] = None  # needs the external neural scorer; out of scope
        out["mos"] = None     # needs human raters; out of scope
        return out

    def to_jsonl(self, path) -> None:
        agg = self.aggregates()
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps({"system": self.system, **row}) + "\n")
            fh.write(json.dumps({"system": self.system, "aggregates": agg,
                                 "runtime": self.runtime}) + "\n")

    def render_table(self) -> str:
        agg = self.aggregates()
        def fmt(mean_key, ci_key):
            if mean_key not in agg:
                return "n/a"
            return f"{agg[mean_key]:.2f} ± {agg.get(ci_key, 0.0):.2f}"

        lines = [
            f"system: {self.system}   clips: {agg.get('n', 0)}   skipped: {agg.get('skipped', 0)}",
            f"{'metric':<24}{'value':>18}",
            "-" * 42,
            f"{'ERLE (dB)':<24}{fmt('mean_erle_db', 'ci95_erle_db'):>18}",
            f"{'|delay err| (frames)':<24}{fmt('mean_abs_delay_err_frames', 'ci95_abs_delay_err_frames'):>18}",
            f"{'delay success@±1':<24}{agg.get('success_at_1', float('nan')):>18.2%}"
            if "success_at_1" in agg else f"{'delay success@±1':<24}{'n/a':>18}",
            f"{'AECMOS':<24}{'N/A (out of scope)':>18}",
            f"{'MOS':<24}{'N/A (out of scope)':>18}",
        ]
        if self.runtime:
            lines.append(f"{'ms per frame':<24}{self.runtime.get('ms_per_frame', float('nan')):>18.3f}")
            lines.append(f"{'real-time factor':<24}{self.runtime.get('real_time_factor', float('nan')):>18.3f}")
        return "\n".join(lines)


def delay_recovery_report(system: str, manifest_rows: list, base_dir,
                          store: ParamStore | None = None,
                          max_delay: int = DEFAULT_MAX_DELAY) -> EvalReport:
    """Scores delay estimation (and ERLE when a model is given) per clip.

    ``system`` is one of: "model" (alignment from the network's delay
    distribution), "global" or "online" (classical estimators).
    Rows without ground truth are skipped with a warning count.
    """
    if system not in ("model", "global", "online"):
        raise ConfigurationError(f"unknown system {system!r}")
    if system == "model" and (store is None or store.arch != "align"):
        raise ConfigurationError("system 'model' needs an 'align' parameter store")
    base = Path(base_dir)
    report = EvalReport(system=system)
    for row in manifest_rows:
        true_delay = row.get("delay_samples")
        if true_delay is None:
            report.warnings += 1
            continue
        mic = dsp.read_wav(base / row["mic_path"])
        far = dsp.read_wav(base / row["far_path"])
        entry: dict = {"id": row.get("id"), "true_delay_frames": int(round(true_delay / HOP))}
        if system == "model":
            out, dist = enhance(mic, far, store)
            est_frames = int(dist.argmax()) if dist.mode == "utterance" else int(dist.argmax()[-1])
            entry["erle_db"] = erle(mic, out)
            entry["align_argmax_frames"] = est_frames
        else:
            est = (global_delay if system == "global" else online_delay)(mic, far, max_delay)
            est_frames = int(round(est.delay / HOP))
            entry["align_argmax_frames"] = est_frames
            entry["confidence"] = est.confidence
        entry["abs_delay_err_frames"] = abs(est_frames - entry["true_delay_frames"])
        entry["success_at_1"] = entry["abs_delay_err_frames"] <= 1
        report.add_row(**entry)
    return report


def benchmark_runtime(store: ParamStore, n_frames: int = 10000, warmup: int = 100,
                      seed: int = 0) -> dict:
    """Median time per 10 ms frame of the streaming engine, single stream,
    plus the derived real-time factor.

    Times are process CPU time, so time that a shared host takes away from
    the process (steal) does not enter the median as the wall clock would.
    """
    rng = np.random.default_rng(seed)
    eng = StreamingEnhancer(store)
    # prime the framer so every push below completes exactly one frame
    eng.push(rng.standard_normal(WIN - HOP) * 0.1, rng.standard_normal(WIN - HOP) * 0.1)
    times = np.empty(n_frames)
    chunks_mic = rng.standard_normal((warmup + n_frames, HOP)) * 0.1
    chunks_far = rng.standard_normal((warmup + n_frames, HOP)) * 0.1
    for i in range(warmup):
        eng.push(chunks_mic[i], chunks_far[i])
    for i in range(n_frames):
        t0 = time.process_time()
        eng.push(chunks_mic[warmup + i], chunks_far[warmup + i])
        times[i] = time.process_time() - t0
    ms = float(np.median(times) * 1e3)
    return {
        "ms_per_frame": ms,
        "real_time_factor": ms / (1e3 * HOP / SAMPLE_RATE),
        "n_frames": n_frames,
    }
