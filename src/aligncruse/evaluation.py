"""Objective evaluation: echo-suppression ERLE and delay-recovery scoring for
both the model and the classical aligners. Runtime is measured by
``perfbench``, not here.

AECMOS and human MOS columns are reported as N/A: they need an external
neural scorer / crowd raters and are out of scope here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .alignment import DEFAULT_MAX_DELAY, global_delay, online_delay
from .dsp import HOP, AudioClip
from .errors import ConfigurationError, ShapeError
from .model import ParamStore, enhance

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
            fh.write(json.dumps({"system": self.system, "aggregates": agg}) + "\n")

    def render_table(self) -> str:
        agg = self.aggregates()
        modes = sorted({r["align_mode"] for r in self.rows if "align_mode" in r})
        mode_note = f"   align_mode: {', '.join(modes)}" if modes else ""

        def fmt(mean_key, ci_key):
            if mean_key not in agg:
                return "n/a"
            return f"{agg[mean_key]:.2f} ± {agg.get(ci_key, 0.0):.2f}"

        lines = [
            f"system: {self.system}{mode_note}   clips: {agg.get('n', 0)}   skipped: {agg.get('skipped', 0)}",
            f"{'metric':<24}{'value':>18}",
            "-" * 42,
            f"{'ERLE (dB)':<24}{fmt('mean_erle_db', 'ci95_erle_db'):>18}",
            f"{'|delay err| (frames)':<24}{fmt('mean_abs_delay_err_frames', 'ci95_abs_delay_err_frames'):>18}",
            f"{'delay success@±1':<24}{agg.get('success_at_1', float('nan')):>18.2%}"
            if "success_at_1" in agg else f"{'delay success@±1':<24}{'n/a':>18}",
            f"{'AECMOS':<24}{'N/A (out of scope)':>18}",
            f"{'MOS':<24}{'N/A (out of scope)':>18}",
        ]
        return "\n".join(lines)


def delay_recovery_report(system: str, manifest_rows: list, base_dir,
                          store: ParamStore | None = None,
                          max_delay: int = DEFAULT_MAX_DELAY) -> EvalReport:
    """Scores delay estimation (and ERLE when a model is given) per clip.

    ``system`` is one of: "model" (alignment from the network's delay
    distribution, in utterance mode, which each row names as its
    ``align_mode``), "global" or "online" (classical estimators).
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
            out, dist = enhance(mic, far, store, mode="utterance")
            est_frames = int(dist.argmax())
            entry["align_mode"] = "utterance"
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

