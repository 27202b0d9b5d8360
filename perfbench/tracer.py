"""Spans around the public functions of each layer, installed from outside.

``Tracer.start`` replaces module and class attributes of ``aligncruse`` with
timed wrappers and ``Tracer.stop`` puts the originals back, so nothing in
the program changes and an untraced run pays nothing. Each span records its
name, its duration in process CPU time (the clock of the end-to-end
metrics), its self time (duration minus the time of the spans it caused)
and the name of the span that caused it; the tracer keeps the sums per name
in memory.

Autodiff ops are timed twice: the forward call, and the backward closure the
op leaves on its output tensor, which ``autodiff.backward`` calls later.
Both count towards the op.
"""

from __future__ import annotations

import time
from collections import defaultdict

from aligncruse import alignment, autodiff, dsp, model, params_io, train

SR = dsp.SAMPLE_RATE
HOP = 160
AD_OPS = ("conv2d_causal", "conv2d_transpose", "batch_norm", "elu", "gru_seq",
          "delay_scores", "weighted_delay_sum", "stft_graph", "istft_graph", "ccmse_loss")


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)      # name -> seconds
        self.self_time = defaultdict(float)  # name -> seconds not covered by child spans
        self.calls = defaultdict(int)
        self.audio_s = defaultdict(float)    # name -> seconds of audio given to the call
        self.parents = defaultdict(set)      # name -> names of the spans that caused it
        self.counts = defaultdict(int)       # plain counters, no timing
        self._stack: list[list] = []         # [name, start, child seconds]
        self._installed: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.process_time(), 0.0])

    def _exit(self, audio_s=0.0):
        name, start, child = self._stack.pop()
        dur = time.process_time() - start
        parent = self._stack[-1][0] if self._stack else None
        if parent is not None:
            self._stack[-1][2] += dur
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        self.audio_s[name] += audio_s
        self.parents[name].add(parent)

    def active(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span_summary(self) -> dict:
        return {name: {"calls": self.calls[name], "total_ms": self.total[name] * 1e3,
                       "self_ms": self.self_time[name] * 1e3, "audio_s": self.audio_s[name],
                       "parents": sorted(p or "-" for p in self.parents[name])}
                for name in sorted(self.total) if self.calls[name]}

    # -- wrappers ------------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, name, audio_s=None, name_of=None):
        """Times every call of ``owner.attr``.

        ``audio_s(args, result)`` gives the seconds of audio the call was
        given; ``name_of(args, kwargs)`` picks the span name per call.
        """
        original = owner.__dict__[attr]

        def timed(*args, **kwargs):
            self._enter(name_of(args, kwargs) if name_of else name)
            done = False
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                self._exit(audio_s(args, result) if audio_s and done else 0.0)

        self._replace(owner, attr, timed)

    def wrap_op(self, attr):
        """Times an autodiff op's forward call and its backward closure."""
        original = autodiff.__dict__[attr]
        name = f"ad.{attr}"

        def timed(*args, **kwargs):
            self._enter(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self._exit()
            bwd = out._backward_fn
            if bwd is not None:
                def timed_bwd(g):
                    self._enter(name)
                    try:
                        bwd(g)
                    finally:
                        self._exit()
                out._backward_fn = timed_bwd
            return out

        self._replace(autodiff, attr, timed)

    def count(self, owner, attr, name):
        """Counts calls without timing them."""
        original = owner.__dict__[attr]

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    # -- the layers --------------------------------------------------------

    def start(self):
        """Wraps the public functions of every layer the benchmark reports.

        A function is wrapped under each name its callers look it up by:
        ``train`` imports ``forward`` and calls it as ``train.forward``, and
        that span is kept apart from ``model.forward`` as called by enhance.
        """
        if self._installed:
            raise RuntimeError("tracer already started")

        def in_push(inside, outside):
            return lambda args, kwargs: inside if self.active("stream.push") else outside

        def frames_s(args, result):
            return args[1].shape[1] * HOP / SR

        self.wrap(model.StreamingEnhancer, "push", "stream.push",
                  audio_s=lambda a, r: len(a[1]) / SR)
        self.wrap(dsp.StreamingFramer, "push", "stream.framer")
        self.wrap(model.AlignState, "step", None, name_of=in_push("stream.align", "graph.align_step"))
        self.wrap(autodiff, "gru_step_np", None, name_of=in_push("stream.gru", "ad.gru_step"))
        self.wrap(model, "enhance", None, audio_s=lambda a, r: len(a[0]) / SR,
                  name_of=lambda a, k: "enhance." + k.get("mode", "utterance"))
        self.wrap(model, "forward", "graph.forward", audio_s=frames_s)
        self.wrap(dsp, "stft", "dsp.stft", audio_s=lambda a, r: len(a[0]) / SR)
        self.wrap(dsp, "istft", "dsp.istft", audio_s=lambda a, r: len(r) / SR)
        self.wrap(dsp, "read_wav", "wav.read", audio_s=lambda a, r: len(r) / SR)
        self.wrap(dsp, "write_wav", "wav.write", audio_s=lambda a, r: len(a[1]) / SR)
        for op in AD_OPS:
            self.wrap_op(op)
        self.count(autodiff, "_make", "ad.ops")
        self.wrap(train, "clip_loss", "train.clip_loss",
                  audio_s=lambda a, r: min(len(a[1].mic), len(a[1].far)) / SR)
        self.wrap(train, "forward", "train.forward", audio_s=frames_s)
        self.wrap(train, "loss_ccmse", "train.loss", audio_s=lambda a, r: a[0].shape[0] / SR)
        self.wrap(autodiff, "backward", "train.backward")
        self.wrap(train, "adam_step", "train.adam")
        self.wrap(alignment.OnlineDelayEstimator, "push", "online.push")
        self.wrap(alignment, "fftconvolve", "online.fftconvolve")
        self.wrap(params_io, "load_params", "params.load")

    def stop(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, retained_kb_per_min: dict) -> dict:
        """Every per-layer metric as (value, unit). A layer the workload does
        not run reads 0."""
        def ratio(a, b):
            return a / b if b else 0.0

        t, n = self.total, self.calls
        frames = self.audio_s["stream.push"] * SR / HOP
        graph_s = self.audio_s["graph.forward"] + self.audio_s["train.forward"]
        out = {
            "stream.push_ms": (ratio(t["stream.push"] * 1e3, frames), "ms"),
            "stream.framer_ms": (ratio(t["stream.framer"] * 1e3, frames), "ms"),
            "stream.align_ms": (ratio(t["stream.align"] * 1e3, frames), "ms"),
            "stream.gru_ms": (ratio(t["stream.gru"] * 1e3, frames), "ms"),
            "stream.rest_ms": (ratio(self.self_time["stream.push"] * 1e3, frames), "ms"),
            "stream.retained_kb_per_min": (retained_kb_per_min.get("stream", 0.0), "KB/min"),
            "online.retained_kb_per_min": (retained_kb_per_min.get("online", 0.0), "KB/min"),
        }
        for metric, span in (("enhance.utterance", "enhance.utterance"),
                             ("enhance.causal", "enhance.causal"),
                             ("graph.forward", "graph.forward"),
                             ("dsp.stft", "dsp.stft"), ("dsp.istft", "dsp.istft"),
                             ("wav.read", "wav.read"), ("wav.write", "wav.write")):
            out[f"{metric}_ms_per_s"] = (ratio(t[span] * 1e3, self.audio_s[span]), "ms/s")
        for op in AD_OPS:
            out[f"ad.{op}_ms_per_s"] = (ratio(t[f"ad.{op}"] * 1e3, graph_s), "ms/s")
        out["ad.ops_per_clip_s"] = (ratio(self.counts["ad.ops"], graph_s), "1/s")
        trained_s = self.audio_s["train.clip_loss"]
        out.update({
            "train.clip_loss_ms_per_s": (ratio(t["train.clip_loss"] * 1e3, trained_s), "ms/s"),
            "train.forward_ms_per_s": (ratio(t["train.forward"] * 1e3, self.audio_s["train.forward"]), "ms/s"),
            "train.loss_ms_per_s": (ratio(t["train.loss"] * 1e3, self.audio_s["train.loss"]), "ms/s"),
            "train.backward_ms_per_s": (ratio(t["train.backward"] * 1e3, trained_s), "ms/s"),
            "train.adam_ms": (ratio(t["train.adam"] * 1e3, n["train.adam"]), "ms"),
            "online.push_ms": (ratio(t["online.push"] * 1e3, n["online.push"]), "ms"),
            "online.fftconvolve_ms": (ratio(t["online.fftconvolve"] * 1e3, n["online.push"]), "ms"),
            "params.load_ms": (ratio(t["params.load"] * 1e3, n["params.load"]), "ms"),
        })
        return out
