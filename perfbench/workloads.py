"""The four workloads of the benchmark, each with its output checks.

Every workload follows the same steps:

1. make the inputs from the seed (checkpoint, clips, WAVs) before any
   timer starts;
2. set-up, repeated and timed: what a user pays before the first output;
3. warm-up, untimed;
4. the timed closed loop: one caller, one stream, each call issued when the
   previous one returns, until the run's seconds are spent;
5. ``check``: the outputs against a computation made apart from the code
   path under test, or against a property the method must have.

A workload returns a ``Run``. Its ``evidence`` holds the outputs the check
reads, so a test can corrupt one and see the check fail.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aligncruse import alignment, data, dsp, model, params_io, train
from aligncruse import autodiff as ad

SR = dsp.SAMPLE_RATE
HOP = 160
# Service times are CPU seconds of this process. The reference machine is a
# shared VM whose hypervisor takes the CPU away for milliseconds at a time
# (steal time); with paravirtual time accounting the process CPU clock leaves
# those out, where the wall clock put them into the p99 of a push. BLAS is
# pinned to one thread, so the process CPU time is the program's service
# time. The run's length is wall-clock time.
cpu = time.process_time
wall = time.perf_counter


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    audio_x: float = 0.0
    frame_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    loop_wall_s: float = 0.0   # wall and CPU seconds of the timed loop, so the
    loop_cpu_s: float = 0.0    # share of time the host took away can be reported
    retained_kb_per_min: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)


# -- shared helpers ---------------------------------------------------------------

@contextlib.contextmanager
def traced(tracer):
    """Spans are recorded only inside this block: set-up and the timed loop,
    never input generation, warm-up or the checks."""
    if tracer is not None:
        tracer.start()
    try:
        yield
    finally:
        if tracer is not None:
            tracer.stop()


@contextlib.contextmanager
def timed_loop(run: Run):
    w0, c0 = wall(), cpu()
    try:
        yield
    finally:
        run.loop_wall_s += wall() - w0
        run.loop_cpu_s += cpu() - c0


def median_setup(build, reps: int):
    """Runs ``build`` ``reps`` times; returns the median seconds and the last
    thing built."""
    times, built = [], None
    for _ in range(reps):
        t0 = cpu()
        built = build()
        times.append(cpu() - t0)
    return float(np.median(times)), built


def push_rate(push_s: list) -> float:
    """Audio seconds per second of service time over a run of 10 ms pushes.

    A mean, not a median of blocks: the shared host runs slow for spells of
    tens of seconds, and a median over a run snaps to whichever speed held
    for most of it, where the mean moves in proportion.
    """
    return len(push_s) * HOP / SR / float(np.sum(push_s))


def write_checkpoint(path: Path, cfg: model.ModelConfig, seed: int) -> Path:
    params_io.save_params(path, model.init_params(cfg, seed=seed))
    return path


def chunks(x: np.ndarray):
    return [x[i: i + HOP] for i in range(0, len(x) - HOP + 1, HOP)]


def measure_retained(step, n: int, warm: int = 100) -> float:
    """KB that stay allocated per minute of audio, over ``n`` 10 ms steps
    taken once warm; ``step(i)`` makes the i-th push.

    Tracing starts before the warm-up steps: a buffer allocated before it
    and replaced after it would count as growth, since its free is not seen.
    """
    tracemalloc.start()
    try:
        for i in range(warm):
            step(i)
        before = tracemalloc.get_traced_memory()[0]
        for i in range(warm, warm + n):
            step(i)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / 1024.0 * (60.0 * SR / HOP) / n


# -- stream-paper -----------------------------------------------------------------

STREAM = {"full": {"clip_s": 60.0, "check_s": 3.0, "setup_reps": 21, "retained_pushes": 1000},
          "quick": {"clip_s": 4.0, "check_s": 1.0, "setup_reps": 2, "retained_pushes": 50}}


def stream_paper(seed: int, seconds: float, work: Path, tracer=None, size="full") -> Run:
    """Paper-scale StreamingEnhancer fed a long LD-H scenario 10 ms at a time."""
    p = STREAM[size]
    ckpt = write_checkpoint(work / "paper.acrs", model.ModelConfig.paper(), seed)
    sc = data.synth_scenario(data.ld_scenario_config("h", data.child_seed(seed, 0), p["clip_s"]))
    mic, far = chunks(sc.mic.samples), chunks(sc.far.samples)
    n_chunks = len(mic)
    check_pushes = int(p["check_s"] * SR / HOP)

    def build():
        store, _ = params_io.load_params(ckpt)
        return model.StreamingEnhancer(store)

    run = Run()
    with traced(tracer):
        run.setup_s, eng = median_setup(build, p["setup_reps"])

    outs, finite = [], True
    warm = min(100, check_pushes)
    for i in range(warm):
        outs.append(eng.push(mic[i], far[i]))
    times = []
    i = warm
    with traced(tracer), timed_loop(run):
        t_end = wall() + seconds
        while wall() < t_end or len(times) < 200:
            k = i % n_chunks
            run.attempted += 1
            t0 = cpu()
            try:
                out = eng.push(mic[k], far[k])
            except Exception:
                run.failed += 1
                continue
            finally:
                times.append(cpu() - t0)
                i += 1
            if i <= check_pushes:
                outs.append(out)
            finite = finite and bool(np.isfinite(out).all())
    if tracer:
        run.retained_kb_per_min["stream"] = measure_retained(
            lambda j: eng.push(mic[(i + j) % n_chunks], far[(i + j) % n_chunks]),
            p["retained_pushes"])
    run.audio_x = push_rate(times)
    run.frame_ms = np.asarray(times) * 1e3
    run.evidence = {"store": eng.store, "mic": sc.mic.samples[: check_pushes * HOP],
                    "far": sc.far.samples[: check_pushes * HOP],
                    "streamed": np.concatenate(outs), "finite": finite}
    return run


def check_stream(ev: dict) -> list[str]:
    """The streamed prefix equals istft(mask * stft(mic)) with the mask from
    the autodiff graph in causal alignment mode."""
    problems = []
    if not ev["finite"]:
        problems.append("stream-paper: non-finite streamed output")
    spec_m = dsp.stft(dsp.AudioClip(ev["mic"]))
    spec_f = dsp.stft(dsp.AudioClip(ev["far"]))
    with ad.no_grad():
        mask, _ = model.forward(ev["store"], dsp.log_power(spec_m), dsp.log_power(spec_f),
                                mode="infer", align_mode="causal")
    ref = dsp.istft(model.apply_mask(mask.data, spec_m)).samples
    n = spec_m.n_frames * HOP
    got = ev["streamed"]
    if len(got) < n:
        problems.append(f"stream-paper: {len(got)} streamed samples, expected {n}")
    else:
        err = float(np.max(np.abs(got[:n] - ref[:n])))
        if not err <= 1e-9:
            problems.append(f"stream-paper: streamed output differs from the graph by {err:.3g}")
    return problems


# -- align-online -----------------------------------------------------------------

ONLINE = {"full": {"clips": 4, "clip_s": 10.0, "setup_reps": 1001, "retained_pushes": 1000},
          "quick": {"clips": 1, "clip_s": 4.0, "setup_reps": 11, "retained_pushes": 50}}


def align_online(seed: int, seconds: float, work: Path, tracer=None, size="full") -> Run:
    """The classical online delay estimator, hop by hop, over LD-H clips."""
    p = ONLINE[size]
    clips = []
    for c in range(p["clips"]):
        sc = data.synth_scenario(data.ld_scenario_config("h", data.child_seed(seed, c), p["clip_s"]))
        clips.append((chunks(sc.mic.samples), chunks(sc.far.samples), sc.delay))

    run = Run()
    with traced(tracer):
        run.setup_s, _ = median_setup(alignment.OnlineDelayEstimator, p["setup_reps"])

    warm_est = alignment.OnlineDelayEstimator()
    for m, f in zip(clips[0][0][:80], clips[0][1][:80]):
        warm_est.push(m, f)

    times, finals = [], []
    c, clip_s = 0, 0.0
    with traced(tracer), timed_loop(run):
        t_end = wall() + seconds
        # whole clips only: a clip starts while it can still end within the run
        while not finals or wall() + clip_s < t_end:
            mic, far, delay = clips[c % len(clips)]
            est = alignment.OnlineDelayEstimator()
            t_clip = wall()
            last = None
            for m, f in zip(mic, far):
                run.attempted += 1
                t0 = cpu()
                try:
                    last = est.push(m, f)
                except Exception:
                    run.failed += 1
                finally:
                    times.append(cpu() - t0)
            clip_s = wall() - t_clip
            finals.append((c % len(clips), None if last is None else last.delay, delay))
            c += 1
    if tracer:
        mic, far, _ = clips[0]
        est = alignment.OnlineDelayEstimator()
        run.retained_kb_per_min["online"] = measure_retained(
            lambda j: est.push(mic[j % len(mic)], far[j % len(far)]), p["retained_pushes"])
    run.audio_x = push_rate(times)
    run.frame_ms = np.asarray(times) * 1e3
    run.evidence = {"finals": finals}
    return run


def check_online(ev: dict) -> list[str]:
    """Each clip's final estimate lies within one hop of the drawn delay."""
    return [f"align-online: clip {c} ended at {got} samples, drawn delay {want}"
            for c, got, want in ev["finals"] if got is None or abs(got - want) > HOP]


# -- enhance-tiny -----------------------------------------------------------------

ENHANCE = {"full": {"clips": 3, "clip_s": 10.0, "setup_reps": 51},
           "quick": {"clips": 1, "clip_s": 1.0, "setup_reps": 2}}


def enhance_tiny(seed: int, seconds: float, work: Path, tracer=None, size="full") -> Run:
    """WAV-to-WAV enhancement of LD-M clips at tiny scale: model.enhance in
    utterance and causal mode, then the same clip streamed 10 ms at a time."""
    p = ENHANCE[size]
    ckpt = write_checkpoint(work / "tiny.acrs", model.ModelConfig.tiny(), seed)
    clips = []
    for c in range(p["clips"]):
        sc = data.synth_scenario(data.ld_scenario_config("m", data.child_seed(seed, c), p["clip_s"]))
        paths = {k: work / f"clip{c}_{k}.wav" for k in ("mic", "far", "utt", "causal")}
        dsp.write_wav(paths["mic"], sc.mic)
        dsp.write_wav(paths["far"], sc.far)
        clips.append(paths)

    run = Run()
    with traced(tracer):
        run.setup_s, store = median_setup(lambda: params_io.load_params(ckpt)[0], p["setup_reps"])

    push_s: list[float] = []

    def job(paths):
        mic = dsp.read_wav(paths["mic"])
        far = dsp.read_wav(paths["far"])
        out_u, dist_u = model.enhance(mic, far, store, mode="utterance")
        dsp.write_wav(paths["utt"], out_u)
        out_c, dist_c = model.enhance(mic, far, store, mode="causal")
        dsp.write_wav(paths["causal"], out_c)
        eng = model.StreamingEnhancer(store)
        pieces = []
        for m, f in zip(chunks(mic.samples), chunks(far.samples)):
            t0 = cpu()
            pieces.append(eng.push(m, f))
            push_s.append(cpu() - t0)
        return {"mic": mic.samples, "far": far.samples, "utt": out_u.samples,
                "causal": out_c.samples, "streamed": np.concatenate(pieces),
                "dist_u": dist_u.probs, "dist_c": dist_c.probs, "paths": paths}

    job(clips[0])  # warm-up
    push_s.clear()

    op_cpu, evidence = [], {}
    c, op_wall = 0, 0.0
    with traced(tracer), timed_loop(run):
        t_end = wall() + seconds
        # a clip starts while the last one's length still fits in the run
        while not op_cpu or wall() + op_wall < t_end:
            paths = clips[c % len(clips)]
            run.attempted += 1
            w0, t0 = wall(), cpu()
            try:
                evidence[c % len(clips)] = job(paths)
            except Exception:
                run.failed += 1
            op_cpu.append(cpu() - t0)
            op_wall = wall() - w0
            c += 1
    run.audio_x = 3 * p["clip_s"] * len(op_cpu) / sum(op_cpu)
    run.frame_ms = np.asarray(push_s) * 1e3
    run.evidence = {"store": store, "clips": list(evidence.values())}
    return run


def check_enhance(ev: dict) -> list[str]:
    """Causal enhance equals the same clip streamed 10 ms at a time; outputs
    are finite, as long as the mic and written faithfully; masks lie in
    [0, gain]; delay distributions are non-negative and sum to 1."""
    problems = []
    store = ev["store"]
    gain = float(store["mask.gain"].data[0])
    for k, clip in enumerate(ev["clips"]):
        tag = f"enhance-tiny clip {k}"
        n = len(clip["mic"])
        for mode in ("utt", "causal"):
            out = clip[mode]
            if len(out) != n or not np.isfinite(out).all():
                problems.append(f"{tag}: {mode} output is not {n} finite samples")
                continue
            back = dsp.read_wav(clip["paths"][mode]).samples
            if np.max(np.abs(back - np.clip(out, -1.0, 32767 / 32768))) > 0.5 / 32768 + 1e-12:
                problems.append(f"{tag}: written {mode} WAV differs from the output")
        s = clip["streamed"]
        if len(s) > n or np.max(np.abs(clip["causal"][: len(s)] - s), initial=0.0) > 1e-12 \
                or np.any(clip["causal"][len(s):]):
            problems.append(f"{tag}: causal enhance differs from 10 ms streaming")
        spec_m = dsp.stft(dsp.AudioClip(clip["mic"]))
        spec_f = dsp.stft(dsp.AudioClip(clip["far"]))
        for align_mode in ("utterance", "causal"):
            with ad.no_grad():
                mask, _ = model.forward(store, dsp.log_power(spec_m), dsp.log_power(spec_f),
                                        mode="infer", align_mode=align_mode)
            if mask.data.min() < 0.0 or mask.data.max() > gain:
                problems.append(f"{tag}: {align_mode} mask leaves [0, {gain}]")
        for name in ("dist_u", "dist_c"):
            d = clip[name]
            if np.any(d < 0) or np.max(np.abs(d.sum(axis=-1) - 1.0)) > 1e-9:
                problems.append(f"{tag}: {name} is not a probability distribution")
    if not ev["clips"]:
        problems.append("enhance-tiny: no clip completed")
    return problems


# -- train-paper ------------------------------------------------------------------

TRAIN = {"full": {"clips": 4, "clip_s": 4.0, "batch": 2, "fd_clip_s": 1.0, "setup_reps": 21},
         "quick": {"clips": 2, "clip_s": 0.5, "batch": 2, "fd_clip_s": 0.5, "setup_reps": 2}}
FD_TENSORS = ("mic1.w", "align.wq", "enc4.w", "gru.whh", "dec2.w", "mask.gain")
FD_EPS = 1e-6


def _train_scenario(seed: int, index: int, clip_s: float):
    cfg = data.ScenarioConfig(delay_range=data.LD_M_RANGE, clip_len=clip_s,
                              seed=data.child_seed(seed, index))
    return data.synth_scenario(cfg)


def train_paper(seed: int, seconds: float, work: Path, tracer=None, size="full") -> Run:
    """train.train_loop at paper scale: each call is one epoch over one batch,
    so one forward and backward per clip and one Adam step."""
    p = TRAIN[size]
    ckpt = write_checkpoint(work / "paper.acrs", model.ModelConfig.paper(), seed)
    scenarios = [_train_scenario(seed, c, p["clip_s"]) for c in range(p["clips"])]
    fd_clip = _train_scenario(seed, 1000, p["fd_clip_s"])
    optim = train.OptimConfig(batch=p["batch"], epochs=1)
    loss_cfg = train.LossConfig()

    def build():
        store, _ = params_io.load_params(ckpt)
        return store, train.AdamState()

    run = Run()
    with traced(tracer):
        run.setup_s, (store, _) = median_setup(build, p["setup_reps"])
    initial = store.copy()
    train.train_loop(lambda e: [fd_clip], store.copy(), optim, loss_cfg, seed=seed)  # warm-up

    batches = [scenarios[i: i + p["batch"]] for i in range(0, len(scenarios), p["batch"])]
    op_cpu, losses = [], []
    b, op_wall = 0, 0.0
    with traced(tracer), timed_loop(run):
        t_end = wall() + seconds
        # a step starts while the last one's length still fits in the run
        while not op_cpu or wall() + op_wall < t_end:
            batch = batches[b % len(batches)]
            run.attempted += 1
            w0, t0 = wall(), cpu()
            try:
                history = train.train_loop(lambda e: batch, store, optim, loss_cfg, seed=seed)
                losses.append(history[0]["loss"])
            except Exception:
                run.failed += 1
            op_cpu.append(cpu() - t0)
            op_wall = wall() - w0
            b += 1
    batch_s = p["batch"] * p["clip_s"]
    run.audio_x = batch_s * len(op_cpu) / sum(op_cpu)
    run.frame_ms = np.asarray(op_cpu) * 1e3 / (batch_s * SR / HOP)
    run.evidence = {"initial": initial, "batch": batches[0], "losses": losses,
                    "optim": optim, "loss_cfg": loss_cfg, "seed": seed,
                    "fd": _fd_evidence(initial, fd_clip, loss_cfg, seed)}
    return run


@contextlib.contextmanager
def pool_picks(frozen=None):
    """Records which bin each ``autodiff.max_pool_freq`` window picks; given
    the picks of an earlier forward, pools at those bins instead."""
    picks = []
    original = ad.max_pool_freq

    def pooling(x, k):
        c, t, f = x.data.shape
        windows = x.data[:, :, : f // k * k].reshape(c, t, f // k, k)
        if frozen is None:
            picks.append(windows.argmax(axis=-1))
            return original(x, k)
        pick = frozen[len(picks)]
        picks.append(pick)
        return ad.Tensor(np.take_along_axis(windows, pick[..., None], axis=-1)[..., 0])

    ad.max_pool_freq = pooling
    try:
        yield picks
    finally:
        ad.max_pool_freq = original


@contextlib.contextmanager
def exact_loss_gradient():
    """The backward of ``autodiff.ccmse_loss`` adds ``eps`` (1e-12) to each
    bin's squared magnitude in the derivative only, which biases the
    gradient where the enhanced spectrum is small: by 6e-4 relative on one
    seed's clip, whose smallest bin power was 2.8e-9. The gradient check
    takes that guard down to 1e-30, so it tests the backward of every op
    while the guard's bias is reported on its own."""
    original = ad.ccmse_loss
    ad.ccmse_loss = functools.partial(original, eps=1e-30)
    try:
        yield
    finally:
        ad.ccmse_loss = original


def _fd_evidence(initial, fd_clip, loss_cfg, seed: int) -> dict:
    """Backward gradients and central finite differences of clip_loss for one
    sampled coordinate of each tensor in FD_TENSORS.

    The loss has a kink wherever a max-pool window of the alignment block
    changes its pick, and on some seeds a step of FD_EPS in an encoder weight
    already crosses one. The differences therefore hold every window at the
    bin it picked at the unperturbed point: that is the smooth piece whose
    derivative the backward pass computes, since it routes each window's
    gradient to its picked bin.
    """
    store = initial.copy()
    with exact_loss_gradient():
        loss, _ = train.clip_loss(store, fd_clip, loss_cfg)
        ad.backward(loss)
    with ad.no_grad(), pool_picks() as base:
        train.clip_loss(initial.copy(), fd_clip, loss_cfg)
    rng = np.random.default_rng(seed)
    rows = []
    for name in FD_TENSORS:
        j = int(rng.integers(store[name].size))
        values = []
        for sign in (1.0, -1.0):
            probe = initial.copy()
            probe[name].data.reshape(-1)[j] += sign * FD_EPS
            with ad.no_grad(), pool_picks(frozen=base):
                values.append(float(train.clip_loss(probe, fd_clip, loss_cfg)[0].data))
        rows.append({"name": name, "index": j,
                     "analytic": float(store[name].grad.reshape(-1)[j]),
                     "numeric": (values[0] - values[1]) / (2 * FD_EPS)})
    return {"rows": rows}


def check_train(ev: dict) -> list[str]:
    """Losses are finite; rerunning the first step from the same initial
    parameters gives a bit-identical loss; backward gradients agree with
    central finite differences of clip_loss."""
    problems = []
    if not ev["losses"] or not np.all(np.isfinite(ev["losses"])):
        problems.append("train-paper: missing or non-finite loss")
    else:
        again = train.train_loop(lambda e: ev["batch"], ev["initial"].copy(), ev["optim"],
                                 ev["loss_cfg"], seed=ev["seed"])[0]["loss"]
        if again != ev["losses"][0]:
            problems.append(f"train-paper: rerun loss {again!r} != first loss {ev['losses'][0]!r}")
    for row in ev["fd"]["rows"]:
        a, n = row["analytic"], row["numeric"]
        if not abs(a - n) <= 1e-4 * max(abs(a), abs(n)) + 1e-9:
            problems.append(f"train-paper: d loss / d {row['name']}[{row['index']}] is {a:.9g} "
                            f"by backward, {n:.9g} by finite difference")
    return problems


WORKLOADS = {
    "stream-paper": (stream_paper, check_stream),
    "enhance-tiny": (enhance_tiny, check_enhance),
    "train-paper": (train_paper, check_train),
    "align-online": (align_online, check_online),
}
