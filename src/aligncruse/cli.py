"""Command-line entry point.

Subcommands: gen-data, train, enhance, align, eval, bench, inspect. Every run
prints its resolved configuration and seed so results can be reproduced; a
``--config key=value`` file can mirror any flag. Exit codes: 0 ok, 1 usage,
2 I/O, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import dsp
from .alignment import global_delay, online_delay
from .data import (
    ScenarioConfig,
    Scenario,
    child_seed,
    make_ld_set,
    read_manifest,
    synth_scenario,
)
from .errors import (
    AlignCruseError,
    ConfigurationError,
    ContractViolationError,
    NumericsError,
)
from .evaluation import benchmark_runtime, delay_recovery_report
from .model import ModelConfig, StreamingEnhancer, enhance, init_params
from .params_io import load_params, save_params
from .train import LossConfig, OptimConfig, train_loop


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="aligncruse", description=__doc__)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=str, default=None, help="key=value file mirroring flags")
    p.add_argument("--log-level", type=str, default="warning")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", parents=[], description="generate a long-delay test set")
    g.add_argument("--kind", choices=["ld-m", "ld-h"], required=True)
    g.add_argument("--n", type=int, default=500)
    g.add_argument("--out", required=True)
    g.add_argument("--clip-len", type=float, default=10.0)

    t = sub.add_parser("train")
    t.add_argument("--preset", choices=["tiny", "paper"], default="tiny")
    t.add_argument("--data", type=str, default=None, help="dataset dir with manifest.jsonl")
    t.add_argument("--online", action="store_true", help="synthesize scenarios per epoch")
    t.add_argument("--out", required=True, help="final checkpoint path (.acrs)")
    t.add_argument("--arch", choices=["align", "cruse"], default="align")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--n-clips", type=int, default=200, help="clips per epoch when --online")
    t.add_argument("--clip-len", type=float, default=4.0)
    t.add_argument("--delay-lo", type=float, default=0.3)
    t.add_argument("--delay-hi", type=float, default=0.5)
    t.add_argument("--workdir", type=str, default=None, help="checkpoint/metrics dir")

    e = sub.add_parser("enhance")
    e.add_argument("--model", required=True)
    e.add_argument("--mic", required=True)
    e.add_argument("--far", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--emit-delay", type=str, default=None)
    e.add_argument("--mode", choices=["causal", "utterance"], default="causal")
    e.add_argument("--force-identity-mask", action="store_true")

    a = sub.add_parser("align")
    a.add_argument("action", nargs="?", default="estimate", choices=["estimate"])
    a.add_argument("--mode", choices=["global", "online"], required=True)
    a.add_argument("--mic", required=True)
    a.add_argument("--far", required=True)
    a.add_argument("--max-delay-ms", type=float, default=1000.0)
    a.add_argument("--trace", type=str, default=None, help="per-frame trace output (online)")

    v = sub.add_parser("eval")
    v.add_argument("--model", type=str, default=None)
    v.add_argument("--manifest", required=True)
    v.add_argument("--report", required=True)
    v.add_argument("--system", choices=["model", "global", "online"], default="model")

    b = sub.add_parser("bench")
    b.add_argument("--model", required=True)
    b.add_argument("--frames", type=int, default=10000)

    i = sub.add_parser("inspect")
    i.add_argument("--model", required=True)
    return p


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Prepends defaults from a key=value file; flags still win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise UsageError("--config needs a path")
    pairs = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    extra: list[str] = []
    for key, value in pairs:
        if value.lower() in ("true", "on", "yes"):
            extra.append(f"--{key}")
        else:
            extra.extend([f"--{key}", value])
    # insert config-derived args right after the subcommand so explicit flags override
    insert_at = next((i + 1 for i, a in enumerate(argv) if a in _COMMANDS), len(argv))
    return argv[:insert_at] + extra + argv[insert_at:]


def _print_resolved(args: argparse.Namespace):
    resolved = {k: v for k, v in vars(args).items() if k != "config"}
    print("resolved-config " + json.dumps(resolved, sort_keys=True, default=str))


# -- subcommand bodies -------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    rows = make_ld_set(args.kind, args.n, seed=args.seed, out_dir=args.out,
                       clip_len=args.clip_len)
    print(f"wrote {len(rows)} clips to {args.out}")
    return 0


def _scenarios_from_manifest(data_dir: Path) -> list[Scenario]:
    rows = read_manifest(data_dir / "manifest.jsonl")
    out = []
    for row in rows:
        mic = dsp.read_wav(data_dir / row["mic_path"])
        far = dsp.read_wav(data_dir / row["far_path"])
        target = dsp.read_wav(data_dir / row["target_path"])
        out.append(Scenario(far=far, near=target, rir=np.zeros(0),
                            delay=int(row["delay_samples"]), mic=mic, target=target,
                            metadata=dict(row)))
    return out


def _cmd_train(args) -> int:
    if (args.data is None) == (not args.online):
        raise UsageError("pick exactly one of --data DIR or --online")
    if args.preset == "tiny":
        cfg = ModelConfig.tiny()
        optim = OptimConfig(lr=2e-3, batch=16, epochs=20)
    else:
        cfg = ModelConfig.paper()
        optim = OptimConfig()  # batch 400, 150 epochs, lr 1.5e-4
    if args.epochs is not None:
        optim.epochs = args.epochs
    if args.batch is not None:
        optim.batch = args.batch
    if args.lr is not None:
        optim.lr = args.lr

    if args.data is not None:
        fixed = _scenarios_from_manifest(Path(args.data))

        def provider(epoch):
            return fixed
    else:
        n_clips, seed, clip_len = args.n_clips, args.seed, args.clip_len
        delay_range = (args.delay_lo, args.delay_hi)

        def provider(epoch):
            return [
                synth_scenario(ScenarioConfig(
                    delay_range=delay_range, clip_len=clip_len,
                    seed=child_seed(seed, epoch * n_clips + i)))
                for i in range(n_clips)
            ]

    store = init_params(cfg, seed=args.seed, arch=args.arch)
    workdir = args.workdir or str(Path(args.out).with_suffix("")) + "_work"
    history = train_loop(provider, store, optim, LossConfig(), seed=args.seed,
                         out_dir=workdir, quiet=False)
    save_params(args.out, store)
    print(f"final loss {history[-1]['loss']:.5f}; checkpoint at {args.out}")
    return 0


def _enhance_streaming(args, store):
    """Chunked file-to-file enhancement. Audio is read and written in bounded
    chunks; of each push's delay distributions only the per-frame argmax is
    kept, one int per 10 ms frame, for ``--emit-delay``. Returns those ints."""
    chunk = 64 * dsp.HOP  # 0.64 s per read
    eng = StreamingEnhancer(store, force_identity_mask=args.force_identity_mask)
    with dsp.open_wav(args.mic) as wm, dsp.open_wav(args.far) as wf, \
            dsp.create_wav(args.out) as wo:
        total = wm.getnframes()
        written = 0
        argmax: list[int] = []
        while True:
            raw_m = wm.readframes(chunk)
            raw_f = wf.readframes(chunk)
            if not raw_m:
                break
            n = min(len(raw_m), len(raw_f)) // 2
            out = eng.push(dsp.pcm_to_float(raw_m[: 2 * n]), dsp.pcm_to_float(raw_f[: 2 * n]))
            argmax.extend(np.argmax(eng.frame_dists, axis=1).tolist())
            wo.writeframes(dsp.float_to_pcm(out))
            written += len(out)
        if written < total:  # zero-padded tail past the last complete frame
            wo.writeframes(dsp.float_to_pcm(np.zeros(total - written)))
    return argmax


def _cmd_enhance(args) -> int:
    store, _ = load_params(args.model)
    if args.emit_delay and store.arch != "align":
        raise ConfigurationError("--emit-delay needs an 'align' model")
    if args.mode == "causal":
        frames = _enhance_streaming(args, store)
        payload = {"mode": "per-frame", "argmax_frames": frames}
    else:
        mic = dsp.read_wav(args.mic)
        far = dsp.read_wav(args.far)
        out, dist = enhance(mic, far, store, mode=args.mode,
                            force_identity_mask=args.force_identity_mask)
        dsp.write_wav(args.out, out)
        if args.emit_delay:
            payload = {"mode": dist.mode, "argmax_frames": int(dist.argmax()),
                       "probs": dist.probs.tolist()}
    if args.emit_delay:
        Path(args.emit_delay).write_text(json.dumps(payload))
    print(f"enhanced {args.mic} -> {args.out} ({args.mode} mode)")
    return 0


def _cmd_align(args) -> int:
    mic = dsp.read_wav(args.mic)
    far = dsp.read_wav(args.far)
    max_delay = int(round(args.max_delay_ms * dsp.SAMPLE_RATE / 1000.0))
    if args.mode == "global":
        est = global_delay(mic, far, max_delay)
    else:
        est = online_delay(mic, far, max_delay)
        if args.trace:
            with open(args.trace, "w") as fh:
                for k, (d, c) in enumerate(est.per_frame):
                    fh.write(json.dumps({"frame": k, "delay_samples": d,
                                         "confidence": round(c, 6)}) + "\n")
    print(f"mode={args.mode} delay_ms={est.delay * 1000.0 / dsp.SAMPLE_RATE:.3f} "
          f"delay_samples={est.delay} confidence={est.confidence:.4f}")
    return 0


def _cmd_eval(args) -> int:
    rows = read_manifest(args.manifest)
    base = Path(args.manifest).parent
    store = None
    if args.system == "model":
        if args.model is None:
            raise UsageError("--system model needs --model")
        store, _ = load_params(args.model)
    report = delay_recovery_report(args.system, rows, base, store=store)
    report.to_jsonl(args.report)
    print(report.render_table())
    return 0


def _cmd_bench(args) -> int:
    store, _ = load_params(args.model)
    result = benchmark_runtime(store, n_frames=args.frames, seed=args.seed)
    print(f"ms_per_frame={result['ms_per_frame']:.4f} "
          f"real_time_factor={result['real_time_factor']:.4f} frames={result['n_frames']}")
    return 0


def _cmd_inspect(args) -> int:
    store, extra = load_params(args.model)
    cfg = store.cfg
    print(f"arch: {store.arch}")
    print(f"config: mic={cfg.mic_channels} far={cfg.far_channels} dec={cfg.dec_channels} "
          f"p={cfg.align_proj} d_max={cfg.d_max} gru={cfg.gru_hidden} bins={cfg.n_bins}")
    for name, tensor in store.tensors.items():
        print(f"  {name:<18} {str(tuple(tensor.data.shape)):<16} {tensor.size}")
    total = store.param_count()
    print(f"params: {total} ({total / 1e6:.2f}M)")
    if extra:
        print(f"extra records: {sorted(extra)}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "enhance": _cmd_enhance,
    "align": _cmd_align,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "inspect": _cmd_inspect,
}


def _fail(code: int, exc: Exception) -> int:
    record = {"error": str(exc), "type": type(exc).__name__, "code": code}
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except UsageError as exc:
        return _fail(1, exc)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    _print_resolved(args)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        return _fail(1, exc)
    except ConfigurationError as exc:
        return _fail(1, exc)
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        return _fail(2, exc)
    except (NumericsError, ContractViolationError) as exc:
        return _fail(3, exc)
    except AlignCruseError as exc:
        return _fail(3, exc)


if __name__ == "__main__":
    sys.exit(main())
