"""Benchmark of aligncruse: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload stream-paper --seed 1 --seconds 25 --trace 0

Workloads: stream-paper, enhance-tiny, train-paper, align-online (see
README.md). With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. Diagnostics that are not metrics (the time of a fixed
numpy reference computation at the start and end of the run, the wall-to-CPU
ratio of the timed loop, and audio_x under tracing) go to standard error.
Exit code 0 when the outputs passed their checks, 1 when they did not, 2
when the program of this checkout cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread: the load is one stream, and the 2 cores of the
# reference machine then measure the program rather than the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stream-paper", "enhance-tiny", "train-paper", "align-online")


def reference_ms() -> float:
    """Median time of a fixed numpy computation that shares no code with
    aligncruse; a drift between runs is the host's, not the program's."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    x = rng.standard_normal(4096)
    times = []
    for _ in range(9):
        t0 = time.process_time()
        for _ in range(100):
            a @ a
            np.fft.rfft(x)
        times.append(time.process_time() - t0)
    return float(np.median(times)) * 1e3


def end_to_end(run) -> dict:
    import numpy as np

    return {
        "setup_s": (run.setup_s, "s"),
        "audio_x": (run.audio_x, "x"),
        "frame_ms_p50": (float(np.percentile(run.frame_ms, 50)), "ms"),
        "frame_ms_p99": (float(np.percentile(run.frame_ms, 99)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 size: str = "full"):
    """Runs one workload and its checks. Returns (result dict, problems,
    diagnostics)."""
    import workloads
    from tracer import Tracer

    measure, check = workloads.WORKLOADS[name]
    tracer = Tracer() if trace else None
    ref_start = reference_ms()
    run = measure(seed, seconds, work, tracer=tracer, size=size)
    problems = check(run.evidence)
    diagnostics = {"workload": name, "seed": seed, "trace": int(trace),
                   "reference_ms_start": ref_start, "reference_ms_end": reference_ms(),
                   "loop_wall_over_cpu": run.loop_wall_s / run.loop_cpu_s}
    if trace:
        metrics = tracer.layer_metrics(run.retained_kb_per_min)
        diagnostics["audio_x_traced"] = run.audio_x
        diagnostics["spans"] = tracer.span_summary()
    else:
        metrics = end_to_end(run)
    result = {"correct": not problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, problems, diagnostics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import aligncruse
    except ImportError as exc:
        print(f"perfbench: cannot import aligncruse from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(aligncruse.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: aligncruse comes from {aligncruse.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, problems, diagnostics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(diagnostics.pop("spans"), indent=1))
        diagnostics["spans_file"] = str(spans.relative_to(ROOT))
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(diagnostics), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
