"""End-to-end scenario benchmark: one workload, one seed, one process.

::

    python3 e2ebench/run.py --workload fanout_hits --seed 0 --seconds 35 --trace 0
    python3 e2ebench/run.py --workload device_sweep --seed 3 --seconds 35 --trace 1
    python3 e2ebench/run.py --pin     # re-record pins.json at seed 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run (see README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from the checkout's ``src``; the
exit code is 2 when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Thread pools pinned to one thread before numpy is imported, so BLAS
#: and OpenMP cannot spread a pass over a varying number of cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Each round times set-up builds for at least this long (at least one).
SETUP_ROUND_S = 0.1
#: Rounds per run at least, however short ``--seconds`` is.
MIN_ROUNDS = 3

#: Seconds :func:`calibration_s` takes at the reference host speed: a
#: 2-core Xeon VM at 2.1 GHz with Python 3.11 and one OpenBLAS thread.
CALIBRATION_REF_S = 0.14

END_TO_END = {
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def host_facts() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def calibration_s() -> float:
    """Wall time of a fixed loop that runs no program code: interpreter
    work and numpy work, the two kinds of work a pass does."""
    import numpy as np

    matrix = np.random.default_rng(0).random((128, 128))
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    # Small dicts and arrays, so that peak RSS stays the program's.
    for _ in range(50):
        {str(i): i for i in range(1_000)}
    for _ in range(300):
        matrix @ matrix
        np.sort(matrix.ravel())
    return time.perf_counter() - started


class Tally:
    """Operations attempted and failed against one reference."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def add(self, result) -> None:
        from passes import check

        attempted, failed = check(result.observed, self.reference)
        self.attempted += attempted
        self.failed += len(failed)
        if failed:
            print(f"{len(failed)} failed: {', '.join(failed[:8])}",
                  file=sys.stderr)


def _warm_up(workload: str, items, seed: int) -> Tally:
    """Run the warm-up pass (not timed); return the tally checking it."""
    from passes import load_pins, run_pass

    warm = run_pass(items, seed)
    # Unpinned seeds are checked for determinism: every later pass must
    # reproduce the warm-up pass exactly.
    tally = Tally(load_pins(workload, seed) or warm.observed)
    tally.add(warm)
    return tally


def _rounds(seconds: float):
    """Yield while another round is expected to end within ``seconds``
    (and at least ``MIN_ROUNDS`` times)."""
    started = time.perf_counter()
    done = 0
    while True:
        spent = time.perf_counter() - started
        if done >= MIN_ROUNDS and spent + spent / done > seconds:
            return
        yield
        done += 1


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics, tracing off.

    Each round times the calibration loop, set-up builds and one pass, so
    all three sample the whole run.  ``frames_per_s`` is total frames
    over total engine time of all timed passes.  On a shared host the
    speed drifts by tens of percent over minutes, and every timing moves
    with it; both timings are therefore rescaled to the reference speed
    by the run's median calibration time (one more calibration closes
    the last round).
    """
    from passes import build_s, run_pass, workload_items

    items = workload_items(workload)
    build_s(items, seed)  # warm-up build
    tally = _warm_up(workload, items, seed)
    setups, calibrations = [], []
    frames = passes = 0
    elapsed = 0.0
    for _ in _rounds(seconds):
        calibrations.append(calibration_s())
        stop = time.perf_counter() + SETUP_ROUND_S
        setups.append(build_s(items, seed))
        while time.perf_counter() < stop:
            setups.append(build_s(items, seed))
        gc.collect()
        result = run_pass(items, seed)
        tally.add(result)
        frames += result.frames
        elapsed += result.elapsed_s
        passes += 1
        del result  # free its sessions, or peak RSS holds two passes
    calibrations.append(calibration_s())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration = statistics.median(calibrations)
    frames_per_s = frames / elapsed if elapsed else 0.0
    setup_s = statistics.median(setups)
    slowdown = calibration / CALIBRATION_REF_S
    metrics = {
        "frames_per_s": frames_per_s * slowdown,
        "setup_s": setup_s / slowdown,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    print(f"passes: {passes}, set-up builds: {len(setups)}; as timed: "
          f"frames_per_s {frames_per_s}, setup_s {setup_s}; calibration "
          f"{calibration} s against {CALIBRATION_REF_S} s")
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def trace(workload: str, seed: int, seconds: float):
    """Per-layer metrics: each traced pass follows an untraced one, and
    ``trace.overhead_pct`` is the median wall-time ratio of these pairs,
    so both sides of a pair ran under the same load."""
    from layers import METRICS, SpanRecorder, layer_metrics, traced
    from passes import run_pass, workload_items

    items = workload_items(workload)
    tally = _warm_up(workload, items, seed)
    plain_walls, traced_walls, per_pass = [], [], []
    for _ in _rounds(seconds):
        gc.collect()
        plain = run_pass(items, seed)
        tally.add(plain)
        plain_walls.append(plain.wall_s)
        gc.collect()
        recorder = SpanRecorder()
        with traced(recorder):
            result = run_pass(items, seed, hook=recorder.set_context)
        tally.add(result)
        traced_walls.append(result.wall_s)
        per_pass.append(layer_metrics(recorder, result))
    metrics = {
        name: statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    metrics["trace.overhead_pct"] = 100.0 * statistics.median(
        t / p - 1.0 for t, p in zip(traced_walls, plain_walls))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    recorder.write_jsonl(spans_path)
    print(f"passes: {len(per_pass)} traced, {len(plain_walls)} untraced; "
          f"spans of the last traced pass: {spans_path}")
    return tally, {k: (v, METRICS[k][0]) for k, v in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record pins.json at seed 0 and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: program source not found at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # numpy is first imported here, through repro, after THREAD_VARS.
    from passes import WORKLOADS, write_pins

    if args.pin:
        write_pins()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    print("host:", json.dumps(host_facts(), sort_keys=True))
    run = trace if args.trace else measure
    tally, metrics = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
