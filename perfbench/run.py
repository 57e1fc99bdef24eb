"""semvid benchmark: run one workload against the checkout's ``src/semvid``
and print every metric by name with its unit.

    python3 perfbench/run.py --workload compare_ref --seed 0 --seconds 20 --trace 0

A run first sets up three times in fresh interpreters (imports, config and
input generation) and reports the median as ``setup_s``.  It then runs the
workload's fixed batch of ops, and more batches with fresh inputs while
another batch still fits in ``--seconds``; one batch always runs.
All times are host wall-clock; the simulated delays in the reports are
outputs that the checks look at, never timings.  Every op's output is
checked; an op that raised or failed its check counts as failed and the run
goes on.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; ``--trace 1`` wraps each layer (see
``tracer.py``), reports per-op layer figures instead and writes the spans
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# named here too, so that parsing arguments imports no numpy before the thread limit
WORKLOAD_NAMES = ("compare_ref", "service_ref", "transmit_clean")
SETUP_SAMPLES = 3
BATCH_SEED_STRIDE = 1_000_003  # batch b of a run with seed n uses inputs from seed n + b * stride


def _limit_threads() -> None:
    """Let BLAS use at most the cores this process may run on."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cores)


def _import_semvid():
    """Import semvid from this checkout, never from an installed copy."""
    if not (SRC / "semvid" / "__init__.py").is_file():
        sys.exit(f"perfbench: no semvid package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import semvid

    if Path(semvid.__file__).resolve().parent != SRC / "semvid":
        sys.exit(f"perfbench: imported semvid from {semvid.__file__}, not from {SRC}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_batches(workload, seed: int, seconds: float, op):
    """Run batches until the next one would not fit in ``seconds``.

    Returns per-op times, per-batch times, per-op CPU seconds and per-op
    problems (None for an op that passed)."""
    op_times, batch_times, cpu_times, problems = [], [], [], []
    started = time.perf_counter()
    batch = 0
    while True:
        batch_seed = seed + batch * BATCH_SEED_STRIDE
        inputs = workload.make_inputs(batch_seed)
        outputs, raised = [], []
        batch_start = time.perf_counter()
        for item in inputs:
            cpu_start, op_start = time.process_time(), time.perf_counter()
            try:
                out, error = op(item), None
            except Exception:  # deliberate: a failing op is counted, the run goes on
                out, error = None, traceback.format_exc(limit=3)
            op_times.append(time.perf_counter() - op_start)
            cpu_times.append(time.process_time() - cpu_start)
            outputs.append(out)
            raised.append(error)
        batch_times.append(time.perf_counter() - batch_start)
        checked = workload.check(batch_seed, inputs, outputs)
        problems += [err or problem for err, problem in zip(raised, checked)]
        batch += 1
        if time.perf_counter() - started + batch_times[-1] > seconds:
            return op_times, batch_times, cpu_times, problems


def _with_units(values: dict, section: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in declared}
    if values.keys() != units.keys():
        raise RuntimeError(f"{section} metrics differ from BENCHMARK.json: "
                           f"{sorted(values.keys() ^ units.keys())}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end_metrics(setup_s, op_times, batch_times, problems) -> dict:
    failed = sum(p is not None for p in problems)
    return _with_units({
        "setup_s": setup_s,
        "wall_s": statistics.median(batch_times),
        "op_p50_s": statistics.median(op_times),
        "ok_frac": 1.0 - failed / len(problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, "end_to_end")


def traced_metrics(tracer, op_times, batch_times, cpu_times) -> dict:
    n_ops = len(op_times)
    wall = sum(op_times)
    cpu = sum(cpu_times)
    overhead = tracer.overhead_seconds()
    return _with_units({
        **tracer.layer_metrics(n_ops),
        "proc.cpu_s": cpu / n_ops,
        "proc.cpu_per_wall": cpu / wall,
        "trace.wall_s": statistics.median(batch_times),
        "trace.overhead_frac": overhead / max(wall - overhead, 1e-9),
    }, "per_layer")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (>= 0); 0 is the shipped reference")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring window; at least one batch always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import, configure and make the inputs, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _limit_threads()
    _import_semvid()
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    workload.make_inputs(args.seed)
    if args.setup_only:
        return 0

    if args.trace:
        tracer = Tracer()
        traced_op = tracer.wrap(workload.op, "op")
        op_ids = itertools.count()

        def op(item):
            tracer.op = next(op_ids)
            return traced_op(item)

        with tracer.install():
            op_times, batch_times, cpu_times, problems = run_batches(
                workload, args.seed, args.seconds, op)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        metrics = traced_metrics(tracer, op_times, batch_times, cpu_times)
    else:
        setup_s = _setup_seconds(args.workload, args.seed)
        op_times, batch_times, cpu_times, problems = run_batches(
            workload, args.seed, args.seconds, workload.op)
        metrics = end_to_end_metrics(setup_s, op_times, batch_times, problems)

    failed = sum(p is not None for p in problems)
    for i, problem in enumerate(problems):
        if problem is not None:
            print(f"op {i} failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(batch_times)} batch(es), "
          f"{len(op_times)} ops, op_p50_s over {len(op_times)} ops, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": len(problems), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
