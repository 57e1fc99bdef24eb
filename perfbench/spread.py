"""Run the benchmark once per seed (0, 1, ...) and report each metric's
median, quartiles and spread: the distance between the quartiles as a share
of the median, the figure the bounds in BENCHMARK.json are held against.

    python3 perfbench/spread.py compare_ref service_ref --runs 10 [--trace 1] [--record]

``--record`` merges the figures into ``perfbench/baseline.json`` together
with the machine they were measured on.  Runs are sequential; each is a
fresh ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine() -> dict:
    import numpy
    import scipy

    cores = len(os.sched_getaffinity(0))
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "cpu": cpu,
        "nproc": cores,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", cores)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    all_correct = True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.trace) for seed in range(args.runs)]
        wrong = [seed for seed, r in enumerate(results) if not r["correct"]]
        all_correct &= not wrong
        print(f"{workload}: {args.runs} runs, {sum(r['attempted'] for r in results)} ops, "
              f"incorrect seeds {wrong or 'none'}")
        figures = {}
        for name in results[0]["metrics"]:
            figures[name] = summarize([r["metrics"][name]["value"] for r in results])
            f = figures[name]
            print(f"  {name:34s} median {f['median']:.6g}  q1 {f['q1']:.6g}  "
                  f"q3 {f['q3']:.6g}  spread {f['spread']:.4f}  "
                  f"values {' '.join(f'{v:.4g}' for v in f['values'])}")
        baseline.setdefault(section, {})[workload] = figures
    if args.record:
        baseline.update(machine=machine(), run_seconds=RUN_SECONDS)
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
