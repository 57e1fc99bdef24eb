"""Record the golden outputs in ``perfbench/golden/`` from the checkout's
program, for every workload (or the ones named) at each golden seed, then
check the invariants on the same outputs.

    python3 perfbench/record_golden.py [workload ...]

Record only at a commit whose outputs are known good.  A change that alters
an output on purpose records again and says which output changed and why.
"""

from __future__ import annotations

import sys

import run


def main(names) -> int:
    run._limit_threads()
    run._import_semvid()
    import workloads

    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    bad = 0
    for name in names or run.WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        for seed in workloads.GOLDEN_SEEDS:
            inputs = workload.make_inputs(seed)
            outputs = [workload.op(item) for item in inputs]
            path = workloads.golden_path(name, seed)
            path.write_text(workload.golden(outputs))
            problems = [p for p in workload.check(seed, inputs, outputs) if p is not None]
            print(f"{path.name}: {'; '.join(problems) or 'invariants hold'}")
            bad += len(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
