"""The program's one thread pool: ``parallel_map`` over independent items,
with one worker per CPU.  numpy releases the interpreter lock inside its
ufuncs and gathers, so the workers overlap there.  It is the program's only
level of threads: each call opens a pool of its own, so ``fn`` never calls
``parallel_map`` again, and only ``pipeline.py`` calls it (a lint test checks)."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

THREAD_PREFIX = "semvid-worker"


def _worker_count() -> int:
    """CPUs this process may run on, one worker each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items) -> list:
    """``[fn(x) for x in items]``, in item order, computed by the caller's
    thread and a pool opened for this call.  Workers claim the next
    unclaimed item, so items of very unequal cost balance.  Once ``fn``
    raises, no further item is claimed, and the exception is raised here
    after every worker has stopped.  The pool is closed on return, so a
    forked child never inherits threads it lacks."""
    items = list(items)
    workers = min(_worker_count(), len(items))
    if workers < 2:
        return [fn(x) for x in items]
    results, unclaimed = [None] * len(items), iter(range(len(items)))
    lock, failed = threading.Lock(), threading.Event()

    def work() -> None:
        try:
            while not failed.is_set():
                with lock:
                    i = next(unclaimed, None)
                if i is None:
                    return
                results[i] = fn(items[i])
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(workers - 1, THREAD_PREFIX) as pool:  # waits for every worker
        futures = [pool.submit(work) for _ in range(workers - 1)]
        work()
    for future in futures:
        future.result()  # re-raises a pool worker's exception
    return results
