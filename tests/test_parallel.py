import sys
import threading
import time

import pytest

from semvid import parallel
from semvid.parallel import parallel_map


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith(parallel.THREAD_PREFIX)]


def test_each_item_once_in_item_order(monkeypatch):
    # more workers than cores and frequent switches: a lost or doubled
    # claim would show in the calls or the order of the results
    calls = []

    def square(x):
        calls.append(x)
        return x * x

    monkeypatch.setattr(parallel, "_worker_count", lambda: 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = parallel_map(square, range(300))
    finally:
        sys.setswitchinterval(interval)
    assert results == [x * x for x in range(300)]
    assert sorted(calls) == list(range(300))
    assert _pool_threads() == []


def test_exception_stops_claiming(monkeypatch):
    calls = []

    def fail_first(x):
        calls.append(x)
        if x == 0:
            raise FloatingPointError("injected")
        time.sleep(0.001)
        return x

    monkeypatch.setattr(parallel, "_worker_count", lambda: 2)
    with pytest.raises(FloatingPointError, match="injected"):
        parallel_map(fail_first, range(200))
    assert len(calls) < 20
    assert _pool_threads() == []
