"""Per-layer spans for the traced run.

The program has no tracing of its own yet, so the benchmark wraps each
layer's public functions at the names their callers bind (the modules use
``from .x import y``, so ``semvid.classical.ldpc_decode`` is the name
``transmit_prepared`` calls).  A span records its name, start, end, parent
span and op id; spans stay in memory until the run ends.  A layer's time is
its self time: the span's duration minus the spans nested directly in it.

What cannot be seen from outside the program waits for in-program tracing:
LDPC iteration counts, per-stage host time inside ``run_service`` and the
fitter's backtracks.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from unittest import mock


def _loss_name(args, kwargs) -> str:
    want_grad = kwargs.get("want_grad", args[7] if len(args) > 7 else True)
    return "recon.loss_grad" if want_grad else "recon.loss"


def _count_blocks(tracer, args, kwargs, result) -> None:
    converged = result[1]
    tracer.counts["ldpc.decode_blocks"] += len(converged)
    tracer.counts["ldpc.converged_blocks"] += int(converged.sum())


def _count_gop(prefix):
    """Remember which GOP contents a prepare call saw, so repeated prepares
    of one GOP show as calls per GOP above 1."""
    def after(tracer, args, kwargs, result):
        gop = args[0] if args else kwargs["gop"]
        digest = hashlib.sha1(b"".join(f.data.tobytes() for f in gop.frames)).digest()
        tracer.gops[prefix].add((tracer.op, digest))
    return after


_SYNTHESIS = ("estimate_matte", "composite", "matte_iou", "semantic_loss", "detail_loss",
              "fusion_loss", "transition_mask")

# (module, attribute, span name or name function, hook run on the result)
LAYERS = (
    ("semvid.pipeline", "make_ldpc_code", "ldpc.build", None),
    ("semvid.classical", "ldpc_encode", "ldpc.encode", None),
    ("semvid.classical", "ldpc_decode", "ldpc.decode", _count_blocks),
    ("semvid.classical", "source_encode", "classical.source_encode", None),
    ("semvid.classical", "source_decode", "classical.source_decode", None),
    ("semvid.pipeline", "prepare_classical", "classical.prepare", _count_gop("classical")),
    ("semvid.classical", "prepare_classical", "classical.prepare", _count_gop("classical")),
    ("semvid.pipeline", "prepare_semantic", "semantic.prepare", _count_gop("semantic")),
    ("semvid.semantic", "prepare_semantic", "semantic.prepare", _count_gop("semantic")),
    ("semvid.pipeline", "semantic_transmit", "semantic.transmit", None),
    ("semvid.pipeline", "transmit_packet", "semantic.transmit", None),
    ("semvid.semantic", "transmit_packet", "semantic.transmit", None),
    ("semvid.pipeline", "ms_ssim", "metrics.ms_ssim", None),
    ("semvid.pipeline", "fit_scene", "recon.fit", None),
    ("semvid.recon.fit", "loss_and_grad", _loss_name, None),
    ("semvid.pipeline", "render", "recon.render", None),
    ("semvid.fixtures", "render", "recon.render", None),
) + tuple(("semvid.pipeline", fn, "synthesis", None) for fn in _SYNTHESIS)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.gops = defaultdict(set)
        self.hook_seconds = 0.0  # time spent in result hooks, counted as overhead
        self.op = None
        self._stack = []

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                start = time.perf_counter()
                after(self, args, kwargs, result)
                self.hook_seconds += time.perf_counter() - start
            return result
        return traced

    def install(self) -> ExitStack:
        """Wrap every layer; closing the returned stack restores them."""
        stack = ExitStack()
        for module, attr, name, after in LAYERS:
            mod = importlib.import_module(module)
            wrapped = self.wrap(getattr(mod, attr), name, after)
            stack.enter_context(mock.patch.object(mod, attr, wrapped))
        return stack

    def self_times(self):
        own = Counter()
        calls = Counter()
        for name, start, end, parent, _ in self.spans:
            own[name] += end - start
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own, calls

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op layer figures; a layer that never ran reads 0."""
        own, calls = self.self_times()
        blocks = self.counts["ldpc.decode_blocks"]

        def per_gop(prefix, span):
            gops = len(self.gops[prefix])
            return calls[span] / gops if gops else 0.0

        return {
            "ldpc.decode_s": own["ldpc.decode"] / n_ops,
            "ldpc.decode_blocks": blocks / n_ops,
            "ldpc.decode_us_per_block": 1e6 * own["ldpc.decode"] / blocks if blocks else 0.0,
            "ldpc.converged_frac":
                self.counts["ldpc.converged_blocks"] / blocks if blocks else 0.0,
            "ldpc.build_s": own["ldpc.build"] / n_ops,
            "ldpc.build_calls": calls["ldpc.build"] / n_ops,
            "ldpc.encode_s": own["ldpc.encode"] / n_ops,
            "classical.source_encode_s": own["classical.source_encode"] / n_ops,
            "classical.source_decode_s": own["classical.source_decode"] / n_ops,
            "classical.prepare_calls_per_gop": per_gop("classical", "classical.prepare"),
            "semantic.prepare_calls_per_gop": per_gop("semantic", "semantic.prepare"),
            "recon.fit_s": own["recon.fit"] / n_ops,
            "recon.loss_grad_s": own["recon.loss_grad"] / n_ops,
            "recon.loss_grad_calls": calls["recon.loss_grad"] / n_ops,
            "recon.loss_s": own["recon.loss"] / n_ops,
            "recon.loss_calls": calls["recon.loss"] / n_ops,
            "recon.render_s": own["recon.render"] / n_ops,
            "metrics.ms_ssim_s": own["metrics.ms_ssim"] / n_ops,
            "metrics.ms_ssim_calls": calls["metrics.ms_ssim"] / n_ops,
            "semantic.prepare_s": own["semantic.prepare"] / n_ops,
            "semantic.transmit_s": own["semantic.transmit"] / n_ops,
            "synthesis.s": own["synthesis"] / n_ops,
        }

    def overhead_seconds(self) -> float:
        """Host time tracing added: the calibrated cost of one span times
        the spans recorded, plus the time the result hooks took."""
        return len(self.spans) * span_cost() + self.hook_seconds

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")


@functools.cache
def span_cost() -> float:
    """Seconds one span adds around a call, from timing a no-op with and
    without the wrapper."""
    n = 20000

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    start = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        traced()
    return max(time.perf_counter() - start - plain, 0.0) / n
