"""Tests of the benchmark itself (about 20 s):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._limit_threads()
run._import_semvid()

import semvid.classical  # noqa: E402  (the checkout's semvid is on sys.path now)
import workloads  # noqa: E402
from semvid.video import VideoSequence  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
TRANSMIT = workloads.WORKLOADS["transmit_clean"]


@pytest.fixture(scope="module")
def small_transmit():
    """transmit_clean cut to its first (64 px) clip at the default seed."""
    inputs = TRANSMIT.make_inputs(0)[:1]
    return dataclasses.replace(TRANSMIT, make_inputs=lambda seed: inputs), inputs


@pytest.fixture(scope="module")
def plain_output(small_transmit):
    workload, inputs = small_transmit
    return workload.op(inputs[0])


def test_metric_names_are_valid_and_match_benchmark_json():
    # both raise if the names they produce differ from BENCHMARK.json's
    e2e = run.end_to_end_metrics(1.0, [1.0], [1.0], [None])
    layers = run.traced_metrics(Tracer(), [1.0], [1.0], [1.0])
    for name in [*e2e, *layers]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]{1,64}", name), name


def test_traced_and_untraced_outputs_are_identical(small_transmit, plain_output):
    workload, inputs = small_transmit
    decode = semvid.classical.ldpc_decode
    tracer = Tracer()
    with tracer.install():
        traced = workload.op(inputs[0])
    assert workload.golden([traced]) == workload.golden([plain_output])
    layers = tracer.layer_metrics(1)
    assert layers["ldpc.decode_blocks"] > 0 and layers["ldpc.build_calls"] == 1.0
    assert semvid.classical.ldpc_decode is decode  # closing the tracer unwraps


def _problems(workload, op):
    return run.run_batches(workload, 0, 0.0, op)[3]


def _corrupt_frames(output):
    video, stats = output["classical"]
    data = video.to_array()
    data[0, 0, 0, 0] = 1.0 - data[0, 0, 0, 0]
    return {**output, "classical": (VideoSequence.from_array(data, video.fps), stats)}


def _corrupt_stats(output):
    video, stats = output["classical"]
    return {**output, "classical": (video, dataclasses.replace(stats, decode_failures=3))}


@pytest.mark.parametrize("corrupt", [_corrupt_frames, _corrupt_stats])
def test_corrupted_output_counts_as_failed(small_transmit, plain_output, corrupt):
    workload, _ = small_transmit
    assert _problems(workload, lambda item: plain_output) == [None]
    problems = _problems(workload, lambda item: corrupt(plain_output))
    assert len(problems) == 1 and problems[0] is not None
    metrics = run.end_to_end_metrics(1.0, [1.0], [1.0], problems)
    assert metrics["ok_frac"]["value"] == 0.0


def test_raising_op_counts_as_failed(small_transmit):
    workload, _ = small_transmit

    def broken(item):
        raise ValueError("boom")

    problems = _problems(workload, broken)
    assert len(problems) == 1 and "boom" in problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transmit_clean", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
