"""Benchmark plumbing: timeouts and the declared metric names."""

from __future__ import annotations

import json
import os
import sys

import run
import tracer


def test_hung_process_times_out(tmp_path):
    res = run.run_process(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        str(tmp_path), 0.3)
    assert res.code is None
    assert res.wall_s < 10


def test_exit_code_and_peak_rss_are_reported(tmp_path):
    res = run.run_process(
        [sys.executable, "-c", "b = bytearray(64 << 20); raise SystemExit(3)"],
        str(tmp_path), 30)
    assert res.code == 3
    assert res.maxrss_kb > 64 << 10


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    per_layer = set(tracer.layer_metrics([])) | {"cli.self_s",
                                                "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "certify_s", "setup_s", "peak_rss_mb"}
