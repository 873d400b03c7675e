#!/usr/bin/env python3
"""Time-to-certificate benchmark for the ``uniformq`` CLI.

One run prepares a workload's instance with the real CLI (``gen``, then
``fb``), then certifies it with ``uniformq pipeline`` in fresh
single-threaded processes, one at a time, checking every report against
the known certificate (``gate.py``).

    python3 perfbench/run.py --workload c32fb-full --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics (``certify_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` makes one traced run (``tracer.py``)
and prints the per-layer metrics.  The last line of standard output is
one JSON object; the full record, with the environment and every
sample, goes to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import uniformq  # noqa: E402  - the checkout's copy, checked in main()

import gate  # noqa: E402
import tracer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

DEFAULT_SEED = 1
SETUP_REPS = 5  # setup_s is the median of this many set-ups
MIN_CERTIFY_REPS = 2  # certify_s is the median of at least this many runs
CERTIFY_TIMEOUT_S = 90  # per certify process; a timeout is a failure
RUN_LIMIT_S = 170  # no new process starts after this; a run must end by 180 s


@dataclass(frozen=True)
class Workload:
    n: int  # vertex count; the seed picks the base vertex below it
    gen: tuple  # ``uniformq gen`` arguments, written to g.el
    fb: bool  # apply ``uniformq fb`` at the base vertex
    pipeline: tuple  # extra ``uniformq pipeline`` arguments
    params: Optional[dict]  # written to params.json when given


WORKLOADS = {
    # flagship instance, the only irrational spectrum (Q(sqrt 2)); all
    # five stages, dominated by spectrum + qcheck exact-field work
    "c32fb-full": Workload(
        n=135, gen=("dual-polar-C", "--b", "2", "--D", "3"), fb=True,
        pipeline=("--qcheck", "both"), params=None),
    # the verify path of the uniform layer, then modules at n = 512;
    # dominated by decompose_modules and its n x n exact rank
    "q9-verify": Workload(
        n=512, gen=("hypercube", "--D", "9"), fb=False,
        pipeline=("--verify-uniform", "params.json", "--no-spectrum"),
        params=gate.Q9_PARAMS),
}


@dataclass
class ProcResult:
    code: Optional[int]  # None on timeout
    wall_s: float
    maxrss_kb: int


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], cwd: str, timeout_s: float) -> ProcResult:
    """Run argv to completion; wall time and peak RSS come from wait4."""
    timed_out = threading.Event()
    log = open(os.path.join(cwd, "stderr.log"), "ab")
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=log)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(timeout_s, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        log.close()
    code = None if timed_out.is_set() else proc.returncode
    return ProcResult(code, wall, usage.ru_maxrss)


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "uniformq.cli", *args]


def setup_steps(wl: Workload, base: int, prefix: str = ""):
    """The CLI calls that build the input graph, and its file name."""
    graph = prefix + "g.el"
    steps = [("gen", *wl.gen, "-o", graph)]
    if wl.fb:
        steps.append(("fb", graph, "--base", str(base), "-o", prefix + "fb.el"))
        graph = prefix + "fb.el"
    return steps, graph


def setup(wl: Workload, base: int, cwd: str, deadline: float) -> str:
    """Write the workload's inputs into cwd; return the input graph."""
    steps, graph = setup_steps(wl, base)
    for args in steps:
        res = run_process(cli_argv(*args), cwd, deadline - time.perf_counter())
        if res.code != 0:
            raise RuntimeError(f"set-up step failed ({res.code}): {args}")
    if wl.params is not None:
        with open(os.path.join(cwd, "params.json"), "w") as fh:
            json.dump(wl.params, fh)
    return graph


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Certifier:
    """Runs certify processes and gates every report."""

    def __init__(self, workload: str, base: int, graph: str, cwd: str,
                 deadline: float):
        self.workload = workload
        self.wl = WORKLOADS[workload]
        self.base = base
        self.cwd = cwd
        self.deadline = deadline
        self.args = ("pipeline", graph, "--base", str(base),
                     *self.wl.pipeline, "-o", "report.json")
        self.first_report: Optional[bytes] = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, traced_spans: Optional[str] = None) -> ProcResult:
        if traced_spans:
            argv = [sys.executable, TRACER, traced_spans, "--", *self.args]
        else:
            argv = cli_argv(*self.args)
        report_path = os.path.join(self.cwd, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        timeout = min(CERTIFY_TIMEOUT_S, self.deadline - time.perf_counter())
        res = run_process(argv, self.cwd, timeout)
        self.attempted += 1
        problem = self._problem(res, report_path)
        if problem:
            self.failures.append(f"run {self.attempted}: {problem}")
        return res

    def _problem(self, res: ProcResult, report_path: str) -> Optional[str]:
        if res.code is None:
            return "timed out"
        if res.code != 0:
            return f"exit code {res.code}"
        try:
            with open(report_path, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
        except (OSError, ValueError) as exc:
            return f"unreadable report: {exc}"
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            return "report differs from the first run's"
        try:
            mismatches = gate.check(self.workload, report, self.base)
        except (AttributeError, KeyError, TypeError) as exc:
            return f"malformed report: {exc!r}"
        return "; ".join(mismatches) or None

    def time_left(self, expected_s: float) -> bool:
        return time.perf_counter() + expected_s < self.deadline


def measure(cert: Certifier, seconds: float, min_reps: int) -> list[ProcResult]:
    """Certify at least `min_reps` times, then again while the next run
    is expected to end within `seconds` of the first one's start."""
    runs: list[ProcResult] = []
    t0 = time.perf_counter()
    while (len(runs) < min_reps
           or time.perf_counter() - t0 + runs[-1].wall_s <= seconds):
        if runs and not cert.time_left(runs[-1].wall_s):
            break
        runs.append(cert.run())
    return runs


def end_to_end(cert: Certifier, seconds: float, setup_walls: list[float],
               samples: dict) -> dict:
    runs = measure(cert, seconds, MIN_CERTIFY_REPS)
    samples["certify_s"] = [r.wall_s for r in runs]
    samples["peak_rss_mb"] = [r.maxrss_kb / 1024 for r in runs]
    return {
        "certify_s": (statistics.median(samples["certify_s"]), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
    }


def per_layer(cert: Certifier, seconds: float, wl: Workload, base: int,
              samples: dict) -> dict:
    cwd = cert.cwd
    traces = []
    # traced set-up, so generators and full_bipartite are seen
    steps, _ = setup_steps(wl, base, prefix="traced_")
    for i, args in enumerate(steps):
        spans = os.path.join(cwd, f"spans_setup{i}.json")
        res = run_process([sys.executable, TRACER, spans, "--", *args],
                          cwd, cert.deadline - time.perf_counter())
        if res.code != 0:
            raise RuntimeError(f"traced set-up step failed: {args}")
        traces.append(_load(spans))
    t0 = time.perf_counter()
    spans = os.path.join(cwd, "spans_certify.json")
    traced = cert.run(traced_spans=spans)
    certify_trace = _load(spans)
    traces.append(certify_trace)
    # untraced baseline for the overhead, in the rest of the run time
    runs = measure(cert, seconds - (time.perf_counter() - t0), 1)
    samples["traced_certify_s"] = [traced.wall_s]
    samples["certify_s"] = [r.wall_s for r in runs]

    metrics = {}
    for name, value in tracer.layer_metrics(traces).items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (value, unit)
    metrics["cli.self_s"] = (
        traced.wall_s - tracer.top_level_seconds(certify_trace), "s")
    metrics["trace.overhead_frac"] = (
        traced.wall_s / statistics.median(samples["certify_s"]) - 1, "frac")
    return metrics


def _load(path: str) -> dict:
    """Spans written by tracer.py; none if the traced process was killed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"spans": [], "counters": {}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.abspath(uniformq.__file__).startswith(SRC + os.sep):
        print(f"error: uniformq imported from {uniformq.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    wl = WORKLOADS[args.workload]
    base = random.Random(args.seed).randrange(wl.n)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cwd = os.path.join(OUT_DIR, "work", tag)
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)

    setup_walls = []
    graph_bytes = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        graph = setup(wl, base, cwd, deadline)
        setup_walls.append(time.perf_counter() - t0)
        with open(os.path.join(cwd, graph), "rb") as fh:
            data = fh.read()
        if graph_bytes is not None and data != graph_bytes:
            raise RuntimeError("set-up is not deterministic")
        graph_bytes = data

    cert = Certifier(args.workload, base, graph, cwd, deadline)
    samples = {"setup_s": setup_walls}
    if args.trace:
        metrics = per_layer(cert, args.seconds, wl, base, samples)
    else:
        metrics = end_to_end(cert, args.seconds, setup_walls, samples)

    env = {
        "backend": uniformq.kernel_backend,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    failed = len(cert.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "base": base,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "attempted": cert.attempted, "failed": failed,
        "fail_frac": failed / cert.attempted, "failures": cert.failures,
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} base={base} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in cert.failures:
        print(f"# FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {record['fail_frac']:.6g} "
          f"({failed}/{cert.attempted} certify runs)")
    print(json.dumps({"correct": failed == 0, "attempted": cert.attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
