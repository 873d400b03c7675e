#!/usr/bin/env python3
"""Compare two sets of benchmark result records, metric by metric.

    python3 perfbench/compare.py PARENT.json... -- CHANGE.json...

Takes the records ``run.py`` writes to ``.perfbench/results/``.  For
each workload and metric it prints both sides' medians and quartiles
(``statistics.quantiles(n=4)``) and the change of the median as a share
of the parent's.  Runs made with a different kernel backend, Python or
CPU count are not comparable: every such mismatch is flagged, and the
exit code is 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

ENV_KEYS = ("backend", "python", "nproc")


def _load(paths):
    by_metric = defaultdict(list)  # (workload, metric) -> values
    envs = set()
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        envs.add(tuple((k, rec["env"][k]) for k in ENV_KEYS))
        for name, m in rec["metrics"].items():
            by_metric[(rec["workload"], name)].append(m["value"])
    return by_metric, envs


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent, p_env = _load(argv[:cut])
    change, c_env = _load(argv[cut + 1:])
    envs = p_env | c_env
    for env in sorted(envs):
        print("# env " + " ".join(f"{k}={v}" for k, v in env))
    if len(envs) > 1:
        print("# WARNING: runs differ in backend, Python or nproc; "
              "the figures below are not comparable")
    for key in sorted(parent.keys() & change.keys()):
        p, c = _summary(parent[key]), _summary(change[key])
        rel = (c[1] - p[1]) / p[1] if p[1] else float("nan")
        print(f"{key[0]:12} {key[1]:40} parent {p[1]:.6g} [{p[0]:.6g}, "
              f"{p[2]:.6g}] n={len(parent[key])}  change {c[1]:.6g} "
              f"[{c[0]:.6g}, {c[2]:.6g}] n={len(change[key])}  {rel:+.2%}")
    return 1 if len(envs) > 1 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
