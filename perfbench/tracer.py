"""Outside-in span tracer for the uniformq library.

Wraps the public functions of each layer from outside the library: every
reference to a target function object, in every loaded ``uniformq.*``
module namespace, is rebound to one timing wrapper.  This catches calls
made through by-name imports (``from .linalg import rank``) as well as
through module attributes (``pykernels.imat_mul``).  Spans
``(name, start, end, parent)`` and counters stay in memory and are
written out once, when the traced command ends.

Run one traced CLI command in this process:

    python3 perfbench/tracer.py SPANS.json -- pipeline g.el --base 3

``layer_metrics`` turns a list of span files into ``<layer>.<fn>.calls``,
``.busy_s`` and ``.self_s``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (layer.fn, module, attribute).  A class attribute is given as
# "Class.method".  ``scalars`` is deliberately absent: wrapping
# per-element arithmetic would distort the run; its cost shows in the
# self time of ``column_space_basis`` and ``decompose_modules``.
TARGETS = [
    ("generators.dual_polar", "uniformq.generators", "dual_polar"),
    ("generators.hypercube", "uniformq.generators", "hypercube"),
    ("graphs.full_bipartite", "uniformq.graphs", "full_bipartite"),
    ("graphs.bfs_context", "uniformq.graphs", "bfs_context"),
    ("graphs.lfr_split", "uniformq.graphs", "lfr_split"),
    ("graphs.adjacency_matrix", "uniformq.graphs", "Graph.adjacency_matrix"),
    ("uniform.fit_uniform_constant", "uniformq.uniform", "fit_uniform_constant"),
    ("uniform.fit_uniform", "uniformq.uniform", "fit_uniform"),
    ("uniform.verify_uniform", "uniformq.uniform", "verify_uniform"),
    ("uniform.decompose_modules", "uniformq.uniform", "decompose_modules"),
    ("candidate.candidate_search", "uniformq.candidate", "candidate_search"),
    ("candidate.verify_tridiagonal", "uniformq.candidate", "verify_tridiagonal"),
    ("spectra.spectrum_exact", "uniformq.spectra", "spectrum_exact"),
    ("spectra.eigenspace_bases", "uniformq.spectra", "eigenspace_bases"),
    ("spectra.idempotent_pattern", "uniformq.spectra", "idempotent_pattern"),
    ("spectra.check_q_ordering", "uniformq.spectra", "check_q_ordering"),
    ("linalg.solve_linear", "uniformq.linalg", "solve_linear"),
    ("linalg.nullspace", "uniformq.linalg", "nullspace"),
    ("linalg.rank", "uniformq.linalg", "rank"),
    ("linalg.charpoly_int", "uniformq.linalg", "charpoly_int"),
    ("linalg.column_space_basis", "uniformq.linalg", "column_space_basis"),
    ("linalg.int_matmul_flat", "uniformq.linalg", "int_matmul_flat"),
    ("poly.poly_gcd", "uniformq.poly", "poly_gcd"),
    # the compiled backend binds _kernels.imat_mul to another object than
    # pykernels.imat_mul, which int_matmul_flat calls for big entries
    ("kernels.imat_mul", "uniformq._kernels", "imat_mul"),
    ("kernels.imat_mul", "uniformq._kernels.pykernels", "imat_mul"),
    ("kernels.charpoly_mod", "uniformq._kernels", "charpoly_mod"),
    ("kernels.rank_mod", "uniformq._kernels", "rank_mod"),
]

LAYER_NAMES = sorted({name for name, _, _ in TARGETS})

# counters beyond the call count: metric name -> (span name, f(args))
COUNTERS = {
    "linalg.solve_linear.rows": ("linalg.solve_linear", lambda a, *_: a.rows),
}


class Tracer:
    """In-memory span and counter registry for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn):
        counters = [(metric, f) for metric, (span, f) in COUNTERS.items()
                    if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for metric, f in counters:
                self.counters[metric] = self.counters.get(metric, 0) + f(*args)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Rebind every reference to each target across the loaded
        ``uniformq`` modules.  Import every module that holds a
        reference before calling this."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "uniformq"
                                         or key.startswith("uniformq."))]
        seen: set[int] = set()  # ids of wrapped originals and wrappers
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[attr]
                self._rebind(owner, attr, orig, self.wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            if id(orig) in seen:  # one object bound under two targets
                continue
            wrapper = self.wrap(name, orig)
            seen.update((id(orig), id(wrapper)))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, orig, wrapper)

    def _rebind(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-function calls, busy and self seconds summed over traces.

    Busy time counts only the outermost span of a function, so recursion
    is not counted twice; self time is a span's duration minus the
    durations of its direct children.
    """
    out: dict[str, float] = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for metric in COUNTERS:
        out[metric] = 0
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[f"{name}.busy_s"] += end - start
        for metric, value in trace["counters"].items():
            out[metric] += value
    return out


def top_level_seconds(trace: dict) -> float:
    """Total duration of the spans that have no traced parent."""
    return sum(end - start for _, start, end, parent in trace["spans"]
               if parent < 0)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <uniformq arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import uniformq.cli  # noqa: F401  - loads every layer module

    tracer = Tracer()
    tracer.install()
    try:
        uniformq.cli.main(cli_args, prog_name="uniformq")
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    else:
        code = 0
    finally:
        tracer.dump(spans_path)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
