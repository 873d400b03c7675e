"""Command-line front end.

``gen`` writes a named graph family as an edge list and ``fb`` applies
the full bipartite transform.  Every other subcommand is a view over one
``_Instance``: a graph and base vertex whose artifacts -- the uniform
structure and its verification, the dual adjacency candidate and its
relation check, the thin modules, the spectrum and the idempotent
pattern -- are each computed at most once.  ``pipeline`` is the one
report of the chain: it runs the five stages (uniform, candidate,
modules, spectrum, qcheck) from one table that names the stages each
needs, and records, for each, a skip reason, its section, or
``{"error": ...}``.  The other views carry what it does not:
``uniform`` the per-level fits and the failing level of a given
structure, ``candidate`` the chain stopped before the modules stage,
by ``pipeline``'s own candidate stage, and ``spectrum`` the dense
route, the independent cross-check of the module spectrum.
``_attempt`` is the one boundary at which a mathematical rejection
becomes a report, and ``_finish`` emits it and exits.

The command line is parsed by argparse, so the package needs no
third-party module to run.  Every parser refuses abbreviated options
and takes --help alone: -h is refused as an unrecognized argument.

Exit codes: 0 when every requested check passes (``pipeline``'s clean
stage skips included; ``candidate`` exits 1 when it skips synthesis),
1 when a stage produces a mathematical fail or rejection, 2 for usage
or I/O errors.  Reports are byte-deterministic; stage timings are
included only with --timings since they cannot be.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cached_property

from .candidate import candidate_search, verify_relation
from .generators import FormSpec, SizeCapError, dual_polar, hamming, hypercube
from .graphs import (
    bfs_context,
    format_edge_list,
    full_bipartite,
    lfr_split,
    parse_edge_list,
)
from .spectra import (
    check_q_ordering,
    even_odd_ordering,
    module_pattern,
    natural_ordering,
    odd_even_ordering,
    spectrum_exact,
)
from .uniform import (
    UniformParams,
    decompose_modules,
    fit_uniform,
    fit_uniform_constant,
    verify_uniform,
)

USAGE_ERROR = 2
MATH_FAIL = 1
# the largest smaller colour class, the side of the Gram block, that
# ``spectrum`` takes: the dense route is O(size^3) in pure Python, about
# 9 s at this size on a 2-core host
GRAM_CAP = 400


def _fail_usage(message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(USAGE_ERROR)


def _write(text: str, out) -> None:
    """Write text to the file out, or to standard output when out is
    None; a file that cannot be written is an I/O error."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail_usage(f"cannot write {out}: {exc}")


def _finish(report: dict, ok, out):
    """Emit the report as JSON, then exit 0 when ok and 1 otherwise."""
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", out)
    sys.exit(0 if ok else MATH_FAIL)


def _attempt(stage):
    """stage(), or ({"error": ...}, False) when it rejects its input:
    the one boundary at which a mathematical rejection becomes a
    report."""
    try:
        return stage()
    except (ValueError, ArithmeticError) as exc:
        return {"error": str(exc)}, False


def _load_graph(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        _fail_usage(f"cannot read {path}: {exc}")
    try:
        return parse_edge_list(text)
    except ValueError as exc:
        _fail_usage(f"bad edge list {path}: {exc}")


# subcommand name -> (function, arguments), each argument the positional
# and keyword arguments of one ``add_argument`` call
_COMMANDS = {}


def _arg(*flags, **options) -> tuple:
    return flags, options


def _command(*arguments):
    """Register the decorated function as the subcommand of its name;
    it is called with the parsed arguments as keywords."""
    def register(run):
        _COMMANDS[run.__name__] = (run, arguments)
        return run
    return register


_INPUT = _arg("input", help="Edge list file.")
_BASE = _arg("--base", type=int, default=0,
             help="Base vertex (default: %(default)s).")
_OUT = _arg("-o", "--out", help="Write the output to this file.")


@_command(
    _arg("family", choices=["dual-polar-C", "dual-polar-B", "hypercube",
                            "hamming"]),
    _arg("--b", dest="field", type=int,
         help="Field size (prime) for dual polar families."),
    _arg("--D", dest="diameter", type=int, required=True,
         help="Diameter / word length."),
    _arg("--n", dest="alphabet", type=int,
         help="Alphabet size for the hamming family."),
    _OUT,
    _arg("--labels",
         help="Write vertex labels (subspace bases / words) as JSON."),
)
def gen(family, field, diameter, alphabet, out, labels) -> None:
    """Generate a named graph family as an edge list."""
    if field is not None and not family.startswith("dual-polar"):
        _fail_usage(f"{family} takes no --b")
    if alphabet is not None and family != "hamming":
        _fail_usage(f"{family} takes no --n")
    try:
        if family in ("dual-polar-C", "dual-polar-B"):
            if field is None:
                _fail_usage("dual polar families need --b")
            spec = FormSpec(family[-1], diameter, field)
            graph, label_table = dual_polar(spec)
        elif family == "hypercube":
            graph, label_table = hypercube(diameter)
        else:
            if alphabet is None:
                _fail_usage("hamming needs --n")
            graph, label_table = hamming(diameter, alphabet)
    except (SizeCapError, ValueError) as exc:
        _fail_usage(str(exc))
    _write(format_edge_list(graph), out)
    if labels:
        _write(json.dumps(label_table, sort_keys=True) + "\n", labels)


@_command(_INPUT, _BASE, _OUT)
def fb(input, base, out) -> None:
    """Full bipartite transform: drop edges within a level of the base."""
    g = _load_graph(input)
    try:
        result = full_bipartite(g, base)
    except ValueError as exc:
        _fail_usage(str(exc))
    _write(format_edge_list(result), out)


class _Instance:
    """One graph and base vertex; every artifact of the certificate
    chain is computed on first use and at most once.  The subcommands
    are views that assemble their reports from it.  A property that
    raises is not cached, so a view reads it once."""

    def __init__(self, g, base: int, params_file=None):
        try:
            self.ctx = bfs_context(g, base)
            self.split = lfr_split(g, self.ctx)
        except ValueError as exc:
            _fail_usage(str(exc))
        self.params_file = params_file

    def levels_report(self) -> dict:
        return {
            "epsilon": self.ctx.eccentricity,
            "levels": [len(lv) for lv in self.ctx.levels],
        }

    @cached_property
    def constant(self):
        return fit_uniform_constant(self.split)

    @cached_property
    def fit(self):
        return fit_uniform(self.split)

    @cached_property
    def params(self):
        """The parameter file's structure, else the constant fit, else
        the per-level fit; None when no uniform structure exists.  An
        unreadable parameter file, one whose length is not the
        eccentricity, and a base vertex with no level to fit on are
        usage errors."""
        path, eps = self.params_file, self.ctx.eccentricity
        if path is None:
            if eps == 0:
                _fail_usage(f"base vertex {self.ctx.base} has eccentricity 0; "
                            "a uniform structure needs eccentricity >= 1")
            return self.constant if self.constant is not None else self.fit.canonical
        try:
            with open(path) as fh:
                params = UniformParams.from_json(json.load(fh))
        except (OSError, ValueError) as exc:
            _fail_usage(f"bad parameter file {path}: {exc}")
        if params.eps != eps:
            _fail_usage(f"bad parameter file {path}: parameter length "
                        f"{params.eps} != eccentricity {eps}")
        return params

    @property
    def source(self):
        """Which fit gave the parameters; None for a parameter file."""
        if self.params_file is None:
            return "fit-constant" if self.constant is not None else "fit-per-level"

    @cached_property
    def check(self):
        return verify_uniform(self.split, self.params)

    @property
    def verified(self) -> bool:
        """Whether a uniform structure exists and verifies."""
        return self.params is not None and self.check.passed

    def uniform_section(self) -> dict:
        """verified, the parameters, and ``invalid``, the reason, when
        the identity holds but the parameter matrix fails its
        conditions."""
        if self.params is None:
            return {"verified": False}
        section = dict(self.params.to_json(), verified=self.check.passed)
        if self.check.reason is not None:
            section["invalid"] = self.check.reason
        return section

    @cached_property
    def search(self):
        return candidate_search(self.params)

    @cached_property
    def candidate(self) -> dict:
        """The search report; an accepted candidate also carries its
        exact relation check, decided on the split's equation table, as
        ``verified``."""
        report = self.search.to_json()
        if self.search.accepted:
            report["verified"] = verify_relation(
                self.split, self.search.candidate) is None
        return report

    @cached_property
    def modules(self):
        return decompose_modules(self.split, self.params)

    @cached_property
    def spectrum(self):
        """The spectrum read off the certified thin modules; with no
        decomposition there is no spectrum."""
        return spectrum_exact(self.split, self.modules)

    @cached_property
    def pattern(self):
        """The idempotent pattern, decided on the thin modules.  It
        needs the modules, so the spectrum was read off them too, and
        its check of the modules' eigenvalue counts against the
        spectrum holds by construction here; the tests' twin and the CI
        run on C_3(3) hold the dense spectrum against the modules'."""
        return module_pattern(self.spectrum, self.modules,
                              self.search.candidate.theta_star)

    def orderings(self, ordering_name: str) -> tuple[list, bool]:
        """Check the requested orderings; with "both", natural is the
        negative control and does not count towards the verdict."""
        both = ordering_name == "both"
        k = len(self.spectrum.eigenvalues)
        reports = []
        ok = True
        for name in _ORDERINGS if both else [ordering_name]:
            negative_control = both and name == "natural"
            ordering = _ORDERINGS[name](k)
            violation = check_q_ordering(self.pattern, ordering)
            reports.append({
                "name": name,
                "negative_control": negative_control,
                "ordering": ordering,
                "tridiagonal": violation is None,
                "violation": violation and list(violation),
            })
            if not negative_control and violation is not None:
                ok = False
        return reports, ok


_ORDERINGS = {
    "even-odd": even_odd_ordering,
    "odd-even": odd_even_ordering,
    "natural": natural_ordering,
}

def _open(input, base, params_file=None) -> _Instance:
    """The instance of a bipartite graph file; anything else is a usage
    error."""
    inst = _Instance(_load_graph(input), base, params_file)
    if not inst.split.is_bipartite():
        _fail_usage(
            "this command requires a bipartite graph; apply the full "
            "bipartite transform first (uniformq fb)"
        )
    return inst


def _candidate_stage(inst: _Instance):
    """The candidate stage of ``pipeline``, which the ``candidate`` view
    runs too: the reason synthesis is skipped, or the candidate section
    and whether it verifies."""
    if not inst.verified:
        return "no verified uniform structure"
    eps = inst.ctx.eccentricity
    if eps < 3:
        return f"candidate synthesis needs eccentricity >= 3, have {eps}"
    # verified is True only when accepted and the relation holds
    return inst.candidate, inst.candidate["verified"] is True


@_command(
    _INPUT, _BASE,
    _arg("--verify", dest="params_file",
         help="Verify the parameters in this JSON file instead."),
    _OUT,
)
def uniform(input, base, params_file, out) -> None:
    """Fit or verify a uniform structure."""
    inst = _open(input, base, params_file)
    section = inst.uniform_section()  # before the fit: eps 0 is a usage error
    if not params_file:
        section.update(
            feasible=inst.fit.canonical is not None,
            per_level=[
                {
                    "level": i,
                    "consistent": sol is not None,
                    "canonical": sol and [str(v) for v in sol[0]],
                }
                for i, sol in enumerate(inst.fit.levels, 1)
            ],
            constant=inst.constant.to_json() if inst.constant else None,
        )
    elif not inst.verified and "invalid" not in section:
        section.update(failed_level=inst.check.level,
                       witness_vertex=inst.check.witness)
    _finish(dict(inst.levels_report(), uniform=section), inst.verified, out)


@_command(
    _INPUT, _BASE,
    _arg("--params", dest="params_file",
         help="Uniform parameters JSON; fitted from the graph if omitted."),
    _OUT,
)
def candidate(input, base, params_file, out) -> None:
    """Synthesise a dual adjacency matrix candidate and verify it."""
    inst = _open(input, base, params_file)
    result = _attempt(lambda: _candidate_stage(inst))
    if isinstance(result, str):
        _finish({"skipped": result}, False, out)
    _finish(*result, out)


@_command(_INPUT, _OUT)
def spectrum(input, out) -> None:
    """Exact adjacency spectrum of a bipartite graph over Q(sqrt(m)),
    by the dense route; a Gram block over GRAM_CAP is a usage error."""
    inst = _open(input, 0)  # no uniform structure, no modules
    size = min(sum(map(len, inst.ctx.levels[p::2])) for p in (0, 1))
    if size > GRAM_CAP:
        _fail_usage(f"the Gram block is {size} x {size}, over the dense "
                    f"spectrum's cap of {GRAM_CAP} (GRAM_CAP)")
    _finish(*_attempt(lambda: (spectrum_exact(inst.split).to_json(), True)),
            out)


@_command(
    _INPUT, _BASE,
    _arg("--fb", dest="apply_fb", action="store_true",
         help="Apply the full bipartite transform before the pipeline."),
    _arg("--verify-uniform", dest="params_file",
         help="Verify these parameters instead of fitting."),
    _arg("--qcheck", dest="ordering_name", default="both",
         choices=["both", "even-odd", "odd-even", "natural"],
         help="Orderings to check (default: %(default)s)."),
    _arg("--no-spectrum", action="store_true",
         help="Skip the spectrum and ordering stages."),
    _arg("--timings", action="store_true",
         help="Include wall-clock stage timings (breaks byte determinism)."),
    _OUT,
)
def pipeline(input, base, apply_fb, params_file, ordering_name,
             no_spectrum, timings, out) -> None:
    """Run the full chain: uniform -> candidate -> modules -> spectrum ->
    Q-polynomial ordering checks."""
    g = _load_graph(input)
    if apply_fb:
        try:
            g = full_bipartite(g, base)
        except ValueError as exc:
            _fail_usage(str(exc))
    inst = _Instance(g, base, params_file)
    skipped = {}
    report = dict(
        graph={"n": g.n, "m": g.num_edges, "source": input},
        base=base,
        bipartite=inst.split.is_bipartite(),
        skipped=skipped,
        **inst.levels_report(),
    )
    if not report["bipartite"]:
        skipped["all"] = "pipeline requires a bipartite graph"
        _finish(report, False, out)

    def uniform_stage():
        section = inst.uniform_section()
        if inst.source:
            section["source"] = inst.source
        return section, inst.verified

    # stage, report key, body, and the stages it needs, each with the
    # reason it is skipped when that stage has not passed; a body returns
    # a skip reason or its (section, ok), and a skipped stage passes
    # cleanly
    stages = [
        ("uniform", "uniform", uniform_stage, []),
        ("candidate", "candidate", lambda: _candidate_stage(inst), []),
        ("modules", "modules", lambda: (inst.modules.to_json(), True),
         [("uniform", "no verified uniform structure")]),
        ("spectrum", "spectrum", lambda: (inst.spectrum.to_json(), True),
         [("modules", "no module decomposition")]),
        ("qcheck", "ordering", lambda: inst.orderings(ordering_name),
         [("candidate", "no verified candidate"),
          ("modules", "no module decomposition"),
          ("spectrum", "no spectrum")]),
    ]
    clock, passed = {}, {}
    for name, key, body, needs in stages:
        t0 = time.perf_counter()
        unmet = [reason for stage, reason in needs if not passed.get(stage)]
        if no_spectrum and name in ("spectrum", "qcheck"):
            unmet.insert(0, "disabled")
        result = unmet[0] if unmet else _attempt(body)
        if isinstance(result, str):
            skipped[name] = result
        else:
            report[key], passed[name] = result
        clock[name] = round(time.perf_counter() - t0, 6)
    if timings:
        report["timings"] = clock
    _finish(report, all(passed.values()), out)


class _Refuse(argparse.Action):
    """An option that is a usage error wherever it stands, reported
    before argparse checks the required arguments."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"unrecognized arguments: {option_string}")


def _new_parser(make, *args, **kwargs) -> argparse.ArgumentParser:
    """make(*args, **kwargs), a parser that refuses abbreviated options
    and takes --help alone: -h is a usage error."""
    parser = make(*args, allow_abbrev=False, add_help=False, **kwargs)
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    parser.add_argument("-h", action=_Refuse, nargs=0,
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return parser


def _parsers(prog: str) -> tuple[argparse.ArgumentParser, dict]:
    """The command-line parser, and the parser of each subcommand by
    name; a parsed command line carries its subcommand's function as
    ``run``."""
    parser = _new_parser(argparse.ArgumentParser, prog=prog,
                         description=main.__doc__.partition("\n\n")[0])
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (run, arguments) in _COMMANDS.items():
        sub = _new_parser(commands.add_parser, name,
                          help=run.__doc__.partition(".")[0],
                          description=run.__doc__)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(run=run)
    return parser, commands.choices


def main(args=None, prog_name: str = "uniformq") -> None:
    """Exact toolkit for uniform structures, dual adjacency matrix
    candidates and Q-polynomial certification on bipartite graphs.

    Runs the command line args (default ``sys.argv[1:]``); a usage
    error exits 2."""
    options = vars(_parsers(prog_name)[0].parse_args(args))
    options.pop("run")(**options)


# the attributes through which click.testing.CliRunner, which the tests
# use, invokes a command
main.main = main
main.name = "uniformq"

if __name__ == "__main__":
    main()
