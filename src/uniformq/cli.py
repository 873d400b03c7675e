"""Command-line front end.

``gen`` writes a named graph family as an edge list and ``fb`` applies
the full bipartite transform.  Every other subcommand is a view over one
``_Instance``: a graph and base vertex whose artifacts -- the uniform
structure and its verification, the dual adjacency candidate and its
relation check, the thin modules, the spectrum and the idempotent
pattern -- are each computed at most once.  ``pipeline`` runs the five
stages (uniform, candidate, modules, spectrum, qcheck) through one stage
runner that records, for each, a skip reason, its section, or
``{"error": ...}``; ``uniform``, ``candidate``, ``modules``, ``spectrum``
and ``qcheck`` each report one section of the same chain, in their own
words.  ``_attempt`` is the one boundary at which a mathematical
rejection becomes a report, and ``_finish`` emits it and exits.

Exit codes: 0 when every requested check passes (clean stage skips
included), 1 when a stage produces a mathematical fail or rejection,
2 for usage or I/O errors.  Reports are byte-deterministic; stage
timings are included only with --timings since they cannot be.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from functools import cached_property

import click

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


def _fail_usage(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(USAGE_ERROR)


def _write(text: str, out) -> None:
    """Write text to the file out, or to standard output when out is
    None; a file that cannot be written is an I/O error."""
    if not out:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail_usage(f"cannot write {out}: {exc}")


def _finish(report: dict, ok, out, as_json: bool):
    """Emit the report as JSON or as indented text, then exit 0 when ok
    and 1 otherwise."""
    text = (json.dumps(report, indent=2, sort_keys=True) if as_json
            else _render_text(report))
    _write(text + "\n", out)
    sys.exit(0 if ok else MATH_FAIL)


def _attempt(stage):
    """stage(), or ({"error": ...}, False) when it rejects its input:
    the one boundary at which a mathematical rejection becomes a
    report."""
    try:
        return stage()
    except (ValueError, ArithmeticError) as exc:
        return {"error": str(exc)}, False


def _report_options(view):
    """The -o/--out and --json/--no-json options every report view ends
    with."""
    view = click.option("--json/--no-json", "as_json", default=True)(view)
    return click.option("-o", "--out", type=click.Path(), default=None)(view)


def _render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(
            _render_text(v, indent) if isinstance(v, (dict, list))
            else f"{pad}- {v}"
            for v in obj
        )
    return f"{pad}{obj}"


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


def _parse_theta(text: str) -> tuple[Fraction, Fraction]:
    try:
        parts = [Fraction(p.strip()) for p in text.split(",")]
    except (ValueError, ZeroDivisionError):
        _fail_usage(f"cannot parse theta pair {text!r}")
    if len(parts) != 2 or parts[0] == parts[1]:
        _fail_usage(
            "theta must be two distinct comma-separated rationals, e.g. '-1,0'"
        )
    return parts[0], parts[1]


@click.group()
def main() -> None:
    """Exact toolkit for uniform structures, dual adjacency matrix
    candidates and Q-polynomial certification on bipartite graphs."""


@main.command()
@click.argument("family",
                type=click.Choice(["dual-polar-C", "dual-polar-B",
                                   "hypercube", "hamming"]))
@click.option("--b", "field", type=int, default=None,
              help="Field size (prime) for dual polar families.")
@click.option("--D", "diameter", type=int, required=True,
              help="Diameter / word length.")
@click.option("--n", "alphabet", type=int, default=None,
              help="Alphabet size for the hamming family.")
@click.option("-o", "--out", type=click.Path(), default=None)
@click.option("--labels", type=click.Path(), default=None,
              help="Write vertex labels (subspace bases / words) as JSON.")
def gen(family, field, diameter, alphabet, out, labels) -> None:
    """Generate a named graph family as an edge list."""
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


@main.command()
@click.argument("input", type=click.Path())
@click.option("--base", type=int, default=0, show_default=True)
@click.option("-o", "--out", type=click.Path(), default=None)
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
    raises is not cached, so a view reads it once; the module
    decomposition keeps its failure too, since the spectrum asks for it
    again."""

    def __init__(self, g, base: int, params_file=None,
                 theta=(Fraction(-1), Fraction(0))):
        try:
            self.ctx = bfs_context(g, base)
            self.split = lfr_split(g, self.ctx)
        except ValueError as exc:
            _fail_usage(str(exc))
        self.params_file = params_file
        self.theta = theta

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
        return candidate_search(self.params, *self.theta)

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
    def _modules(self):
        """The module decomposition, or the error that rejected it."""
        try:
            return decompose_modules(self.split, self.params)
        except (ValueError, ArithmeticError) as exc:
            return exc

    @property
    def modules(self):
        if isinstance(self._modules, Exception):
            raise self._modules
        return self._modules

    @cached_property
    def spectrum(self):
        """The spectrum read off the certified thin modules; the dense
        Gram-block route when there are none, for want of a verified
        uniform structure or because the decomposition failed."""
        certified = self.verified and not isinstance(self._modules, Exception)
        return spectrum_exact(self.split, self._modules if certified else None)

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

_EPS_SKIP = "candidate synthesis needs eccentricity >= 3, have {}"


def _open(input, base, params_file=None, theta="-1,0") -> _Instance:
    """The instance of a bipartite graph file; anything else is a usage
    error."""
    inst = _Instance(_load_graph(input), base, params_file,
                     _parse_theta(theta))
    if not inst.split.is_bipartite():
        _fail_usage(
            "this command requires a bipartite graph; apply the full "
            "bipartite transform first (uniformq fb)"
        )
    return inst


def _candidate_section(inst: _Instance) -> dict:
    """The candidate report, or why synthesis was skipped."""
    eps = inst.ctx.eccentricity
    if eps < 3:
        return {"skipped": _EPS_SKIP.format(eps)}
    if inst.params is None:
        return {"skipped": "no uniform structure exists"}
    if not inst.check.passed:
        return {"skipped": "uniform parameters do not verify"}
    return inst.candidate


@main.command()
@click.argument("input", type=click.Path())
@click.option("--base", type=int, default=0, show_default=True)
@click.option("--verify", "params_file", type=click.Path(), default=None,
              help="Verify the parameters in this JSON file instead.")
@_report_options
def uniform(input, base, params_file, out, as_json) -> None:
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
    _finish(dict(inst.levels_report(), uniform=section), inst.verified,
            out, as_json)


@main.command()
@click.argument("input", type=click.Path())
@click.option("--base", type=int, default=0, show_default=True)
@click.option("--params", "params_file", type=click.Path(), default=None,
              help="Uniform parameters JSON; fitted from the graph if omitted.")
@click.option("--theta", default="-1,0", show_default=True,
              help="theta*_0,theta*_1 normalisation.")
@_report_options
def candidate(input, base, params_file, theta, out, as_json) -> None:
    """Synthesise a dual adjacency matrix candidate and verify it."""
    report = _candidate_section(_open(input, base, params_file, theta))
    _finish(report, report.get("verified"), out, as_json)


@main.command()
@click.argument("input", type=click.Path())
@click.option("--base", type=int, default=0, show_default=True)
@click.option("--params", "params_file", type=click.Path(), default=None)
@_report_options
def modules(input, base, params_file, out, as_json) -> None:
    """Decompose the standard module into thin irreducible chains."""
    inst = _open(input, base, params_file)
    if inst.params is None:
        _finish({"error": "no uniform structure exists"}, False, out, as_json)

    def view():
        found = inst.modules.to_json()  # verifies the structure first
        return dict(inst.levels_report(), uniform=inst.uniform_section(),
                    modules=found), True

    _finish(*_attempt(view), out, as_json)


@main.command()
@click.argument("input", type=click.Path())
@_report_options
def spectrum(input, out, as_json) -> None:
    """Exact adjacency spectrum of a bipartite graph over Q(sqrt(m))."""
    inst = _open(input, 0)  # no uniform structure, no modules
    _finish(*_attempt(lambda: (spectrum_exact(inst.split).to_json(), True)),
            out, as_json)


@main.command()
@click.argument("input", type=click.Path())
@click.option("--base", type=int, default=0, show_default=True)
@click.option("--theta", default="-1,0", show_default=True)
@click.option("--ordering", "ordering_name", default="both",
              type=click.Choice(["both", "even-odd", "odd-even", "natural"]),
              show_default=True)
@_report_options
def qcheck(input, base, theta, ordering_name, out, as_json) -> None:
    """Check Q-polynomial orderings of the primitive idempotents."""
    inst = _open(input, base, theta=theta)
    cand_report = _candidate_section(inst)
    if not cand_report.get("verified"):  # skipped, rejected or refuted
        _finish({"candidate": cand_report, "skipped": "no verified candidate"},
                False, out, as_json)

    def view():
        reports, ok = inst.orderings(ordering_name)
        return {"orderings": reports}, ok

    report, ok = _attempt(view)
    _finish(dict(report, candidate=cand_report), ok, out, as_json)


@main.command()
@click.argument("input", type=click.Path())
@click.option("--base", type=int, default=0, show_default=True)
@click.option("--fb", "apply_fb", is_flag=True,
              help="Apply the full bipartite transform before the pipeline.")
@click.option("--verify-uniform", "params_file", type=click.Path(),
              default=None, help="Verify these parameters instead of fitting.")
@click.option("--candidate", "theta", default="-1,0", show_default=True,
              help="theta*_0,theta*_1 for candidate synthesis.")
@click.option("--qcheck", "ordering_name", default="both",
              type=click.Choice(["both", "even-odd", "odd-even", "natural"]),
              show_default=True)
@click.option("--no-spectrum", is_flag=True,
              help="Skip the spectrum and ordering stages.")
@click.option("--timings", is_flag=True,
              help="Include wall-clock stage timings (breaks byte determinism).")
@_report_options
def pipeline(input, base, apply_fb, params_file, theta, ordering_name,
             no_spectrum, timings, out, as_json) -> None:
    """Run the full chain: uniform -> candidate -> modules -> spectrum ->
    Q-polynomial ordering checks."""
    g = _load_graph(input)
    theta = _parse_theta(theta)
    if apply_fb:
        try:
            g = full_bipartite(g, base)
        except ValueError as exc:
            _fail_usage(str(exc))
    inst = _Instance(g, base, params_file, theta)
    eps = inst.ctx.eccentricity
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
        _finish(report, False, out, as_json)

    # each stage returns a skip reason or its (section, ok); a skipped
    # stage passes cleanly, and qcheck needs the three before it to pass
    def uniform_stage():
        section = inst.uniform_section()
        if inst.source:
            section["source"] = inst.source
        return section, inst.verified

    def candidate_stage():
        if not inst.verified:
            return "no verified uniform structure"
        if eps < 3:
            return _EPS_SKIP.format(eps) + "; stage skipped cleanly"
        # verified is True only when accepted and the relation holds
        return inst.candidate, inst.candidate["verified"] is True

    def modules_stage():
        if not inst.verified:
            return "no verified uniform structure"
        return inst.modules.to_json(), True

    def spectrum_stage():
        return "disabled" if no_spectrum else (inst.spectrum.to_json(), True)

    def qcheck_stage():
        if no_spectrum:
            return "disabled"
        for stage, reason in [("candidate", "no verified candidate"),
                              ("modules", "no module decomposition"),
                              ("spectrum", "no spectrum")]:
            if not passed.get(stage):
                return reason
        return inst.orderings(ordering_name)

    clock, passed = {}, {}
    for name, key, stage in [("uniform", "uniform", uniform_stage),
                             ("candidate", "candidate", candidate_stage),
                             ("modules", "modules", modules_stage),
                             ("spectrum", "spectrum", spectrum_stage),
                             ("qcheck", "ordering", qcheck_stage)]:
        t0 = time.perf_counter()
        result = _attempt(stage)
        if isinstance(result, str):
            skipped[name] = result
        else:
            report[key], passed[name] = result
        clock[name] = round(time.perf_counter() - t0, 6)
    if timings:
        report["timings"] = clock
    _finish(report, all(passed.values()), out, as_json)


if __name__ == "__main__":
    main()
