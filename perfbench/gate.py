"""Correctness gate: compare a ``uniformq pipeline`` report with the
known certificate of its workload.

``check(workload, report, base)`` returns the list of mismatches; an
empty list means the report certifies exactly what the paper's closed
forms predict for that instance, at any base vertex (all workload
families are distance-transitive).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from uniformq.scalars import quad, scalar_from_json
from uniformq.spectra import closed_form_spectrum


def _strs(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def _uniform(e_minus, e_plus, f, **extra) -> dict:
    return dict(e_minus=_strs(e_minus), e_plus=_strs(e_plus), f=_strs(f),
                verified=True, **extra)


def _candidate(theta_star, beta, rho) -> dict:
    return {"theta_star": _strs(theta_star), "beta": str(Fraction(beta)),
            "gamma": "0", "rho": str(Fraction(rho)), "rejected_step": None,
            "verified": True}


Q9_PARAMS = {
    "e_minus": ["0"] + ["-1/2"] * 8,
    "e_plus": ["-1/2"] * 8 + ["0"],
    "f": ["1"] * 9,
}

_R2 = quad(0, 1, 2)  # sqrt(2)

EXPECTED = {
    "c32fb-full": {
        "n": 135,
        "uniform": _uniform((0, Fraction(-4, 3), Fraction(-4, 3)),
                            (Fraction(-1, 6), Fraction(-1, 6), 0),
                            (8, 8, 8), source="fit-constant"),
        "candidate": _candidate((-1, 0, Fraction(1, 2), Fraction(3, 4)),
                                Fraction(5, 2), 36),
        "spectrum": [(7 * _R2, 1), (6, 7), (2 * _R2, 35), (0, 49),
                     (-2 * _R2, 35), (-6, 7), (-7 * _R2, 1)],
        "closed_form": (2, 1, 3),
        "orderings": {"even-odd": True, "odd-even": True, "natural": False},
        "skipped": {},
    },
    "q9-verify": {
        "n": 512,
        "uniform": dict(Q9_PARAMS, verified=True),
        "candidate": _candidate(range(-1, 9), 2, 4),
        "modules": [(r, 9 - 2 * r, comb(9, r) - (comb(9, r - 1) if r else 0))
                    for r in range(5)],
        "skipped": {"spectrum": "disabled", "qcheck": "disabled"},
    },
}


def check(workload: str, report: dict, base: int) -> list[str]:
    exp = EXPECTED[workload]
    bad = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{what}: got {got!r}, expected {want!r}")

    expect("base", report.get("base"), base)
    expect("n", report.get("graph", {}).get("n"), exp["n"])
    expect("uniform", report.get("uniform"), exp["uniform"])
    expect("candidate", report.get("candidate"), exp["candidate"])
    expect("skipped", report.get("skipped"), exp["skipped"])

    modules = report.get("modules") or []
    try:
        dims = sum((m["d"] + 1) * m["multiplicity"] for m in modules)
        triples = [(m["r"], m["d"], m["multiplicity"]) for m in modules]
    except (KeyError, TypeError):
        bad.append(f"modules: malformed {modules!r}")
    else:
        expect("module dimension sum", dims, exp["n"])
        if "modules" in exp:
            expect("modules (r, d, mult)", triples, exp["modules"])

    if "spectrum" in exp:
        try:
            got = [(scalar_from_json(e["value"]), e["multiplicity"])
                   for e in report["spectrum"]["eigenvalues"]]
        except (KeyError, TypeError, ValueError):
            bad.append(f"spectrum: malformed {report.get('spectrum')!r}")
        else:
            expect("spectrum", got, exp["spectrum"])
            expect("spectrum vs closed form", [v for v, _ in got],
                   closed_form_spectrum(*exp["closed_form"]))
    if "orderings" in exp:
        got = {o.get("name"): o.get("tridiagonal")
               for o in report.get("ordering") or []}
        expect("orderings", got, exp["orderings"])
    return bad
