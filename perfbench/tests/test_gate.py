"""The correctness gate accepts genuine reports and rejects tampered
ones.  The JSON files are ``uniformq pipeline`` reports of the two
workloads, saved from real runs."""

from __future__ import annotations

import copy
import json
import os

import pytest

import gate

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


C32 = ("c32fb-full", "c32fb_base5_report.json", 5)
Q9 = ("q9-verify", "q9_base77_report.json", 77)


@pytest.mark.parametrize("workload,name,base", [C32, Q9])
def test_genuine_report_passes(workload, name, base):
    assert gate.check(workload, _load(name), base) == []


def _set_rho(r):
    r["candidate"]["rho"] = "37"


def _set_multiplicity(r):
    r["spectrum"]["eigenvalues"][1]["multiplicity"] = 8


def _set_eigenvalue(r):
    r["spectrum"]["eigenvalues"][0]["value"]["c"] = "6"


def _natural_passes(r):
    r["ordering"][2]["tridiagonal"] = True


def _drop_module(r):
    r["modules"].pop()


def _unverified(r):
    r["candidate"]["verified"] = False


def _fit_source(r):
    r["uniform"]["source"] = "fit-per-level"


@pytest.mark.parametrize("tamper", [
    _set_rho, _set_multiplicity, _set_eigenvalue, _natural_passes,
    _drop_module, _unverified, _fit_source,
])
def test_tampered_c32_report_fails(tamper):
    workload, name, base = C32
    report = copy.deepcopy(_load(name))
    tamper(report)
    assert gate.check(workload, report, base)


@pytest.mark.parametrize("tamper", [_set_rho, _drop_module, _unverified])
def test_tampered_q9_report_fails(tamper):
    workload, name, base = Q9
    report = copy.deepcopy(_load(name))
    tamper(report)
    assert gate.check(workload, report, base)


def test_wrong_base_fails():
    workload, name, base = C32
    assert gate.check(workload, _load(name), base + 1)


def test_malformed_report_fails_without_raising():
    assert gate.check("c32fb-full", {"spectrum": {}, "modules": [{}]}, 0)
