"""Acceptance gate: the eleven numbered checks from :mod:`cqic.verify`.

Each test runs one criterion end to end under the stock tolerance table,
as ``cqic verify`` does, echoes its PASS/FAIL line (visible with
``pytest -s`` and in failure reports), and asserts both the verdict and
the runtime budget the criterion is specified under.  Nothing here relaxes a
tolerance: a criterion that does not hold at desk scale fails loudly.
"""

import os

from cqic import verify
from cqic.config import DEFAULT_TOL, active_tolerances


def _run(cid, budget_s=None, **kwargs):
    with verify.stock_tolerances():
        result = verify.CRITERIA[cid](**kwargs)
    print(result.line())
    assert result.passed, result.details
    if budget_s is not None:
        assert result.seconds < budget_s, (
            f"criterion {cid} took {result.seconds:.2f}s "
            f"(budget {budget_s}s)")


def test_criterion_01_fact1_identity():
    _run(1, budget_s=5)


def test_criterion_02_capacity_formulas():
    _run(2, budget_s=30)


def test_criterion_03_conditioning_strictness():
    _run(3, budget_s=10)


def test_criterion_04_separation_instance():
    _run(4, budget_s=600)


def test_criterion_05_or_recovery():
    _run(5, budget_s=1)


def test_criterion_06_trivial_coset_specialization():
    _run(6, budget_s=300)


def test_criterion_07_soft_covering():
    _run(7, budget_s=120)


def test_criterion_08_tilting_bound():
    _run(8, budget_s=60)


def test_criterion_09_hayashi_nagaoka():
    _run(9, budget_s=60)


def test_criterion_10_simulation_sanity():
    _run(10, budget_s=600)


def test_criterion_11_cli_determinism():
    _run(11)


def test_criteria_ignore_tolerance_override(monkeypatch):
    monkeypatch.setenv("CQRL_TOL", "1e-3")
    assert active_tolerances() != DEFAULT_TOL
    with verify.stock_tolerances():
        assert active_tolerances() is DEFAULT_TOL
    assert os.environ["CQRL_TOL"] == "1e-3"
