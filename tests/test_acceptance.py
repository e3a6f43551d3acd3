"""Acceptance gate: the eleven numbered checks from :mod:`cqic.verify`.

Each test runs one criterion end to end under the stock tolerance table,
as ``cqic verify`` does, echoes its PASS/FAIL line (visible with
``pytest -s`` and in failure reports), and asserts both the verdict and
the runtime budget the criterion is specified under.  Nothing here relaxes a
tolerance: a criterion that does not hold at desk scale fails loudly.
"""

import json
import threading

from cqic import verify
from cqic.cli import main
from cqic.config import DEFAULT_TOL, active_tolerances, tolerance_scope


def _run(cid, budget_s=None, **kwargs):
    with tolerance_scope():
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


def _spied_battery(monkeypatch, seen, during=None):
    """Replace every criterion by one that records the table it sees."""
    def spy(cid):
        def criterion(*_):
            seen.append(active_tolerances())
            if during is not None:
                during()
            return verify.CriterionResult(cid, "spy", True, 0.0, "")
        return criterion

    for cid in verify.CRITERIA:
        monkeypatch.setitem(verify.CRITERIA, cid, spy(cid))


def test_criteria_ignore_tolerance_override(tmp_path, capsys, monkeypatch):
    details = []
    for raw in (None, "1e-3"):
        if raw is not None:
            monkeypatch.setenv("CQRL_TOL", raw)
        out = tmp_path / str(raw)
        assert main(["verify", "--criteria", "1,11", "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text())
        details.append([r["details"] for r in doc["results"]])
    assert details[0] == details[1]

    seen = []
    _spied_battery(monkeypatch, seen)
    with tolerance_scope(1e-3):
        loose = active_tolerances()
        assert loose != DEFAULT_TOL
        verify.run_criteria()
        assert active_tolerances() is loose
    assert len(seen) == len(verify.CRITERIA)
    assert all(tol is DEFAULT_TOL for tol in seen)


def test_battery_in_one_thread_leaves_another_threads_table(monkeypatch):
    running, checked = threading.Event(), threading.Event()
    seen, other = [], []

    def hold():
        running.set()
        checked.wait(10)

    _spied_battery(monkeypatch, seen, during=hold)
    with tolerance_scope(1e-3):
        loose = active_tolerances()
        worker = threading.Thread(target=verify.run_criteria, args=([1],))
        worker.start()
        assert running.wait(10)
        other.append(active_tolerances())
        checked.set()
        worker.join(10)
        assert not worker.is_alive()
        assert other == [loose] and active_tolerances() is loose
    assert seen == [DEFAULT_TOL]
