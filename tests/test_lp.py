import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqic import layered, lp
from cqic.channels import build_ex2, build_ex3
from cqic.config import Tolerances
from cqic.lp import feasible_point
from cqic.regions import (Thm1Config, Thm2Config, UnstructuredConfig,
                          boundary_slice, thm2_config_from_thm1,
                          thm2_feasible, thm3_config_from_unstructured,
                          thm3_feasible)
from lp_oracle import feasible_point as oracle_feasible_point


class TestFeasiblePoint:
    def test_simple_box(self):
        ok, x = feasible_point(np.array([[1.0, 0.0], [0.0, 1.0]]),
                               np.array([2.0, 3.0]))
        assert ok
        assert (x >= 0).all()
        assert x[0] <= 2 + 1e-8 and x[1] <= 3 + 1e-8

    def test_lower_bound_row(self):
        # x >= 1 encoded as -x <= -1
        ok, x = feasible_point(np.array([[-1.0]]), np.array([-1.0]))
        assert ok
        assert x[0] >= 1 - 1e-8

    def test_infeasible_pair(self):
        # x <= 1 and x >= 2
        ok, _ = feasible_point(np.array([[1.0], [-1.0]]),
                               np.array([1.0, -2.0]))
        assert not ok

    def test_equality_pair_pins_value(self):
        a = np.array([[1.0, 1.0], [-1.0, -1.0]])
        ok, x = feasible_point(a, np.array([0.7, -0.7]))
        assert ok
        assert abs(x.sum() - 0.7) <= 1e-8

    def test_no_rows(self):
        ok, x = feasible_point(np.zeros((0, 3)), np.zeros(0))
        assert ok
        assert x.shape == (3,)

    def test_no_columns_consistent(self):
        ok, x = feasible_point(np.zeros((2, 0)), np.array([0.0, 1.0]))
        assert ok
        assert x.shape == (0,)

    def test_no_columns_contradictory(self):
        ok, _ = feasible_point(np.zeros((2, 0)), np.array([0.0, -1.0]))
        assert not ok

    def test_returned_point_satisfies_rows(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 4))
        x0 = rng.random(4)
        b = a @ x0 + rng.random(8)  # strictly interior
        ok, x = feasible_point(a, b)
        assert ok
        assert (a @ x - b).max() <= 1e-8
        assert x.min() >= 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_interior_systems(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 8))
        a = rng.normal(size=(m, n))
        x0 = rng.random(n) * 2
        b = a @ x0 + 0.1
        ok, x = feasible_point(a, b)
        assert ok
        assert (a @ x - b).max() <= 1e-8
        assert x.min() >= 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_separated_systems(self, seed):
        # sum(x) <= c and sum(x) >= c + gap cannot both hold
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        c = float(rng.random())
        row = np.ones((1, n))
        a = np.vstack([row, -row])
        ok, _ = feasible_point(a, np.array([c, -(c + 0.05)]))
        assert not ok

    def test_degenerate_redundant_rows(self):
        a = np.array([[1.0], [1.0], [1.0], [-1.0]])
        ok, x = feasible_point(a, np.array([1.0, 1.0, 1.0, 0.0]))
        assert ok
        assert 0 <= x[0] <= 1 + 1e-8


# ---------------------------------------------------------------------------
# differential tests against scipy's HiGHS (tests only)

def _highs_feasible(a, b):
    opt = pytest.importorskip("scipy.optimize")
    res = opt.linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=b, bounds=(0, None),
                      method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def _highs_verdict(a, b, delta=1e-6):
    """HiGHS's verdict where it holds with every row moved by ``delta``
    either way; ``None`` near the boundary."""
    if _highs_feasible(a, b - delta):
        return True
    if not _highs_feasible(a, b + delta):
        return False
    return None


def _noisy_thm2(seed, shapes):
    rng = np.random.default_rng(seed)
    tabs = [rng.random(s) for s in shapes]
    return Thm2Config((2, 2, 2), tuple(t / t.sum() for t in tabs))


def _layered_cases():
    """(channel, config, theorem, drop_dont_care) with a finite boundary."""
    ex2 = build_ex2(math.pi / 3, 0.1, 0.1, 1 / 32)
    ex3 = build_ex3(1.0, 0.1, 0.12, 0.4, 0.38, 0.42)
    thm2 = thm2_config_from_thm1(ex2, Thm1Config(
        2, (31 / 32, 1 / 32), (0.5, 0.5), (0.5, 0.5), (0, 1), (0, 1)))
    thm3 = thm3_config_from_unstructured(ex2, UnstructuredConfig(
        np.array([0.6, 0.4]), np.array([[0.3, 0.2], [0.1, 0.4]]),
        np.array([[0.35, 0.15], [0.05, 0.45]])))
    one_layer = ((2, 1, 2),) * 3
    two_users = ((1, 1, 2), (2, 1, 2), (2, 1, 2))
    return [(ex2, thm2, 2, False), (ex2, thm3, 3, False),
            (ex3, _noisy_thm2(3, one_layer), 2, False),
            (ex3, _noisy_thm2(5, two_users), 2, True)]


@pytest.mark.parametrize("case", range(4))
def test_layered_systems_agree_with_highs(case):
    # the real A and b of a Thm 2/3 system, 0.02 either side of the
    # boundary the layered checker finds
    spec, cfg, theorem, drop = _layered_cases()[case]
    system = layered._layered_system(spec, cfg, theorem, drop)
    check = thm2_feasible if theorem == 2 else thm3_feasible
    compared = 0
    for r2, r3 in ((0.0, 0.0), (0.02, 0.01), (0.05, 0.0)):
        (_, r1), = boundary_slice(
            lambda r: check(spec, cfg, r, drop).feasible, [r2], r3,
            r1_hi=1.0, tol=1e-4)
        if r1 == -math.inf:
            continue
        for rate, want in ((r1 - 0.02, True), (r1 + 0.02, False)):
            if rate < 0.0:
                continue
            b = system.b.copy()
            b[-6:] = [v for r in (rate, r2, r3) for v in (r, -r)]
            assert _highs_feasible(system.a, b) is want
            assert feasible_point(system.a, b)[0] is want
            compared += 1
    assert compared >= 3


def test_random_systems_agree_with_highs():
    rng = np.random.default_rng(11)
    decided = 0
    for _ in range(300):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 7))
        a = rng.normal(size=(m, n))
        a[rng.random((m, n)) < 0.3] = 0.0
        b = rng.normal(size=m)
        want = _highs_verdict(a, b)
        if want is None:
            continue
        assert feasible_point(a, b)[0] == want, (a, b)
        decided += 1
    assert decided >= 250


# ---------------------------------------------------------------------------
# differential test against the loop-per-row simplex (tests/lp_oracle.py)

def _same_solve(a, b):
    got, want = feasible_point(a, b), oracle_feasible_point(a, b)
    assert got[0] is want[0], (a, b)
    assert got[1].shape == want[1].shape
    assert got[1].tobytes() == want[1].tobytes(), (a, b)
    return want[0]


def test_array_pivots_match_loop_oracle():
    # the layered Thm 2/3 systems over a rate grid, then random systems
    # with quarter-step coefficients, whose ratio tests tie often
    verdicts = []
    for spec, cfg, theorem, drop in _layered_cases():
        system = layered._layered_system(spec, cfg, theorem, drop)
        for r1 in np.arange(33) / 40:
            for r2, r3 in ((0.0, 0.0), (0.02, 0.01), (0.05, 0.0), (0.1, 0.05),
                           (0.2, 0.1), (0.0, 0.3), (0.3, 0.0), (0.15, 0.15)):
                b = system.b.copy()
                b[-6:] = [v for r in (r1, r2, r3) for v in (r, -r)]
                verdicts.append(_same_solve(system.a, b))
    rng = np.random.default_rng(2022)
    for _ in range(2000):
        m, n = int(rng.integers(1, 11)), int(rng.integers(1, 8))
        verdicts.append(_same_solve(rng.integers(-8, 9, size=(m, n)) / 4,
                                    rng.integers(-8, 9, size=m) / 4))
    assert len(verdicts) >= 3000
    assert 0.1 < np.mean(verdicts) < 0.9


def test_verdict_allows_the_active_lp_residual(monkeypatch):
    # x <= 1 and x >= 1.3 miss each other by 0.3
    a, b = np.array([[1.0], [-1.0]]), np.array([1.0, -1.3])
    assert feasible_point(a, b)[0] is False
    monkeypatch.setattr(lp, "active_tolerances",
                        lambda: Tolerances(lp_residual=0.5))
    assert feasible_point(a, b)[0] is True
    assert feasible_point(np.zeros((1, 0)), np.array([-0.4]))[0] is True
