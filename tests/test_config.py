"""The scoped tolerance table of :mod:`cqic.config`."""

import math
import threading

import pytest

from cqic.config import (DEFAULT_TOL, active_tolerances, in_tolerance_scope,
                         tolerance_scope)
from cqic.errors import DomainError


def test_scope_sets_the_family_and_restores_the_outer_table():
    assert active_tolerances() is DEFAULT_TOL and not in_tolerance_scope()
    with tolerance_scope(1e-3):
        loose = active_tolerances()
        assert in_tolerance_scope()
        assert {loose.herm, loose.psd, loose.trace, loose.prob, loose.info,
                loose.rate, loose.commute} == {1e-3}
        assert (loose.eig_floor, loose.lp_residual) == \
            (DEFAULT_TOL.eig_floor, DEFAULT_TOL.lp_residual)
        with tolerance_scope():
            assert active_tolerances() is DEFAULT_TOL
            assert in_tolerance_scope()
        assert active_tolerances() is loose
    assert active_tolerances() is DEFAULT_TOL and not in_tolerance_scope()


def test_scope_is_restored_when_its_block_raises():
    with pytest.raises(KeyError):
        with tolerance_scope(1e-3):
            raise KeyError("x")
    assert active_tolerances() is DEFAULT_TOL and not in_tolerance_scope()


@pytest.mark.parametrize("family", [0.0, -1e-3, math.nan, math.inf,
                                    -math.inf])
def test_scope_rejects_a_family_not_finite_above_0(family):
    with pytest.raises(DomainError):
        with tolerance_scope(family):
            pass
    assert active_tolerances() is DEFAULT_TOL


def test_scope_is_invisible_to_other_threads():
    entered, release = threading.Event(), threading.Event()
    seen = []

    def scoped():
        with tolerance_scope(1e-3):
            seen.append(active_tolerances())
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=scoped)
    worker.start()
    assert entered.wait(10)
    seen.append(active_tolerances())
    release.set()
    worker.join(10)
    assert not worker.is_alive()
    assert seen[0].rate == 1e-3 and seen[1] is DEFAULT_TOL
