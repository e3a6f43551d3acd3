"""The one-eigensolve tilt kernel against the per-direction oracle.

``tests/tilt_oracle.py`` keeps the route ``cqic.tiltlab`` replaced; every
tilted vector, tilted state, smoothing split and four-user report must
match it bit for bit, compared as uint64 views, and every Hayashi-Nagaoka
verdict and error must match its four-eigensolve check.  The tilt distance
is also checked against its closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqic.states
import cqic.tiltlab
import tilt_oracle
from cqic.config import DEFAULT_TOL
from cqic.linalg import eig_hermitian
from cqic.tiltlab import (closeness, four_user_smoothing_report,
                          four_user_tilt_report, hayashi_nagaoka_check,
                          random_hn_pair, smoothing_residual, tilt_state,
                          tilt_vector)


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x)).view(np.uint64)


def _same_report(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, dict):
            _same_report(got[key], value)
        elif isinstance(value, bool):
            assert got[key] is value, key
        else:
            assert type(got[key]) is type(value), key
            assert np.array_equal(_bits(np.float64(got[key])),
                                  _bits(np.float64(value))), key


def _unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _state(rng, dim, kind):
    """A random state: full rank, rank deficient, or with an eigenvalue
    that is positive but below ``eig_floor``."""
    if kind == "tiny":
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
        w = np.full(dim, 5e-13)
        w[0] = 1.0 - (dim - 1) * 5e-13
        return (u * w) @ u.conj().T
    rank = dim if kind == "full" else int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _cases(seed, count):
    rng = np.random.default_rng(seed)
    etas = [0.0, 1.0] + [float(rng.uniform(0.0, 1.0)) for _ in range(count - 2)]
    kinds = ("full", "deficient", "tiny")
    for i, eta in enumerate(etas):
        dim = 1 + i % 5
        yield rng, dim, kinds[i % 3], eta


def test_states_of_the_cases_skip_eigenvalues_below_the_floor():
    # the "tiny" and rank-deficient states reach the eig_floor skip
    rng = np.random.default_rng(0)
    floor = DEFAULT_TOL.eig_floor
    for kind in ("tiny", "deficient"):
        hits = 0
        for dim in range(2, 6):
            w, _ = eig_hermitian(_state(rng, dim, kind))
            hits += int((w < floor).any())
        assert hits >= 2, kind


def test_tilt_vector_matches_oracle():
    for rng, dim, _, eta in _cases(1, 60):
        h = _unit(rng, dim)
        dirs = [_unit(rng, int(rng.integers(1, 5)))
                for _ in range(int(rng.integers(0, 4)))]
        assert np.array_equal(_bits(tilt_vector(h, dirs, eta)),
                              _bits(tilt_oracle.tilt_vector(h, dirs, eta)))


def test_tilt_state_matches_oracle():
    for rng, dim, kind, eta in _cases(2, 60):
        rho = _state(rng, dim, kind)
        d1, d2 = _unit(rng, int(rng.integers(1, 5))), _unit(rng, 1 + dim % 3)
        got = tilt_state(rho, d1, d2, eta)
        want = tilt_oracle.tilt_state(rho, d1, d2, eta)
        assert np.array_equal(_bits(got.operator), _bits(want.operator))
        assert np.array_equal(_bits(got.original), _bits(want.original))
        assert got.space == want.space and got.eta == want.eta
        for a, b in zip(got.directions, want.directions):
            assert np.array_equal(_bits(a), _bits(b))


def test_smoothing_residual_matches_oracle():
    for rng, dim, kind, eta in _cases(3, 45):
        rho = _state(rng, dim, kind)
        dims = (int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        d2_index = int(rng.integers(0, dims[1]))
        got = smoothing_residual(rho, dims, eta, d2_index)
        want = tilt_oracle.smoothing_residual(rho, dims, eta, d2_index)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(_bits(got[1]), _bits(want[1]))


@pytest.mark.parametrize("dims,d2_index", [((1, 1), 0), ((1, 3), 2),
                                           ((4, 1), 0), ((3, 4), 3)])
def test_smoothing_residual_edges_match_oracle(dims, d2_index):
    rng = np.random.default_rng(4)
    for eta in (0.0, 0.3, 1.0):
        rho = _state(rng, 3, "deficient")
        got = smoothing_residual(rho, dims, eta, d2_index)
        want = tilt_oracle.smoothing_residual(rho, dims, eta, d2_index)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(_bits(got[1]), _bits(want[1]))


def test_four_user_reports_match_oracle():
    for rng, dim, kind, eta in _cases(5, 30):
        ddim = 1 + int(rng.integers(0, 4))
        h = _unit(rng, dim)
        _same_report(four_user_tilt_report(h, ddim, eta),
                     tilt_oracle.four_user_tilt_report(h, ddim, eta))
        rho = _state(rng, min(dim, 3), kind)
        _same_report(four_user_smoothing_report(rho, ddim, eta),
                     tilt_oracle.four_user_smoothing_report(rho, ddim, eta))


def _count(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_smoothing_residual_eigensolves_and_validates_once(monkeypatch):
    rho = _state(np.random.default_rng(6), 2, "full")
    eigs = _count(monkeypatch, cqic.tiltlab, "eig_hermitian")
    checks = _count(monkeypatch, cqic.states, "validate_densities")
    smoothing_residual(rho, (16, 2), 0.2)
    assert len(eigs) == 1
    assert len(checks) == 1


def test_four_user_smoothing_eigensolves_once(monkeypatch):
    rho = _state(np.random.default_rng(7), 2, "full")
    eigs = _count(monkeypatch, cqic.tiltlab, "eig_hermitian")
    four_user_smoothing_report(rho, 3, 0.2)
    assert len(eigs) == 1


# the closed form derived in closeness's docstring: an oracle for
# tilt_state and closeness that shares no code with their eigensolve route
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4),
       st.floats(0.0, 1.0, exclude_min=True),
       st.sampled_from(("full", "deficient", "tiny")),
       st.integers(0, 2 ** 32 - 1))
def test_closeness_matches_closed_form(dim, n1, n2, eta, kind, seed):
    rng = np.random.default_rng(seed)
    rho = _state(rng, dim, kind)
    w, _ = eig_hermitian(rho)
    tilted = w >= DEFAULT_TOL.eig_floor
    each = 2.0 * math.sqrt(2.0) * eta / math.sqrt(1.0 + 2.0 * eta * eta)
    want = each * w[tilted].sum() + np.abs(w[~tilted]).sum()
    got = closeness(rho, tilt_state(rho, _unit(rng, n1), _unit(rng, n2), eta))
    assert abs(got - want) <= 1e-12


# the operator_lab benchmark's largest shapes: tilt_state at dim 8 with
# |D| = 3, 3 (extended dim 56) and smoothing over |D1| = 16
@pytest.mark.parametrize("kind", ["full", "deficient", "tiny"])
def test_tilt_state_matches_oracle_at_dim_56(kind):
    rng = np.random.default_rng(8)
    for eta in (0.05, 0.2, 1.0):
        rho = _state(rng, 8, kind)
        d1, d2 = _unit(rng, 3), _unit(rng, 3)
        got = tilt_state(rho, d1, d2, eta)
        want = tilt_oracle.tilt_state(rho, d1, d2, eta)
        assert got.space.total_dim == 56
        assert np.array_equal(_bits(got.operator), _bits(want.operator))


@pytest.mark.parametrize("dim,kind", [(2, "full"), (3, "deficient"),
                                      (4, "tiny")])
def test_smoothing_residual_matches_oracle_at_16_directions(dim, kind):
    rng = np.random.default_rng(9)
    for eta in (0.05, 0.2):
        rho = _state(rng, dim, kind)
        got = smoothing_residual(rho, (16, 2), eta, 1)
        want = tilt_oracle.smoothing_residual(rho, (16, 2), eta, 1)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(_bits(got[1]), _bits(want[1]))


def test_four_user_reports_match_oracle_at_wide_slots():
    rng = np.random.default_rng(10)
    for dim, ddim, kind in ((2, 2, "full"), (4, 4, "deficient"),
                            (3, 5, "tiny")):
        eta = float(rng.uniform(0.05, 0.2))
        h = _unit(rng, dim)
        _same_report(four_user_tilt_report(h, ddim, eta),
                     tilt_oracle.four_user_tilt_report(h, ddim, eta))
        rho = _state(rng, dim, kind)
        _same_report(four_user_smoothing_report(rho, ddim, eta),
                     tilt_oracle.four_user_smoothing_report(rho, ddim, eta))


def _hn_outcome(check, s_op, t_op):
    try:
        return check(s_op, t_op)
    except Exception as exc:  # the error class and message are the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
def test_hayashi_nagaoka_matches_oracle(dim):
    rng = np.random.default_rng(dim)
    for _ in range(8):
        s_op, t_op = random_hn_pair(rng, dim)
        got = _hn_outcome(hayashi_nagaoka_check, s_op, t_op)
        assert got is True
        assert got == _hn_outcome(tilt_oracle.hayashi_nagaoka_check,
                                  s_op, t_op)


@pytest.mark.parametrize("s_op,t_op", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))),
    (np.ones((2, 3)), np.zeros((2, 2))),
    (np.diag([2.0, 0.0]), np.zeros((2, 2))),
    (np.diag([-0.1, 0.5]), np.diag([-0.1, 0.0])),
    (np.diag([0.5, 0.5]), np.diag([-0.1, 0.0])),
    (np.eye(2), np.zeros((3, 3))),
    (np.diag([np.nan, 0.5]), np.zeros((2, 2))),
    (0.5 * np.eye(2), np.diag([np.inf, 0.0])),
    (np.diag([2.0, 0.0]), np.diag([0.0, np.nan])),
    (np.diag([1.0 + 5e-10, -5e-10]), np.diag([-5e-10, 0.0]))])
def test_hayashi_nagaoka_errors_match_oracle(s_op, t_op):
    assert (_hn_outcome(hayashi_nagaoka_check, s_op, t_op)
            == _hn_outcome(tilt_oracle.hayashi_nagaoka_check, s_op, t_op))


def test_hayashi_nagaoka_eigensolves_once(monkeypatch):
    s_op, t_op = random_hn_pair(np.random.default_rng(11), 8)
    eigs = _count(monkeypatch, cqic.tiltlab, "eig_hermitian")
    assert hayashi_nagaoka_check(s_op, t_op)
    assert len(eigs) == 1
