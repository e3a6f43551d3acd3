"""The one-eigensolve tilt kernel against the per-direction oracle.

``tests/tilt_oracle.py`` keeps the route ``cqic.tiltlab`` replaced; every
tilted vector, tilted state, smoothing split and four-user report must
match it bit for bit, compared as uint64 views.
"""

import numpy as np
import pytest

import cqic.states
import cqic.tiltlab
import tilt_oracle
from cqic.config import DEFAULT_TOL
from cqic.linalg import eig_hermitian
from cqic.tiltlab import (four_user_smoothing_report, four_user_tilt_report,
                          smoothing_residual, tilt_state, tilt_vector)


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

