"""The per-direction tilt route: the test-side oracle of ``cqic.tiltlab``.

``cqic.tiltlab`` eigensolves each state once and builds every tilted
vector with one slot writer.  This module keeps the route it replaced:
``tilt_state`` tilts each eigenvector through the public ``tilt_vector``;
``smoothing_residual`` calls ``tilt_state`` once per direction of D1,
re-validating and re-eigensolving its state each time, and writes the
d2-only tilt by hand; ``four_user_smoothing_report`` eigensolves again in
each call of its nested ``aggregate``; every tilted vector goes through
``np.kron`` and every rank-one term through ``np.outer``, one eigenpair at
a time.  ``hayashi_nagaoka_check`` makes four full eigensolves where the
library makes one and takes the rest from eigenvalue stacks.  The function
bodies are unchanged apart from the names; the library must give the same
bits and the same verdicts and errors.  Only the layout, argument and
operand helpers come from ``cqic.tiltlab``.
"""

import math

import numpy as np

from cqic.config import active_tolerances
from cqic.errors import DomainError, InvalidOperands, NumericalFailure
from cqic.linalg import eig_hermitian, operator_norm
from cqic.states import DensityOperator
from cqic.tiltlab import (TiltedState, TiltSpace, _check_eta,
                          _hermitian_or_raise, _support_root, _unit,
                          embed_vector, four_user_omega, printed_omega)


def _proper_subsets():
    out = []
    for mask in range(1, 15):
        out.append(tuple(i for i in range(4) if mask >> i & 1))
    return out


def tilt_vector(h, directions, eta: float) -> np.ndarray:
    eta = _check_eta(eta)
    hv = _unit(h, "input vector")
    dirs = [_unit(d, f"direction {s}") for s, d in enumerate(directions)]
    space = TiltSpace(hv.size, tuple(d.size for d in dirs))
    out = embed_vector(hv, space)
    for s, d in enumerate(dirs):
        off = space.slot_offset(s)
        out[off:off + hv.size * d.size] = eta * np.kron(hv, d)
    return out / math.sqrt(1.0 + len(dirs) * eta * eta)


def four_user_tilt_report(h, direction_dim: int, eta: float) -> dict:
    eta = _check_eta(eta)
    hv = _unit(h, "input vector")
    sizes = [len(s) for s in _proper_subsets()]
    space = TiltSpace(hv.size, tuple(direction_dim for _ in sizes))
    out = embed_vector(hv, space)
    d0 = np.zeros(direction_dim, dtype=complex)
    d0[0] = 1.0
    for s, size in enumerate(sizes):
        off = space.slot_offset(s)
        out[off:off + hv.size * direction_dim] = eta ** size * np.kron(hv, d0)
    exact_sq = 1.0 + sum(eta ** (2 * size) for size in sizes)
    scaled = out / math.sqrt(printed_omega(eta))
    return {
        "eta": eta,
        "printed_omega": printed_omega(eta),
        "exact_norm_sq": exact_sq,
        "scaled_norm": float(np.linalg.norm(scaled)),
        "norm_deviation": abs(float(np.linalg.norm(scaled)) - 1.0),
        "per_subset_omega": {str(size): four_user_omega(size, eta)
                             for size in (1, 2, 3)},
    }


def tilt_state(rho, d1, d2, eta: float) -> TiltedState:
    eta = _check_eta(eta)
    dens = DensityOperator(rho)
    dirs = (_unit(d1, "d1"), _unit(d2, "d2"))
    space = TiltSpace(dens.dim, (dirs[0].size, dirs[1].size))
    tol = active_tolerances()
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    w, v = eig_hermitian(dens.mat)
    for lam, vec in zip(w, v.T):
        if lam < tol.eig_floor:
            continue
        t = tilt_vector(vec, dirs, eta)
        out += lam * np.outer(t, t.conj())
    return TiltedState(out, dens.mat, dirs, eta, space)


def smoothing_residual(rho, aux_dims, eta: float, d2_index: int = 0):
    eta = _check_eta(eta)
    dens = DensityOperator(rho)
    dim1, dim2 = (int(d) for d in aux_dims)
    if dim1 < 1 or dim2 < 1:
        raise DomainError("direction-set sizes must be positive")
    if not 0 <= d2_index < dim2:
        raise DomainError(f"d2 index {d2_index} outside range 0..{dim2 - 1}")
    space = TiltSpace(dens.dim, (dim1, dim2))
    d2 = np.zeros(dim2, dtype=complex)
    d2[d2_index] = 1.0

    avg = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for i in range(dim1):
        d1 = np.zeros(dim1, dtype=complex)
        d1[i] = 1.0
        avg += tilt_state(dens.mat, d1, d2, eta).operator
    avg /= dim1

    # d2-only tilt, embedded with an (empty) D1 slot to match layouts
    tol = active_tolerances()
    single = np.zeros_like(avg)
    w, v = eig_hermitian(dens.mat)
    base = dens.dim
    for lam, vec in zip(w, v.T):
        if lam < tol.eig_floor:
            continue
        t = np.zeros(space.total_dim, dtype=complex)
        t[:base] = vec
        off = space.slot_offset(1)
        t[off:off + base * dim2] = eta * np.kron(vec, d2)
        t /= math.sqrt(1.0 + eta * eta)
        single += lam * np.outer(t, t.conj())

    structured = ((1.0 + eta * eta) / (1.0 + 2.0 * eta * eta)) * single
    return structured, operator_norm(avg - structured)


def four_user_smoothing_report(rho, direction_dim: int, eta: float) -> dict:
    eta = _check_eta(eta)
    dens = DensityOperator(rho)
    subsets = _proper_subsets()
    sizes = [len(s) for s in subsets]
    space = TiltSpace(dens.dim, tuple(direction_dim for _ in subsets))
    tol = active_tolerances()
    base = dens.dim

    def aggregate(d_first: np.ndarray, include_first: bool) -> np.ndarray:
        norm_sq = 1.0 + sum(eta ** (2 * sz) for s, sz in enumerate(sizes)
                            if include_first or s != 0)
        out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        w, v = eig_hermitian(dens.mat)
        d0 = np.zeros(direction_dim, dtype=complex)
        d0[0] = 1.0
        for lam, vec in zip(w, v.T):
            if lam < tol.eig_floor:
                continue
            t = np.zeros(space.total_dim, dtype=complex)
            t[:base] = vec
            for s, sz in enumerate(sizes):
                if s == 0 and not include_first:
                    continue
                d = d_first if s == 0 else d0
                off = space.slot_offset(s)
                t[off:off + base * direction_dim] = eta ** sz * np.kron(vec, d)
            t /= math.sqrt(norm_sq)
            out += lam * np.outer(t, t.conj())
        return out

    avg = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for i in range(direction_dim):
        d = np.zeros(direction_dim, dtype=complex)
        d[i] = 1.0
        avg += aggregate(d, True)
    avg /= direction_dim

    with_first = 1.0 + sum(eta ** (2 * sz) for sz in sizes)
    without_first = with_first - eta ** 2
    structured = (without_first / with_first) * aggregate(
        np.zeros(direction_dim), False)
    measured = operator_norm(avg - structured)
    root = math.sqrt(direction_dim)
    return {
        "eta": eta,
        "direction_dim": direction_dim,
        "measured": measured,
        "bound_3eta": 3.0 * eta / root,
        "bound_21eta": 21.0 * eta / root,
        "within_3eta": bool(measured <= 3.0 * eta / root),
        "within_21eta": bool(measured <= 21.0 * eta / root),
    }


def hayashi_nagaoka_check(s_op, t_op) -> bool:
    tol = active_tolerances()
    s = _hermitian_or_raise(s_op, "S")
    t = _hermitian_or_raise(t_op, "T")
    if s.shape != t.shape:
        raise InvalidOperands(f"shape mismatch {s.shape} vs {t.shape}")
    sw, _ = eig_hermitian(s)
    if float(sw.min()) < -tol.psd or float(sw.max()) > 1.0 + tol.psd:
        raise InvalidOperands("S must satisfy 0 ≤ S ≤ I")
    tw, _ = eig_hermitian(t)
    if float(tw.min()) < -tol.psd:
        raise InvalidOperands("T must be positive semidefinite")

    _, inv_sqrt, proj = _support_root(s + t, tol.eig_floor)
    lhs = proj - inv_sqrt @ s @ inv_sqrt
    eye = np.eye(s.shape[0])
    diff = 2.0 * (eye - s) + 4.0 * t - lhs
    if float(np.abs(diff - diff.conj().T).max()) > 1e-12:
        raise NumericalFailure("difference operator lost Hermiticity")
    dw, _ = eig_hermitian((diff + diff.conj().T) / 2.0)
    return bool(float(dw.min()) >= -1e-9)
