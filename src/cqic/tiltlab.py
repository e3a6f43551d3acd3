"""Exact finite-dimensional checks of the tilting/smoothing operator toolkit.

The extended space is H ⊕ (H ⊗ D_1) ⊕ ... ⊕ (H ⊗ D_m): the original space
plus one tensor slot per direction register.  Tilting pushes a fraction of
each unit vector into the direction slots; everything here is small enough
to verify the resulting isometry, trace-norm closeness, smoothing
decomposition, the Hayashi-Nagaoka operator inequality, and square-root
measurements by direct eigensolves.

One slot writer builds a state's tilted eigenvectors as one stack, and each
function validates and eigensolves its state once, however many directions
it averages over; Hayashi-Nagaoka's range checks share one eigenvalue stack.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import TILT_DIM_CAP, active_tolerances
from .errors import (DegenerateEnsemble, DimensionMismatch, DimOverflow,
                     DomainError, InvalidOperands, LengthMismatch, NotUnit,
                     NumericalFailure)
from .linalg import eig_hermitian, eigvals_hermitian, operator_norm, trace_norm
from .states import DensityOperator


@dataclass(frozen=True)
class TiltSpace:
    """Bookkeeping for one extended space H ⊕ ⊕_s (H ⊗ D_s)."""

    base_dim: int
    aux_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "base_dim", _index(self.base_dim, "base_dim"))
        object.__setattr__(self, "aux_dims", tuple(
            _index(d, "aux_dims entry") for d in self.aux_dims))
        if self.base_dim < 1 or any(d < 1 for d in self.aux_dims):
            raise DomainError("space dimensions must be positive")
        if self.total_dim > TILT_DIM_CAP:
            raise DimOverflow(f"extended dimension {self.total_dim} exceeds {TILT_DIM_CAP}")

    @property
    def total_dim(self) -> int:
        return self.base_dim * (1 + sum(self.aux_dims))

    def slot_offset(self, s: int) -> int:
        return self.base_dim * (1 + sum(self.aux_dims[:s]))


def _unit(vec, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:  # NaN and inf fail too
        raise NotUnit(f"{what} must be a unit vector")
    return v


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"tilt strength {eta} outside [0, 1]")
    return eta


def _index(value, what: str) -> int:
    """An integer argument (a float such as 2.0 is not one) as an int."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def embed_vector(h, space: TiltSpace) -> np.ndarray:
    out = np.zeros(space.total_dim, dtype=complex)
    out[:space.base_dim] = np.asarray(h, dtype=complex).reshape(-1)
    return out


def _slot_vectors(vecs: np.ndarray, space: TiltSpace, slots) -> np.ndarray:
    """Embed each row of ``vecs`` and write ``weight * (row ⊗ d)`` into each
    ``(slot, weight, d)``: one product per entry, bit for bit ``np.kron``."""
    k, base = vecs.shape
    out = np.zeros((k, space.total_dim), dtype=complex)
    out[:, :base] = vecs
    for s, weight, d in slots:
        off = space.slot_offset(s)
        out[:, off:off + base * d.size] = weight * (
            vecs[:, :, None] * d[None, None, :]).reshape(k, base * d.size)
    return out


def _tilted_mixture(eig, space: TiltSpace, slots, norm_sq: float) -> np.ndarray:
    """Σ λ |t><t|, term by term, with t = slot vector / √norm_sq of each
    eigenpair of ``eig = (w, v)`` above ``eig_floor``."""
    w, v = eig
    keep = ~(w < active_tolerances().eig_floor)
    t = _slot_vectors(v.T[keep], space, slots) / math.sqrt(norm_sq)
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for lam, row in zip(w[keep], t):
        out += lam * np.outer(row, row.conj())
    return out


def tilt_vector(h, directions, eta: float) -> np.ndarray:
    """Isometric tilt of a unit vector along one direction per aux slot.

    T(|h>) = (|h> + η Σ_s |h>⊗|d_s>) / sqrt(1 + m η²) with m = len(directions);
    the printed one- and two-direction normalizations 1/sqrt(1+η²) and
    1/sqrt(1+2η²) are the m = 1, 2 cases.
    """
    eta = _check_eta(eta)
    hv = _unit(h, "input vector")
    dirs = [_unit(d, f"direction {s}") for s, d in enumerate(directions)]
    space = TiltSpace(hv.size, tuple(d.size for d in dirs))
    out = _slot_vectors(hv[None, :], space,
                        [(s, eta, d) for s, d in enumerate(dirs)])[0]
    return out / math.sqrt(1.0 + len(dirs) * eta * eta)


def four_user_omega(subset_size: int, eta: float) -> float:
    """Per-subset normalizer 1 + η^{2|S|}."""
    if not 1 <= subset_size <= 4:
        raise DomainError(f"subset size {subset_size} outside 1..4")
    return 1.0 + _check_eta(eta) ** (2 * subset_size)


def printed_omega(eta: float) -> float:
    """The aggregate normalizer polynomial exactly as printed."""
    e2 = _check_eta(eta) ** 2
    return 1.0 + 16.0 * e2 + 36.0 * e2 ** 2 + 16.0 * e2 ** 3


# |S| of each nonempty proper subset S of the four message indices, by bitmask
_SUBSET_SIZES = tuple(bin(mask).count("1") for mask in range(1, 15))


def four_user_tilt_report(h, direction_dim: int, eta: float) -> dict:
    """Aggregate 4-user tilt normalized by the printed Ω(η); norm reported.

    One slot per nonempty proper subset S of the four message indices (14
    slots), each fed the first basis direction and weight η^{|S|}.  The
    exact squared norm before scaling is 1 + 4η² + 6η⁴ + 4η⁶, so the
    printed polynomial over-normalizes; the deviation is reported, never
    asserted away.
    """
    eta = _check_eta(eta)
    hv = _unit(h, "input vector")
    direction_dim = _index(direction_dim, "direction-set size")
    sizes = _SUBSET_SIZES
    space = TiltSpace(hv.size, tuple(direction_dim for _ in sizes))
    d0 = np.eye(direction_dim, dtype=complex)[0]
    slots = [(s, eta ** size, d0) for s, size in enumerate(sizes)]
    exact_sq = 1.0 + sum(eta ** (2 * size) for size in sizes)
    scaled = (_slot_vectors(hv[None, :], space, slots)[0]
              / math.sqrt(printed_omega(eta)))
    return {
        "eta": eta,
        "printed_omega": printed_omega(eta),
        "exact_norm_sq": exact_sq,
        "scaled_norm": float(np.linalg.norm(scaled)),
        "norm_deviation": abs(float(np.linalg.norm(scaled)) - 1.0),
        "per_subset_omega": {str(size): four_user_omega(size, eta)
                             for size in (1, 2, 3)},
    }


@dataclass(frozen=True)
class TiltedState:
    """Density operator on the extended space plus its provenance."""

    operator: np.ndarray
    original: np.ndarray
    directions: tuple[np.ndarray, ...]
    eta: float
    space: TiltSpace = field(compare=False)


def tilt_state(rho, d1, d2, eta: float) -> TiltedState:
    """Tilt each eigenvector of the mixture individually along d1, d2."""
    eta = _check_eta(eta)
    dens = DensityOperator(rho)
    dirs = (_unit(d1, "d1"), _unit(d2, "d2"))
    space = TiltSpace(dens.dim, (dirs[0].size, dirs[1].size))
    out = _tilted_mixture(eig_hermitian(dens.mat), space,
                          [(0, eta, dirs[0]), (1, eta, dirs[1])],
                          1.0 + 2 * eta * eta)
    return TiltedState(out, dens.mat, dirs, eta, space)


def closeness(rho, tilted: TiltedState) -> float:
    """Trace-norm distance between the embedded original and its tilt.

    For ``tilted = tilt_state(rho, d1, d2, η)`` this is 2√2·η/√(1+2η²)
    whatever the state.  Write ρ = Σ λ_i |h_i><h_i| and t_i for the tilt of
    h_i.  The tilt is an isometry, so the t_i are orthonormal; the h_i sit
    in the base block, where t_i has only h_i/√(1+2η²), so
    <h_j|t_i> = δ_ij/√(1+2η²).  The difference Σ λ_i (|h_i><h_i| −
    |t_i><t_i|) therefore splits into orthogonal 2-D blocks span{h_i, t_i}.
    Two pure states with overlap c² are 2√(1−c²) apart in trace norm, so
    block i weighs λ_i·2√2η/√(1+2η²), and the λ_i sum to 1.  An eigenvalue
    below ``eig_floor`` is not tilted; its block is λ_i|h_i><h_i| and
    weighs |λ_i| instead.
    """
    space = tilted.space
    d = space.base_dim
    mat = np.asarray(getattr(rho, "mat", rho), dtype=complex)
    if mat.shape != (d, d):
        raise DimensionMismatch(
            f"state of shape {mat.shape} does not match base dimension {d}")
    emb = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    emb[:d, :d] = mat
    return trace_norm(emb - tilted.operator)


def closeness_chain(eta: float) -> tuple[float, float]:
    """The two printed upper bounds (2√(2−2e^{−2η²}), 4η)."""
    eta = _check_eta(eta)
    return 2.0 * math.sqrt(2.0 - 2.0 * math.exp(-2.0 * eta * eta)), 4.0 * eta


def smoothing_residual(rho, aux_dims, eta: float, d2_index: int = 0):
    """Split the direction-averaged tilt into a scaled d2-tilt plus residual.

    Averages the two-direction tilted state exactly over the |D1| basis
    directions, subtracts ((1+η²)/(1+2η²)) times the d2-only tilted state
    embedded in the same extended space, and returns (structured part,
    residual operator norm).  The residual shrinks like η/√|D1|.
    """
    eta = _check_eta(eta)
    dens = DensityOperator(rho)
    dims = tuple(_index(d, "direction-set size") for d in aux_dims)
    if len(dims) != 2:
        raise DomainError(f"need two direction-set sizes, got {len(dims)}")
    dim1, dim2 = dims
    if dim1 < 1 or dim2 < 1:
        raise DomainError("direction-set sizes must be positive")
    d2_index = _index(d2_index, "d2 index")
    if not 0 <= d2_index < dim2:
        raise DomainError(f"d2 index {d2_index} outside range 0..{dim2 - 1}")
    space = TiltSpace(dens.dim, (dim1, dim2))
    eig = eig_hermitian(dens.mat)
    d2 = np.eye(dim2, dtype=complex)[d2_index]

    avg = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for d1 in np.eye(dim1, dtype=complex):
        avg += _tilted_mixture(eig, space, [(0, eta, d1), (1, eta, d2)],
                               1.0 + 2 * eta * eta)
    avg /= dim1

    # d2-only tilt, embedded with an (empty) D1 slot to match layouts
    single = _tilted_mixture(eig, space, [(1, eta, d2)], 1.0 + eta * eta)
    structured = ((1.0 + eta * eta) / (1.0 + 2.0 * eta * eta)) * single
    return structured, operator_norm(avg - structured)


def four_user_smoothing_report(rho, direction_dim: int, eta: float) -> dict:
    """Residual of averaging the aggregate 4-user tilt over one slot.

    The slot of the first singleton subset is averaged over its basis; the
    remaining 13 slots keep fixed directions.  Reports the measured
    residual norm against both printed constants 3η/√|D| and 21η/√|D|
    without asserting either.
    """
    eta = _check_eta(eta)
    dens = DensityOperator(rho)
    direction_dim = _index(direction_dim, "direction-set size")
    sizes = _SUBSET_SIZES
    space = TiltSpace(dens.dim, tuple(direction_dim for _ in sizes))
    eig = eig_hermitian(dens.mat)
    basis = np.eye(direction_dim, dtype=complex)
    # every slot but the averaged first keeps the first basis direction
    rest = [(s, eta ** sz, basis[0]) for s, sz in enumerate(sizes) if s != 0]

    with_first = 1.0 + sum(eta ** (2 * sz) for sz in sizes)
    avg = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for d in basis:
        avg += _tilted_mixture(eig, space, [(0, eta ** sizes[0], d), *rest],
                               with_first)
    avg /= direction_dim

    without_first = with_first - eta ** 2
    structured = (without_first / with_first) * _tilted_mixture(
        eig, space, rest, 1.0 + sum(eta ** (2 * sz) for sz in sizes[1:]))
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


def _hermitian_or_raise(mat, what: str) -> np.ndarray:
    arr = np.asarray(getattr(mat, "mat", mat), dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidOperands(f"{what} must be square, got {arr.shape}")
    # a NaN deviation would pass the Hermitian test below
    if not np.isfinite(arr).all():
        raise InvalidOperands(f"{what} has non-finite entries")
    if float(np.abs(arr - arr.conj().T).max()) > active_tolerances().herm:
        raise InvalidOperands(f"{what} is not Hermitian")
    return arr


def _support_root(mat, floor: float):
    """Support mask, pinv square root and support projector of PSD ``mat``."""
    w, v = eig_hermitian(mat)
    support = w > floor
    inv_sqrt = (v[:, support] / np.sqrt(w[support])) @ v[:, support].conj().T
    proj = v[:, support] @ v[:, support].conj().T
    return support, inv_sqrt, proj


def hayashi_nagaoka_check(s_op, t_op) -> bool:
    """Verify Π − M S M ≼ 2(I−S) + 4T with M the pinv square root of S+T.

    Π is the support projector of S+T.  Requires 0 ≤ S ≤ I and T ≥ 0;
    the difference operator must come out Hermitian to 1e−12 and its
    minimum eigenvalue must clear −1e−9.  Only the support root needs
    eigenvectors; S's and T's range checks share one eigenvalue stack.
    """
    tol = active_tolerances()
    s = _hermitian_or_raise(s_op, "S")
    t = _hermitian_or_raise(t_op, "T")
    if s.shape != t.shape:
        raise InvalidOperands(f"shape mismatch {s.shape} vs {t.shape}")
    sw, tw = eigvals_hermitian(np.stack([s, t]))
    if float(sw.min()) < -tol.psd or float(sw.max()) > 1.0 + tol.psd:
        raise InvalidOperands("S must satisfy 0 ≤ S ≤ I")
    if float(tw.min()) < -tol.psd:
        raise InvalidOperands("T must be positive semidefinite")

    _, inv_sqrt, proj = _support_root(s + t, tol.eig_floor)
    lhs = proj - inv_sqrt @ s @ inv_sqrt
    eye = np.eye(s.shape[0])
    diff = 2.0 * (eye - s) + 4.0 * t - lhs
    if float(np.abs(diff - diff.conj().T).max()) > 1e-12:
        raise NumericalFailure("difference operator lost Hermiticity")
    return bool(float(eigvals_hermitian((diff + diff.conj().T) / 2.0).min())
                >= -1e-9)


# ---------------------------------------------------------------------------
# random instances for the batch reports and the verification battery


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random complex unit vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random full-rank density matrix A A† / tr(A A†)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hn_pair(rng: np.random.Generator, dim: int):
    """A random (S, T) pair for :func:`hayashi_nagaoka_check`.

    S is a random Hermitian matrix with its spectrum squashed onto
    [0, 1]; T is a random positive matrix B B† scaled by U(0, 1/2)/dim.
    """
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    squashed = (w - w.min()) / max(float(w.max() - w.min()), 1e-12)
    s_op = (v * squashed) @ v.conj().T
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    t_op = (b @ b.conj().T) * float(rng.uniform(0.0, 0.5)) / dim
    return s_op, t_op


def tiny_srm(states, priors):
    """Square-root measurement on the joint support of a small ensemble.

    Returns (povm elements, success probability Σ_i p_i tr(μ_i ρ_i)).
    Elements are Θ^{−1/2}-conjugated weighted states with Θ = Σ p_i ρ_i;
    they sum to the support projector of Θ.
    """
    tol = active_tolerances()
    dens = [DensityOperator(s) for s in states]
    if not 1 <= len(dens) <= 16:
        raise DomainError(f"need between 1 and 16 states, got {len(dens)}")
    if any(d.dim > 64 for d in dens) or len({d.dim for d in dens}) != 1:
        raise DomainError("states must share one dimension of at most 64")
    p = np.asarray(priors, dtype=float)
    if p.shape != (len(dens),):
        raise LengthMismatch(f"{len(dens)} states but {p.size} priors")
    if not (np.all(p >= 0.0) and abs(float(p.sum()) - 1.0) <= tol.prob):
        raise DomainError("priors must be a probability vector")

    theta = sum(pi * d.mat for pi, d in zip(p, dens))
    support, inv_sqrt, proj = _support_root(theta, tol.eig_floor)
    if not support.any():
        raise DegenerateEnsemble("ensemble average has rank zero")
    povm = [inv_sqrt @ (pi * d.mat) @ inv_sqrt for pi, d in zip(p, dens)]
    if operator_norm(sum(povm) - proj) > tol.info:
        raise NumericalFailure("square-root measurement is not complete")
    success = sum(pi * float(np.trace(mu @ d.mat).real)
                  for pi, mu, d in zip(p, povm, dens))
    return povm, success
