"""Classical-quantum states and their entropic quantities.

A :class:`CqState` is a joint pmf over named classical registers plus a
map from each support point to a density operator on one quantum
register.  All entropies are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .config import active_tolerances
from .errors import (DomainError, InvalidState, NotHermitian,
                     OverlappingQueries, UnknownRegister)
from .linalg import eig_hermitian, eigvals_hermitian

_TINY = np.finfo(float).tiny  # smallest normal float
_SCALE = 2.0 ** 64            # lifts every subnormal to a normal float


def binary_entropy(p: float) -> float:
    """h_b(p) = -p log2 p - (1-p) log2 (1-p)."""
    tol = active_tolerances()
    if p < -tol.prob or p > 1.0 + tol.prob:
        raise DomainError(f"binary_entropy argument {p} outside [0,1]")
    p = min(1.0, max(0.0, p))
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def binary_convolve(p: float, q: float) -> float:
    """p * q = p(1-q) + (1-p)q, the crossover of cascaded symmetric flips."""
    tol = active_tolerances()
    for v in (p, q):
        if v < -tol.prob or v > 1.0 + tol.prob:
            raise DomainError(f"binary_convolve argument {v} outside [0,1]")
    return float(p * (1.0 - q) + (1.0 - p) * q)


def fact1_f(t: float, phi: float) -> float:
    """f(t) = (1 + sqrt(1 - 4 t (1-t) sin^2(phi))) / 2.

    Largest eigenvalue of the mixture t|v_phi><v_phi| + (1-t)|0><0|;
    symmetric under t <-> 1-t and decreasing on (0, 1/2).
    """
    tol = active_tolerances()
    if t < -tol.prob or t > 1.0 + tol.prob:
        raise DomainError(f"fact1_f argument {t} outside [0,1]")
    t = min(1.0, max(0.0, t))
    disc = 1.0 - 4.0 * t * (1.0 - t) * np.sin(phi) ** 2
    return float((1.0 + np.sqrt(max(0.0, disc))) / 2.0)


def shannon_entropy(probs: np.ndarray) -> float:
    """-sum p log2 p over the positive entries; a point mass gives 0.0."""
    p = np.asarray(probs, dtype=float).ravel()
    p = p[p > 0.0]
    # 0.0 - s, not -s: a sum of zeros must not come out as -0.0
    return float(0.0 - np.sum(p * np.log2(p)))


@dataclass(frozen=True)
class DensityOperator:
    """Validated density operator (Hermitian, PSD, unit trace)."""

    mat: np.ndarray

    def __init__(self, mat):
        arr = np.array(getattr(mat, "mat", mat), dtype=complex)
        tol = active_tolerances()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidState(f"density operator must be square, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidState("density operator has non-finite entries")
        if float(np.abs(arr - arr.conj().T).max()) > tol.herm:
            raise InvalidState("density operator is not Hermitian within tolerance")
        if abs(float(np.trace(arr).real) - 1.0) > tol.trace:
            raise InvalidState(f"trace {np.trace(arr).real} differs from 1")
        w, _ = eig_hermitian(arr)
        if float(w.min()) < -tol.psd:
            raise InvalidState(f"negative eigenvalue {w.min()} beyond tolerance")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def shannon_entropies(rows) -> np.ndarray:
    """:func:`shannon_entropy` of each row of a 2-D array, bit for bit.

    The positive entries of all rows are logged in one call.  numpy sums
    eight or more terms pairwise, so the order depends on how many terms
    a row has: rows are summed in groups of equal support size, each row
    over its positive entries only.
    """
    p = np.asarray(rows, dtype=float)
    live = p > 0.0
    vals = p[live]
    terms = vals * np.log2(vals)
    counts = np.count_nonzero(live, axis=1)
    ends = counts.cumsum()
    sums = np.zeros(len(p))
    for n in set(counts.tolist()) - {0}:
        sel = counts == n
        sums[sel] = terms[ends[sel, None] - np.arange(n, 0, -1)].sum(axis=1)
    return 0.0 - sums


def mass_scale(mass):
    """Factor for the point masses of a group pooled to ``mass``: 2**64
    where that mass is subnormal, 1.0 elsewhere.

    Every point of a subnormal group is subnormal too, so scaling it is
    exact, and ``(p * scale) * rho`` keeps the bits that ``p * rho``
    rounds away.  A normal group keeps every bit.
    """
    return np.where(np.asarray(mass, dtype=float) < _TINY, _SCALE, 1.0)


def mass_quotient(acc, mass):
    """``acc / mass`` over the trailing ``(d, d)`` axes, for ``acc``
    pooled from point masses times ``mass_scale(mass)``: the divisor is
    scaled alike, so 1 / mass does not overflow either.
    """
    mass = np.asarray(mass, dtype=float)
    return acc / (mass * mass_scale(mass))[..., None, None]


def von_neumann_entropies(rhos) -> np.ndarray:
    """-sum lambda_i log2 lambda_i of each state in a stack ``(..., d, d)``.

    Eigenvalues in [-psd_tol, eig_floor] are treated as exact zeros
    (numerical drift from tensor / partial-trace chains); anything more
    negative raises InvalidState.  Each row is summed as
    :func:`shannon_entropy` sums its positive eigenvalues in descending
    order, so it is bit for bit the single-state value.
    """
    w = _entropy_eigvals(getattr(rhos, "mat", rhos))
    rows = w.reshape(-1, w.shape[-1])
    return shannon_entropies(rows).reshape(w.shape[:-1])


def von_neumann_entropy(rho) -> float:
    """Entropy of one state, as :func:`von_neumann_entropies` gives it."""
    arr = np.asarray(getattr(rho, "mat", rho), dtype=complex)
    if arr.ndim != 2:
        raise NotHermitian(f"expected a square matrix, got shape {arr.shape}")
    return shannon_entropy(_entropy_eigvals(arr))


def _entropy_eigvals(rhos) -> np.ndarray:
    """Eigenvalues, checked against -psd and clamped below eig_floor."""
    tol = active_tolerances()
    w = eigvals_hermitian(rhos)
    if w.size and float(w.min()) < -tol.psd:
        raise InvalidState(f"eigenvalue {w.min()} below -{tol.psd}")
    return np.where(w < tol.eig_floor, 0.0, w)


@dataclass(frozen=True)
class Pmf:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __init__(self, probs):
        p = np.array(probs, dtype=float).ravel()
        tol = active_tolerances()
        if p.size == 0:
            raise DomainError("empty pmf")
        if float(p.min()) < -tol.prob:
            raise DomainError(f"negative probability {p.min()}")
        if abs(float(p.sum()) - 1.0) > tol.prob * max(1, p.size):
            raise DomainError(f"pmf sums to {p.sum()}")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def entropy(self) -> float:
        return shannon_entropy(self.probs)


@dataclass(frozen=True)
class EntropyQuery:
    """A subset of classical registers, optionally joined with the quantum one."""

    classical_subset: frozenset
    include_quantum: bool = False

    def __init__(self, classical_subset: Iterable[str] = (), include_quantum: bool = False):
        object.__setattr__(self, "classical_subset", frozenset(classical_subset))
        object.__setattr__(self, "include_quantum", bool(include_quantum))

    def union(self, other: "EntropyQuery") -> "EntropyQuery":
        return EntropyQuery(self.classical_subset | other.classical_subset,
                            self.include_quantum or other.include_quantum)


class CqState:
    """Joint pmf over named classical registers with a cq output register.

    Registers keep their insertion order; the joint pmf is row-major in
    that order.  ``state_map`` must provide a density operator for every
    support point of the pmf.
    """

    def __init__(self, registers, joint_pmf, state_map, quantum_register_name="Y"):
        regs = tuple((str(n), int(a)) for n, a in registers)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate register names in {names}")
        if quantum_register_name in names:
            raise DomainError("quantum register name collides with a classical one")
        pmf = joint_pmf if isinstance(joint_pmf, Pmf) else Pmf(joint_pmf)
        total = 1
        for _, a in regs:
            total *= a
        if pmf.size != total:
            raise DomainError(f"pmf has {pmf.size} entries, registers need {total}")
        shape = tuple(a for _, a in regs)
        table = pmf.probs.reshape(shape) if regs else pmf.probs.reshape(())
        smap = {}
        dim = None
        for key in np.argwhere(table > 0.0):
            k = tuple(int(i) for i in key)
            if k not in state_map:
                raise DomainError(f"state_map missing support point {k}")
        for k, op in state_map.items():
            arr = np.asarray(getattr(op, "mat", op), dtype=complex)
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise DomainError("state_map operators must share one dimension")
            smap[tuple(int(i) for i in k)] = arr
        self.registers = regs
        self.joint_pmf = pmf
        self.prob_table = table
        self.state_map = smap
        self.quantum_register_name = str(quantum_register_name)
        self.quantum_dim = dim if dim is not None else 1

    def register_names(self):
        return [n for n, _ in self.registers]

    def marginal(self, names) -> np.ndarray:
        """Marginal pmf table over ``names`` (canonical register order)."""
        idx = self._indices(names)
        axes = tuple(i for i in range(len(self.registers)) if i not in idx)
        return self.prob_table.sum(axis=axes) if axes else self.prob_table.copy()

    def _indices(self, names):
        names = set(names)
        unknown = names - set(self.register_names())
        if unknown:
            raise UnknownRegister(f"unknown register(s) {sorted(unknown)}")
        return [i for i, (n, _) in enumerate(self.registers) if n in names]

    def conditional_average_states(self, names):
        """Yield (subset value tuple, weight, averaged output matrix / weight)."""
        idx = self._indices(names)
        dim = self.quantum_dim
        acc: dict[tuple, np.ndarray] = {}
        wts: dict[tuple, float] = {}
        it = np.nditer(self.prob_table, flags=["multi_index"]) if self.prob_table.ndim \
            else None
        if it is None:
            yield (), 1.0, next(iter(self.state_map.values()))
            return
        points = []
        for v in it:
            p = float(v)
            if p <= 0.0:
                continue
            x = it.multi_index
            key = tuple(x[i] for i in idx)
            wts[key] = wts.get(key, 0.0) + p
            points.append((key, p, x))
        scale = {key: float(mass_scale(w)) for key, w in wts.items()}
        for key, p, x in points:
            if key not in acc:
                acc[key] = np.zeros((dim, dim), dtype=complex)
            acc[key] += (p * scale[key]) * self.state_map[x]
        for key in acc:
            yield key, wts[key], mass_quotient(acc[key], wts[key])


def entropy(state: CqState, q: EntropyQuery) -> float:
    """H of the queried classical subset, plus the cq output if requested.

    include_quantum gives H(S, Y) = H(p_S) + sum_s p_S(s) S(rho_bar_s)
    with rho_bar_s the conditional average output state.
    """
    marg = state.marginal(q.classical_subset)
    h = shannon_entropy(marg)
    if q.include_quantum:
        conds = list(state.conditional_average_states(q.classical_subset))
        ents = von_neumann_entropies(np.array([rho for _, _, rho in conds]))
        for (_, w, _), s in zip(conds, ents.tolist()):
            h += w * s
    return h


def conditional_mutual_info(state: CqState, a: EntropyQuery, b: EntropyQuery,
                            c: EntropyQuery | None = None) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)."""
    if c is None:
        c = EntropyQuery()
    pairs = [(a, b), (a, c), (b, c)]
    for q1, q2 in pairs:
        common = q1.classical_subset & q2.classical_subset
        if common:
            raise OverlappingQueries(f"registers {sorted(common)} appear twice")
    if sum(int(q.include_quantum) for q in (a, b, c)) > 1:
        raise OverlappingQueries("quantum register may appear in only one argument")
    return (entropy(state, a.union(c)) + entropy(state, b.union(c))
            - entropy(state, a.union(b).union(c)) - entropy(state, c))
