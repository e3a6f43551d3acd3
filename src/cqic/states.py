"""Classical-quantum states and their entropic quantities.

A :class:`CqState` is a joint pmf over named classical registers plus a
map from each support point to a density operator on one quantum
register.  All entropies are in bits.

:func:`cq_entropies` is the one engine for the entropies of cq states:
it pools each receiver's state of an inner bound from a stacked channel
table, then forms the conditional states of every register subset in
bulk and takes their entropies in one eigensolve per output dimension.
What depends only on the receivers' layouts and output dimensions is
worked out once, by :func:`entropy_plan`.  A ``CqState`` is its
one-config case: :func:`entropy` and :func:`conditional_mutual_info`
hand the state, already pooled, to the second stage.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import active_tolerances
from .errors import (DomainError, InvalidState, NotHermitian,
                     OverlappingQueries, UnknownRegister)
# eig_hermitian stays bound here: cqbench's tracer self-test checks it
from .linalg import eig_hermitian, eigvals_hermitian  # noqa: F401

_TINY = np.finfo(float).tiny  # smallest normal float
_SCALE = 2.0 ** 64            # lifts every subnormal to a normal float


def _check_unit_interval(what: str, *values) -> None:
    """Raise DomainError unless each value is in [0, 1] within ``prob``."""
    tol = active_tolerances()
    for v in values:
        if not -tol.prob <= v <= 1.0 + tol.prob:  # NaN fails too
            raise DomainError(f"{what} argument {v} outside [0,1]")


def _hb_arr(t):
    """h_b of each entry of ``t``; 0 on and beyond the end points."""
    t = np.asarray(t, dtype=float)
    inner = (t > 0.0) & (t < 1.0)
    ti = np.where(inner, t, 0.5)
    return np.where(inner, -ti * np.log2(ti) - (1.0 - ti) * np.log2(1.0 - ti),
                    0.0)


def _f_arr(t, phi):
    """Fact 1's f of each entry of ``t``, clipped to [0, 1], at ``phi``."""
    t = np.minimum(np.maximum(np.asarray(t, dtype=float), 0.0), 1.0)
    return (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * t * (1.0 - t)
                                     * math.sin(phi) ** 2, 0.0))) / 2.0


def _conv_arr(p, q):
    """p * q of each pair of entries."""
    return p + q - 2.0 * p * q


def binary_entropy(p: float) -> float:
    """h_b(p) = -p log2 p - (1-p) log2 (1-p)."""
    _check_unit_interval("binary_entropy", p)
    return float(_hb_arr(p))


def binary_convolve(p: float, q: float) -> float:
    """p * q = p + q - 2pq, the crossover of cascaded symmetric flips."""
    _check_unit_interval("binary_convolve", p, q)
    return float(_conv_arr(p, q))


def fact1_f(t: float, phi: float) -> float:
    """f(t) = (1 + sqrt(1 - 4 t (1-t) sin^2(phi))) / 2.

    Largest eigenvalue of the mixture t|v_phi><v_phi| + (1-t)|0><0|;
    symmetric under t <-> 1-t and decreasing on (0, 1/2).
    """
    _check_unit_interval("fact1_f", t)
    if not math.isfinite(phi):
        raise DomainError(f"fact1_f angle {phi} is not finite")
    return float(_f_arr(t, phi))


def shannon_entropy(probs: np.ndarray) -> float:
    """-sum p log2 p over the positive entries; a point mass gives 0.0."""
    return float(shannon_entropies(np.asarray(probs, dtype=float)
                                   .reshape(1, -1))[0])


def validate_densities(arr: np.ndarray) -> None:
    """Check a complex stack ``(..., d, d)`` of density operators in one pass.

    Each must be finite, Hermitian within ``herm`` (absolute), of unit
    trace within ``trace`` and PSD within ``psd`` (its least eigenvalue,
    from one :func:`eigvals_hermitian` call).  The first failing matrix
    raises :class:`InvalidState` for its first failing check.
    """
    tol = active_tolerances()
    flat = arr.reshape((-1,) + arr.shape[-2:])
    faults = np.zeros((4, len(flat)), dtype=bool)  # check x matrix
    faults[0] = ~np.isfinite(flat).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        dev = np.abs(flat - flat.conj().swapaxes(1, 2)).max(axis=(1, 2))
        tr = np.trace(flat, axis1=1, axis2=2).real
    faults[1], faults[2] = dev > tol.herm, np.abs(tr - 1.0) > tol.trace
    sane = ~faults.any(axis=0)
    least = np.zeros(len(flat))
    least[sane] = eigvals_hermitian(flat[sane]).min(axis=1)
    faults[3] = least < -tol.psd
    if faults.any():  # the first faulty matrix, at its first failing check
        i, check = np.argwhere(faults.T)[0]
        raise InvalidState((
            "density operator has non-finite entries",
            "density operator is not Hermitian within tolerance",
            f"trace {tr[i]} differs from 1",
            f"negative eigenvalue {least[i]} beyond tolerance")[check])


@dataclass(frozen=True)
class DensityOperator:
    """Validated density operator (Hermitian, PSD, unit trace)."""

    mat: np.ndarray

    def __init__(self, mat):
        arr = np.array(getattr(mat, "mat", mat), dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidState(f"density operator must be square, got {arr.shape}")
        validate_densities(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def shannon_entropies(rows) -> np.ndarray:
    """-sum p log2 p over the positive entries of each row of a 2-D array.

    The positive entries of all rows are logged in one call.  numpy sums
    eight or more terms pairwise, so the order depends on how many terms
    a row has: rows are summed in groups of equal support size, each row
    over its positive entries only, so no row's value depends on another.
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
    # 0.0 - s, not -s: a sum of zeros must not come out as -0.0
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
    negative raises InvalidState.  Each state's positive eigenvalues are
    summed in descending order as one row of :func:`shannon_entropies`,
    so its value does not depend on the rest of the stack.
    """
    w = _entropy_eigvals(getattr(rhos, "mat", rhos))
    rows = w.reshape(-1, w.shape[-1])
    return shannon_entropies(rows).reshape(w.shape[:-1])


def von_neumann_entropy(rho) -> float:
    """Entropy of one state, as :func:`von_neumann_entropies` gives it."""
    arr = np.asarray(getattr(rho, "mat", rho), dtype=complex)
    if arr.ndim != 2:
        raise NotHermitian(f"expected a square matrix, got shape {arr.shape}")
    return float(von_neumann_entropies(arr))


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
        if not float(p.min()) >= -tol.prob:
            raise DomainError(f"negative or NaN probability {p.min()}")
        if not abs(float(p.sum()) - 1.0) <= tol.prob * max(1, p.size):
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
    """Joint pmf over named classical registers and the cq output register Y.

    Registers keep their insertion order; the joint pmf is row-major in
    that order.  ``state_map`` maps points (tuples of register values) to
    square operators of one dimension and must cover every support point
    of the pmf.  ``outputs`` stacks them in pmf order, ``(n, d, d)``, with
    a zero matrix at each point that has none.
    """

    def __init__(self, registers, joint_pmf, state_map):
        regs = tuple((str(n), int(a)) for n, a in registers)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate register names in {names}")
        if "Y" in names:
            raise DomainError("quantum register name collides with a classical one")
        pmf = joint_pmf if isinstance(joint_pmf, Pmf) else Pmf(joint_pmf)
        shape = tuple(a for _, a in regs)
        if pmf.size != math.prod(shape):
            raise DomainError(f"pmf has {pmf.size} entries, registers need "
                              f"{math.prod(shape)}")
        table = pmf.probs.reshape(shape)
        smap = {}
        for k, op in state_map.items():
            if not (isinstance(k, tuple) and len(k) == len(shape) and all(
                    isinstance(i, (int, np.integer)) and 0 <= i < a
                    for i, a in zip(k, shape))):
                raise DomainError(f"state_map key {k!r} is not a point of "
                                  f"registers {regs}")
            smap[tuple(int(i) for i in k)] = np.asarray(getattr(op, "mat", op),
                                                        dtype=complex)
        for key in np.argwhere(table > 0.0):
            if tuple(key) not in smap:
                raise DomainError("state_map missing support point "
                                  f"{tuple(int(i) for i in key)}")
        shapes = {arr.shape for arr in smap.values()}
        op_shape = shapes.pop() if len(shapes) == 1 else ()
        if len(op_shape) != 2 or op_shape[0] != op_shape[1]:
            raise DomainError("state_map operators must be square matrices "
                              "of one dimension")
        dim = op_shape[0]
        outputs = np.zeros(shape + (dim, dim), dtype=complex)
        for k, arr in smap.items():
            outputs[k] = arr
        outputs = outputs.reshape((-1, dim, dim))
        outputs.setflags(write=False)
        self.registers = regs
        self.joint_pmf = pmf
        self.prob_table = table
        self.state_map = smap
        self.outputs = outputs
        self.quantum_dim = dim

    def register_names(self):
        return [n for n, _ in self.registers]


def _query_entropies(state: CqState, queries) -> list:
    """Each query's entropy, from one call of the kernel's subset stage."""
    subsets = tuple(dict.fromkeys(q.classical_subset for q in queries))
    unknown = set().union(*subsets) - set(state.register_names())
    if unknown:
        raise UnknownRegister(f"unknown register(s) {sorted(unknown)}")
    quantum = frozenset(q.classical_subset for q in queries
                        if q.include_quantum)
    plan = _state_plan(state.registers, subsets, quantum, state.quantum_dim)
    p = state.prob_table.reshape(1, -1)
    h = _subset_entropies(plan, [(p, state.outputs[None])],
                          _has_subnormal(p))
    return [float(h[0, q.classical_subset, q.include_quantum][0])
            for q in queries]


@functools.lru_cache(maxsize=64)
def _state_plan(regs, subsets, quantum, dim):
    """Plan of a pooled ``CqState``, whose every point is its own register
    value, per content: H(S, Y) is laid out for the ``quantum`` subsets
    only."""
    layout = receiver_layout(regs, np.arange(math.prod(a for _, a in regs)),
                             subsets)
    return entropy_plan([layout], (dim,), (quantum,))


def entropy(state: CqState, q: EntropyQuery) -> float:
    """H of the queried classical subset, plus the cq output if requested.

    include_quantum gives H(S, Y) = H(p_S) + sum_s p_S(s) S(rho_bar_s)
    with rho_bar_s the conditional average output state.
    """
    return _query_entropies(state, (q,))[0]


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
    h_ac, h_bc, h_abc, h_c = _query_entropies(
        state, (a.union(c), b.union(c), a.union(b).union(c), c))
    return h_ac + h_bc - h_abc - h_c


# ---------------------------------------------------------------------------
# the batched kernel, bit for bit a scalar loop over the points of one
# config in row-major order: the same products, pooled by left-to-right
# sums in the same order (-0.0, the exact additive identity, stands in
# for a skipped zero-mass term; the loop's leading ``0.0 +`` comes last,
# which is exact too); conditional states added to H(S) in order of
# first occurrence; row entropies summed as ``shannon_entropy`` sums them.

_SKIP = complex(-0.0, -0.0)


def _seq_sum(a):
    """Left-to-right sum over axis 2 (``np.sum`` may pair terms up)."""
    return np.add.accumulate(a, axis=2)[:, :, -1]


def _has_subnormal(mass) -> bool:
    """Whether a positive mass is subnormal.  Only a group of subnormal
    points pools to a subnormal mass, so without one, scaling (exactly,
    see :func:`mass_scale`) is skipped."""
    return bool((mass[mass > 0.0] < _TINY).any())


def _grouped(keys, n_keys):
    """Positions of each value of ``keys``: row k lists, ascending, where
    ``keys`` equals k.  Every value must occur equally often."""
    groups = np.argsort(keys.ravel(), kind="stable").reshape(n_keys, -1)
    groups.setflags(write=False)  # layouts are held with cached plans
    return groups


def receiver_layout(regs, key, subsets):
    """Layout of one receiver's cq state, for :func:`entropy_plan`.

    ``regs`` lists the classical registers as ``(name, size)``; ``key``
    gives each point's register value, flat in row-major order over
    ``regs``, and every value must occur equally often.  Returns
    ``(shape, pool, subsets)``: ``pool`` lists the points behind each
    register value, and ``subsets`` maps every register subset (a
    frozenset of names) to its summed axes and to the register values
    behind each of its values.  Its arrays are read-only: callers keep
    a layout with the plan built from it.
    """
    key = np.asarray(key, dtype=np.int64)
    names = [nm for nm, _ in regs]
    shape = tuple(size for _, size in regs)
    n = math.prod(shape)
    coords = np.indices(shape).reshape(len(shape), n)
    table = {}
    for sub in subsets:
        keep = [i for i, nm in enumerate(names) if nm in sub]
        kept = tuple(shape[i] for i in keep)
        sub_key = (np.ravel_multi_index([coords[i] for i in keep], kept)
                   if keep else np.zeros(n, dtype=int))
        dropped = tuple(i + 1 for i in range(len(shape)) if i not in keep)
        table[sub] = (dropped, _grouped(sub_key, math.prod(kept)))
    return shape, _grouped(key, n), table


#: one output dimension's receivers in a plan.  Stage 1 pools them in
#: ``stacks`` of one pool width, ``(rxs, pool, rx_of_value)``, and lays
#: their ``n`` register values end to end in stack order.  Stage 2 takes
#: H(S, Y) of ``keys``: one ``(take, at)`` pair per group width, ``take``
#: indexing the values behind each subset value and ``at`` giving their
#: positions in receiver order, by which the terms are ordered; ``rows``
#: are the keys' H(S) rows, ``slots`` each conditional state's place
#: among its subset's terms and ``order`` the terms' initial sort keys.
_Group = namedtuple("_Group", "dim stacks n keys widths rows slots order")

#: what :func:`cq_entropies` does that depends only on its receivers'
#: layouts and output dimensions: the ``groups`` by output dimension,
#: then the H(S) block, ``margs`` (per receiver its group, value span,
#: shape and each subset's summed axes), ``keys``, row ``width`` and
#: each marginal entry's ``slots`` in the zero-padded rows.
_Plan = namedtuple("_Plan", "groups margs keys width slots")


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)  # plans are cached and shared
    return arrays


def entropy_plan(receivers, dims, quantum=None):
    """Plan of :func:`cq_entropies` for a receiver set, built once.

    ``receivers`` holds :func:`receiver_layout` results, ``dims`` each
    one's output dimension and ``quantum`` each one's subsets whose
    H(S, Y) is wanted (None: all).  The plan is read-only; holders keep
    it with the layouts it was built from.
    """
    if quantum is None:
        quantum = [subsets for _, _, subsets in receivers]
    keys = [(rx, sub, False) for rx, (_, _, subsets) in enumerate(receivers)
            for sub in subsets]
    row = {key[:2]: r for r, key in enumerate(keys)}
    by_dim, groups, place = {}, [], {}
    for rx, d in enumerate(dims):
        by_dim.setdefault(d, []).append(rx)
    for d, rxs in by_dim.items():
        grp, spans = _group_plan(receivers, rxs, d, quantum, row)
        place.update((rx, (len(groups),) + span)
                     for rx, span in spans.items())
        groups.append(grp)
    margs = tuple(place[rx] + (shape, tuple(
        dropped for dropped, _ in subsets.values()))
        for rx, (shape, _, subsets) in enumerate(receivers))
    # H(S) of every laid-out subset, one zero-padded row each
    sizes = [len(groups_of) for _, _, subsets in receivers
             for _, groups_of in subsets.values()]
    width = max(sizes)
    slots = np.concatenate([r * width + np.arange(size)
                            for r, size in enumerate(sizes)])
    return _Plan(tuple(groups), margs, tuple(keys), width, *_frozen(slots))


def _group_plan(receivers, rxs, dim, quantum, row):
    """Plan of the receivers ``rxs`` of output dimension ``dim``, and each
    one's span of the group's values; ``row`` gives each H(S) row."""
    by_k = {}
    for rx in rxs:
        by_k.setdefault(receivers[rx][1].shape[1], []).append(rx)
    stacks, spans, n = [], {}, 0
    for stack in by_k.values():
        sizes = [len(receivers[rx][1]) for rx in stack]
        for rx, size in zip(stack, sizes):
            spans[rx] = (n, n + size)
            n += size
        stacks.append((tuple(stack), *_frozen(
            np.concatenate([receivers[rx][1] for rx in stack]),
            np.repeat(np.arange(len(stack)), sizes)[:, None])))
    # H(S, Y) of the quantum subsets, stacked by group width
    keys, by_width, first = [], {}, 0
    for rx in rxs:
        lo, hi = spans[rx]
        for sub, (_, groups_of) in receivers[rx][2].items():
            if sub in quantum[rx]:
                by_width.setdefault(groups_of.shape[1], []).append(
                    (len(keys), lo + groups_of, first + groups_of))
                keys.append((rx, sub, True))
        first += hi - lo
    if not keys:
        return _Group(dim, tuple(stacks), n, (), (), None, None, None), spans
    widths, which, pos = [], [], []
    for stack in by_width.values():
        rows, take, at = zip(*stack)
        widths.append(_frozen(np.concatenate(take), np.concatenate(at)))
        # each value's subset row and position among its values
        counts = [len(part) for part in take]
        which.append(np.repeat(rows, counts))
        pos.append(np.arange(sum(counts))
                   - np.repeat(np.cumsum([0] + counts[:-1]), counts))
    which, pos = np.concatenate(which), np.concatenate(pos)
    # per subset: H(S) first, then its terms, padding last
    order = np.full((len(keys), int(pos.max()) + 2), n)
    order[:, 0] = -1
    return _Group(dim, tuple(stacks), n, tuple(keys), tuple(widths),
                  *_frozen(np.array([row[key[:2]] for key in keys]),
                           which * order.shape[1] + pos + 1, order)), spans


def cq_entropies(plan, tables, mass, inputs):
    """H(S) and H(S, Y) of every laid-out register subset S, per config.

    ``plan`` is the :func:`entropy_plan` of the receivers and ``tables``
    each one's stacked channel outputs (``ChannelSpec.reduced_table``).
    ``mass`` holds the point masses of a block of configs, ``(g,
    points)``; ``inputs`` each point's channel input, a flat index over
    the tables' input axes, ``(g, points)`` or ``(1, points)`` for all.
    Returns ``{(rx, S, with_y): (g,) array}``, ``rx`` the receiver's
    position in the plan.

    Stage 1 pools each receiver's pmf ``p``, ``(g, n)`` over its n
    register values, and their conditional states ``smap``, ``(g, n, d,
    d)``, the receivers of one output dimension and pool width in one
    stack; stage 2, :func:`_subset_entropies`, takes it from there.
    """
    lift = _has_subnormal(mass)
    pooled = []
    for grp in plan.groups:
        ps, smaps = [], []
        for rxs, pool, rx_of in grp.stacks:
            outs = np.concatenate([tables[rx] for rx in rxs]).reshape(
                len(rxs), -1, grp.dim, grp.dim)
            mk = mass.take(pool, axis=1)
            probs = 0.0 + _seq_sum(mk)
            p = np.clip(probs, 0.0, None)  # as Pmf clips the joint pmf
            m = np.where(p > 0.0, probs, 1.0)
            if lift:  # as mass_quotient divides
                scale = mass_scale(m)
                mk, m = mk * scale[..., None], m * scale
            parts = mk[..., None, None] * outs[rx_of,
                                               inputs.take(pool, axis=1)]
            parts[mk == 0.0] = _SKIP
            ps.append(p)
            smaps.append(_seq_sum(parts) / m[..., None, None])
        pooled.append((np.concatenate(ps, axis=1),
                       np.concatenate(smaps, axis=1)))
    return _subset_entropies(plan, pooled, lift)


def _subset_entropies(plan, pooled, lift):
    """Stage 2: H(S) and H(S, Y) of every laid-out subset of pooled states.

    ``pooled`` holds one ``(p, smap)`` per group of ``plan``, its
    receivers' values end to end, as stage 1 of :func:`cq_entropies`
    makes it; the result is keyed as there.  ``lift`` is
    :func:`_has_subnormal` of the point masses behind ``p``.

    The subsets of one group width (of any receiver of the group) form
    one rectangular stack ``(values, width)``.
    """
    g = pooled[0][0].shape[0]
    margs = []
    for at, lo, hi, shape, drops in plan.margs:
        # numpy orders a multi-axis sum by memory layout: sum C-ordered
        # tables, as the scalar marginal does
        p_table = np.ascontiguousarray(pooled[at][0][:, lo:hi]).reshape(
            (g,) + shape)
        margs += [(np.add.reduce(p_table, dropped) if dropped else p_table)
                  .reshape(g, -1) for dropped in drops]

    # H(S) of every subset in one pass; the zero padding is not summed
    rows = np.zeros((g, len(plan.keys) * plan.width))
    rows[:, plan.slots] = np.concatenate(margs, axis=1)
    hs = shannon_entropies(rows.reshape(-1, plan.width)).reshape(g, -1)
    h = dict(zip(plan.keys, hs.T))

    # H(S, Y) = H(S) + sum_s p(s) S(rho_s): one eigensolve per output
    # dimension over every conditional state of the block
    for grp, (p, smap) in zip(plan.groups, pooled):
        if not grp.keys:
            continue
        wts, acc, first = [], [], []
        for take, at in grp.widths:
            pk = p.take(take, axis=1)
            live = pk > 0.0
            wts.append(0.0 + _seq_sum(pk))
            if lift:
                pk = pk * mass_scale(wts[-1])[..., None]
            parts = pk[..., None, None] * smap.take(take, axis=1)
            parts[~live] = _SKIP
            acc.append(0.0 + _seq_sum(parts))
            # after every value: a zero-mass value sorts last
            first.append(np.where(live, at, grp.n).min(axis=2))
        wts, acc = np.concatenate(wts, axis=1), np.concatenate(acc, axis=1)
        present = wts > 0.0
        ws = np.zeros_like(wts)
        ws[present] = wts[present] * von_neumann_entropies(
            mass_quotient(acc[present], wts[present]))
        # per subset: H(S), then each p(s) S(rho_s) in order of first
        # occurrence; zero-mass values go last, in value order, as +0.0,
        # and the -0.0 that pads short rows adds exactly nothing
        order = np.repeat(grp.order[None], g, axis=0)
        order.reshape(g, -1)[:, grp.slots] = np.concatenate(first, axis=1)
        terms = np.full(order.shape, -0.0)
        terms[:, :, 0] = hs[:, grp.rows]
        terms.reshape(g, -1)[:, grp.slots] = ws
        terms = np.take_along_axis(
            terms, np.argsort(order, axis=2, kind="stable"), axis=2)
        h.update(zip(grp.keys, _seq_sum(terms).T))
    return h
