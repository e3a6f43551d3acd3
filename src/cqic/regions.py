"""Achievable-rate-region evaluators for the three-user channel.

Four evaluators, in increasing order of codebook structure:

* :func:`unstructured_3to1_check` -- superposition coding only; valid
  for channels where receivers 2 and 3 see no interference.
* :func:`thm1_check` -- one coset layer per interfering user over a
  shared prime field; receiver 1 decodes the *sum* of the two layers.
* :func:`thm2_feasible` -- every user splits into two coset layers
  (one aimed at each other receiver) plus a private part; feasibility
  of a rate triple becomes a linear program over the rate split.
* :func:`thm3_feasible` -- same, with additional unstructured layers
  stacked on the coset layers.

Conventions used throughout:

* users/receivers are numbered 1..3 in labels, 0..2 internally;
* a digit pair ``ab`` names the layer sent by user ``a`` and aimed at
  receiver ``b`` (so ``S12`` is the index rate of user 1's layer that
  receiver 2 folds into its decoded sum);
* rate inequalities are strict and are closed numerically with the
  ``rate`` tolerance margin; cost constraints are closed (``<=``);
* all information quantities are in bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, CostVector, gamma_state, sigma_state
from .config import ENUMERATION_CAP, active_tolerances
from .direct import direct_bounds
from .errors import (BudgetExceeded, ConfigMismatch, DomainError, Not3to1,
                     Unsupported)
from .gfcoset import _check_modulus
from .linalg import operator_norm
from .lp import feasible_point
from .states import CqState, EntropyQuery, Pmf, entropy, shannon_entropy

_OTHERS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluated constraint; ``slack`` is its satisfaction margin."""

    label: str
    lhs: float
    rhs: float
    slack: float
    kind: str  # "rate" | "cost" | "source" | "channel" | "coupling"

    def to_json_dict(self):
        return {"label": self.label, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "kind": self.kind}


@dataclass(frozen=True)
class RateAllocation:
    """Rate triple plus the internal per-layer rate split backing it."""

    rates: tuple
    parts: tuple  # ((name, value), ...) in declaration order

    def value(self, name: str) -> float:
        for n, v in self.parts:
            if n == name:
                return v
        raise KeyError(name)

    def to_json_dict(self):
        return {"rates": list(self.rates), "parts": dict(self.parts)}


@dataclass(frozen=True)
class RegionReport:
    feasible: bool
    records: tuple
    witness: RateAllocation | None

    def record(self, label: str) -> InequalityRecord:
        for r in self.records:
            if r.label == label:
                return r
        raise KeyError(label)

    def min_slack(self) -> float:
        return min(r.slack for r in self.records) if self.records else math.inf

    def to_json_dict(self):
        return {"feasible": self.feasible,
                "records": [r.to_json_dict() for r in self.records],
                "witness": None if self.witness is None
                else self.witness.to_json_dict()}


def _rate_triple(rates):
    try:
        r1, r2, r3 = (float(r) for r in rates)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"rates must be three numbers, got {rates!r}") from exc
    if min(r1, r2, r3) < 0.0:
        raise DomainError(f"rates must be nonnegative, got {rates!r}")
    return r1, r2, r3


# ---------------------------------------------------------------------------
# direct bounds: one table of rate rows per bound
#
# Each row reads  c1*R1 + c2*R2 + c3*R3 < (sum of the named bound values)
# with 0/1 coefficients.  The checkers, the R1 supremum of the grid scans
# and the refinement all read these tables.

_THM1_ROWS = (
    ("thm1.r1", (1, 0, 0), ("r1_rhs",)),
    ("thm1.own.j=2", (0, 1, 0), ("own2",)),
    ("thm1.own.j=3", (0, 0, 1), ("own3",)),
    ("thm1.cross.j=2", (0, 1, 0), ("cross_rhs",)),
    ("thm1.cross.j=3", (0, 0, 1), ("cross_rhs",)),
    ("thm1.sum.j=2", (1, 1, 0), ("sum_rhs",)),
    ("thm1.sum.j=3", (1, 0, 1), ("sum_rhs",)),
)

_UNSTR_ROWS = (
    ("unstr.r1", (1, 0, 0), ("r1_rhs",)),
    ("unstr.own.j=2", (0, 1, 0), ("own2",)),
    ("unstr.own.j=3", (0, 0, 1), ("own3",)),
    ("unstr.pair.j=2", (1, 1, 0), ("pair2", "refine2")),
    ("unstr.pair.j=3", (1, 0, 1), ("pair3", "refine3")),
    ("unstr.sum", (1, 1, 1), ("total1", "refine2", "refine3")),
)


def _add(terms):
    """Left-to-right sum from the first term (``0 + -0.0`` would flip a sign)."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _direct_report(channel: ChannelSpec, rows, b, rates,
                   budget: CostVector | None) -> RegionReport:
    """Evaluate a direct bound's rate rows plus one cost row per user."""
    tol = active_tolerances()
    records = []
    ok = True
    for label, coeffs, keys in rows:
        lhs = _add([c * r for c, r in zip(coeffs, rates) if c])
        rhs = _add([b[k] for k in keys])
        slack = rhs - lhs
        ok = ok and slack >= tol.rate
        records.append(InequalityRecord(label, float(lhs), float(rhs),
                                        float(slack), "rate"))
    budget = channel.budget if budget is None else budget
    if budget is not None:
        prefix = rows[0][0].split(".")[0]
        for j, cap in enumerate(budget.as_tuple()):
            spent = b[f"e{j + 1}"]
            slack = cap - spent
            ok = ok and slack >= -tol.prob
            records.append(InequalityRecord(f"{prefix}.cost.j={j + 1}",
                                            float(spent), float(cap),
                                            float(slack), "cost"))
    witness = RateAllocation(tuple(rates), ()) if ok else None
    return RegionReport(bool(ok), tuple(records), witness)


def _r1_sup(rows, b, r2, r3, tol):
    """Supremum of R1 the rows allow at fixed (R2, R3); ``-inf`` if none.

    Bound values may be floats or arrays that broadcast together; the
    result takes their broadcast shape.  Rows without R1 must hold with
    the ``tol`` margin, as in the checkers.
    """
    sup, ok = math.inf, True
    for _, (c1, c2, c3), keys in rows:
        rhs = _add([b[k] for k in keys])
        fixed = [(c, r) for c, r in ((c2, r2), (c3, r3)) if c]
        if c1:
            for c, r in fixed:
                rhs = rhs - c * r
            sup = np.minimum(sup, rhs)
        else:
            ok = ok & (_add([c * r for c, r in fixed]) <= rhs - tol)
    return np.where(ok & (sup > 0.0), sup, -np.inf)


def _receiver_state(channel: ChannelSpec, j: int, regs, points) -> CqState:
    """cq state at receiver j over the classical registers ``regs``.

    ``points`` yields (register values, mass, channel input) triples;
    masses pool per register value, and each conditional state is the
    mass-weighted average of the receiver's outputs there.  Zero-mass
    points are skipped.
    """
    probs = np.zeros(tuple(size for _, size in regs))
    acc = {}
    for key, p, x in points:
        if p == 0.0:
            continue
        probs[key] += p
        mat = p * channel.reduced(j, x)
        cur = acc.get(key)
        acc[key] = mat if cur is None else cur + mat
    return CqState(regs, probs.ravel(),
                   {k: m / probs[k] for k, m in acc.items()})


# ---------------------------------------------------------------------------
# single-layer evaluator (sum of two coset layers decoded at receiver 1)


@dataclass(frozen=True)
class Thm1Config:
    """One coset layer per interfering user over a shared prime field.

    ``f2``/``f3`` map field symbols to channel inputs of users 2/3;
    user 1 signals directly with ``p_x1``.
    """

    field_size: int
    p_x1: tuple
    p_u2: tuple
    p_u3: tuple
    f2: tuple
    f3: tuple


def _thm1_bounds(channel: ChannelSpec, cfg: Thm1Config):
    v = int(cfg.field_size)
    _check_modulus(v)
    sizes = channel.input_sizes
    px1, pu2, pu3 = Pmf(cfg.p_x1), Pmf(cfg.p_u2), Pmf(cfg.p_u3)
    if px1.size != sizes[0]:
        raise ConfigMismatch(f"p_x1 has {px1.size} atoms, user 1 input has {sizes[0]}")
    if pu2.size != v or pu3.size != v:
        raise ConfigMismatch("layer pmfs must live on the configured field")
    f2 = tuple(int(x) for x in cfg.f2)
    f3 = tuple(int(x) for x in cfg.f3)
    if len(f2) != v or len(f3) != v:
        raise ConfigMismatch("symbol maps must be defined on the whole field")
    if any(not 0 <= x < sizes[1] for x in f2) or any(not 0 <= x < sizes[2] for x in f3):
        raise ConfigMismatch("symbol map value outside the channel input alphabet")

    b = direct_bounds(channel, "thm1", [px1.probs], [(pu2.probs, f2)],
                       [(pu3.probs, f3)])
    return {name: float(v[0, 0, 0]) for name, v in b.items()}


def thm1_check(channel: ChannelSpec, cfg: Thm1Config, rates,
               budget: CostVector | None = None) -> RegionReport:
    """Evaluate the single-layer sum-decoding inner bound at one config.

    Seven rate inequalities (strict, closed with the rate tolerance)
    plus one closed cost constraint per user when a budget is present.
    """
    rates = _rate_triple(rates)
    return _direct_report(channel, _THM1_ROWS, _thm1_bounds(channel, cfg),
                          rates, budget)


# ---------------------------------------------------------------------------
# unstructured superposition evaluator (3-to-1 interference only)


@dataclass(frozen=True)
class UnstructuredConfig:
    """Independent per-user inputs: p(x1) and joint p(u_j, x_j), j = 2, 3."""

    p_x1: np.ndarray
    p_u2x2: np.ndarray
    p_u3x3: np.ndarray

    def __post_init__(self):
        for name in ("p_x1", "p_u2x2", "p_u3x3"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)


def _require_3to1(channel: ChannelSpec):
    """Receivers 2 and 3 must see only their own input."""
    tol = active_tolerances().commute
    sizes = channel.input_sizes
    for j in (1, 2):
        for xj in range(sizes[j]):
            base = None
            for x in itertools.product(*(range(s) for s in sizes)):
                if x[j] != xj:
                    continue
                op = channel.reduced(j, x)
                if base is None:
                    base = op
                elif operator_norm(base - op) > tol:
                    raise Not3to1(
                        f"receiver {j + 1} output varies with other users' "
                        f"inputs at x_{j + 1}={xj}")


def _unstructured_bounds(channel: ChannelSpec, cfg: UnstructuredConfig):
    sizes = channel.input_sizes
    px1 = Pmf(cfg.p_x1)
    if px1.size != sizes[0]:
        raise ConfigMismatch(f"p_x1 has {px1.size} atoms, user 1 input has {sizes[0]}")
    joints = []
    for j, tab in ((1, cfg.p_u2x2), (2, cfg.p_u3x3)):
        t = np.asarray(tab, dtype=float)
        if t.ndim != 2 or t.shape[1] != sizes[j]:
            raise ConfigMismatch(
                f"p_u{j + 1}x{j + 1} must be a (m, {sizes[j]}) table, got {t.shape}")
        Pmf(t.ravel())  # normalization / positivity check
        joints.append(t)
    b = direct_bounds(channel, "unstructured", [px1.probs], joints[:1],
                       joints[1:])
    return {name: float(v[0, 0, 0]) for name, v in b.items()}


def unstructured_3to1_check(channel: ChannelSpec, cfg: UnstructuredConfig,
                            rates, budget: CostVector | None = None
                            ) -> RegionReport:
    """Superposition-coding inner bound for 3-to-1 interference channels.

    Raises :class:`Not3to1` when receiver 2 or 3 sees any input other
    than its own.
    """
    rates = _rate_triple(rates)
    _require_3to1(channel)
    return _direct_report(channel, _UNSTR_ROWS,
                          _unstructured_bounds(channel, cfg), rates, budget)


# ---------------------------------------------------------------------------
# layered evaluators (linear programs over the rate split)


@dataclass(frozen=True)
class Thm2Config:
    """Per-user joint pmfs over the two own coset layers and the input.

    ``factors[j]`` has axes ``(U_{j->a}, U_{j->b}, X_j)`` with ``a < b``
    the two other users; a size-1 axis means that layer is absent.
    ``fields[r]`` is the prime field of the sum decoded at receiver r.
    """

    fields: tuple
    factors: tuple


@dataclass(frozen=True)
class Thm3Config:
    """Like :class:`Thm2Config` with two unstructured layers stacked on
    top: axes ``(V_{j->a}, V_{j->b}, U_{j->a}, U_{j->b}, X_j)``.
    """

    fields: tuple
    factors: tuple


def _normalized_blocks(channel: ChannelSpec, cfg, with_v: bool):
    tol = active_tolerances()
    fields = tuple(int(f) for f in cfg.fields)
    if len(fields) != 3:
        raise ConfigMismatch("need one sum field per receiver")
    for f in fields:
        _check_modulus(f)
    if len(cfg.factors) != 3:
        raise ConfigMismatch("need one factor pmf per user")
    blocks = []
    for t, raw in enumerate(cfg.factors):
        tab = np.asarray(raw, dtype=float)
        if not with_v:
            if tab.ndim != 3:
                raise ConfigMismatch(
                    f"user {t + 1} factor must have 3 axes, got {tab.ndim}")
            tab = tab.reshape((1, 1) + tab.shape)
        elif tab.ndim != 5:
            raise ConfigMismatch(
                f"user {t + 1} factor must have 5 axes, got {tab.ndim}")
        if tab.min() < -tol.prob:
            raise ConfigMismatch(f"user {t + 1} factor has negative mass")
        if abs(tab.sum() - 1.0) > tol.prob:
            raise ConfigMismatch(f"user {t + 1} factor does not sum to 1")
        a, bb = _OTHERS[t]
        for axis, rx in ((2, a), (3, bb)):
            if tab.shape[axis] not in (1, fields[rx]):
                raise ConfigMismatch(
                    f"user {t + 1} coset layer toward receiver {rx + 1} has "
                    f"{tab.shape[axis]} symbols, field is {fields[rx]}")
        if tab.shape[4] != channel.input_sizes[t]:
            raise ConfigMismatch(
                f"user {t + 1} factor input axis has {tab.shape[4]} symbols, "
                f"channel expects {channel.input_sizes[t]}")
        blocks.append(np.clip(tab, 0.0, None))
    return fields, blocks


def _marg(table, axes_keep):
    drop = tuple(i for i in range(table.ndim) if i not in axes_keep)
    return table.sum(axis=drop) if drop else table


def _is_active(marg):
    return marg.size > 1 and float(marg.max()) < 1.0 - active_tolerances().prob


def _u_axis(t, r):
    return 2 if r == _OTHERS[t][0] else 3


def _v_axis(t, r):
    return 0 if r == _OTHERS[t][0] else 1


def _pair_label(pairs):
    return ",".join(f"{t + 1}{r + 1}" for t, r in sorted(pairs))


def _subsets(seq):
    for n in range(len(seq) + 1):
        yield from itertools.combinations(seq, n)


@dataclass
class _Atom:
    reg: str
    size: int
    charges: tuple       # variable names whose rates this error event pays
    corr: float          # alphabet/entropy correction term on the rhs
    own: bool            # carries this user's own message content
    pair: tuple | None   # (tx, rx) for layer atoms, None for X/sum
    is_sum: bool = False
    is_cross: bool = False
    copies: tuple = ()   # for the sum atom: ((label_suffix, charge names), ...)


class _RxEntropies:
    """Subset-entropy cache for one receiver's cq state."""

    def __init__(self, state: CqState):
        self.state = state
        self._cache = {}
        self._all = frozenset(state.register_names())

    def _h(self, names):
        key = frozenset(names)
        if key not in self._cache:
            self._cache[key] = entropy(self.state, EntropyQuery(key, True))
        return self._cache[key]

    def wrong_given_rest(self, wrong):
        """H(Z_wrong | Z_rest, Y) for a subset of registers."""
        return self._h(self._all) - self._h(self._all - frozenset(wrong))


def _rx_cqstate(channel: ChannelSpec, blocks, fields, j, atoms):
    """Joint cq state at receiver j over the decoded-content registers."""
    i, k = _OTHERS[j]
    extractors = []
    for a in atoms:
        if a.is_sum:
            vj = fields[j]
            ai, ak = _u_axis(i, j), _u_axis(k, j)
            extractors.append(lambda idx, ai=ai, ak=ak, vj=vj:
                              (idx[i][ai] + idx[k][ak]) % vj)
        elif a.pair is None:  # X_j
            extractors.append(lambda idx: idx[j][4])
        else:
            t, r = a.pair
            ax = _u_axis(t, r) if a.reg.startswith("U") else _v_axis(t, r)
            extractors.append(lambda idx, t=t, ax=ax: idx[t][ax])

    supports = [[(tuple(int(v) for v in key), float(blocks[t][tuple(key)]))
                 for key in np.argwhere(blocks[t] > 0.0)] for t in range(3)]
    points = []
    for (i0, p0), (i1, p1), (i2, p2) in itertools.product(*supports):
        idx = (i0, i1, i2)
        points.append((tuple(ex(idx) for ex in extractors), p0 * p1 * p2,
                       (i0[4], i1[4], i2[4])))
    return _receiver_state(channel, j, tuple((a.reg, a.size) for a in atoms),
                           points)


def _layered_rows(channel, fields, blocks, rates, theorem, drop_dont_care):
    """Build variables plus all source/channel/coupling rows."""
    u_act, v_act, x_act = {}, {}, {}
    h_v, h_x = {}, {}
    for t in range(3):
        tab = blocks[t]
        for r in _OTHERS[t]:
            u_act[(t, r)] = _is_active(_marg(tab, (_u_axis(t, r),)))
            vm = _marg(tab, (_v_axis(t, r),))
            v_act[(t, r)] = theorem == 3 and _is_active(vm)
            h_v[(t, r)] = shannon_entropy(vm)
        xm = _marg(tab, (4,))
        x_act[t] = _is_active(xm)
        h_x[t] = shannon_entropy(xm)

    names = []
    for t in range(3):
        for r in _OTHERS[t]:
            if u_act[(t, r)]:
                names += [f"S{t + 1}{r + 1}", f"T{t + 1}{r + 1}"]
        for r in _OTHERS[t]:
            if v_act[(t, r)]:
                names += [f"B{t + 1}{r + 1}", f"N{t + 1}{r + 1}"]
        if x_act[t]:
            names += [f"K{t + 1}", f"L{t + 1}"]
    col = {n: i for i, n in enumerate(names)}

    prefix = f"thm{theorem}"
    rows = []  # (label, kind, coeffs, sense, rhs)

    def _src_entropy(t, u_set, v_set, with_x):
        axes = [_u_axis(t, r) for _, r in u_set]
        axes += [_v_axis(t, r) for _, r in v_set]
        if with_x:
            axes.append(4)
        return shannon_entropy(_marg(blocks[t], tuple(axes))) if axes else 0.0

    # --- source (covering) bounds, one family per user --------------------
    for t in range(3):
        own_u = [(t, r) for r in _OTHERS[t] if u_act[(t, r)]]
        own_v = [(t, r) for r in _OTHERS[t] if v_act[(t, r)]]
        base = f"{prefix}.src.j={t + 1}"
        if theorem == 2:
            for a_set in _subsets(own_u):
                log_sum = sum(math.log2(fields[r]) for _, r in a_set)
                coeffs = {}
                for tt, r in a_set:
                    coeffs[f"S{tt + 1}{r + 1}"] = 1.0
                    coeffs[f"T{tt + 1}{r + 1}"] = -1.0
                lbl = f"{base}.A={{{_pair_label(a_set)}}}"
                if a_set:
                    rows.append((lbl, "source", dict(coeffs), ">",
                                 log_sum - _src_entropy(t, a_set, (), False)))
                if x_act[t]:
                    ck = dict(coeffs)
                    ck[f"K{t + 1}"] = 1.0
                    rows.append((lbl + "+K", "source", ck, ">",
                                 log_sum + h_x[t]
                                 - _src_entropy(t, a_set, (), True)))
        else:
            for a_set in _subsets(own_u):
                for c_set in _subsets(own_v):
                    log_sum = sum(math.log2(fields[r]) for _, r in a_set)
                    hv_sum = sum(h_v[p] for p in c_set)
                    coeffs = {f"S{tt + 1}{r + 1}": 1.0 for tt, r in a_set}
                    coeffs.update({f"B{tt + 1}{r + 1}": 1.0 for tt, r in c_set})
                    lbl = (f"{base}.A={{{_pair_label(a_set)}}}"
                           f".C={{{_pair_label(c_set)}}}")
                    if a_set or c_set:
                        rows.append((lbl, "source", dict(coeffs), ">",
                                     log_sum + hv_sum
                                     - _src_entropy(t, a_set, c_set, False)))
                    if x_act[t]:
                        ck = dict(coeffs)
                        ck[f"K{t + 1}"] = 1.0
                        rows.append((lbl + "+K", "source", ck, ">",
                                     log_sum + hv_sum + h_x[t]
                                     - _src_entropy(t, a_set, c_set, True)))

    # --- channel (packing) bounds, one family per receiver ----------------
    for j in range(3):
        i, k = _OTHERS[j]
        atoms = []
        for r in _OTHERS[j]:
            if u_act[(j, r)]:
                ch = (f"S{j + 1}{r + 1}",) if theorem == 2 else \
                     (f"S{j + 1}{r + 1}", f"T{j + 1}{r + 1}")
                atoms.append(_Atom(f"U{j + 1}{r + 1}", fields[r], ch,
                                   math.log2(fields[r]), True, (j, r)))
        for r in _OTHERS[j]:
            if v_act[(j, r)]:
                atoms.append(_Atom(f"V{j + 1}{r + 1}",
                                   blocks[j].shape[_v_axis(j, r)],
                                   (f"B{j + 1}{r + 1}", f"N{j + 1}{r + 1}"),
                                   h_v[(j, r)], True, (j, r)))
        if x_act[j]:
            atoms.append(_Atom(f"X{j + 1}", blocks[j].shape[4],
                               (f"K{j + 1}", f"L{j + 1}"), h_x[j], True, None))
        sum_srcs = [t for t in (i, k) if u_act[(t, j)]]
        if sum_srcs:
            copies = []
            for t in sum_srcs:
                suffix = "+ij" if t == i else "+kj"
                ch = (f"S{t + 1}{j + 1}",) if theorem == 2 else \
                     (f"S{t + 1}{j + 1}", f"T{t + 1}{j + 1}")
                copies.append((suffix, ch))
            atoms.append(_Atom(f"W{j + 1}", fields[j], (),
                               math.log2(fields[j]), False, None,
                               is_sum=True, copies=tuple(copies)))
        for t in (i, k):
            if v_act[(t, j)]:
                atoms.append(_Atom(f"V{t + 1}{j + 1}",
                                   blocks[t].shape[_v_axis(t, j)],
                                   (f"B{t + 1}{j + 1}", f"N{t + 1}{j + 1}"),
                                   h_v[(t, j)], False, (t, j), is_cross=True))

        if not atoms:
            continue
        ent = _RxEntropies(_rx_cqstate(channel, blocks, fields, j, atoms))

        for g in _subsets(atoms):
            if not g:
                continue
            has_own = any(a.own for a in g)
            only_sum = len(g) == 1 and g[0].is_sum
            if not has_own and not only_sum:
                continue
            if only_sum and drop_dont_care:
                continue
            h_cond = ent.wrong_given_rest([a.reg for a in g])
            rhs = sum(a.corr for a in g) - h_cond
            base_coeffs = {}
            for a in g:
                for nm in a.charges:
                    base_coeffs[nm] = 1.0
            a_lbl = _pair_label([a.pair for a in g
                                 if a.own and a.reg.startswith("U")])
            lbl = f"{prefix}.chnl.j={j + 1}.A={{{a_lbl}}}"
            if theorem == 3:
                c_lbl = _pair_label([a.pair for a in g
                                     if a.own and a.reg.startswith("V")])
                d_lbl = _pair_label([a.pair for a in g if a.is_cross])
                lbl += f".C={{{c_lbl}}}.D={{{d_lbl}}}"
            if any(a.reg.startswith("X") for a in g):
                lbl += "+X"
            sum_atom = next((a for a in g if a.is_sum), None)
            if sum_atom is None:
                rows.append((lbl, "channel", base_coeffs, "<", rhs))
            else:
                for suffix, charges in sum_atom.copies:
                    coeffs = dict(base_coeffs)
                    for nm in charges:
                        coeffs[nm] = coeffs.get(nm, 0.0) + 1.0
                    rows.append((lbl + suffix, "channel", coeffs, "<", rhs))

    # --- rate coupling ------------------------------------------------------
    for t in range(3):
        coeffs = {}
        for r in _OTHERS[t]:
            if u_act[(t, r)]:
                coeffs[f"T{t + 1}{r + 1}"] = 1.0
            if v_act[(t, r)]:
                coeffs[f"N{t + 1}{r + 1}"] = 1.0
        if x_act[t]:
            coeffs[f"L{t + 1}"] = 1.0
        rows.append((f"{prefix}.rate.j={t + 1}", "coupling", coeffs, "=",
                     rates[t]))

    return names, col, rows


def _solve_rows(names, col, rows):
    tol = active_tolerances()
    a_ub, b_ub = [], []

    def _vec(coeffs, sign=1.0):
        v = np.zeros(len(names))
        for nm, c in coeffs.items():
            v[col[nm]] = sign * c
        return v

    for _, kind, coeffs, sense, rhs in rows:
        if sense == "<":
            a_ub.append(_vec(coeffs))
            b_ub.append(rhs - tol.rate)
        elif sense == ">":
            a_ub.append(_vec(coeffs, -1.0))
            b_ub.append(-(rhs + tol.rate))
        else:  # equality via a pair of closed inequalities
            a_ub.append(_vec(coeffs))
            b_ub.append(rhs)
            a_ub.append(_vec(coeffs, -1.0))
            b_ub.append(-rhs)

    a = np.array(a_ub) if a_ub else np.zeros((0, len(names)))
    feasible, x = feasible_point(a, np.array(b_ub), tol.lp_residual)

    records = []
    for label, kind, coeffs, sense, rhs in rows:
        lhs = float(sum(c * x[col[nm]] for nm, c in coeffs.items()))
        if sense == "<":
            slack = rhs - lhs
        elif sense == ">":
            slack = lhs - rhs
        else:
            slack = -abs(lhs - rhs)
        records.append(InequalityRecord(label, lhs, float(rhs), float(slack),
                                        kind))
    return feasible, x, records


def _layered_feasible(channel, cfg, rates, theorem, drop_dont_care):
    rates = _rate_triple(rates)
    fields, blocks = _normalized_blocks(channel, cfg, with_v=theorem == 3)
    names, col, rows = _layered_rows(channel, fields, blocks, rates,
                                     theorem, drop_dont_care)
    feasible, x, records = _solve_rows(names, col, rows)
    witness = None
    if feasible:
        witness = RateAllocation(rates,
                                 tuple((nm, float(x[col[nm]])) for nm in names))
    return RegionReport(bool(feasible), tuple(records), witness)


def thm2_feasible(channel: ChannelSpec, cfg: Thm2Config, rates,
                  drop_dont_care: bool = False) -> RegionReport:
    """Coset-layered inner bound: is the rate triple achievable at cfg?

    Builds the covering/packing inequality system over the per-layer
    rate split and solves it as a linear feasibility program.  Layers
    whose pmf is a point mass (including size-1 alphabets) carry no
    content and are excluded together with their variables; a system
    that kept them would be contradictory for every input.  Error
    events that decode only the interference sum fix no message part;
    ``drop_dont_care`` removes those rows.
    """
    return _layered_feasible(channel, cfg, rates, 2, drop_dont_care)


def thm3_feasible(channel: ChannelSpec, cfg: Thm3Config, rates,
                  drop_dont_care: bool = False) -> RegionReport:
    """Layered inner bound with unstructured layers on top of the cosets.

    Each receiver's error events may also involve the *other* users'
    unstructured layers aimed at it (they are decoded, not message
    content); correctly decoded ones appear on the conditioning side of
    the packing entropies.  Events consisting solely of non-message
    content (other than the bare interference sum) are excluded.
    """
    return _layered_feasible(channel, cfg, rates, 3, drop_dont_care)


def source_divergence_pair(channel: ChannelSpec, cfg: Thm2Config, t: int):
    """Two routes to the full-set covering wall at user t.

    Returns ``(divergence, assembled)`` where the first entry is the
    relative entropy D(p_{U,U,X} || unif x unif x p_X) computed term by
    term and the second is the wall assembled from alphabet logs and
    joint entropies.  They agree up to rounding.
    """
    fields, blocks = _normalized_blocks(channel, cfg, with_v=False)
    tab = blocks[t]
    active = [r for r in _OTHERS[t] if _is_active(_marg(tab, (_u_axis(t, r),)))]
    axes = tuple(_u_axis(t, r) for r in active) + (4,)
    joint = _marg(tab, axes)
    p_x = _marg(tab, (4,))
    log_sum = sum(math.log2(fields[r]) for r in active)

    div = 0.0
    for key in np.argwhere(joint > 0.0):
        p = float(joint[tuple(key)])
        q = float(p_x[key[-1]])
        for r in active:
            q /= fields[r]
        div += p * math.log2(p / q)

    assembled = log_sum + shannon_entropy(p_x) - shannon_entropy(joint)
    return div, assembled


def thm2_config_from_thm1(channel: ChannelSpec, cfg: Thm1Config) -> Thm2Config:
    """Embed a single-layer config: users 2/3 aim one layer at receiver 1."""
    v = int(cfg.field_size)
    sizes = channel.input_sizes
    p1 = np.asarray(cfg.p_x1, dtype=float).reshape((1, 1, sizes[0]))
    factors = [p1]
    for t, (pu, f) in ((1, (cfg.p_u2, cfg.f2)), (2, (cfg.p_u3, cfg.f3))):
        tab = np.zeros((v, 1, sizes[t]))
        for u in range(v):
            tab[u, 0, int(f[u])] = float(pu[u])
        factors.append(tab)
    return Thm2Config(fields=(v, 2, 2), factors=tuple(factors))


def thm3_config_from_unstructured(channel: ChannelSpec,
                                  cfg: UnstructuredConfig) -> Thm3Config:
    """Embed a superposition config: cloud layers become unstructured
    layers aimed at receiver 1; all coset layers are absent."""
    sizes = channel.input_sizes
    p1 = np.asarray(cfg.p_x1, dtype=float).reshape((1, 1, 1, 1, sizes[0]))
    j2 = np.asarray(cfg.p_u2x2, dtype=float)
    j3 = np.asarray(cfg.p_u3x3, dtype=float)
    f2 = j2.reshape((j2.shape[0], 1, 1, 1, sizes[1]))
    f3 = j3.reshape((j3.shape[0], 1, 1, 1, sizes[2]))
    return Thm3Config(fields=(2, 2, 2), factors=(p1, f2, f3))


# ---------------------------------------------------------------------------
# grid scans


@dataclass(frozen=True)
class ScanResult:
    """Best supremum of feasible R1 found over the scanned configs.

    ``r1_max`` is the least upper bound at the winning config (rates
    strictly below it are feasible there); ``-inf`` when no scanned
    config supports the fixed (R2, R3) at all.
    """

    r1_max: float
    best: object
    evaluations: int
    grid_value: float

    def to_json_dict(self):
        return {"r1_max": self.r1_max, "evaluations": self.evaluations,
                "grid_value": self.grid_value}


def _lattice_pmfs(n_atoms, denominator):
    """All pmfs with masses i/denominator, in lexicographic order."""
    out = []
    for comp in itertools.combinations_with_replacement(range(n_atoms),
                                                        denominator):
        counts = [0] * n_atoms
        for c in comp:
            counts[c] += 1
        out.append(np.array(counts, dtype=float) / denominator)
    return out


def _hb_arr(t):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    out = np.zeros_like(t)
    inner = (t > 0.0) & (t < 1.0)
    ti = t[inner]
    out[inner] = -ti * np.log2(ti) - (1.0 - ti) * np.log2(1.0 - ti)
    return out


def _haf_arr(t, phi):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    f = (1.0 + np.sqrt(np.clip(1.0 - 4.0 * t * (1.0 - t)
                               * math.sin(phi) ** 2, 0.0, None))) / 2.0
    return _hb_arr(f)


def _conv_arr(p, q):
    return p + q - 2.0 * p * q


def _parity_gamma_form(channel: ChannelSpec):
    """Detect the plane-rotation interference family with flip channels.

    Returns (phi, (d2, d3)) when receiver 1 sees gamma(x1 xor x2 xor x3)
    and receivers 2/3 see their own input through a symmetric flip;
    None otherwise.
    """
    if channel.input_sizes != (2, 2, 2) or channel.output_dims != (2, 2, 2):
        return None
    atol = 1e-12
    g1 = channel.reduced(0, (1, 0, 0))
    c, s = math.sqrt(max(0.0, g1[0, 0].real)), math.sqrt(max(0.0, g1[1, 1].real))
    phi = math.atan2(s, c)
    if not 0.0 < phi < math.pi / 2:
        return None
    deltas = []
    for j in (1, 2):
        d = float(channel.reduced(j, (0, 0, 0))[0, 0].real)
        if not 0.0 < d < 0.5:
            return None
        deltas.append(d)
    try:
        g = (gamma_state(phi, 0), gamma_state(phi, 1))
        sig = [(sigma_state(deltas[i], 0), sigma_state(deltas[i], 1))
               for i in range(2)]
    except DomainError:
        return None
    for x in itertools.product((0, 1), repeat=3):
        par = (x[0] + x[1] + x[2]) % 2
        if not np.allclose(channel.reduced(0, x), g[par], atol=atol):
            return None
        for j in (1, 2):
            if not np.allclose(channel.reduced(j, x), sig[j - 1][x[j]],
                               atol=atol):
                return None
    return phi, tuple(deltas)


def _binary_user_grid(channel, j, n_sym, denominator):
    """Enumerate (pmf, map) pairs for user j; map is deterministic."""
    x_size = channel.input_sizes[j]
    kappa = channel.costs[j]
    pmfs = _lattice_pmfs(n_sym, denominator)
    maps = list(itertools.product(range(x_size), repeat=n_sym))
    cfgs = []
    for p in pmfs:
        for f in maps:
            q = float(sum(p[u] for u in range(n_sym) if f[u] == 1)) \
                if x_size == 2 else None
            cost = float(sum(p[u] * kappa[f[u]] for u in range(n_sym)))
            cfgs.append((p, f, q, cost))
    return cfgs


def _closed_bounds(form, evaluator, p1v, g2, g3):
    """Rate-bound values of the plane-rotation/flip family in closed form.

    ``form`` is ``(phi, (d2, d3))`` from :func:`_parity_gamma_form`,
    ``p1v`` the user-1 'on' probabilities and ``g2``/``g3`` user grid
    entries with deterministic maps.  Returns the rate keys of
    :func:`_unstructured_bounds` / :func:`_thm1_bounds` as arrays that
    broadcast to ``(len(p1v), len(g2), len(g3))``.
    """
    phi, (d2, d3) = form
    p1 = np.asarray(p1v, dtype=float)[:, None, None]
    q2 = np.array([c[2] for c in g2])[None, :, None]
    q3 = np.array([c[2] for c in g3])[None, None, :]
    b = {"own2": _hb_arr(_conv_arr(q2, d2)) - _hb_arr(np.full_like(q2, d2)),
         "own3": _hb_arr(_conv_arr(q3, d3)) - _hb_arr(np.full_like(q3, d3))}

    if evaluator == "unstructured":
        # deterministic maps make the private refinement terms vanish
        b.update(r1_rhs=_haf_arr(p1, phi),
                 pair2=_haf_arr(_conv_arr(p1, q2), phi),
                 pair3=_haf_arr(_conv_arr(p1, q3), phi),
                 total1=_haf_arr(_conv_arr(_conv_arr(p1, q2), q3), phi),
                 refine2=0.0, refine3=0.0)
        return b

    p2 = np.array([c[0] for c in g2])[:, None, :]     # (m2, 1, 2)
    f2 = np.array([c[1] for c in g2])[:, None, :]
    p3 = np.array([c[0] for c in g3])[None, :, :]     # (1, m3, 2)
    f3 = np.array([c[1] for c in g3])[None, :, :]
    pu0 = p2[..., 0] * p3[..., 0] + p2[..., 1] * p3[..., 1]
    pu1 = p2[..., 0] * p3[..., 1] + p2[..., 1] * p3[..., 0]
    n0 = (p2[..., 0] * p3[..., 0] * ((f2[..., 0] + f3[..., 0]) % 2)
          + p2[..., 1] * p3[..., 1] * ((f2[..., 1] + f3[..., 1]) % 2))
    n1 = (p2[..., 0] * p3[..., 1] * ((f2[..., 0] + f3[..., 1]) % 2)
          + p2[..., 1] * p3[..., 0] * ((f2[..., 1] + f3[..., 0]) % 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        w0 = np.where(pu0 > 0.0, n0 / np.where(pu0 > 0, pu0, 1.0), 0.0)
        w1 = np.where(pu1 > 0.0, n1 / np.where(pu1 > 0, pu1, 1.0), 0.0)
    w_tot = n0 + n1
    base = pu0 * _haf_arr(w0, phi) + pu1 * _haf_arr(w1, phi)
    hu = _hb_arr(pu1)
    hmin = np.minimum(_hb_arr(p2[..., 1]), _hb_arr(p3[..., 1]))
    b.update(r1_rhs=(pu0 * _haf_arr(_conv_arr(p1, w0), phi)
                     + pu1 * _haf_arr(_conv_arr(p1, w1), phi) - base),
             cross_rhs=(_haf_arr(w_tot, phi) - base - hu + hmin)[None],
             sum_rhs=_haf_arr(_conv_arr(p1, w_tot), phi) - base - hu + hmin)
    return b


def _grid_bounds(channel, evaluator, p1s, g2, g3):
    """Direct bound values over the config product, one array per key."""
    if evaluator == "unstructured":
        sizes = channel.input_sizes
        users = [[_map_table(c[0], c[1], sizes[j]) for c in grid]
                 for j, grid in ((1, g2), (2, g3))]
    else:
        users = [[(c[0], c[1]) for c in grid] for grid in (g2, g3)]
    return direct_bounds(channel, evaluator, p1s, *users)


def max_r1_scan(channel: ChannelSpec, r2: float, r3: float,
                evaluator: str = "unstructured", u_sizes=(2, 2),
                field_size: int = 2, denominator: int = 32,
                scan_cap: int = ENUMERATION_CAP, refine: bool = True
                ) -> ScanResult:
    """Grid-scan input configs and report the largest feasible R1.

    For each config the supremum of R1 compatible with the fixed
    (R2, R3) follows from the bound values through the evaluator's rate
    rows; the scan keeps the best config (first in enumeration order on
    ties) and then zooms the user-1 input probability around it.
    Channels in the plane-rotation/flip family take their bound values
    from vectorized closed forms; everything else from the batched
    engine of :mod:`cqic.direct`, which evaluates the grid in blocks of
    configs, bit for bit as the checkers evaluate one config (the two
    sources agree to 1e-12 on every bound value, checked in the tests).
    """
    tol = active_tolerances()
    r2, r3 = float(r2), float(r3)
    if min(r2, r3) < 0.0:
        raise DomainError("fixed rates must be nonnegative")
    sizes = channel.input_sizes
    if evaluator not in ("unstructured", "thm1"):
        raise Unsupported(f"unknown scan evaluator {evaluator!r}")
    if evaluator == "unstructured":
        _require_3to1(channel)

    budget = channel.budget
    taus = budget.as_tuple() if budget is not None else (math.inf,) * 3
    p1s = _lattice_pmfs(sizes[0], denominator)

    if evaluator == "unstructured":
        rows = _UNSTR_ROWS
        n2, n3 = int(u_sizes[0]), int(u_sizes[1])
    else:
        rows = _THM1_ROWS
        n2 = n3 = int(field_size)
        _check_modulus(n2)
    grid2 = _binary_user_grid(channel, 1, n2, denominator)
    grid3 = _binary_user_grid(channel, 2, n3, denominator)

    total = len(p1s) * len(grid2) * len(grid3)
    if total > scan_cap:
        raise BudgetExceeded(f"scan grid has {total} configs, cap is {scan_cap}")

    kappa1 = channel.costs[0]
    p1_ok = [p for p in p1s if float(p @ kappa1) <= taus[0] + tol.prob]
    g2_ok = [c for c in grid2 if c[3] <= taus[1] + tol.prob]
    g3_ok = [c for c in grid3 if c[3] <= taus[2] + tol.prob]

    form = _parity_gamma_form(channel)
    if evaluator == "thm1" and field_size != 2:
        form = None

    def sup_at(p1_list, g2_list, g3_list):
        if form is not None:
            b = _closed_bounds(form, evaluator, [p[1] for p in p1_list],
                               g2_list, g3_list)
        else:
            b = _grid_bounds(channel, evaluator, p1_list, g2_list, g3_list)
        return _r1_sup(rows, b, r2, r3, tol.rate)

    best_val, best_cfg = -math.inf, None
    evaluations = len(p1_ok) * len(g2_ok) * len(g3_ok)
    if evaluations:
        sup = sup_at(p1_ok, g2_ok, g3_ok)
        i1, a2, a3 = np.unravel_index(int(np.argmax(sup)), sup.shape)
        best_val = float(sup[i1, a2, a3])
    grid_value = best_val
    if best_val > -math.inf:
        c2, c3, best_p1 = g2_ok[a2], g3_ok[a3], p1_ok[i1]
        if refine and sizes[0] == 2:
            # zoom the user-1 'on' probability around the grid argmax:
            # eight levels of 17 points, the window shrinking eightfold
            center, width = float(best_p1[1]), 1.0 / denominator
            for _ in range(8):
                pts = np.linspace(max(0.0, center - width),
                                  min(1.0, center + width), 17)
                evaluations += len(pts)
                cands = [np.array([1.0 - p, p]) for p in map(float, pts)]
                cands = [p1 for p1 in cands
                         if float(p1 @ kappa1) <= taus[0] + tol.prob]
                if cands:
                    vals = sup_at(cands, [c2], [c3]).ravel()
                    k = int(np.argmax(vals))
                    if vals[k] > best_val:
                        best_val, best_p1 = float(vals[k]), cands[k]
                        center = float(best_p1[1])
                width /= 8.0
        best_cfg = _materialize(evaluator, channel, field_size,
                                best_p1, c2, c3)
    return ScanResult(float(best_val), best_cfg, evaluations,
                      float(grid_value))


def _map_table(p, f, x_size):
    """Joint (cloud, input) table of a user sending f[u] for cloud u."""
    tab = np.zeros((len(p), x_size))
    for u in range(len(p)):
        tab[u, f[u]] = p[u]
    return tab


def _materialize(evaluator, channel, field_size, p1, c2, c3):
    if evaluator == "unstructured":
        sizes = channel.input_sizes
        return UnstructuredConfig(np.asarray(p1, dtype=float),
                                  _map_table(c2[0], c2[1], sizes[1]),
                                  _map_table(c3[0], c3[1], sizes[2]))
    return Thm1Config(field_size, tuple(np.asarray(p1, dtype=float)),
                      tuple(c2[0]), tuple(c3[0]), tuple(c2[1]), tuple(c3[1]))


def boundary_slice(feasible_fn, r2_values, r3: float = 0.0,
                   r1_hi: float = 4.0, tol: float = 1e-6):
    """Trace the R1 boundary along rays of fixed (R2, R3) by bisection.

    ``feasible_fn`` takes a rate triple and must be monotone in R1
    (feasible below the boundary, infeasible above).  Returns a list of
    (r2, r1_boundary) rows; ``-inf`` marks rays that are infeasible
    even at R1 = 0.
    """
    rows = []
    for r2 in r2_values:
        r2 = float(r2)
        if not feasible_fn((0.0, r2, float(r3))):
            rows.append((r2, -math.inf))
            continue
        lo, hi = 0.0, float(r1_hi)
        if feasible_fn((hi, r2, float(r3))):
            lo = hi
        else:
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if feasible_fn((mid, r2, float(r3))):
                    lo = mid
                else:
                    hi = mid
        rows.append((r2, lo))
    return rows
