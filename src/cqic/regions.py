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
from .errors import (BudgetExceeded, ConfigMismatch, DomainError, Not3to1,
                     Unsupported)
from .gfcoset import _check_modulus
from .linalg import operator_norm
from .lp import feasible_point
from .states import (CqState, EntropyQuery, Pmf, conditional_mutual_info,
                     entropy, shannon_entropy)

_OTHERS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
_Y = EntropyQuery((), True)


def _eq(*names):
    return EntropyQuery(names)


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

    p1, p2, p3 = px1.probs, pu2.probs, pu3.probs
    probs1 = np.zeros((v, sizes[0]))
    probs2 = np.zeros(v)
    probs3 = np.zeros(v)
    acc1, acc2, acc3 = {}, {}, {}

    def _bump(acc, key, p, mat):
        cur = acc.get(key)
        acc[key] = p * mat if cur is None else cur + p * mat

    for u2 in range(v):
        for u3 in range(v):
            pu = p2[u2] * p3[u3]
            if pu == 0.0:
                continue
            u = (u2 + u3) % v
            for x1 in range(sizes[0]):
                p = pu * p1[x1]
                if p == 0.0:
                    continue
                x = (x1, f2[u2], f3[u3])
                probs1[u, x1] += p
                probs2[u2] += p
                probs3[u3] += p
                _bump(acc1, (u, x1), p, channel.reduced(0, x))
                _bump(acc2, (u2,), p, channel.reduced(1, x))
                _bump(acc3, (u3,), p, channel.reduced(2, x))

    st1 = CqState((("U", v), ("X1", sizes[0])), probs1.ravel(),
                  {k: m / probs1[k] for k, m in acc1.items()})
    st2 = CqState((("U2", v),), probs2,
                  {k: m / probs2[k] for k, m in acc2.items()})
    st3 = CqState((("U3", v),), probs3,
                  {k: m / probs3[k] for k, m in acc3.items()})

    p_u = np.zeros(v)
    for u2 in range(v):
        for u3 in range(v):
            p_u[(u2 + u3) % v] += p2[u2] * p3[u3]
    h_u = shannon_entropy(p_u)
    h_min = min(pu2.entropy(), pu3.entropy())

    k1, k2, k3 = channel.costs
    return {
        "r1_rhs": conditional_mutual_info(st1, _eq("X1"), _Y, _eq("U")),
        "own2": conditional_mutual_info(st2, _eq("U2"), _Y),
        "own3": conditional_mutual_info(st3, _eq("U3"), _Y),
        "cross_rhs": conditional_mutual_info(st1, _eq("U"), _Y, _eq("X1"))
                     - h_u + h_min,
        "sum_rhs": conditional_mutual_info(st1, _eq("U", "X1"), _Y)
                   - h_u + h_min,
        "e1": float(p1 @ k1),
        "e2": float(sum(p2[u] * k2[f2[u]] for u in range(v))),
        "e3": float(sum(p3[u] * k3[f3[u]] for u in range(v))),
    }


def _finish_direct_report(rate_rows, cost_rows, rates):
    tol = active_tolerances()
    records = []
    ok = True
    for label, lhs, rhs in rate_rows:
        slack = rhs - lhs
        ok = ok and slack >= tol.rate
        records.append(InequalityRecord(label, float(lhs), float(rhs),
                                        float(slack), "rate"))
    for label, spent, cap in cost_rows:
        slack = cap - spent
        ok = ok and slack >= -tol.prob
        records.append(InequalityRecord(label, float(spent), float(cap),
                                        float(slack), "cost"))
    witness = RateAllocation(tuple(rates), ()) if ok else None
    return RegionReport(bool(ok), tuple(records), witness)


def thm1_check(channel: ChannelSpec, cfg: Thm1Config, rates,
               budget: CostVector | None = None) -> RegionReport:
    """Evaluate the single-layer sum-decoding inner bound at one config.

    Seven rate inequalities (strict, closed with the rate tolerance)
    plus one closed cost constraint per user when a budget is present.
    """
    r1, r2, r3 = _rate_triple(rates)
    b = _thm1_bounds(channel, cfg)
    rate_rows = [
        ("thm1.r1", r1, b["r1_rhs"]),
        ("thm1.own.j=2", r2, b["own2"]),
        ("thm1.own.j=3", r3, b["own3"]),
        ("thm1.cross.j=2", r2, b["cross_rhs"]),
        ("thm1.cross.j=3", r3, b["cross_rhs"]),
        ("thm1.sum.j=2", r1 + r2, b["sum_rhs"]),
        ("thm1.sum.j=3", r1 + r3, b["sum_rhs"]),
    ]
    budget = channel.budget if budget is None else budget
    cost_rows = []
    if budget is not None:
        taus = budget.as_tuple()
        for j, spent in enumerate((b["e1"], b["e2"], b["e3"])):
            cost_rows.append((f"thm1.cost.j={j + 1}", spent, taus[j]))
    return _finish_direct_report(rate_rows, cost_rows, (r1, r2, r3))


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
    j2, j3 = joints
    m2, m3 = j2.shape[0], j3.shape[0]
    pu2, pu3 = j2.sum(axis=1), j3.sum(axis=1)
    p1 = px1.probs

    # receiver 1: registers (U2, U3, X1), inputs of users 2/3 averaged out
    probs1 = np.zeros((m2, m3, sizes[0]))
    acc1 = {}
    # receivers 2/3: registers (U_j, X_j)
    acc2, acc3 = {}, {}
    for u2, x2 in np.ndindex(m2, sizes[1]):
        for u3, x3 in np.ndindex(m3, sizes[2]):
            pw = j2[u2, x2] * j3[u3, x3]
            if pw == 0.0:
                continue
            for x1 in range(sizes[0]):
                p = pw * p1[x1]
                if p == 0.0:
                    continue
                x = (x1, x2, x3)
                probs1[u2, u3, x1] += p
                key1 = (u2, u3, x1)
                m = acc1.get(key1)
                acc1[key1] = (p * channel.reduced(0, x) if m is None
                              else m + p * channel.reduced(0, x))
                for acc, key, rj in ((acc2, (u2, x2), 1), (acc3, (u3, x3), 2)):
                    cur = acc.get(key)
                    add = p * channel.reduced(rj, x)
                    acc[key] = add if cur is None else cur + add

    st1 = CqState((("U2", m2), ("U3", m3), ("X1", sizes[0])), probs1.ravel(),
                  {k: m / probs1[k] for k, m in acc1.items()})
    st2 = CqState((("U2", m2), ("X2", sizes[1])), j2.ravel(),
                  {k: m / j2[k] for k, m in acc2.items()})
    st3 = CqState((("U3", m3), ("X3", sizes[2])), j3.ravel(),
                  {k: m / j3[k] for k, m in acc3.items()})

    k1, k2, k3 = channel.costs
    return {
        "r1_rhs": conditional_mutual_info(st1, _eq("X1"), _Y, _eq("U2", "U3")),
        "pair2": conditional_mutual_info(st1, _eq("U2", "X1"), _Y, _eq("U3")),
        "pair3": conditional_mutual_info(st1, _eq("U3", "X1"), _Y, _eq("U2")),
        "total1": conditional_mutual_info(st1, _eq("U2", "U3", "X1"), _Y),
        "own2": conditional_mutual_info(st2, _eq("U2", "X2"), _Y),
        "own3": conditional_mutual_info(st3, _eq("U3", "X3"), _Y),
        "refine2": conditional_mutual_info(st2, _eq("X2"), _Y, _eq("U2")),
        "refine3": conditional_mutual_info(st3, _eq("X3"), _Y, _eq("U3")),
        "e1": float(p1 @ k1),
        "e2": float(j2.sum(axis=0) @ k2),
        "e3": float(j3.sum(axis=0) @ k3),
    }


def unstructured_3to1_check(channel: ChannelSpec, cfg: UnstructuredConfig,
                            rates, budget: CostVector | None = None
                            ) -> RegionReport:
    """Superposition-coding inner bound for 3-to-1 interference channels.

    Raises :class:`Not3to1` when receiver 2 or 3 sees any input other
    than its own.
    """
    r1, r2, r3 = _rate_triple(rates)
    _require_3to1(channel)
    b = _unstructured_bounds(channel, cfg)
    rate_rows = [
        ("unstr.r1", r1, b["r1_rhs"]),
        ("unstr.own.j=2", r2, b["own2"]),
        ("unstr.own.j=3", r3, b["own3"]),
        ("unstr.pair.j=2", r1 + r2, b["pair2"] + b["refine2"]),
        ("unstr.pair.j=3", r1 + r3, b["pair3"] + b["refine3"]),
        ("unstr.sum", r1 + r2 + r3,
         b["total1"] + b["refine2"] + b["refine3"]),
    ]
    budget = channel.budget if budget is None else budget
    cost_rows = []
    if budget is not None:
        taus = budget.as_tuple()
        for j, spent in enumerate((b["e1"], b["e2"], b["e3"])):
            cost_rows.append((f"unstr.cost.j={j + 1}", spent, taus[j]))
    return _finish_direct_report(rate_rows, cost_rows, (r1, r2, r3))


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
    regs = tuple((a.reg, a.size) for a in atoms)
    shape = tuple(a.size for a in atoms)
    i, k = _OTHERS[j]

    extractors = []
    for a in atoms:
        if a.is_sum:
            vj = fields[j]
            ai, ak = _u_axis(i, j), _u_axis(k, j)
            extractors.append(lambda idx, ai=ai, ak=ak, vj=vj, i=i, k=k:
                              (idx[i][ai] + idx[k][ak]) % vj)
        elif a.pair is not None and a.reg.startswith("U"):
            t, r = a.pair
            ax = _u_axis(t, r)
            extractors.append(lambda idx, t=t, ax=ax: idx[t][ax])
        elif a.pair is not None:
            t, r = a.pair
            ax = _v_axis(t, r)
            extractors.append(lambda idx, t=t, ax=ax: idx[t][ax])
        else:  # X_j
            extractors.append(lambda idx, j=j: idx[j][4])

    supports = []
    for t in range(3):
        pts = [(tuple(int(v) for v in key), float(blocks[t][tuple(key)]))
               for key in np.argwhere(blocks[t] > 0.0)]
        supports.append(pts)

    probs = np.zeros(shape if shape else (1,))
    acc = {}
    for i0, p0 in supports[0]:
        for i1, p1 in supports[1]:
            for i2, p2 in supports[2]:
                p = p0 * p1 * p2
                idx = (i0, i1, i2)
                x = (i0[4], i1[4], i2[4])
                key = tuple(ex(idx) for ex in extractors)
                probs[key if shape else 0] += p
                mat = channel.reduced(j, x)
                cur = acc.get(key)
                acc[key] = p * mat if cur is None else cur + p * mat

    if not shape:
        # no decodable content at this receiver: single dummy register
        return CqState((("Z", 1),), np.ones(1),
                       {(0,): next(iter(acc.values())) / probs[0]})
    smap = {key: m / probs[key] for key, m in acc.items()}
    return CqState(regs, probs.ravel(), smap)


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


def _sup_from_bounds_unstructured(b, r2, r3, tol_rate):
    if (r2 > b["own2"] - tol_rate) or (r3 > b["own3"] - tol_rate):
        return -math.inf
    sup = min(b["r1_rhs"],
              b["pair2"] + b["refine2"] - r2,
              b["pair3"] + b["refine3"] - r3,
              b["total1"] + b["refine2"] + b["refine3"] - r2 - r3)
    return sup if sup > 0.0 else -math.inf


def _sup_from_bounds_thm1(b, r2, r3, tol_rate):
    if (r2 > b["own2"] - tol_rate) or (r3 > b["own3"] - tol_rate):
        return -math.inf
    if (r2 > b["cross_rhs"] - tol_rate) or (r3 > b["cross_rhs"] - tol_rate):
        return -math.inf
    sup = min(b["r1_rhs"], b["sum_rhs"] - max(r2, r3))
    return sup if sup > 0.0 else -math.inf


def max_r1_scan(channel: ChannelSpec, r2: float, r3: float,
                evaluator: str = "unstructured", u_sizes=(2, 2),
                field_size: int = 2, denominator: int = 32,
                scan_cap: int = ENUMERATION_CAP, refine: bool = True
                ) -> ScanResult:
    """Grid-scan input configs and report the largest feasible R1.

    For each config the supremum of R1 compatible with the fixed
    (R2, R3) follows in closed form from the bound values; the scan
    keeps the best config (first in enumeration order on ties) and then
    zooms the user-1 input probability around it.  Channels in the
    plane-rotation/flip family evaluate through vectorized closed
    forms; everything else walks the generic entropy engine (identical
    values, sampled in the tests).
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
        n2, n3 = int(u_sizes[0]), int(u_sizes[1])
        grid2 = _binary_user_grid(channel, 1, n2, denominator)
        grid3 = _binary_user_grid(channel, 2, n3, denominator)
    else:
        v = int(field_size)
        _check_modulus(v)
        grid2 = _binary_user_grid(channel, 1, v, denominator)
        grid3 = _binary_user_grid(channel, 2, v, denominator)

    total = len(p1s) * len(grid2) * len(grid3)
    if total > scan_cap:
        raise BudgetExceeded(f"scan grid has {total} configs, cap is {scan_cap}")

    kappa1 = channel.costs[0]
    p1_ok = [p for p in p1s if float(p @ kappa1) <= taus[0] + tol.prob]
    g2_ok = [c for c in grid2 if c[3] <= taus[1] + tol.prob]
    g3_ok = [c for c in grid3 if c[3] <= taus[2] + tol.prob]

    form = _parity_gamma_form(channel)
    fast = form is not None and sizes == (2, 2, 2) and \
        (evaluator == "unstructured" or field_size == 2)

    best_val, best_idx = -math.inf, None
    if fast and p1_ok and g2_ok and g3_ok:
        best_val, best_idx = _fast_scan(form, evaluator, p1_ok, g2_ok, g3_ok,
                                        r2, r3, tol.rate)
    elif p1_ok and g2_ok and g3_ok:
        for i1, p1 in enumerate(p1_ok):
            for a2, c2 in enumerate(g2_ok):
                for a3, c3 in enumerate(g3_ok):
                    cfg = _materialize(evaluator, channel, field_size,
                                       p1, c2, c3)
                    b = (_unstructured_bounds(channel, cfg)
                         if evaluator == "unstructured"
                         else _thm1_bounds(channel, cfg))
                    sup = (_sup_from_bounds_unstructured(b, r2, r3, tol.rate)
                           if evaluator == "unstructured"
                           else _sup_from_bounds_thm1(b, r2, r3, tol.rate))
                    if sup > best_val:
                        best_val, best_idx = sup, (i1, a2, a3)

    grid_value = best_val
    evaluations = len(p1_ok) * len(g2_ok) * len(g3_ok)
    best_cfg = None
    if best_idx is not None and best_val > -math.inf:
        i1, a2, a3 = best_idx
        best_cfg = _materialize(evaluator, channel, field_size,
                                p1_ok[i1], g2_ok[a2], g3_ok[a3])
        if refine and sizes[0] == 2:
            (best_val, best_cfg), extra = _refine_p1(
                channel, evaluator, field_size, best_cfg,
                g2_ok[a2], g3_ok[a3], r2, r3, best_val,
                float(p1_ok[i1][1]), 1.0 / denominator, taus[0],
                form if fast else None)
            evaluations += extra
    return ScanResult(float(best_val), best_cfg, evaluations,
                      float(grid_value))


def _materialize(evaluator, channel, field_size, p1, c2, c3):
    sizes = channel.input_sizes
    if evaluator == "unstructured":
        tabs = []
        for j, (p, f, _, _) in ((1, c2), (2, c3)):
            tab = np.zeros((len(p), sizes[j]))
            for u in range(len(p)):
                tab[u, f[u]] = p[u]
            tabs.append(tab)
        return UnstructuredConfig(np.asarray(p1, dtype=float), tabs[0], tabs[1])
    return Thm1Config(field_size, tuple(np.asarray(p1, dtype=float)),
                      tuple(c2[0]), tuple(c3[0]), tuple(c2[1]), tuple(c3[1]))


def _fast_scan(form, evaluator, p1_ok, g2_ok, g3_ok, r2, r3, tol_rate):
    phi, (d2, d3) = form
    p1v = np.array([p[1] for p in p1_ok])
    q2 = np.array([c[2] for c in g2_ok])
    q3 = np.array([c[2] for c in g3_ok])
    own2 = _hb_arr(_conv_arr(q2, d2)) - _hb_arr(np.full_like(q2, d2))
    own3 = _hb_arr(_conv_arr(q3, d3)) - _hb_arr(np.full_like(q3, d3))
    m2 = r2 <= own2 - tol_rate
    m3 = r3 <= own3 - tol_rate

    if evaluator == "unstructured":
        # deterministic maps make the private refinement terms vanish
        b1 = _haf_arr(p1v, phi)[:, None, None]
        pair2 = _haf_arr(_conv_arr(p1v[:, None], q2[None, :]), phi)[:, :, None]
        pair3 = _haf_arr(_conv_arr(p1v[:, None], q3[None, :]), phi)[:, None, :]
        tot = _haf_arr(_conv_arr(_conv_arr(p1v[:, None, None],
                                           q2[None, :, None]),
                                 q3[None, None, :]), phi)
        sup = np.minimum(np.minimum(b1, pair2 - r2),
                         np.minimum(pair3 - r3, tot - r2 - r3))
        sup[:, ~m2, :] = -np.inf
        sup[:, :, ~m3] = -np.inf
        sup[sup <= 0.0] = -np.inf
    else:
        p2 = np.array([c[0] for c in g2_ok])          # (m2, 2)
        f2 = np.array([c[1] for c in g2_ok])          # (m2, 2)
        p3 = np.array([c[0] for c in g3_ok])
        f3 = np.array([c[1] for c in g3_ok])
        pu0 = (p2[:, 0][:, None] * p3[None, :, 0]
               + p2[:, 1][:, None] * p3[None, :, 1])
        pu1 = (p2[:, 0][:, None] * p3[None, :, 1]
               + p2[:, 1][:, None] * p3[None, :, 0])
        xor = lambda a, b: (a + b) % 2
        n0 = (p2[:, 0][:, None] * p3[None, :, 0]
              * xor(f2[:, 0][:, None], f3[None, :, 0])
              + p2[:, 1][:, None] * p3[None, :, 1]
              * xor(f2[:, 1][:, None], f3[None, :, 1]))
        n1 = (p2[:, 0][:, None] * p3[None, :, 1]
              * xor(f2[:, 0][:, None], f3[None, :, 1])
              + p2[:, 1][:, None] * p3[None, :, 0]
              * xor(f2[:, 1][:, None], f3[None, :, 0]))
        with np.errstate(invalid="ignore", divide="ignore"):
            w0 = np.where(pu0 > 0.0, n0 / np.where(pu0 > 0, pu0, 1.0), 0.0)
            w1 = np.where(pu1 > 0.0, n1 / np.where(pu1 > 0, pu1, 1.0), 0.0)
        w_tot = n0 + n1
        base = pu0 * _haf_arr(w0, phi) + pu1 * _haf_arr(w1, phi)
        hu = _hb_arr(pu1)
        h2 = _hb_arr(p2[:, 1])[:, None]
        h3 = _hb_arr(p3[:, 1])[None, :]
        hmin = np.minimum(h2, h3)
        cross = _haf_arr(w_tot, phi) - base - hu + hmin
        p1b = p1v[:, None, None]
        i1 = (pu0[None] * (_haf_arr(_conv_arr(p1b, w0[None]), phi))
              + pu1[None] * (_haf_arr(_conv_arr(p1b, w1[None]), phi))
              - base[None])
        sum_rhs = (_haf_arr(_conv_arr(p1b, w_tot[None]), phi)
                   - base[None] - hu[None] + hmin[None])
        sup = np.minimum(i1, sum_rhs - max(r2, r3))
        bad = (r2 > cross - tol_rate) | (r3 > cross - tol_rate)
        sup[:, bad] = -np.inf
        sup[:, ~m2, :] = -np.inf
        sup[:, :, ~m3] = -np.inf
        sup[sup <= 0.0] = -np.inf

    flat = int(np.argmax(sup))
    idx = np.unravel_index(flat, sup.shape)
    return float(sup[idx]), tuple(int(i) for i in idx)


def _refine_p1(channel, evaluator, field_size, cfg, c2, c3, r2, r3,
               start_val, center, step, tau1, form):
    """Zoom the user-1 'on' probability around the grid argmax."""
    tol = active_tolerances()
    kappa1 = channel.costs[0]

    def value(p_on):
        if not 0.0 <= p_on <= 1.0:
            return -math.inf, None
        p1 = np.array([1.0 - p_on, p_on])
        if float(p1 @ kappa1) > tau1 + tol.prob:
            return -math.inf, None
        cand = _replace_p1(evaluator, cfg, p1, field_size)
        if form is not None:
            phi, (d2, d3) = form
            if evaluator == "unstructured":
                b = _fast_point_unstructured(phi, d2, d3, p_on, c2, c3)
                return _sup_from_bounds_unstructured(b, r2, r3, tol.rate), cand
            b = _fast_point_thm1(phi, d2, d3, p_on, c2, c3)
            return _sup_from_bounds_thm1(b, r2, r3, tol.rate), cand
        if evaluator == "unstructured":
            b = _unstructured_bounds(channel, cand)
            return _sup_from_bounds_unstructured(b, r2, r3, tol.rate), cand
        b = _thm1_bounds(channel, cand)
        return _sup_from_bounds_thm1(b, r2, r3, tol.rate), cand

    best_val, best_cfg = start_val, cfg
    extra = 0
    width = step
    for _ in range(8):
        lo = max(0.0, center - width)
        hi = min(1.0, center + width)
        pts = np.linspace(lo, hi, 17)
        vals = []
        for p in pts:
            val, cand = value(float(p))
            extra += 1
            vals.append(val)
            if val > best_val:
                best_val, best_cfg, center = val, cand, float(p)
        width /= 8.0
    return (best_val, best_cfg), extra


def _replace_p1(evaluator, cfg, p1, field_size):
    if evaluator == "unstructured":
        return UnstructuredConfig(p1, cfg.p_u2x2, cfg.p_u3x3)
    return Thm1Config(field_size, tuple(float(v) for v in p1),
                      cfg.p_u2, cfg.p_u3, cfg.f2, cfg.f3)


def _fast_point_unstructured(phi, d2, d3, p_on, c2, c3):
    q2, q3 = c2[2], c3[2]
    hb = lambda t: float(_hb_arr(np.array([t]))[0])
    haf = lambda t: float(_haf_arr(np.array([t]), phi)[0])
    cv = lambda a, b: a + b - 2 * a * b
    return {
        "r1_rhs": haf(p_on),
        "pair2": haf(cv(p_on, q2)), "pair3": haf(cv(p_on, q3)),
        "total1": haf(cv(cv(p_on, q2), q3)),
        "own2": hb(cv(q2, d2)) - hb(d2), "own3": hb(cv(q3, d3)) - hb(d3),
        "refine2": 0.0, "refine3": 0.0,
    }


def _fast_point_thm1(phi, d2, d3, p_on, c2, c3):
    p2, f2, q2, _ = c2
    p3, f3, q3, _ = c3
    hb = lambda t: float(_hb_arr(np.array([t]))[0])
    haf = lambda t: float(_haf_arr(np.array([t]), phi)[0])
    cv = lambda a, b: a + b - 2 * a * b
    pu = [0.0, 0.0]
    num = [0.0, 0.0]
    for u2 in (0, 1):
        for u3 in (0, 1):
            w = float(p2[u2] * p3[u3])
            u = (u2 + u3) % 2
            pu[u] += w
            if (f2[u2] + f3[u3]) % 2 == 1:
                num[u] += w
    w0 = num[0] / pu[0] if pu[0] > 0 else 0.0
    w1 = num[1] / pu[1] if pu[1] > 0 else 0.0
    w_tot = num[0] + num[1]
    base = pu[0] * haf(w0) + pu[1] * haf(w1)
    hu = hb(pu[1])
    hmin = min(hb(float(p2[1])), hb(float(p3[1])))
    return {
        "r1_rhs": (pu[0] * haf(cv(p_on, w0)) + pu[1] * haf(cv(p_on, w1))
                   - base),
        "own2": hb(cv(q2, d2)) - hb(d2),
        "own3": hb(cv(q3, d3)) - hb(d3),
        "cross_rhs": haf(w_tot) - base - hu + hmin,
        "sum_rhs": haf(cv(p_on, w_tot)) - base - hu + hmin,
    }


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
