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

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec
from .config import ENUMERATION_CAP, _integer, active_tolerances
from .direct import (_binary_user_grid, _grid_rows, _grid_size, _lattice_pmfs,
                     _map_tables, direct_bounds, grid_source)
from .errors import (BudgetExceeded, ConfigMismatch, DomainError, Not3to1,
                     Unsupported)
from .gfcoset import _check_modulus
from .layered import _cached_system
from .linalg import singular_values
from .lp import feasible_point
from .states import Pmf


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
    if not all(math.isfinite(r) and r >= 0.0 for r in (r1, r2, r3)):
        raise DomainError(f"rates must be finite and >= 0, got {rates!r}")
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


def _direct_report(channel: ChannelSpec, rows, b, rates) -> RegionReport:
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
    if channel.budget is not None:
        prefix = rows[0][0].split(".")[0]
        for j, cap in enumerate(channel.budget.as_tuple()):
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
    the ``tol`` margin, as in the checkers (:func:`_rows_hold`).
    """
    sup = math.inf
    for _, (c1, c2, c3), keys in rows:
        if c1:
            rhs = _add([b[k] for k in keys])
            for c, r in ((c2, r2), (c3, r3)):
                if c:
                    rhs = rhs - c * r
            sup = np.minimum(sup, rhs)
    return np.where(_rows_hold(rows, b, r2, r3, tol) & (sup > 0.0), sup,
                    -np.inf)


def _rows_hold(rows, b, r2, r3, tol):
    """Whether the rows without R1 hold at fixed (R2, R3) with the
    ``tol`` margin; they read only the keys of ``b`` that no R1 enters."""
    ok = True
    for _, (c1, c2, c3), keys in rows:
        if not c1:
            lhs = _add([c * r for c, r in ((c2, r2), (c3, r3)) if c])
            ok = ok & (lhs <= _add([b[k] for k in keys]) - tol)
    return ok


def _grid_sup(rows, source, p1s, r2, r3, tol):
    """R1 suprema over ``p1s`` x the configs of a scan's grid source.

    The rows without R1 are tested once over the stage grid where the
    source keeps the p1-free keys apart (``free``), and the p1 terms
    evaluated only at the cells where they hold; every other cell reads
    ``-inf``, as :func:`_r1_sup` gives there.  Without ``free`` every
    cell is evaluated.
    """
    ok = (True if source.free is None
          else _rows_hold(rows, source.free, r2, r3, tol))
    flat = np.flatnonzero(np.broadcast_to(ok, source.shape))
    sup = np.full((len(p1s), math.prod(source.shape)), -np.inf)
    sup[:, flat] = _r1_sup(rows, source.at(flat)(p1s), r2, r3, tol)
    return source.spread(sup.reshape((len(p1s),) + source.shape))


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
    v = _check_modulus(_integer(cfg.field_size, "field_size"))
    sizes = channel.input_sizes
    px1, pu2, pu3 = Pmf(cfg.p_x1), Pmf(cfg.p_u2), Pmf(cfg.p_u3)
    if px1.size != sizes[0]:
        raise ConfigMismatch(f"p_x1 has {px1.size} atoms, user 1 input has {sizes[0]}")
    if pu2.size != v or pu3.size != v:
        raise ConfigMismatch("layer pmfs must live on the configured field")
    f2 = tuple(_integer(x, "symbol map value") for x in cfg.f2)
    f3 = tuple(_integer(x, "symbol map value") for x in cfg.f3)
    if len(f2) != v or len(f3) != v:
        raise ConfigMismatch("symbol maps must be defined on the whole field")
    if any(not 0 <= x < sizes[1] for x in f2) or any(not 0 <= x < sizes[2] for x in f3):
        raise ConfigMismatch("symbol map value outside the channel input alphabet")

    b = direct_bounds(channel, "thm1", [px1.probs], [(pu2.probs, f2)],
                       [(pu3.probs, f3)])
    return {name: float(v[0, 0, 0]) for name, v in b.items()}


def thm1_check(channel: ChannelSpec, cfg: Thm1Config, rates) -> RegionReport:
    """Evaluate the single-layer sum-decoding inner bound at one config.

    Seven rate inequalities (strict, closed with the rate tolerance)
    plus one closed cost constraint per user of ``channel.budget``.
    """
    rates = _rate_triple(rates)
    return _direct_report(channel, _THM1_ROWS, _thm1_bounds(channel, cfg),
                          rates)


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
    """Receivers 2 and 3 must see only their own input (within ``commute``)."""
    tol = active_tolerances().commute
    for j in (1, 2):
        t = np.moveaxis(channel.reduced_table(j), j, 0)
        t = t.reshape(t.shape[:1] + (-1,) + t.shape[-2:])
        varies = (singular_values(t[:, :1] - t[:, 1:])[..., 0] > tol).any(1)
        if varies.any():
            raise Not3to1(
                f"receiver {j + 1} output varies with other users' "
                f"inputs at x_{j + 1}={int(np.argmax(varies))}")


def _check_unstructured_shapes(channel: ChannelSpec, cfg: UnstructuredConfig):
    """Raise ConfigMismatch unless the tables fit the channel's inputs."""
    sizes = channel.input_sizes
    if cfg.p_x1.size != sizes[0]:
        raise ConfigMismatch(
            f"p_x1 has {cfg.p_x1.size} atoms, user 1 input has {sizes[0]}")
    for j, t in ((1, cfg.p_u2x2), (2, cfg.p_u3x3)):
        if t.ndim != 2 or t.shape[1] != sizes[j]:
            raise ConfigMismatch(
                f"p_u{j + 1}x{j + 1} must be a (m, {sizes[j]}) table, got {t.shape}")


def _unstructured_bounds(channel: ChannelSpec, cfg: UnstructuredConfig):
    _check_unstructured_shapes(channel, cfg)
    px1 = Pmf(cfg.p_x1)
    # the checked, clipped tables, as Thm 1 and the Thm 3 embedding use
    joints = [Pmf(t).probs.reshape(t.shape)
              for t in (cfg.p_u2x2, cfg.p_u3x3)]
    b = direct_bounds(channel, "unstructured", [px1.probs], joints[:1],
                       joints[1:])
    return {name: float(v[0, 0, 0]) for name, v in b.items()}


def unstructured_3to1_check(channel: ChannelSpec, cfg: UnstructuredConfig,
                            rates) -> RegionReport:
    """Superposition-coding inner bound for 3-to-1 interference channels.

    Raises :class:`Not3to1` when receiver 2 or 3 sees any input other
    than its own.
    """
    rates = _rate_triple(rates)
    channel.verdict(_require_3to1)
    return _direct_report(channel, _UNSTR_ROWS,
                          _unstructured_bounds(channel, cfg), rates)


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


def _layered_feasible(channel, cfg, rates, theorem, drop_dont_care):
    rates = _rate_triple(rates)
    system = _cached_system(channel, cfg, theorem, drop_dont_care)
    b = system.b.copy()
    b[-6:] = [v for r in rates for v in (r, -r)]
    feasible, x = feasible_point(system.a, b)

    col = system.col
    rows = system.rows[:-3] + tuple(row[:4] + (r,) for row, r
                                    in zip(system.rows[-3:], rates))
    # each row's lhs as Python's sum of its terms: 0 first, then left to
    # right; a padded term is -0.0, which adds exactly nothing
    terms = system.coef * np.append(x, -0.0)[system.idx]
    lhs_all = np.add.accumulate(np.hstack([np.zeros((len(rows), 1)), terms]),
                                axis=1)[:, -1]
    records = []
    for (label, kind, _, sense, rhs), lhs in zip(rows, lhs_all.tolist()):
        if sense == "<":
            slack = rhs - lhs
        elif sense == ">":
            slack = lhs - rhs
        else:
            slack = -abs(lhs - rhs)
        records.append(InequalityRecord(label, lhs, float(rhs), float(slack),
                                        kind))
    witness = None
    if feasible:
        witness = RateAllocation(rates, tuple((nm, float(x[col[nm]]))
                                              for nm in system.names))
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

    Repeated calls on one config reuse its built system and re-solve
    only the LP: rates enter just the coupling rows.  The cache is keyed
    on content, so a factor changed in place is rebuilt.  A build fills
    only the numbers into a template cached per shape and active layers.

    No cost budget is applied: ``channel.budget`` is not read, so a
    config whose input law breaks the budget can be reported feasible.
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
    Repeated calls on one config reuse its built system, as in
    :func:`thm2_feasible`.  As there, no cost budget is applied.
    """
    return _layered_feasible(channel, cfg, rates, 3, drop_dont_care)


def thm2_config_from_thm1(channel: ChannelSpec, cfg: Thm1Config) -> Thm2Config:
    """Embed a single-layer config: users 2/3 aim one layer at receiver 1."""
    v = _integer(cfg.field_size, "field_size")
    sizes = channel.input_sizes
    factors = [np.asarray(cfg.p_x1, dtype=float).reshape((1, 1, sizes[0]))]
    for t, (pu, f) in ((1, (cfg.p_u2, cfg.f2)), (2, (cfg.p_u3, cfg.f3))):
        tab = np.zeros((v, 1, sizes[t]))
        for u in range(v):
            tab[u, 0, _integer(f[u], "symbol map value")] = float(pu[u])
        factors.append(tab)
    return Thm2Config(fields=(v, 2, 2), factors=tuple(factors))


def thm3_config_from_unstructured(channel: ChannelSpec,
                                  cfg: UnstructuredConfig) -> Thm3Config:
    """Embed a superposition config: cloud layers become unstructured
    layers aimed at receiver 1; all coset layers are absent."""
    _check_unstructured_shapes(channel, cfg)
    n1, n2, n3 = channel.input_sizes
    return Thm3Config(fields=(2, 2, 2), factors=(
        cfg.p_x1.reshape((1, 1, 1, 1, n1)),
        cfg.p_u2x2.reshape((len(cfg.p_u2x2), 1, 1, 1, n2)),
        cfg.p_u3x3.reshape((len(cfg.p_u3x3), 1, 1, 1, n3))))


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


def max_r1_scan(channel: ChannelSpec, r2: float, r3: float,
                evaluator: str = "unstructured", u_sizes=(2, 2),
                field_size: int = 2, denominator: int = 32,
                scan_cap: int = ENUMERATION_CAP, refine: bool = True
                ) -> ScanResult:
    """Grid-scan input configs and report the largest feasible R1.

    For each config the supremum of R1 compatible with the fixed
    (R2, R3) follows from the bound values through the evaluator's rate
    rows; the scan keeps the best config (first in enumeration order on
    ties) and then zooms the user-1 input probability around it, on the
    winning config alone.  Bound values come from
    :func:`cqic.direct.grid_source`: vectorized closed forms for
    channels in the plane-rotation/flip family, evaluated once per
    distinct argument, and the batched engine of :mod:`cqic.direct`,
    bit for bit the checkers' values, for everything else.  Both are
    read one way: the grid supremum (:func:`_grid_sup`) asks the source
    for stage cells, and the zoom for the winning config's cell alone.
    On the closed forms the rows without R1 are first tested once over
    the stage grid, and the user-1 terms evaluated only at the configs
    that pass.  ``evaluations`` counts the whole grid either way.
    The grid is sized against ``scan_cap`` before it is enumerated.
    """
    tol = active_tolerances()
    r2, r3 = float(r2), float(r3)
    if not all(math.isfinite(r) and r >= 0.0 for r in (r2, r3)):
        raise DomainError("fixed rates must be finite and nonnegative")
    denominator = _integer(denominator, "denominator", DomainError)
    u_sizes = tuple(_integer(u, "u_sizes entry", DomainError) for u in u_sizes)
    if len(u_sizes) != 2:
        raise DomainError(f"u_sizes needs two sizes (users 2, 3), got {u_sizes}")
    field_size = _integer(field_size, "field_size", DomainError)
    if denominator < 1 or min(u_sizes) < 1:
        raise DomainError(f"denominator and u_sizes must be at least 1, got "
                          f"{denominator} and {u_sizes}")
    sizes = channel.input_sizes
    if evaluator not in ("unstructured", "thm1"):
        raise Unsupported(f"unknown scan evaluator {evaluator!r}")
    if evaluator == "unstructured":
        channel.verdict(_require_3to1)

    budget = channel.budget
    taus = budget.as_tuple() if budget is not None else (math.inf,) * 3

    if evaluator == "unstructured":
        rows = _UNSTR_ROWS
        n2, n3 = u_sizes[0], u_sizes[1]
    else:
        rows = _THM1_ROWS
        n2 = n3 = _check_modulus(field_size)
    total = (_grid_size(1, sizes[0], denominator)
             * _grid_size(sizes[1], n2, denominator)
             * _grid_size(sizes[2], n3, denominator))
    if total > scan_cap:
        raise BudgetExceeded(f"scan grid has {total} configs, cap is {scan_cap}")
    p1s = _lattice_pmfs(sizes[0], denominator)
    grid2 = _binary_user_grid(channel, 1, n2, denominator)
    grid3 = _binary_user_grid(channel, 2, n3, denominator)

    kappa1 = channel.costs[0]
    p1_ok = p1s[np.vecdot(p1s, kappa1) <= taus[0] + tol.prob]
    g2_ok = _grid_rows(grid2, grid2.cost <= taus[1] + tol.prob)
    g3_ok = _grid_rows(grid3, grid3.cost <= taus[2] + tol.prob)

    best_val, best_cfg = -math.inf, None
    evaluations = len(p1_ok) * len(g2_ok.p) * len(g3_ok.p)
    if evaluations:
        source = grid_source(channel, evaluator, g2_ok, g3_ok)
        sup = _grid_sup(rows, source, p1_ok, r2, r3, tol.rate)
        i1, a2, a3 = np.unravel_index(int(np.argmax(sup)), sup.shape)
        best_val = float(sup[i1, a2, a3])
    grid_value = best_val
    if best_val > -math.inf:
        best_p1 = p1_ok[i1]
        if refine and sizes[0] == 2:
            cell = source.at([source.index(a2, a3)])
            # zoom the user-1 'on' probability around the grid argmax:
            # eight levels of 17 points, the window shrinking eightfold
            center, width = float(best_p1[1]), 1.0 / denominator
            for _ in range(8):
                pts = np.linspace(max(0.0, center - width),
                                  min(1.0, center + width), 17)
                evaluations += len(pts)
                cands = np.stack([1.0 - pts, pts], axis=1)
                # vecdot shares the dot kernel of the per-row p1 @ kappa1;
                # the gemv cands @ kappa1, einsum and c0*k0 + c1*k1 each
                # differ from it in the last bit for non-integer costs,
                # which could flip a verdict at the budget boundary
                cands = cands[np.vecdot(cands, kappa1) <= taus[0] + tol.prob]
                if len(cands):
                    vals = _r1_sup(rows, cell(cands), r2, r3,
                                   tol.rate).ravel()
                    k = int(np.argmax(vals))
                    if vals[k] > best_val:
                        best_val, best_p1 = float(vals[k]), cands[k]
                        center = float(best_p1[1])
                width /= 8.0
        best_cfg = _materialize(evaluator, channel, field_size, best_p1,
                                (g2_ok.p[a2], g2_ok.f[a2]),
                                (g3_ok.p[a3], g3_ok.f[a3]))
    return ScanResult(float(best_val), best_cfg, evaluations,
                      float(grid_value))


def _materialize(evaluator, channel, field_size, p1, c2, c3):
    """The config of user-1 pmf ``p1`` and user (pmf, map) pairs c2, c3."""
    if evaluator == "unstructured":
        return UnstructuredConfig(np.array(p1, dtype=float),
                                  _map_tables(*c2, channel.input_sizes[1]),
                                  _map_tables(*c3, channel.input_sizes[2]))
    return Thm1Config(field_size, tuple(np.asarray(p1, dtype=float)),
                      tuple(c2[0]), tuple(c3[0]), tuple(map(int, c2[1])),
                      tuple(map(int, c3[1])))


def boundary_slice(feasible_fn, r2_values, r3: float = 0.0,
                   r1_hi: float = 4.0, tol: float = 1e-6):
    """Trace the R1 boundary along rays of fixed (R2, R3) by bisection.

    ``feasible_fn`` takes a rate triple and must be monotone in R1
    (feasible below the boundary, infeasible above).  Returns a list of
    (r2, r1_boundary) rows; ``-inf`` marks rays that are infeasible
    even at R1 = 0.  ``r3`` and every entry of ``r2_values`` must be
    finite and at least 0, as must ``r1_hi``; ``tol`` must be finite and
    above 0.  A predicate over :func:`thm2_feasible` or
    :func:`thm3_feasible` at one config builds its system once: the
    layered checkers cache built systems, keyed on content.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"bisection tolerance must be finite and above 0, "
                          f"got {tol!r}")
    r1_hi = float(r1_hi)
    if not (math.isfinite(r1_hi) and r1_hi >= 0.0):
        raise DomainError(f"bisection bracket r1_hi must be finite and at "
                          f"least 0, got {r1_hi!r}")
    r3, r2_values = float(r3), [float(r2) for r2 in r2_values]
    if not all(math.isfinite(r) and r >= 0.0 for r in r2_values + [r3]):
        raise DomainError("fixed rates must be finite and nonnegative")
    rows = []
    for r2 in r2_values:
        if not feasible_fn((0.0, r2, r3)):
            rows.append((r2, -math.inf))
            continue
        lo, hi = 0.0, r1_hi
        if feasible_fn((hi, r2, r3)):
            lo = hi
        else:
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):  # adjacent floats: tol is below an ulp
                    break
                if feasible_fn((mid, r2, r3)):
                    lo = mid
                else:
                    hi = mid
        rows.append((r2, lo))
    return rows
