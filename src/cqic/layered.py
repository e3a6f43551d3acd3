"""The coset-layered Thm 2/3 inequality system of one config.

:func:`_layered_system` validates a Thm 2/3 config of :mod:`cqic.regions`
and returns its covering, packing and rate-coupling rows, labelled and as
a dense system A x <= b.  :func:`_template`, an ``lru_cache`` keyed by
theorem, flag, fields, input sizes, output dimensions, factor shapes and
active layers, builds the rows, A, rhs recipes, receiver layouts and
their entropy plan once; :func:`_fill` takes a config's entropies from
one ``shannon_entropies`` and one ``cq_entropies`` call and computes its
rhs and b.  :func:`_cached_system` keeps the last built systems, keyed
on content; :mod:`cqic.regions` solves them.

One loop per row family serves both theorems (a Thm 2 factor has size-1
V axes, so no active V layer).  The theorem decides only: the covering
rows' T coefficient (-1 in Thm 2, absent in Thm 3); a U layer's packing
charges, own atom and sum-atom copies alike (S in Thm 2, S and T in
Thm 3); the labels' ``thmN`` prefix and Thm 3's ``.C=``/``.D=`` parts.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .channels import ChannelSpec
from .config import _integer, active_tolerances
from .errors import ConfigMismatch
from .gfcoset import _check_modulus
from .states import (cq_entropies, entropy_plan, receiver_layout,
                     shannon_entropies)

_OTHERS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def _fields(cfg):
    """The config's three sum fields, checked."""
    fields = tuple(_integer(f, "sum field") for f in cfg.fields)
    if len(fields) != 3:
        raise ConfigMismatch("need one sum field per receiver")
    return tuple(map(_check_modulus, fields))


def _normalized_blocks(channel: ChannelSpec, cfg, with_v: bool):
    tol = active_tolerances()
    fields = _fields(cfg)
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
        if tab.size == 0:
            raise ConfigMismatch(f"user {t + 1} factor has no entries")
        if not tab.min() >= -tol.prob:
            raise ConfigMismatch(
                f"user {t + 1} factor has negative or NaN mass")
        if not abs(tab.sum() - 1.0) <= tol.prob:
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


@dataclass(frozen=True)
class _Atom:
    reg: str
    size: int
    charges: tuple       # variable names whose rates this error event pays
    corr: int            # position of its rhs correction in the fill's values
    own: bool            # carries this user's own message content
    pair: tuple | None   # (tx, rx) for layer atoms, None for X/sum
    is_sum: bool = False
    is_cross: bool = False
    copies: tuple = ()   # for the sum atom: ((label_suffix, charge names), ...)


#: the (user, receiver) layer pairs in activity-pattern order
_PAIRS = tuple((t, r) for t in range(3) for r in _OTHERS[t])
#: user t's factor table lies along axis t of the three users' point product
_AT = tuple((1,) * t + (-1,) + (1,) * (2 - t) for t in range(3))

#: one receiver's decoded-content atoms, register subsets and layout
_Receiver = namedtuple("_Receiver", "j atoms subsets layout")

#: all a layered system takes from its shape: each row's (label, kind,
#: coeffs, sense) in ``heads`` and, row by row, its rhs recipe in ``src``
#: (covering) then ``chnl`` (packing).  A recipe refers to the fill's
#: values: ``logs``, then H of each ``margs`` entry.  The receivers'
#: entropies come from one ``cq_entropies`` call on ``plan`` with each
#: point's flat channel input ``inputs``.
_Template = namedtuple("_Template", "fields names col heads a idx coef logs "
                       "margs src chnl receivers plan inputs")


def _rx_entropies(channel: ChannelSpec, blocks, tpl):
    """H(S, Y) of each laid-out register subset S, one dict per receiver.

    Points run over the product of the three users' factor tables in
    row-major order, with mass (p1 * p2) * p3 for every receiver, so one
    :func:`cq_entropies` call takes them all (zero masses are skipped).
    """
    if not tpl.receivers:
        return []
    w = [b.reshape(s) for b, s in zip(blocks, _AT)]
    h = cq_entropies(tpl.plan,
                     [channel.reduced_table(rx.j) for rx in tpl.receivers],
                     ((w[0] * w[1]) * w[2]).reshape(1, -1), tpl.inputs)
    return [{sub: float(h[n, sub, True][0]) for sub in rx.subsets}
            for n, rx in enumerate(tpl.receivers)]


#: a config's rows (label, kind, coeffs, sense, rhs) and their dense
#: form A x <= b.  Rates enter only the coupling rows, which come last
#: with rhs None: the last six entries of b are their equality pairs.
#: ``idx`` and ``coef`` hold each row's lhs terms in coefficient-dict
#: order, padded with coefficient 1.0 at index ``len(names)``.  All but
#: ``rows`` and ``b`` are shared by every config of one template.
_LayeredSystem = namedtuple("_LayeredSystem", "names col rows a b idx coef")


def _layered_system(channel, cfg, theorem, drop_dont_care):
    """Validate cfg, look up its template and fill in its numbers."""
    fields, blocks = _normalized_blocks(channel, cfg, with_v=theorem == 3)
    act = tuple(tuple(_is_active(_marg(blocks[t], (ax(t, r),)))
                      for t, r in _PAIRS)  # Thm 2's V axes have size 1
                for ax in (_u_axis, _v_axis))
    act += (tuple(_is_active(_marg(tab, (4,))) for tab in blocks),)
    tpl = _template(theorem, bool(drop_dont_care), fields,
                    channel.input_sizes, channel.output_dims,
                    tuple(b.shape for b in blocks), act)
    return _fill(tpl, channel, blocks)


def _fill(tpl, channel, blocks):
    """The config's system: its entropies, rhs values and b, on tpl."""
    tabs = [blocks[t].sum(axis=drop) if drop else blocks[t]
            for t, drop in tpl.margs]
    grid = np.zeros((len(tabs), max((m.size for m in tabs), default=0)))
    for row, m in zip(grid, tabs):
        row[:m.size] = m.ravel()
    vals = tpl.logs + tuple(shannon_entropies(grid).tolist())
    hs = _rx_entropies(channel, blocks, tpl)

    rhs = []
    for log_sum, hv, hx, m in tpl.src:
        s = log_sum + sum(vals[i] for i in hv)
        rhs.append((s if hx is None else s + vals[hx]) - vals[m])
    for n, refs, full, rest in tpl.chnl:  # H(Z_wrong | Z_rest, Y)
        rhs.append(sum(vals[i] for i in refs) - (hs[n][full] - hs[n][rest]))
    rows = tuple(head + (r,) for head, r in zip(tpl.heads, rhs + [None] * 3))

    tol = active_tolerances()
    # equalities come last, as pairs of closed inequalities; rates go in later
    b = np.array([r - tol.rate if sense == "<" else -(r + tol.rate)
                  for _, _, _, sense, r in rows[:-3]] + [0.0] * 6)
    b.setflags(write=False)
    return _LayeredSystem(tpl.names, tpl.col, rows, tpl.a, b, tpl.idx,
                          tpl.coef)


@functools.lru_cache(maxsize=32)
def _template(theorem, drop_dont_care, fields, input_sizes, dims, shapes,
              act):
    """Variables, rows, rhs recipes, layouts and entropy plan of every
    config of one shape and activity ``act`` (U and V layers in
    ``_PAIRS`` order, then X) on a channel of output dimensions ``dims``.
    All of it is shared: arrays read-only, coefficients proxies."""
    u_act, v_act = (dict(zip(_PAIRS, a)) for a in act[:2])
    x_act = act[2]
    logs = tuple(math.log2(f) for f in fields)
    margs = {}

    def ent(t, axes):
        """Reference to H(user t's marginal on axes)."""
        drop = tuple(i for i in range(5) if i not in axes)
        return len(logs) + margs.setdefault((t, drop), len(margs))

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

    # the three per-theorem differences of the module docstring
    prefix = f"thm{theorem}"

    def _u_charges(t, r):
        s_name, t_name = f"S{t + 1}{r + 1}", f"T{t + 1}{r + 1}"
        return (s_name,) if theorem == 2 else (s_name, t_name)

    def _v_parts(*pair_sets):
        if theorem == 2:
            return ""
        return "".join(f".{part}={{{_pair_label(pairs)}}}"
                       for part, pairs in zip("CD", pair_sets))

    heads, src, chnl = [], [], []
    # --- source (covering) bounds, one family per user --------------------
    for t in range(3):
        own_u = [(t, r) for r in _OTHERS[t] if u_act[(t, r)]]
        own_v = [(t, r) for r in _OTHERS[t] if v_act[(t, r)]]
        for a_set in _subsets(own_u):
            for c_set in _subsets(own_v):
                log_sum = sum(math.log2(fields[r]) for _, r in a_set)
                hv = tuple(ent(t, (_v_axis(t, r),)) for _, r in c_set)
                axes = tuple(_u_axis(t, r) for _, r in a_set) + \
                    tuple(_v_axis(t, r) for _, r in c_set)
                coeffs = {}
                for tt, r in a_set:
                    coeffs[f"S{tt + 1}{r + 1}"] = 1.0
                    if theorem == 2:
                        coeffs[f"T{tt + 1}{r + 1}"] = -1.0
                coeffs.update({f"B{tt + 1}{r + 1}": 1.0 for tt, r in c_set})
                lbl = (f"{prefix}.src.j={t + 1}.A={{{_pair_label(a_set)}}}"
                       + _v_parts(c_set))
                if axes:
                    heads.append((lbl, "source", coeffs, ">"))
                    src.append((log_sum, hv, None, ent(t, axes)))
                if x_act[t]:
                    heads.append((lbl + "+K", "source",
                                  {**coeffs, f"K{t + 1}": 1.0}, ">"))
                    src.append((log_sum, hv, ent(t, (4,)),
                                ent(t, axes + (4,))))

    # --- channel (packing) bounds, one family per receiver ----------------
    coords = [np.indices(s).reshape((5,) + a) for s, a in zip(shapes, _AT)]
    receivers = []
    for j in range(3):
        i, k = _OTHERS[j]
        atoms = []
        for r in _OTHERS[j]:
            if u_act[(j, r)]:
                atoms.append(_Atom(f"U{j + 1}{r + 1}", fields[r],
                                   _u_charges(j, r), r, True, (j, r)))
        for r in _OTHERS[j]:
            if v_act[(j, r)]:
                atoms.append(_Atom(f"V{j + 1}{r + 1}",
                                   shapes[j][_v_axis(j, r)],
                                   (f"B{j + 1}{r + 1}", f"N{j + 1}{r + 1}"),
                                   ent(j, (_v_axis(j, r),)), True, (j, r)))
        if x_act[j]:
            atoms.append(_Atom(f"X{j + 1}", shapes[j][4],
                               (f"K{j + 1}", f"L{j + 1}"), ent(j, (4,)),
                               True, None))
        sum_srcs = [t for t in (i, k) if u_act[(t, j)]]
        if sum_srcs:
            copies = tuple(("+ij" if t == i else "+kj", _u_charges(t, j))
                           for t in sum_srcs)
            atoms.append(_Atom(f"W{j + 1}", fields[j], (), j, False, None,
                               is_sum=True, copies=copies))
        for t in (i, k):
            if v_act[(t, j)]:
                atoms.append(_Atom(f"V{t + 1}{j + 1}",
                                   shapes[t][_v_axis(t, j)],
                                   (f"B{t + 1}{j + 1}", f"N{t + 1}{j + 1}"),
                                   ent(t, (_v_axis(t, j),)), False, (t, j),
                                   is_cross=True))

        if not atoms:
            continue
        # error events: those that fix a message part, and the bare sum
        events = [g for g in _subsets(atoms) if any(a.own for a in g)
                  or (len(g) == 1 and g[0].is_sum and not drop_dont_care)]
        full = frozenset(a.reg for a in atoms)
        rest = [full - {a.reg for a in g} for g in events]
        for g, r in zip(events, rest):
            base_coeffs = dict.fromkeys((nm for a in g for nm in a.charges),
                                        1.0)
            a_lbl = _pair_label([a.pair for a in g
                                 if a.own and a.reg.startswith("U")])
            lbl = f"{prefix}.chnl.j={j + 1}.A={{{a_lbl}}}" + _v_parts(
                [a.pair for a in g if a.own and a.reg.startswith("V")],
                [a.pair for a in g if a.is_cross])
            if any(a.reg.startswith("X") for a in g):
                lbl += "+X"
            sum_atom = next((a for a in g if a.is_sum), None)
            if sum_atom is None:
                heads.append((lbl, "channel", base_coeffs, "<"))
            else:
                for suffix, charges in sum_atom.copies:
                    coeffs = dict(base_coeffs)
                    for nm in charges:
                        coeffs[nm] = coeffs.get(nm, 0.0) + 1.0
                    heads.append((lbl + suffix, "channel", coeffs, "<"))
            # one recipe per row; a sum atom's copies repeat the event's
            chnl += [(len(receivers), tuple(a.corr for a in g), full, r)] * \
                (len(heads) - len(src) - len(chnl))

        # each point's register values, flat in row-major order
        key = np.zeros((1, 1, 1), dtype=int)
        for a in atoms:
            if a.is_sum:
                val = (coords[i][_u_axis(i, j)]
                       + coords[k][_u_axis(k, j)]) % fields[j]
            elif a.pair is None:  # X_j
                val = coords[j][4]
            else:
                t, r = a.pair
                val = coords[t][_u_axis(t, r) if a.reg.startswith("U")
                                else _v_axis(t, r)]
            key = key * a.size + val
        subsets = tuple(dict.fromkeys([full] + rest))
        receivers.append(_Receiver(j, tuple(atoms), subsets, receiver_layout(
            [(a.reg, a.size) for a in atoms],
            np.broadcast_to(key, tuple(map(math.prod, shapes))), subsets)))

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
        heads.append((f"{prefix}.rate.j={t + 1}", "coupling", coeffs, "="))

    width = max(len(coeffs) for _, _, coeffs, _ in heads)
    idx = np.full((len(heads), width), len(names))
    coef = np.ones((len(heads), width))
    for r, (_, _, coeffs, _) in enumerate(heads):
        idx[r, :len(coeffs)] = [col[nm] for nm in coeffs]
        coef[r, :len(coeffs)] = list(coeffs.values())
    dense = np.zeros((len(heads), len(names) + 1))
    np.put_along_axis(dense, idx, coef, axis=1)
    ineq, eq = dense[:-3, :-1], dense[-3:, :-1]
    gt = np.array([sense == ">" for *_, sense in heads[:-3]], dtype=bool)
    # 0.0 - row, not -row: absent variables stay +0.0; each equality is a
    # pair of closed inequalities
    a = np.vstack([np.where(gt[:, None], 0.0 - ineq, ineq),
                   np.stack([eq, 0.0 - eq], axis=1).reshape(6, len(names))])
    inputs = np.ravel_multi_index(tuple(c[4] for c in coords),
                                  input_sizes).reshape(1, -1)
    plan = entropy_plan([rx.layout for rx in receivers], [
        dims[rx.j] for rx in receivers]) if receivers else None
    for arr in (a, idx, coef, inputs):
        arr.setflags(write=False)
    heads = tuple((lbl, kind, MappingProxyType(coeffs), sense)
                  for lbl, kind, coeffs, sense in heads)
    return _Template(fields, tuple(names), MappingProxyType(col), heads, a,
                     idx, coef, logs, tuple(margs), tuple(src), tuple(chnl),
                     tuple(receivers), plan, inputs)


#: built layered systems by content key, least recently used first
_SYSTEMS: dict = {}
_SYSTEMS_LOCK = threading.Lock()
#: bound on ``_SYSTEMS``; a boundary slice re-solves a single config
_SYSTEMS_MAX = 8


def _cached_system(channel, cfg, theorem, drop_dont_care):
    """The config's layered system, built once per content: the key holds
    all the build reads (the tolerance record, the rest as exact bytes).
    A config that fails validation raises before anything is stored."""
    arrays = [channel.reduced_table(j) for j in range(3)]
    arrays += [np.asarray(raw, dtype=float) for raw in cfg.factors]
    key = (active_tolerances(), theorem, bool(drop_dont_care),
           channel.input_sizes, _fields(cfg),
           tuple((a.shape, a.dtype.str, a.tobytes()) for a in arrays))
    with _SYSTEMS_LOCK:
        system = _SYSTEMS.pop(key, None)
    if system is None:
        system = _layered_system(channel, cfg, theorem, drop_dont_care)
    with _SYSTEMS_LOCK:
        _SYSTEMS[key] = system
        while len(_SYSTEMS) > _SYSTEMS_MAX:
            del _SYSTEMS[next(iter(_SYSTEMS))]
    return system

