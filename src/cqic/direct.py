"""Receiver cq-state entropies of inner bounds, in batched passes.

:func:`cq_entropies` is the one kernel: it pools each receiver's state
from a stacked channel table, forms the conditional states of every
register subset in bulk, and takes their entropies in one eigensolve
per block of configs.  Two callers use it:

* :func:`direct_bounds`, for the direct bounds of :mod:`cqic.regions`
  (Thm 1 sum decoding and unstructured superposition), conditional
  mutual informations I(A; Y | C) of one receiver's state, over every
  config of a product grid;
* the layered checkers (Thm 2 and 3), whose packing bounds are
  conditional entropies H(Z_wrong | Z_rest, Y), one config at a time.

The direct bounds draw points (a2, a3, x1) with mass
(w2[a2] * w3[a3]) * p1[x1], where a_j is user j's field symbol (Thm 1)
or its (cloud, input) pair (superposition), and sends input x_j[a_j].
The layered bounds draw one point per entry of the product of the three
users' factor tables.  The engine repeats the
scalar :class:`~cqic.states.CqState` arithmetic array-wide, so every
value is bit for bit what ``CqState`` and ``conditional_mutual_info``
give for the one config:

* the same products, pooled by left-to-right sums in the same order.
  -0.0 stands in for a skipped zero-mass term, because it is the exact
  additive identity; the scalar code's leading ``0.0 +`` is applied
  last, which is exact too;
* conditional states added to H(S) in order of first occurrence;
* row entropies summed as ``shannon_entropy`` sums them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .states import (mass_quotient, mass_scale, shannon_entropies,
                     von_neumann_entropies)

#: configs per pass; bounds the working arrays whatever the grid size
BLOCK = 64
_SKIP = complex(-0.0, -0.0)

# (bound key, receiver, A, C) of each bound term I(A; Y | C)
_THM1_TERMS = (("r1_rhs", 0, ("X1",), ("U",)),
               ("own2", 1, ("U2",), ()),
               ("own3", 2, ("U3",), ()),
               ("cross_rhs", 0, ("U",), ("X1",)),
               ("sum_rhs", 0, ("U", "X1"), ()))

_UNSTR_TERMS = (("r1_rhs", 0, ("X1",), ("U2", "U3")),
                ("pair2", 0, ("U2", "X1"), ("U3",)),
                ("pair3", 0, ("U3", "X1"), ("U2",)),
                ("total1", 0, ("U2", "U3", "X1"), ()),
                ("own2", 1, ("U2", "X2"), ()),
                ("own3", 2, ("U3", "X3"), ()),
                ("refine2", 1, ("X2",), ("U2",)),
                ("refine3", 2, ("X3",), ("U3",)))


def _seq_sum(a):
    """Left-to-right sum over axis 2 (``np.sum`` may pair terms up)."""
    return np.add.accumulate(a, axis=2)[:, :, -1]


def _grouped(keys, n_keys):
    """Positions of each value of ``keys``: row k lists, ascending, where
    ``keys`` equals k.  Every value must occur equally often."""
    groups = np.argsort(keys.ravel(), kind="stable").reshape(n_keys, -1)
    groups.setflags(write=False)  # cached by _layout, shared by callers
    return groups


def receiver_layout(regs, key, subsets):
    """Layout of one receiver's cq state, for :func:`cq_entropies`.

    ``regs`` lists the classical registers as ``(name, size)``; ``key``
    gives each point's register value, flat in row-major order over
    ``regs``, and every value must occur equally often.  Returns
    ``(shape, pool, subsets)``: ``pool`` lists the points behind each
    register value, and ``subsets`` maps every register subset (a
    frozenset of names) to its summed axes and to the register values
    behind each of its values.
    """
    names = [nm for nm, _ in regs]
    shape = tuple(size for _, size in regs)
    n = math.prod(shape)
    coords = np.unravel_index(np.arange(n), shape)
    table = {}
    for sub in subsets:
        keep = [i for i, nm in enumerate(names) if nm in sub]
        kept = tuple(shape[i] for i in keep)
        sub_key = (np.ravel_multi_index([coords[i] for i in keep], kept)
                   if keep else np.zeros(n, dtype=int))
        dropped = tuple(i + 1 for i in range(len(shape)) if i not in keep)
        table[sub] = (dropped, _grouped(sub_key, math.prod(kept)))
    return shape, _grouped(key, n), table


@functools.lru_cache(maxsize=64)
def _layout(evaluator, alpha2, alpha3, n1):
    """Receivers of a direct bound, per alphabet shape.

    ``alpha_j`` is the field size (Thm 1) or the ``(clouds, inputs)``
    table shape (superposition) of user j.  Points run flat over
    (a2, a3, x1); each receiver gets the :func:`receiver_layout` of the
    register subsets its bound terms need.
    """
    if evaluator == "thm1":
        v = alpha2
        a2 = a3 = v
    else:
        (m2, n2), (m3, n3) = alpha2, alpha3
        a2, a3 = m2 * n2, m3 * n3
    i2, i3, x1 = np.indices((a2, a3, n1))
    if evaluator == "thm1":
        regs = ((("U", v), ("X1", n1)), (("U2", v),), (("U3", v),))
        keys = (((i2 + i3) % v) * n1 + x1, i2, i3)
        terms = _THM1_TERMS
    else:
        regs = ((("U2", m2), ("U3", m3), ("X1", n1)),
                (("U2", m2), ("X2", n2)), (("U3", m3), ("X3", n3)))
        keys = (((i2 // n2) * m3 + i3 // n3) * n1 + x1, i2, i3)
        terms = _UNSTR_TERMS
    receivers = []
    for rx, (reg, key) in enumerate(zip(regs, keys)):
        subsets = dict.fromkeys(frozenset(s) for _, t_rx, a, c in terms
                                if t_rx == rx for s in (a + c, c))
        receivers.append(receiver_layout(reg, key, subsets))
    return tuple(receivers), terms


def cq_entropies(receivers, tables, mass, inputs):
    """H(S) and H(S, Y) of every laid-out register subset S, per config.

    ``receivers`` holds :func:`receiver_layout` results and ``tables``
    each one's stacked channel outputs (``ChannelSpec.reduced_table``).
    ``mass`` holds the point masses of a block of configs, ``(g,
    points)``; ``inputs`` indexes the tables with each point's channel
    inputs and broadcasts to ``(g, ...)``, points flat over the rest.
    Returns ``{(rx, S, with_y): (g,) array}``, ``rx`` the receiver's
    position in ``receivers``.
    """
    g = mass.shape[0]
    # only a group of subnormal points pools to a subnormal mass; scaling
    # (exactly, see mass_scale) is skipped when no point is subnormal
    lift = mass_scale(mass[mass > 0.0]).max(initial=1.0) > 1.0
    margs, queued = {}, []
    for rx, (shape, pool, subsets) in enumerate(receivers):
        outs = tables[rx][inputs]
        outs = outs.reshape((g, -1) + outs.shape[-2:])
        # the receiver's cq state: pooled pmf and conditional states
        mk = np.take(mass, pool, axis=1)
        probs = 0.0 + _seq_sum(mk)
        p = np.clip(probs, 0.0, None)  # as Pmf clips the joint pmf
        m = np.where(p > 0.0, probs, 1.0)
        if lift:
            mk = mk * mass_scale(m)[..., None]
        parts = mk[..., None, None] * np.take(outs, pool, axis=1)
        parts[mk == 0.0] = _SKIP
        smap = mass_quotient(_seq_sum(parts), m)
        # H(S) of each register subset, and its conditional states on Y.
        # numpy orders a multi-axis sum by memory layout: sum C-ordered
        # tables, as CqState.marginal does
        p_table = np.ascontiguousarray(p).reshape((g,) + shape)
        for sub, (dropped, groups) in subsets.items():
            marg = p_table.sum(axis=dropped) if dropped else p_table
            margs[rx, sub, False] = marg.reshape(g, -1)
            pk = np.take(p, groups, axis=1)
            live = pk > 0.0
            wts = 0.0 + _seq_sum(pk)
            if lift:
                pk = pk * mass_scale(wts)[..., None]
            parts = pk[..., None, None] * np.take(smap, groups, axis=1)
            parts[~live] = _SKIP
            first = np.where(live, groups, groups.size).min(axis=2)
            queued.append(((rx, sub, True), wts, 0.0 + _seq_sum(parts),
                           np.argsort(first, axis=1, kind="stable")))

    # H(S) of every subset in one pass; the zero padding is not summed
    width = max(m.shape[1] for m in margs.values())
    rows = np.zeros((len(margs), g, width))
    for row, m in zip(rows, margs.values()):
        row[:, :m.shape[1]] = m
    h = dict(zip(margs, shannon_entropies(rows.reshape(-1, width))
                 .reshape(len(margs), g)))

    # H(S, Y) = H(S) + sum_s p(s) S(rho_s): one eigensolve per output
    # dimension over every conditional state of the block
    by_dim = {}
    for item in queued:
        by_dim.setdefault(item[2].shape[-1], []).append(item)
    for items in by_dim.values():
        present = [wts > 0.0 for _, wts, _, _ in items]
        ents = von_neumann_entropies(np.concatenate(
            [mass_quotient(acc[m], wts[m])
             for (_, wts, acc, _), m in zip(items, present)]))
        at = 0
        for (key, wts, _, order), m in zip(items, present):
            n = np.count_nonzero(m)
            ws = np.zeros_like(wts)
            ws[m] = wts[m] * ents[at:at + n]
            at += n
            ws = np.take_along_axis(ws, order, axis=1)
            total = h[key[0], key[1], False]
            for i in range(ws.shape[1]):
                total = total + ws[:, i]
            h[key] = total
    return h


def _block_bounds(receivers, terms, tables, p1, w2, x2, w3, x3):
    """Bound terms I(A; Y | C) of a block of configs, one entry per config.

    ``p1``/``w2``/``w3`` hold the configs' factor pmfs, ``x2``/``x3`` the
    input each user-2/3 atom sends, ``tables`` each receiver's stacked
    channel outputs.
    """
    g, n1 = p1.shape
    mass = ((w2[:, :, None, None] * w3[:, None, :, None])
            * p1[:, None, None, :]).reshape(g, -1)
    inputs = (np.arange(n1), x2[:, :, None, None], x3[:, None, :, None])
    h = cq_entropies(receivers, tables, mass, inputs)
    # I(A; Y | C) = H(A, C) + H(C, Y) - H(A, C, Y) - H(C)
    out = {}
    for name, rx, a, c in terms:
        ac, cc = frozenset(a + c), frozenset(c)
        out[name] = ((h[rx, ac, False] + h[rx, cc, True])
                     - h[rx, ac, True] - h[rx, cc, False])
    return out


def _sum_pmf(p2, p3):
    """Pmf of (U2 + U3) mod v for independent U2 ~ p2, U3 ~ p3, per row."""
    v = p2.shape[1]
    u = np.arange(v)
    prod = p2[:, :, None] * p3[:, None, :]
    # each sum's mass added up over u2 = 0, 1, ..., as the scalar loop does
    terms = prod[:, u[None, :], (u[:, None] - u[None, :]) % v]
    return 0.0 + _seq_sum(terms)


def direct_bounds(channel, evaluator, p1s, users2, users3):
    """Direct bound values over the product ``p1s x users2 x users3``.

    ``evaluator`` is ``"thm1"`` or ``"unstructured"``.  ``users_j``
    holds ``(pmf, symbol map)`` pairs for Thm 1 and joint ``(cloud,
    input)`` tables for the superposition bound.  Returns the keys of
    the evaluator's rate rows plus the costs ``e1..e3``, one
    ``(len(p1s), len(users2), len(users3))`` array each.  Configs are
    taken ``BLOCK`` at a time.
    """
    k1, k2, k3 = channel.costs
    n1 = channel.input_sizes[0]
    p1 = np.asarray(p1s, dtype=float).reshape(len(p1s), n1)
    facs = []
    for users, kappa in ((users2, k2), (users3, k3)):
        if evaluator == "thm1":
            w = np.array([pm for pm, _ in users], dtype=float)
            x = np.array([f for _, f in users], dtype=int)
            cost = [float(sum(pm[u] * kappa[f[u]] for u in range(len(pm))))
                    for pm, f in users]
            alpha = w.shape[1]
        else:
            w = np.array([t.ravel() for t in users], dtype=float)
            alpha = users[0].shape
            x = np.broadcast_to(np.arange(w.shape[1]) % alpha[1], w.shape)
            cost = [float(t.sum(axis=0) @ kappa) for t in users]
        facs.append((w, x, np.array(cost), alpha))
    (w2, x2, e2, alpha2), (w3, x3, e3, alpha3) = facs
    receivers, terms = _layout(evaluator, alpha2, alpha3, n1)
    tables = [channel.reduced_table(j) for j in range(3)]

    grid = (len(p1s), len(users2), len(users3))
    total = math.prod(grid)
    flat = {}
    for start in range(0, total, BLOCK):
        i1, i2, i3 = np.unravel_index(
            np.arange(start, min(start + BLOCK, total)), grid)
        vals = _block_bounds(receivers, terms, tables, p1[i1], w2[i2],
                             x2[i2], w3[i3], x3[i3])
        if evaluator == "thm1":
            # decoding the sum costs H(U2 + U3) and earns min(H(U2), H(U3))
            h2, h3, h_u = shannon_entropies(np.concatenate(
                (w2[i2], w3[i3], _sum_pmf(w2[i2], w3[i3])))).reshape(3, -1)
            for name in ("cross_rhs", "sum_rhs"):
                vals[name] = vals[name] - h_u + np.minimum(h2, h3)
        for name, v in vals.items():
            flat.setdefault(name, np.empty(total))[start:start + len(v)] = v
    out = {name: v.reshape(grid) for name, v in flat.items()}
    e1 = np.array([float(p @ k1) for p in p1])
    out["e1"] = np.broadcast_to(e1[:, None, None], grid)
    out["e2"] = np.broadcast_to(e2[None, :, None], grid)
    out["e3"] = np.broadcast_to(e3[None, None, :], grid)
    return out
