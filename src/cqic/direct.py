"""Direct inner bounds over a whole grid of configs, in batched passes.

:func:`direct_bounds` evaluates the direct bounds of :mod:`cqic.regions`
(Thm 1 sum decoding and unstructured superposition), conditional mutual
informations I(A; Y | C) of one receiver's state, over every config of a
product grid, ``BLOCK`` configs per call of the cq-state kernel
:func:`~cqic.states.cq_entropies`.

The points are (a2, a3, x1) with mass (w2[a2] * w3[a3]) * p1[x1], where
a_j is user j's field symbol (Thm 1) or its (cloud, input) pair
(superposition), and user j sends input x_j[a_j].  Every value is bit
for bit what one ``CqState`` per receiver and ``conditional_mutual_info``
give for the one config.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .states import cq_entropies, receiver_layout, shannon_entropies

#: configs per pass; bounds the working arrays whatever the grid size
BLOCK = 64

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
    return 0.0 + np.add.accumulate(terms, axis=2)[:, :, -1]


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
