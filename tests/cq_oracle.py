"""Scalar pooling of a ``CqState``: the test-side oracle of the cq kernel.

One Python loop over the support points of the joint pmf, in row-major
order, pools the conditional state of each value of a register subset
into a dict.  ``cqic.states.cq_entropies`` must give these values bit for
bit; nothing here calls it.

``subset_entropies`` is the kernel's stage 2 one subset at a time, as it
was before the subsets of one group width were stacked;
``cqic.states._subset_entropies`` must match it bit for bit.
"""

import numpy as np

from cqic.errors import UnknownRegister
from cqic.states import (EntropyQuery, mass_quotient, mass_scale,
                         shannon_entropies, shannon_entropy,
                         von_neumann_entropies)


def _indices(state, names):
    unknown = set(names) - set(state.register_names())
    if unknown:
        raise UnknownRegister(f"unknown register(s) {sorted(unknown)}")
    return [i for i, (n, _) in enumerate(state.registers) if n in names]


def marginal(state, names):
    """Marginal pmf table over ``names`` (canonical register order)."""
    idx = _indices(state, names)
    axes = tuple(i for i in range(len(state.registers)) if i not in idx)
    table = state.prob_table
    return table.sum(axis=axes) if axes else table.copy()


def conditional_average_states(state, names):
    """(subset value, weight, conditional state) per value with mass,
    in order of first occurrence."""
    idx = _indices(state, names)
    dim = state.quantum_dim
    acc, wts, points = {}, {}, []
    for x in np.ndindex(state.prob_table.shape):
        p = float(state.prob_table[x])
        if p <= 0.0:
            continue
        key = tuple(x[i] for i in idx)
        wts[key] = wts.get(key, 0.0) + p
        points.append((key, p, x))
    scale = {key: float(mass_scale(w)) for key, w in wts.items()}
    for key, p, x in points:
        if key not in acc:
            acc[key] = np.zeros((dim, dim), dtype=complex)
        acc[key] += (p * scale[key]) * state.state_map[x]
    return [(key, wts[key], mass_quotient(acc[key], wts[key])) for key in acc]


def entropy(state, q):
    """H(S), or H(S, Y) = H(p_S) + sum_s p_S(s) S(rho_s) with the quantum
    register."""
    h = shannon_entropy(marginal(state, q.classical_subset))
    if q.include_quantum:
        conds = conditional_average_states(state, q.classical_subset)
        ents = von_neumann_entropies(np.array([rho for _, _, rho in conds]))
        for (_, w, _), s in zip(conds, ents.tolist()):
            h += w * s
    return h


def conditional_mutual_info(state, a, b, c=None):
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)."""
    if c is None:
        c = EntropyQuery()
    return (entropy(state, a.union(c)) + entropy(state, b.union(c))
            - entropy(state, a.union(b).union(c)) - entropy(state, c))


# ---------------------------------------------------------------------------
# stage 2 of the kernel, one register subset at a time

_SKIP = complex(-0.0, -0.0)


def _seq_sum(a):
    """Left-to-right sum over axis 2."""
    return np.add.accumulate(a, axis=2)[:, :, -1]


def subset_entropies(receivers, pooled, lift):
    """H(S) and H(S, Y) of every laid-out subset, keyed ``(rx, S, with_y)``."""
    g = pooled[0][0].shape[0]
    margs, queued = {}, []
    for rx, ((shape, _, subsets), (p, smap)) in enumerate(zip(receivers,
                                                              pooled)):
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

    width = max(m.shape[1] for m in margs.values())
    rows = np.zeros((len(margs), g, width))
    for row, m in zip(rows, margs.values()):
        row[:, :m.shape[1]] = m
    h = dict(zip(margs, shannon_entropies(rows.reshape(-1, width))
                 .reshape(len(margs), g)))

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
