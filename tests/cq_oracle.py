"""Scalar pooling of a ``CqState``: the test-side oracle of the cq kernel.

One Python loop over the support points of the joint pmf, in row-major
order, pools the conditional state of each value of a register subset
into a dict.  ``cqic.states.cq_entropies`` must give these values bit for
bit; nothing here calls it.
"""

import numpy as np

from cqic.errors import UnknownRegister
from cqic.states import (EntropyQuery, mass_quotient, mass_scale,
                         shannon_entropy, von_neumann_entropies)


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
