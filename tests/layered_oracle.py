"""Two earlier builders of the layered Thm 2/3 system, as oracles.

:func:`layered_system` is ``cqic.layered._layered_system`` from before the
system was split into a cached template and a per-config fill: one pass
that validates the config and builds every label, row, receiver layout
and number from scratch, with :func:`rx_entropies` its receiver
entropies.  A differential test compares the template and fill with it
bit for bit.

:func:`layered_rows` is the row loop of ``cqic.layered._layered_system``
from before one loop per row family served both theorems: the covering
(source) rows come from one hand-written branch per theorem, the packing
atoms spell out their U-layer charges per theorem twice, and a V layer is
active only in Thm 3.  It shares the validation and the marginals with
:mod:`cqic.layered` and the receiver entropies with :func:`layered_system`,
so a differential test can compare every row, rhs bits included.
"""

import math
from dataclasses import dataclass

import numpy as np

from cqic.channels import ChannelSpec
from cqic.config import active_tolerances
from cqic.layered import (_OTHERS, _is_active, _LayeredSystem, _marg,
                          _normalized_blocks, _pair_label, _subsets, _u_axis,
                          _v_axis)
from cqic.states import (cq_entropies, entropy_plan, receiver_layout,
                         shannon_entropy)


def layered_rows(channel, cfg, theorem, drop_dont_care):
    """Variable names and rows (label, kind, coeffs, sense, rhs) of cfg."""
    fields, blocks = _normalized_blocks(channel, cfg, with_v=theorem == 3)
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
    packing = []  # per receiver: its H(S, Y) queries and error events
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
        # error events: those that fix a message part, and the bare sum
        events = [g for g in _subsets(atoms) if any(a.own for a in g)
                  or (len(g) == 1 and g[0].is_sum and not drop_dont_care)]
        full = frozenset(a.reg for a in atoms)
        rest = [full - {a.reg for a in g} for g in events]
        packing.append((j, atoms, dict.fromkeys([full] + rest), full,
                        events, rest))

    hs = rx_entropies(channel, blocks, fields, [p[:3] for p in packing])
    for (j, _, _, full, events, rest), h in zip(packing, hs):
        for g, r in zip(events, rest):
            # H(Z_wrong | Z_rest, Y)
            rhs = sum(a.corr for a in g) - (h[full] - h[r])
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
                     None))

    return tuple(names), tuple(rows)


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


def rx_entropies(channel: ChannelSpec, blocks, fields, receivers):
    """H(S, Y) of each register subset S of each receiver's cq state.

    ``receivers`` lists ``(j, atoms, subsets)``: receiver j's registers
    are its decoded-content atoms.  Points run over the product of the
    three users' factor tables in row-major order, with mass (p1 * p2) *
    p3 for every receiver, so one kernel call takes them all; zero-mass
    points are skipped when pooled.  Returns one dict per receiver.
    """
    if not receivers:
        return []
    # user t's table coordinates and masses along axis t of the product
    at = [(1,) * t + (-1,) + (1,) * (2 - t) for t in range(3)]
    c = [np.indices(b.shape).reshape((5,) + s) for b, s in zip(blocks, at)]
    w = [b.reshape(s) for b, s in zip(blocks, at)]
    mass = (w[0] * w[1]) * w[2]
    layouts = []
    for j, atoms, subsets in receivers:
        i, k = _OTHERS[j]
        key = np.zeros((1, 1, 1), dtype=int)
        for a in atoms:
            if a.is_sum:
                val = (c[i][_u_axis(i, j)] + c[k][_u_axis(k, j)]) % fields[j]
            elif a.pair is None:  # X_j
                val = c[j][4]
            else:
                t, r = a.pair
                val = c[t][_u_axis(t, r) if a.reg.startswith("U")
                           else _v_axis(t, r)]
            key = key * a.size + val
        layouts.append(receiver_layout([(a.reg, a.size) for a in atoms],
                                       np.broadcast_to(key, mass.shape),
                                       subsets))
    plan = entropy_plan(layouts, [channel.output_dims[j]
                                  for j, _, _ in receivers])
    inputs = np.ravel_multi_index((c[0][4], c[1][4], c[2][4]),
                                  channel.input_sizes).reshape(1, -1)
    h = cq_entropies(plan, [channel.reduced_table(j)
                            for j, _, _ in receivers],
                     mass.reshape(1, -1), inputs)
    return [{sub: float(h[rx, sub, True][0]) for sub in subsets}
            for rx, (_, _, subsets) in enumerate(receivers)]


def layered_system(channel, cfg, theorem, drop_dont_care):
    """Validate cfg and build its variables and every row."""
    fields, blocks = _normalized_blocks(channel, cfg, with_v=theorem == 3)
    u_act, v_act, x_act = {}, {}, {}
    h_v, h_x = {}, {}
    for t in range(3):
        tab = blocks[t]
        for r in _OTHERS[t]:
            u_act[(t, r)] = _is_active(_marg(tab, (_u_axis(t, r),)))
            vm = _marg(tab, (_v_axis(t, r),))
            v_act[(t, r)] = _is_active(vm)  # Thm 2's V axes have size 1
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

    rows = []  # (label, kind, coeffs, sense, rhs)
    # --- source (covering) bounds, one family per user --------------------
    for t in range(3):
        own_u = [(t, r) for r in _OTHERS[t] if u_act[(t, r)]]
        own_v = [(t, r) for r in _OTHERS[t] if v_act[(t, r)]]
        for a_set in _subsets(own_u):
            for c_set in _subsets(own_v):
                log_sum = sum(math.log2(fields[r]) for _, r in a_set)
                hv_sum = sum(h_v[p] for p in c_set)
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
                    rows.append((lbl, "source", coeffs, ">", log_sum + hv_sum
                                 - shannon_entropy(_marg(blocks[t], axes))))
                if x_act[t]:
                    rows.append((lbl + "+K", "source",
                                 {**coeffs, f"K{t + 1}": 1.0}, ">",
                                 log_sum + hv_sum + h_x[t] - shannon_entropy(
                                     _marg(blocks[t], axes + (4,)))))

    # --- channel (packing) bounds, one family per receiver ----------------
    packing = []  # per receiver: its H(S, Y) queries and error events
    for j in range(3):
        i, k = _OTHERS[j]
        atoms = []
        for r in _OTHERS[j]:
            if u_act[(j, r)]:
                atoms.append(_Atom(f"U{j + 1}{r + 1}", fields[r],
                                   _u_charges(j, r), math.log2(fields[r]),
                                   True, (j, r)))
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
            copies = tuple(("+ij" if t == i else "+kj", _u_charges(t, j))
                           for t in sum_srcs)
            atoms.append(_Atom(f"W{j + 1}", fields[j], (),
                               math.log2(fields[j]), False, None,
                               is_sum=True, copies=copies))
        for t in (i, k):
            if v_act[(t, j)]:
                atoms.append(_Atom(f"V{t + 1}{j + 1}",
                                   blocks[t].shape[_v_axis(t, j)],
                                   (f"B{t + 1}{j + 1}", f"N{t + 1}{j + 1}"),
                                   h_v[(t, j)], False, (t, j), is_cross=True))

        if not atoms:
            continue
        # error events: those that fix a message part, and the bare sum
        events = [g for g in _subsets(atoms) if any(a.own for a in g)
                  or (len(g) == 1 and g[0].is_sum and not drop_dont_care)]
        full = frozenset(a.reg for a in atoms)
        rest = [full - {a.reg for a in g} for g in events]
        packing.append((j, atoms, dict.fromkeys([full] + rest), full,
                        events, rest))

    hs = rx_entropies(channel, blocks, fields, [p[:3] for p in packing])
    for (j, _, _, full, events, rest), h in zip(packing, hs):
        for g, r in zip(events, rest):
            # H(Z_wrong | Z_rest, Y)
            rhs = sum(a.corr for a in g) - (h[full] - h[r])
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
                     None))

    width = max(len(coeffs) for _, _, coeffs, _, _ in rows)
    idx = np.full((len(rows), width), len(names))
    coef = np.ones((len(rows), width))
    for r, (_, _, coeffs, _, _) in enumerate(rows):
        idx[r, :len(coeffs)] = [col[nm] for nm in coeffs]
        coef[r, :len(coeffs)] = list(coeffs.values())
    dense = np.zeros((len(rows), len(names) + 1))
    np.put_along_axis(dense, idx, coef, axis=1)

    tol = active_tolerances()
    a, b = [], []
    for row, (_, _, _, sense, rhs) in zip(dense[:, :-1], rows):
        if sense == "<":
            a.append(row)
            b.append(rhs - tol.rate)
        elif sense == ">":
            a.append(0.0 - row)  # not -row: absent variables stay +0.0
            b.append(-(rhs + tol.rate))
        else:  # equality via a pair of closed inequalities; rates go in later
            a += [row, 0.0 - row]
            b += [0.0, 0.0]
    a, b = np.array(a), np.array(b)
    for arr in (a, b, idx, coef):
        arr.setflags(write=False)
    return _LayeredSystem(tuple(names), col, tuple(rows), a, b, idx, coef)
