"""The layered Thm 2/3 rows as two per-theorem source families built them.

:func:`layered_rows` is the row loop of ``cqic.layered._layered_system``
from before one loop per row family served both theorems: the covering
(source) rows come from one hand-written branch per theorem, the packing
atoms spell out their U-layer charges per theorem twice, and a V layer is
active only in Thm 3.  It shares the validation, the marginals and the
receiver entropies with :mod:`cqic.layered`, so a differential test can
compare every row, rhs bits included.
"""

import math

from cqic.layered import (_OTHERS, _Atom, _is_active, _marg, _normalized_blocks,
                          _pair_label, _rx_entropies, _subsets, _u_axis,
                          _v_axis)
from cqic.states import shannon_entropy


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

    hs = _rx_entropies(channel, blocks, fields, [p[:3] for p in packing])
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
