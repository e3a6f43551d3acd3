"""Direct inner bounds over a whole grid of configs, in batched passes.

:func:`direct_bounds` evaluates the direct bounds of :mod:`cqic.regions`
(Thm 1 sum decoding and unstructured superposition), conditional mutual
informations I(A; Y | C) of one receiver's state, over every config of a
product grid, ``BLOCK`` configs per call of the cq-state kernel
:func:`~cqic.states.cq_entropies`.  :func:`grid_source` is where a grid
scan takes its bound values: the closed forms of the plane-rotation/flip
family, one self-contained source per evaluator
(:func:`_unstructured_source`, :func:`_thm1_source`), or this engine
over the scan's user grids.

The points are (a2, a3, x1) with mass (w2[a2] * w3[a3]) * p1[x1], where
a_j is user j's field symbol (Thm 1) or its (cloud, input) pair
(superposition), and user j sends input x_j[a_j].  Every value is bit
for bit what one ``CqState`` per receiver and ``conditional_mutual_info``
give for the one config.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from .channels import ChannelSpec, gamma_state, sigma_state
from .states import (_conv_arr, _f_arr, _hb_arr, cq_entropies, entropy_plan,
                     receiver_layout, shannon_entropies)

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
def _layout(evaluator, alpha2, alpha3, n1, dims):
    """Entropy plan and bound terms of a direct bound, per alphabet shape
    and output dimensions ``dims``.

    ``alpha_j`` is the field size (Thm 1) or the ``(clouds, inputs)``
    table shape (superposition) of user j.  Points run flat over
    (a2, a3, x1); each receiver gets the :func:`receiver_layout` of the
    register subsets its bound terms need, and the receivers one
    :func:`entropy_plan`.
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
    return entropy_plan(receivers, dims), terms


def _block_bounds(plan, terms, tables, p1, w2, x2, w3, x3):
    """Bound terms I(A; Y | C) of a block of configs, one entry per config.

    ``p1``/``w2``/``w3`` hold the configs' factor pmfs, ``x2``/``x3`` the
    input each user-2/3 atom sends, ``tables`` each receiver's stacked
    channel outputs.
    """
    g, n1 = p1.shape
    mass = ((w2[:, :, None, None] * w3[:, None, :, None])
            * p1[:, None, None, :]).reshape(g, -1)
    inputs = np.ravel_multi_index(
        (np.arange(n1), x2[:, :, None, None], x3[:, None, :, None]),
        tables[0].shape[:3]).reshape(g, -1)
    h = cq_entropies(plan, tables, mass, inputs)
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
    plan, terms = _layout(evaluator, alpha2, alpha3, n1, channel.output_dims)
    tables = [channel.reduced_table(j) for j in range(3)]

    grid = (len(p1s), len(users2), len(users3))
    total = math.prod(grid)
    flat = {}
    for start in range(0, total, BLOCK):
        i1, i2, i3 = np.unravel_index(
            np.arange(start, min(start + BLOCK, total)), grid)
        vals = _block_bounds(plan, terms, tables, p1[i1], w2[i2],
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


# ---------------------------------------------------------------------------
# scan bound sources: user grids, closed forms and the engine


@functools.lru_cache(maxsize=16)
def _lattice_pmfs(n_atoms, denominator):
    """All pmfs with masses i/denominator, in lexicographic order.

    One read-only ``(count, n_atoms)`` array, built once per argument
    pair.
    """
    rows = []
    for comp in itertools.combinations_with_replacement(range(n_atoms),
                                                        denominator):
        counts = [0] * n_atoms
        for c in comp:
            counts[c] += 1
        rows.append(counts)
    pmfs = np.array(rows, dtype=float).reshape(len(rows), n_atoms)
    pmfs = pmfs / denominator
    pmfs.setflags(write=False)
    return pmfs


#: one user's scan configs in (pmf, map) lexicographic order, one row
#: each: pmf ``p``, deterministic cloud->input map ``f``, probability
#: ``q`` of input 1 (binary inputs only, else None) and expected ``cost``
_UserGrid = namedtuple("_UserGrid", "p f q cost")


def _binary_user_grid(channel, j, n_sym, denominator):
    """Enumerate (pmf, map) configs for user j; maps are deterministic."""
    return _user_grid(channel.input_sizes[j], channel.costs[j].tobytes(),
                      n_sym, denominator)


@functools.lru_cache(maxsize=16)
def _user_grid(x_size, kappa_bytes, n_sym, denominator):
    """Read-only :data:`_UserGrid` arrays, built once per argument set.

    ``q`` and ``cost`` are summed left to right over the symbols u, as
    a scalar ``sum`` over u would, so each row has the scalar bits.
    """
    kappa = np.frombuffer(kappa_bytes)
    pmfs = _lattice_pmfs(n_sym, denominator)
    maps = np.array(list(itertools.product(range(x_size), repeat=n_sym)),
                    dtype=int).reshape(-1, n_sym)
    p = np.repeat(pmfs, len(maps), axis=0)
    f = np.tile(maps, (len(pmfs), 1))
    q = np.zeros(len(p)) if x_size == 2 else None
    cost = np.zeros(len(p))
    for u in range(n_sym):
        if q is not None:
            q = q + np.where(f[:, u] == 1, p[:, u], 0.0)
        cost = cost + p[:, u] * kappa[f[:, u]]
    grid = _UserGrid(p, f, q, cost)
    for a in grid:
        if a is not None:
            a.setflags(write=False)
    return grid


def _grid_size(x_size, n_sym, denominator):
    """The number of configs :func:`_user_grid` enumerates, unbuilt."""
    return math.comb(n_sym + denominator - 1, denominator) * x_size ** n_sym


def _grid_rows(grid, rows):
    """The configs of ``grid`` at ``rows`` (a slice, mask or index array)."""
    return _UserGrid(*(None if a is None else a[rows] for a in grid))


def _haf_arr(t, phi):
    return _hb_arr(_f_arr(t, phi))


def _parity_gamma_form(channel: ChannelSpec):
    """Detect the plane-rotation interference family with flip channels.

    Returns (phi, (d2, d3)) when receiver 1 sees gamma(x1 xor x2 xor x3)
    and receivers 2/3 see their own input through a symmetric flip;
    None otherwise.
    """
    if channel.input_sizes != (2, 2, 2) or channel.output_dims != (2, 2, 2):
        return None
    g1 = channel.reduced(0, (1, 0, 0))
    c, s = math.sqrt(max(0.0, g1[0, 0].real)), math.sqrt(max(0.0, g1[1, 1].real))
    phi = math.atan2(s, c)
    deltas = tuple(float(channel.reduced(j, (0, 0, 0))[0, 0].real)
                   for j in (1, 2))
    if not 0.0 < phi < math.pi / 2 or not all(0.0 < d < 0.5 for d in deltas):
        return None
    g = (gamma_state(phi, 0), gamma_state(phi, 1))
    sig = [(sigma_state(d, 0), sigma_state(d, 1)) for d in deltas]
    # every rho^{Y_j}_x against its expected state, one stack per receiver
    xs = list(itertools.product((0, 1), repeat=3))
    expected = ([g[sum(x) % 2] for x in xs], [sig[0][x[1]] for x in xs],
                [sig[1][x[2]] for x in xs])
    for j, want in enumerate(expected):
        if not np.allclose(channel.reduced_table(j).reshape(8, 2, 2),
                           np.array(want), atol=1e-12):
            return None
    return phi, deltas


#: distinct float64 arguments and, shaped like the argument, the index
#: of each entry's key; both read-only
_Distinct = namedtuple("_Distinct", "keys inv")


def _distinct(x):
    """Distinct float64 bit patterns of ``x`` (the uint64 view is the key,
    so -0.0 and 0.0 stay apart)."""
    x = np.ascontiguousarray(x, dtype=float)
    keys, inv = np.unique(x.view(np.uint64), return_inverse=True)
    d = _Distinct(keys.view(np.float64), inv.reshape(x.shape))
    for a in d:
        a.setflags(write=False)
    return d


#: the channel-free part of the closed forms over a user-2 x user-3
#: grid: the distinct ``q`` of either grid and, for Thm 1 (else None),
#: the masses ``pu0``/``pu1`` of U2 + U3 = 0/1, the distinct arguments
#: ``w`` of the w0, w1 and w_tot terms over the config grid (one
#: :data:`_Distinct`, its ``inv`` stacked in that order), ``hu`` and
#: ``hmin``; read-only
_ClosedFrame = namedtuple("_ClosedFrame", "q2 q3 pu0 pu1 w hu hmin")


def _grid_key(g):
    """The shape and the ``p``, ``f`` and ``q`` bytes of user grid ``g``:
    all that its closed-form frame reads."""
    return g.p.shape, g.p.tobytes(), g.f.tobytes(), g.q.tobytes()


@functools.lru_cache(maxsize=8)
def _closed_frame(evaluator, key2, key3):
    """The :data:`_ClosedFrame` of the user grids with :func:`_grid_key`
    ``key2`` and ``key3``, built once per grid pair and evaluator.

    It reads no phi, delta or rate, so every scan over the same
    cost-feasible user grids shares it.
    """
    g2, g3 = (_UserGrid(np.frombuffer(p).reshape(shape),
                        np.frombuffer(f, dtype=int).reshape(shape),
                        np.frombuffer(q), None)
              for shape, p, f, q in (key2, key3))
    q2, q3 = _distinct(g2.q), _distinct(g3.q)
    if evaluator == "unstructured":
        return _ClosedFrame(q2, q3, *(None,) * 5)

    p2, f2 = g2.p[:, None, :], g2.f[:, None, :]     # (m2, 1, 2)
    p3, f3 = g3.p[None, :, :], g3.f[None, :, :]     # (1, m3, 2)
    pu0 = p2[..., 0] * p3[..., 0] + p2[..., 1] * p3[..., 1]
    pu1 = p2[..., 0] * p3[..., 1] + p2[..., 1] * p3[..., 0]
    n0 = (p2[..., 0] * p3[..., 0] * ((f2[..., 0] + f3[..., 0]) % 2)
          + p2[..., 1] * p3[..., 1] * ((f2[..., 1] + f3[..., 1]) % 2))
    n1 = (p2[..., 0] * p3[..., 1] * ((f2[..., 0] + f3[..., 1]) % 2)
          + p2[..., 1] * p3[..., 0] * ((f2[..., 1] + f3[..., 0]) % 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        w0 = np.where(pu0 > 0.0, n0 / np.where(pu0 > 0, pu0, 1.0), 0.0)
        w1 = np.where(pu1 > 0.0, n1 / np.where(pu1 > 0, pu1, 1.0), 0.0)
    hu = _hb_arr(pu1)
    hmin = np.minimum(_hb_arr(p2[..., 1]), _hb_arr(p3[..., 1]))
    for a in (pu0, pu1, hu, hmin):
        a.setflags(write=False)
    w = _distinct(np.stack([w0, w1, n0 + n1]))
    return _ClosedFrame(q2, q3, pu0, pu1, w, hu, hmin)


#: where a scan takes its bound values over user grids g2 x g3, whose
#: configs lie on a stage grid of ``shape``.  ``at(flat)`` takes the
#: stage cells with flat indices ``flat`` to a function of p1s that gives
#: every rate key over p1s x those cells, one array per key that
#: broadcasts to ``(len(p1s), len(flat))``; ``index(a2, a3)`` is the flat
#: cell of config (a2, a3) and ``spread`` takes an array over the stage
#: grid back to the configs.  ``free`` holds the rate keys that no p1
#: enters, over the stage grid, or None where they are not kept apart.
_Source = namedtuple("_Source", "shape free at index spread")


def _used_keys(keys, inv):
    """The entries of ``keys`` that the indices ``inv`` reach, in key
    order, and each index's position among them."""
    used = np.zeros(len(keys), dtype=bool)
    used[inv] = True
    return keys[used], (np.cumsum(used) - 1)[inv]


def _unstructured_source(phi, q2, q3, own2, own3):
    """The closed-form unstructured :data:`_Source` at angle ``phi``.

    The bounds read a config only through (q2, q3), the frame's
    :data:`_Distinct` q of either grid, so the stage grid is distinct q2
    x distinct q3; ``own2``/``own3`` are the own rates at their keys.
    """
    n3 = len(q3.keys)

    def at(flat):
        c2, c3 = np.divmod(flat, n3)
        o2, o3 = own2.take(c2), own3.take(c3)
        (k2, i2), (k3, i3) = _used_keys(q2.keys, c2), _used_keys(q3.keys, c3)

        def bounds(p1s):
            p1 = np.asarray(p1s[:, 1], dtype=float)[:, None]
            x2, x3 = _conv_arr(p1, k2), _conv_arr(p1, k3)
            total = _conv_arr(x2.take(i2, axis=1), k3.take(i3))
            h = _haf_arr(np.concatenate((p1, x2, x3, total), axis=1), phi)
            e2, e3 = 1 + len(k2), 1 + len(k2) + len(k3)
            # deterministic maps make the private refinement terms vanish
            return {"own2": o2, "own3": o3, "r1_rhs": h[:, :1],
                    "pair2": h[:, 1:e2].take(i2, axis=1),
                    "pair3": h[:, e2:e3].take(i3, axis=1),
                    "total1": h[:, e3:], "refine2": 0.0, "refine3": 0.0}
        return bounds

    free = {"own2": own2[:, None], "own3": own3[None, :]}
    return _Source((len(q2.keys), n3), free, at,
                   lambda a2, a3: q2.inv[a2] * n3 + q3.inv[a3],
                   lambda v: v.take(q2.inv, axis=1).take(q3.inv, axis=2))


def _thm1_source(phi, frame, own2, own3):
    """The closed-form Thm 1 :data:`_Source` (binary field) at ``phi``.

    The stage grid is the config grid of the :data:`_ClosedFrame`
    ``frame``; ``own2``/``own3`` are the own rates at its distinct q.
    Terms combine in the order of the per-config formulas.
    """
    q2, q3, pu0, pu1, w, hu, hmin = frame
    # index, not take: take copies a read-only index array, slowly
    h0, h1, h_tot = _haf_arr(w.keys, phi)[w.inv]
    base = pu0 * h0 + pu1 * h1
    free = {"own2": own2[q2.inv][:, None], "own3": own3[q3.inv][None, :],
            "cross_rhs": h_tot - base - hu + hmin}
    n3 = base.shape[1]

    def at(flat):
        c2, c3 = np.divmod(flat, n3)
        o2, o3 = free["own2"].take(c2), free["own3"].take(c3)
        cross, pu0_c, pu1_c, base_c, hu_c, hmin_c = (v.take(flat) for v in (
            free["cross_rhs"], pu0, pu1, base, hu, hmin))
        keys, at_w = _used_keys(w.keys, w.inv.reshape(3, -1).take(flat, 1))

        def bounds(p1s):
            p1 = np.asarray(p1s[:, 1], dtype=float)[:, None]
            h0, h1, h_tot = _haf_arr(_conv_arr(p1, keys), phi).take(
                at_w, axis=1).transpose(1, 0, 2)
            return {"own2": o2, "own3": o3, "cross_rhs": cross,
                    "r1_rhs": pu0_c * h0 + pu1_c * h1 - base_c,
                    "sum_rhs": h_tot - base_c - hu_c + hmin_c}
        return bounds

    return _Source(base.shape, free, at, lambda a2, a3: a2 * n3 + a3,
                   lambda values: values)


def _closed_source(form, evaluator, g2, g3):
    """The closed-form :data:`_Source` of the plane-rotation/flip family.

    ``form`` is ``(phi, (d2, d3))`` from :func:`_parity_gamma_form`;
    ``g2``/``g3`` are user grids with deterministic maps, whose
    :func:`_closed_frame` later sources of the same grids share.
    """
    phi, (d2, d3) = form
    fr = _closed_frame(evaluator, _grid_key(g2), _grid_key(g3))
    own2 = _hb_arr(_conv_arr(fr.q2.keys, d2)) - _hb_arr(d2)
    own3 = _hb_arr(_conv_arr(fr.q3.keys, d3)) - _hb_arr(d3)
    if evaluator == "unstructured":
        return _unstructured_source(phi, fr.q2, fr.q3, own2, own3)
    return _thm1_source(phi, fr, own2, own3)


def _map_tables(p, f, x_size):
    """Joint (cloud, input) tables of users sending ``f[..., u]`` for
    cloud u: pmfs ``p`` and maps ``f`` of one shape ``(..., clouds)``."""
    tab = np.zeros(np.shape(p) + (x_size,))
    np.put_along_axis(tab, np.asarray(f)[..., None],
                      np.asarray(p, dtype=float)[..., None], axis=-1)
    return tab


def _grid_bounds(channel, evaluator, p1s, g2, g3):
    """Direct bound values over the config product, one array per key."""
    if evaluator == "unstructured":
        sizes = channel.input_sizes
        users = [_map_tables(g.p, g.f, sizes[j])
                 for j, g in ((1, g2), (2, g3))]
    else:
        users = [list(zip(g.p, g.f)) for g in (g2, g3)]
    return direct_bounds(channel, evaluator, p1s, *users)


def grid_source(channel, evaluator, g2, g3):
    """Where a scan takes its bound values over the user grids g2 x g3.

    Returns a :data:`_Source`.  The plane-rotation/flip family (Thm 1 on
    the binary field only) takes :func:`_closed_source`, one builder per
    evaluator: its user-1-free terms are evaluated once, and a scan
    evaluates the p1 terms only at the stage cells it asks for, once per
    distinct argument (:func:`_used_keys`).  The channel-free frame is
    built once per user-grid pair and shared by every source over the
    same grids, so a k-ray scan or a loop of in-process scans builds it
    once.  Every other channel takes the batched engine on the config
    grid, ``free`` None, whose values agree with the closed forms to
    1e-12: ``at`` evaluates the product of the grid rows the cells touch
    and takes each cell from it, with that config's bits alone.
    """
    form = channel.verdict(_parity_gamma_form)
    if form is None or (evaluator == "thm1" and g2.p.shape[1] != 2):
        n3 = len(g3.p)

        def engine_at(flat):
            (u2, i2), (u3, i3) = (np.unique(c, return_inverse=True)
                                  for c in np.divmod(flat, n3))
            rows = _grid_rows(g2, u2), _grid_rows(g3, u3)
            return lambda p1s: {
                k: v[:, i2, i3] for k, v
                in _grid_bounds(channel, evaluator, p1s, *rows).items()}

        return _Source((len(g2.p), n3), None, engine_at,
                       lambda a2, a3: a2 * n3 + a3, lambda values: values)
    return _closed_source(form, evaluator, g2, g3)
