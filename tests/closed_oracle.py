"""The closed-form scan before its stages: the test-side oracle.

``closed_bounds`` is the per-call closed form of the plane-rotation/flip
family as ``cqic.regions`` evaluated it before the scan was split into
a p1-free stage and p1 terms on distinct arguments: every bound value
on the full broadcast config grid, rebuilt from Python lists of user
configs on each call.  ``scan`` is the closed-form path of
``max_r1_scan`` around it, ``r1_sup`` the supremum over every config
before the scan tested its rows without R1 apart, and
``parity_gamma_form`` the per-input family check.  The function bodies
are unchanged apart from the names; ``cqic.direct`` and
``max_r1_scan`` must give the same values bit for bit.  ``map_table``
is the per-config loop that ``cqic.direct._map_tables`` vectorizes, and
``hb_arr``/``haf_arr`` the masked and clipped entropy terms before
the array forms (now in ``cqic.states``) dropped the clips and the
masked assignment.  Nothing
here calls the staged code, except ``staged_bounds``, which reads its
source at every stage cell and spreads the values back to the full grid
for the comparison.

``binary_entropy``, ``fact1_f``, ``shannon_entropy`` and
``von_neumann_entropy`` are the scalar formulas of ``cqic.states``
before each became the checked one-element call of its array form;
the array forms must give their bits.
"""

import itertools
import math

import numpy as np

from cqic import direct
from cqic import regions as rg
from cqic.channels import gamma_state, sigma_state
from cqic.config import active_tolerances
from cqic.errors import DomainError, InvalidState
from cqic.linalg import eigvals_hermitian
from cqic.regions import ScanResult, Thm1Config, UnstructuredConfig


def binary_entropy(p):
    p = min(1.0, max(0.0, p))
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def fact1_f(t, phi):
    t = min(1.0, max(0.0, t))
    disc = 1.0 - 4.0 * t * (1.0 - t) * np.sin(phi) ** 2
    return float((1.0 + np.sqrt(max(0.0, disc))) / 2.0)


def shannon_entropy(probs):
    p = np.asarray(probs, dtype=float).ravel()
    p = p[p > 0.0]
    return float(0.0 - np.sum(p * np.log2(p)))


def von_neumann_entropy(rho):
    tol = active_tolerances()
    w = eigvals_hermitian(rho)
    if w.size and float(w.min()) < -tol.psd:
        raise InvalidState(f"eigenvalue {w.min()} below -{tol.psd}")
    return shannon_entropy(np.where(w < tol.eig_floor, 0.0, w))


def _conv_arr(p, q):
    return p + q - 2.0 * p * q


def hb_arr(t):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    out = np.zeros_like(t)
    inner = (t > 0.0) & (t < 1.0)
    ti = t[inner]
    out[inner] = -ti * np.log2(ti) - (1.0 - ti) * np.log2(1.0 - ti)
    return out


def haf_arr(t, phi):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    f = (1.0 + np.sqrt(np.clip(1.0 - 4.0 * t * (1.0 - t)
                               * math.sin(phi) ** 2, 0.0, None))) / 2.0
    return hb_arr(f)


def lattice_pmfs(n_atoms, denominator):
    """All pmfs with masses i/denominator, in lexicographic order."""
    out = []
    for comp in itertools.combinations_with_replacement(range(n_atoms),
                                                        denominator):
        counts = [0] * n_atoms
        for c in comp:
            counts[c] += 1
        out.append(np.array(counts, dtype=float) / denominator)
    return out


def parity_gamma_form(channel):
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


def binary_user_grid(channel, j, n_sym, denominator):
    """Enumerate (pmf, map) pairs for user j; map is deterministic."""
    x_size = channel.input_sizes[j]
    kappa = channel.costs[j]
    pmfs = lattice_pmfs(n_sym, denominator)
    maps = list(itertools.product(range(x_size), repeat=n_sym))
    cfgs = []
    for p in pmfs:
        for f in maps:
            q = float(sum(p[u] for u in range(n_sym) if f[u] == 1)) \
                if x_size == 2 else None
            cost = float(sum(p[u] * kappa[f[u]] for u in range(n_sym)))
            cfgs.append((p, f, q, cost))
    return cfgs


def closed_bounds(form, evaluator, p1v, g2, g3):
    """Rate-bound values of the plane-rotation/flip family in closed form.

    ``form`` is ``(phi, (d2, d3))`` from :func:`parity_gamma_form`,
    ``p1v`` the user-1 'on' probabilities and ``g2``/``g3`` user grid
    entries with deterministic maps.  Returns the rate keys of
    :func:`_unstructured_bounds` / :func:`_thm1_bounds` as arrays that
    broadcast to ``(len(p1v), len(g2), len(g3))``.
    """
    phi, (d2, d3) = form
    p1 = np.asarray(p1v, dtype=float)[:, None, None]
    q2 = np.array([c[2] for c in g2])[None, :, None]
    q3 = np.array([c[2] for c in g3])[None, None, :]
    b = {"own2": hb_arr(_conv_arr(q2, d2)) - hb_arr(np.full_like(q2, d2)),
         "own3": hb_arr(_conv_arr(q3, d3)) - hb_arr(np.full_like(q3, d3))}

    if evaluator == "unstructured":
        # deterministic maps make the private refinement terms vanish
        b.update(r1_rhs=haf_arr(p1, phi),
                 pair2=haf_arr(_conv_arr(p1, q2), phi),
                 pair3=haf_arr(_conv_arr(p1, q3), phi),
                 total1=haf_arr(_conv_arr(_conv_arr(p1, q2), q3), phi),
                 refine2=0.0, refine3=0.0)
        return b

    p2 = np.array([c[0] for c in g2])[:, None, :]     # (m2, 1, 2)
    f2 = np.array([c[1] for c in g2])[:, None, :]
    p3 = np.array([c[0] for c in g3])[None, :, :]     # (1, m3, 2)
    f3 = np.array([c[1] for c in g3])[None, :, :]
    pu0 = p2[..., 0] * p3[..., 0] + p2[..., 1] * p3[..., 1]
    pu1 = p2[..., 0] * p3[..., 1] + p2[..., 1] * p3[..., 0]
    n0 = (p2[..., 0] * p3[..., 0] * ((f2[..., 0] + f3[..., 0]) % 2)
          + p2[..., 1] * p3[..., 1] * ((f2[..., 1] + f3[..., 1]) % 2))
    n1 = (p2[..., 0] * p3[..., 1] * ((f2[..., 0] + f3[..., 1]) % 2)
          + p2[..., 1] * p3[..., 0] * ((f2[..., 1] + f3[..., 0]) % 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        w0 = np.where(pu0 > 0.0, n0 / np.where(pu0 > 0, pu0, 1.0), 0.0)
        w1 = np.where(pu1 > 0.0, n1 / np.where(pu1 > 0, pu1, 1.0), 0.0)
    w_tot = n0 + n1
    base = pu0 * haf_arr(w0, phi) + pu1 * haf_arr(w1, phi)
    hu = hb_arr(pu1)
    hmin = np.minimum(hb_arr(p2[..., 1]), hb_arr(p3[..., 1]))
    b.update(r1_rhs=(pu0 * haf_arr(_conv_arr(p1, w0), phi)
                     + pu1 * haf_arr(_conv_arr(p1, w1), phi) - base),
             cross_rhs=(haf_arr(w_tot, phi) - base - hu + hmin)[None],
             sum_rhs=haf_arr(_conv_arr(p1, w_tot), phi) - base - hu + hmin)
    return b


def add(terms):
    """Left-to-right sum from the first term (``0 + -0.0`` flips a sign)."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def r1_sup(rows, b, r2, r3, tol):
    """Supremum of R1 the rows allow at fixed (R2, R3); ``-inf`` if none.

    Bound values may be floats or arrays that broadcast together; the
    result takes their broadcast shape.  Rows without R1 must hold with
    the ``tol`` margin, as in the checkers.
    """
    sup, ok = math.inf, True
    for _, (c1, c2, c3), keys in rows:
        rhs = add([b[k] for k in keys])
        fixed = [(c, r) for c, r in ((c2, r2), (c3, r3)) if c]
        if c1:
            for c, r in fixed:
                rhs = rhs - c * r
            sup = np.minimum(sup, rhs)
        else:
            ok = ok & (add([c * r for c, r in fixed]) <= rhs - tol)
    return np.where(ok & (sup > 0.0), sup, -np.inf)


def map_table(p, f, x_size):
    """Joint (cloud, input) table of a user sending f[u] for cloud u."""
    tab = np.zeros((len(p), x_size))
    for u in range(len(p)):
        tab[u, f[u]] = p[u]
    return tab


def materialize(evaluator, channel, field_size, p1, c2, c3):
    if evaluator == "unstructured":
        sizes = channel.input_sizes
        return UnstructuredConfig(np.asarray(p1, dtype=float),
                                  map_table(c2[0], c2[1], sizes[1]),
                                  map_table(c3[0], c3[1], sizes[2]))
    return Thm1Config(field_size, tuple(np.asarray(p1, dtype=float)),
                      tuple(c2[0]), tuple(c3[0]), tuple(c2[1]), tuple(c3[1]))


def scan(channel, r2, r3, evaluator="unstructured", u_sizes=(2, 2),
         field_size=2, denominator=32, refine=True):
    """The closed-form path of ``max_r1_scan``, on ``closed_bounds``."""
    tol = rg.active_tolerances()
    r2, r3 = float(r2), float(r3)
    sizes = channel.input_sizes
    budget = channel.budget
    taus = budget.as_tuple() if budget is not None else (math.inf,) * 3
    p1s = lattice_pmfs(sizes[0], denominator)

    if evaluator == "unstructured":
        rows = rg._UNSTR_ROWS
        n2, n3 = int(u_sizes[0]), int(u_sizes[1])
    else:
        rows = rg._THM1_ROWS
        n2 = n3 = int(field_size)
    grid2 = binary_user_grid(channel, 1, n2, denominator)
    grid3 = binary_user_grid(channel, 2, n3, denominator)

    kappa1 = channel.costs[0]
    p1_ok = [p for p in p1s if float(p @ kappa1) <= taus[0] + tol.prob]
    g2_ok = [c for c in grid2 if c[3] <= taus[1] + tol.prob]
    g3_ok = [c for c in grid3 if c[3] <= taus[2] + tol.prob]

    form = parity_gamma_form(channel)
    assert form is not None and (evaluator == "unstructured"
                                 or field_size == 2)

    def sup_at(p1_list, g2_list, g3_list):
        b = closed_bounds(form, evaluator, [p[1] for p in p1_list],
                          g2_list, g3_list)
        return r1_sup(rows, b, r2, r3, tol.rate)

    best_val, best_cfg = -math.inf, None
    evaluations = len(p1_ok) * len(g2_ok) * len(g3_ok)
    if evaluations:
        sup = sup_at(p1_ok, g2_ok, g3_ok)
        i1, a2, a3 = np.unravel_index(int(np.argmax(sup)), sup.shape)
        best_val = float(sup[i1, a2, a3])
    grid_value = best_val
    if best_val > -math.inf:
        c2, c3, best_p1 = g2_ok[a2], g3_ok[a3], p1_ok[i1]
        if refine and sizes[0] == 2:
            center, width = float(best_p1[1]), 1.0 / denominator
            for _ in range(8):
                pts = np.linspace(max(0.0, center - width),
                                  min(1.0, center + width), 17)
                evaluations += len(pts)
                cands = [np.array([1.0 - p, p]) for p in map(float, pts)]
                cands = [p1 for p1 in cands
                         if float(p1 @ kappa1) <= taus[0] + tol.prob]
                if cands:
                    vals = sup_at(cands, [c2], [c3]).ravel()
                    k = int(np.argmax(vals))
                    if vals[k] > best_val:
                        best_val, best_p1 = float(vals[k]), cands[k]
                        center = float(best_p1[1])
                width /= 8.0
        best_cfg = materialize(evaluator, channel, field_size,
                               best_p1, c2, c3)
    return ScanResult(float(best_val), best_cfg, evaluations,
                      float(grid_value))


def staged_bounds(form, evaluator, p1s, g2, g3):
    """``cqic.direct``'s closed-form bound values, spread to the full
    grid ``(len(p1s), len(g2.p), len(g3.p))`` of the user grids g2, g3:
    the source's ``at`` over every stage cell, then its ``spread``."""
    source = direct._closed_source(form, evaluator, g2, g3)
    size = math.prod(source.shape)
    full = (len(p1s),) + source.shape
    return {key: source.spread(np.broadcast_to(val, (len(p1s), size))
                               .reshape(full))
            for key, val in source.at(np.arange(size))(p1s).items()}
