"""The per-state channel route: the test-side oracle.

``ChannelSpec`` validates its state family as one stack and traces all
three reduced tables from it in one pass.  This module keeps the route
it replaced, one state at a time: ``tensor_all`` by ``np.kron``,
``density_operator`` with a full ``eig_hermitian`` per state,
``partial_trace`` per input, and the ``ChannelSpec`` state loop and
``_require_3to1`` loop around them.  The function bodies are unchanged
apart from the names; ``cqic.channels`` must give the same states and
tables bit for bit, and the same exceptions.  Nothing here calls the
stacked code.

``user_capacity_cost`` and ``example_capacities`` are the capacity
searches one after the other, each golden-section step one scalar
``von_neumann_entropy``; the lock-step searches of ``cqic.channels``
must give the same values and points bit for bit, and the same
exceptions in the same user order.
"""

import itertools

import numpy as np

from cqic.channels import (Capacities, gamma_state, interference_free_family,
                           sigma_state)
from cqic.config import active_tolerances
from cqic.errors import (ConfigMismatch, DimensionMismatch, DomainError,
                         InvalidState, Not3to1, Unsupported)
from cqic.linalg import _as_matrix, eig_hermitian, operator_norm
from cqic.states import Pmf, von_neumann_entropies, von_neumann_entropy


def tensor_all(factors):
    out = _as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, _as_matrix(f))
    return out


def partial_trace(rho, dims, keep):
    """Trace out the factors not listed in ``keep`` of one raw matrix."""
    arr = _as_matrix(rho)
    dims = [int(d) for d in dims]
    keep_sorted = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep_sorted):
        raise DimensionMismatch("keep indices outside factor range")
    if int(np.prod(dims)) != arr.shape[0]:
        raise DimensionMismatch(
            f"factor dims {dims} do not match operator dim {arr.shape[0]}")
    traced = [i for i in range(len(dims)) if i not in keep_sorted]
    t = arr.reshape(tuple(dims) + tuple(dims))
    cur = list(range(len(dims)))
    for factor in sorted(traced, reverse=True):
        pos = cur.index(factor)
        t = np.trace(t, axis1=pos, axis2=pos + len(cur))
        cur.remove(factor)
    d_keep = int(np.prod([dims[i] for i in keep_sorted])) if keep_sorted else 1
    return np.ascontiguousarray(t.reshape(d_keep, d_keep))


def density_operator(mat):
    """The validated, read-only matrix of ``DensityOperator(mat)``."""
    arr = np.array(getattr(mat, "mat", mat), dtype=complex)
    tol = active_tolerances()
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidState(f"density operator must be square, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidState("density operator has non-finite entries")
    if float(np.abs(arr - arr.conj().T).max()) > tol.herm:
        raise InvalidState("density operator is not Hermitian within tolerance")
    if abs(float(np.trace(arr).real) - 1.0) > tol.trace:
        raise InvalidState(f"trace {np.trace(arr).real} differs from 1")
    w, _ = eig_hermitian(arr)
    if float(w.min()) < -tol.psd:
        raise InvalidState(f"negative eigenvalue {w.min()} beyond tolerance")
    arr.setflags(write=False)
    return arr


def channel_states(input_sizes, output_dims, states):
    """The validated state dict of ``ChannelSpec(input_sizes, output_dims,
    states, ...)``."""
    total_dim = int(np.prod(output_dims))
    out = {}
    for x in np.ndindex(*input_sizes):
        if x not in states:
            raise DomainError(f"state family missing input {x}")
        op = density_operator(states[x])
        if op.shape[0] != total_dim:
            raise DomainError(f"state at {x} has dim {op.shape[0]} != {total_dim}")
        out[x] = op
    return out


def reduced(states, output_dims, j, x):
    """rho^{Y_j}_x."""
    return partial_trace(states[tuple(int(v) for v in x)], output_dims, {j})


def reduced_table(states, input_sizes, output_dims, j):
    """Every rho^{Y_j}_x in one ``(|X1|, |X2|, |X3|, d, d)`` array."""
    d = output_dims[j]
    table = np.array([reduced(states, output_dims, j, x)
                      for x in np.ndindex(*input_sizes)])
    return table.reshape(tuple(input_sizes) + (d, d))


def json_states(d):
    """The state mapping ``ChannelSpec.from_json_dict(d)`` passes on."""
    total = int(np.prod(d["output_dims"]))
    states = {}
    for row in d["states"]:
        m = (np.asarray(row["matrix_re"], float)
             + 1j * np.asarray(row.get("matrix_im", np.zeros(total * total)),
                               float)).reshape(total, total)
        states[tuple(row["x"])] = m
    return states


def product_states(fam1, fam2, fam3):
    """The state mapping of ``channels._product_channel``."""
    states = {}
    for x in np.ndindex(2, 2, 2):
        states[x] = tensor_all([fam1(*x), fam2(*x), fam3(*x)])
    return channel_states((2, 2, 2), (2, 2, 2), states)


def example_states(name, phi_or_delta1, delta2, delta3):
    """The validated states of ``build_ex1/2/3`` at these noise levels."""
    first = {
        "ex1": lambda x1, x2, x3: sigma_state(phi_or_delta1, x1 ^ x2 ^ x3),
        "ex2": lambda x1, x2, x3: gamma_state(phi_or_delta1, x1 ^ x2 ^ x3),
        "ex3": lambda x1, x2, x3: gamma_state(phi_or_delta1, x1 ^ (x2 | x3)),
    }[name]
    return product_states(first,
                          lambda x1, x2, x3: sigma_state(delta2, x2),
                          lambda x1, x2, x3: sigma_state(delta3, x3))


def require_3to1(states, input_sizes, output_dims):
    """Receivers 2 and 3 must see only their own input."""
    tol = active_tolerances().commute
    sizes = input_sizes
    for j in (1, 2):
        for xj in range(sizes[j]):
            base = None
            for x in itertools.product(*(range(s) for s in sizes)):
                if x[j] != xj:
                    continue
                op = reduced(states, output_dims, j, x)
                if base is None:
                    base = op
                elif operator_norm(base - op) > tol:
                    raise Not3to1(
                        f"receiver {j + 1} output varies with other users' "
                        f"inputs at x_{j + 1}={xj}")


def _binary_mutual_info(rho0, rho1, p1, h0, h1):
    avg = (1.0 - p1) * rho0 + p1 * rho1
    return von_neumann_entropy(avg) - (1.0 - p1) * h0 - p1 * h1


def user_capacity_cost(spec, j, tau, grid=1e-3, others="zero_cost"):
    """Grid scan as one stack, then a scalar golden-section refinement."""
    if spec.input_sizes[j] != 2:
        raise Unsupported("capacity scan implemented for binary inputs only")
    if grid <= 0:
        raise DomainError("grid resolution must be positive")
    c0, c1 = spec.costs[j]
    upper = 0.5
    if tau is not None:
        if c0 > tau + active_tolerances().prob:
            raise DomainError("cost budget below the cheapest symbol")
        if c1 > c0:
            upper = min(0.5, (tau - c0) / (c1 - c0))
    rho0, rho1 = interference_free_family(spec, j, others)
    h0, h1 = von_neumann_entropies(np.array([rho0, rho1])).tolist()

    def info(p):
        return _binary_mutual_info(rho0, rho1, p, h0, h1)

    npts = max(2, int(np.ceil(upper / grid)) + 1)
    ps = np.linspace(0.0, upper, npts)
    avg = (1.0 - ps)[:, None, None] * rho0 + ps[:, None, None] * rho1
    vals = von_neumann_entropies(avg) - (1.0 - ps) * h0 - ps * h1
    best = int(np.argmax(vals))
    lo = ps[max(0, best - 1)]
    hi = ps[min(npts - 1, best + 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = info(x1), info(x2)
    while b - a > 1e-9:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = info(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = info(x2)
    candidates = [(vals[best], ps[best]), (f1, x1), (f2, x2),
                  (info(upper), upper), (info(0.0), 0.0)]
    cbest, pbest = max(candidates, key=lambda t: t[0])
    return float(cbest), Pmf([1.0 - pbest, pbest])


def example_capacities(spec):
    """The four headline capacities, one search after the other."""
    if spec.budget is None:
        raise ConfigMismatch("channel has no cost budget configured")
    taus = spec.budget.as_tuple()
    caps = []
    for j in range(3):
        tau = taus[j] if spec.costs[j].max() > 0 else None
        caps.append(user_capacity_cost(spec, j, tau)[0])
    c1_free = user_capacity_cost(spec, 0, None)[0]
    return Capacities(caps[0], caps[1], caps[2], c1_free)
