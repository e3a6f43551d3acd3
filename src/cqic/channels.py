"""Three-user one-sided interference channel constructions.

The three worked channel families share one shape: user 1's output
carries an XOR (or XOR-of-OR) of all inputs, users 2 and 3 see only
their own input.  ``sigma_state`` / ``gamma_state`` are the two qubit
output families; everything else is tensor-product assembly, one stack
per family, plus single-user capacity scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .config import _integer, active_tolerances
from .errors import (ConfigMismatch, DomainError, Unsupported)
from .linalg import eig_hermitian, operator_norm, partial_trace, tensor_all
from .states import (DensityOperator, Pmf, binary_convolve, binary_entropy,
                     fact1_f, shannon_entropy, validate_densities,
                     von_neumann_entropies)


def sigma_state(delta: float, x: int) -> np.ndarray:
    """(1-delta)|1-x><1-x| + delta|x><x| for a bit x."""
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta {delta} outside (0, 1/2)")
    if x not in (0, 1):
        raise DomainError(f"input symbol {x} not a bit")
    out = np.zeros((2, 2), dtype=complex)
    out[1 - x, 1 - x] = 1.0 - delta
    out[x, x] = delta
    return out


def gamma_state(phi: float, x: int) -> np.ndarray:
    """|0><0| for x = 0, |v_phi><v_phi| with v_phi = (cos phi, sin phi) else."""
    if not (0.0 < phi < np.pi / 2):
        raise DomainError(f"phi {phi} outside (0, pi/2)")
    if x not in (0, 1):
        raise DomainError(f"input symbol {x} not a bit")
    if x == 0:
        return np.diag([1.0, 0.0]).astype(complex)
    v = np.array([np.cos(phi), np.sin(phi)], dtype=complex)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class CostVector:
    """Per-user average cost budgets."""

    tau1: float
    tau2: float
    tau3: float

    def __post_init__(self):
        for t in (self.tau1, self.tau2, self.tau3):
            if not t >= 0:  # a NaN fails too; inf means unconstrained
                raise DomainError(f"cost budget {t} is not at least 0")

    def as_tuple(self):
        return (self.tau1, self.tau2, self.tau3)


class ChannelSpec:
    """State family x -> rho_x on Y1 (x) Y2 (x) Y3, with per-user costs.

    ``state_table`` holds every rho_x in one read-only ``(|X1|, |X2|,
    |X3|, D, D)`` array, ``states`` maps x to its row.  ``costs[j]``
    maps each input symbol of user j+1 to a nonnegative cost; ``budget``
    carries the cost constraints the instance was built with (zero for
    unconstrained users, whose cost function is identically zero).
    """

    def __init__(self, input_sizes, output_dims, states: Mapping, costs,
                 budget: CostVector | None = None):
        self.input_sizes = tuple(_integer(s, "input size", DomainError)
                                 for s in input_sizes)
        self.output_dims = tuple(_integer(d, "output dim", DomainError)
                                 for d in output_dims)
        if len(self.input_sizes) != 3 or len(self.output_dims) != 3:
            raise DomainError("exactly three users required")
        self.costs = tuple(np.array(c, dtype=float) for c in costs)
        for j, c in enumerate(self.costs):
            if c.shape != (self.input_sizes[j],):
                raise DomainError(f"cost table {j} has wrong length")
            if not (np.isfinite(c).all() and c.min() >= 0):
                raise DomainError("costs must be finite and nonnegative")
        total_dim = int(np.prod(self.output_dims))
        mats = []
        for x in np.ndindex(*self.input_sizes):
            if x not in states:
                break
            m = np.array(getattr(states[x], "mat", states[x]), dtype=complex)
            if m.shape != (total_dim, total_dim):
                break
            mats.append(m)
        # the states before the first missing or misshapen one, in one pass
        flat = np.array(mats, dtype=complex).reshape(-1, total_dim, total_dim)
        validate_densities(flat)
        if len(mats) < np.prod(self.input_sizes):
            if x not in states:
                raise DomainError(f"state family missing input {x}")
            op = DensityOperator(m)  # a non-square state raises here
            raise DomainError(f"state at {x} has dim {op.dim} != {total_dim}")
        self.state_table = flat.reshape(self.input_sizes + (total_dim,) * 2)
        self._tables = tuple(partial_trace(self.state_table, self.output_dims,
                                           {j}) for j in range(3))
        for table in (self.state_table,) + self._tables:
            table.setflags(write=False)  # before any view is taken
        self.states = {x: self.state_table[x]
                       for x in np.ndindex(*self.input_sizes)}
        self.budget = budget
        self._verdicts: dict = {}

    def reduced(self, j: int, x) -> np.ndarray:
        """rho^{Y_j}_x, a read-only view into :meth:`reduced_table`."""
        return self._tables[j][tuple(int(v) for v in x)]

    def reduced_table(self, j: int) -> np.ndarray:
        """Every rho^{Y_j}_x, read-only, ``(|X1|, |X2|, |X3|, d, d)``."""
        return self._tables[j]

    def verdict(self, check: Callable):
        """``check(self)``, kept with the channel (unless it raises)."""
        if check not in self._verdicts:
            self._verdicts[check] = check(self)
        return self._verdicts[check]

    def to_json_dict(self) -> dict:
        rows = []
        for x, m in sorted(self.states.items()):
            rows.append({"x": list(x),
                         "matrix_re": m.real.ravel().tolist(),
                         "matrix_im": m.imag.ravel().tolist()})
        d = {"inputs": list(self.input_sizes),
             "output_dims": list(self.output_dims),
             "states": rows,
             "costs": [c.tolist() for c in self.costs]}
        if self.budget is not None:
            d["budget"] = list(self.budget.as_tuple())
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ChannelSpec":
        dims = [_integer(x, "output dim", DomainError) for x in d["output_dims"]]
        total = int(np.prod(dims))
        states = {}
        for row in d["states"]:
            m = (np.asarray(row["matrix_re"], float)
                 + 1j * np.asarray(row.get("matrix_im", np.zeros(total * total)),
                                   float)).reshape(total, total)
            states[tuple(row["x"])] = m
        budget = d.get("budget")
        return cls(d["inputs"], dims, states, d["costs"],
                   CostVector(*budget) if budget is not None else None)


def _product_channel(first: Callable, delta2, delta3, costs,
                     budget) -> ChannelSpec:
    """Receiver 1 sees ``first(x1, x2, x3)``, receivers 2 and 3 their own
    input through flips; the eight states are built as one stack."""
    xs = list(np.ndindex(2, 2, 2))
    table = tensor_all([np.array([first(*x) for x in xs]),
                        np.array([sigma_state(delta2, x[1]) for x in xs]),
                        np.array([sigma_state(delta3, x[2]) for x in xs])])
    return ChannelSpec((2, 2, 2), (2, 2, 2), dict(zip(xs, table)), costs,
                       budget)


def build_ex1(delta1, delta2, delta3, tau) -> ChannelSpec:
    """XOR channel with flip noise on every output; only user 1 costed."""
    if not (0.0 <= tau <= 0.5):
        raise DomainError(f"tau {tau} outside [0, 1/2]")
    return _product_channel(
        lambda x1, x2, x3: sigma_state(delta1, x1 ^ x2 ^ x3), delta2, delta3,
        (np.arange(2.0), np.zeros(2), np.zeros(2)), CostVector(tau, 0.0, 0.0))


def build_ex2(phi, delta2, delta3, tau) -> ChannelSpec:
    """Non-commuting variant: user 1 sees gamma(x1 xor x2 xor x3)."""
    if not (0.0 <= tau <= 0.5):
        raise DomainError(f"tau {tau} outside [0, 1/2]")
    return _product_channel(
        lambda x1, x2, x3: gamma_state(phi, x1 ^ x2 ^ x3), delta2, delta3,
        (np.arange(2.0), np.zeros(2), np.zeros(2)), CostVector(tau, 0.0, 0.0))


def build_ex3(phi, delta2, delta3, tau1, tau2, tau3) -> ChannelSpec:
    """gamma(x1 xor (x2 or x3)) variant with every user Hamming-costed."""
    for t in (tau1, tau2, tau3):
        if not (0.0 < t < 0.5):
            raise DomainError(f"tau {t} outside (0, 1/2)")
    return _product_channel(
        lambda x1, x2, x3: gamma_state(phi, x1 ^ (x2 | x3)), delta2, delta3,
        (np.arange(2.0),) * 3, CostVector(tau1, tau2, tau3))


@dataclass(frozen=True)
class ClassicalIC:
    """Per-receiver transition tables p(y_j | x1, x2, x3)."""

    transitions: tuple  # three arrays of shape (|X1|,|X2|,|X3|, d_j)


@dataclass(frozen=True)
class NonCommuting:
    """Marker result: some receiver's output family does not commute."""

    max_commutator_norm: float
    witness: tuple  # (receiver, x, x')


def _simultaneous_eigenbasis(mats):
    """Common eigenbasis of a commuting Hermitian family (recursive split)."""
    d = mats[0].shape[0]
    blocks = [np.eye(d, dtype=complex)]
    for m in mats:
        refined = []
        for b in blocks:
            if b.shape[1] == 1:
                refined.append(b)
                continue
            w, v = eig_hermitian(b.conj().T @ m @ b)
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or w[start] - w[i] > 1e-8:
                    refined.append(b @ v[:, start:i])
                    start = i
        blocks = refined
    return np.hstack(blocks)


def classical_equivalent(spec: ChannelSpec):
    """ClassicalIC if every receiver's family commutes, else NonCommuting."""
    tol = active_tolerances()
    inputs = list(np.ndindex(*spec.input_sizes))
    fams = [list(spec.reduced_table(j).reshape(-1, d, d))
            for j, d in enumerate(spec.output_dims)]
    worst = (0.0, None)
    for j, fam in enumerate(fams):
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                nrm = operator_norm(fam[a] @ fam[b] - fam[b] @ fam[a])
                if nrm > worst[0]:
                    worst = (nrm, (j, inputs[a], inputs[b]))
    if worst[0] > tol.commute:
        return NonCommuting(worst[0], worst[1])
    tables = []
    for j, fam in enumerate(fams):
        basis = _simultaneous_eigenbasis(fam)
        t = np.zeros(spec.input_sizes + (spec.output_dims[j],))
        for x, m in zip(inputs, fam):
            diag = np.diag(basis.conj().T @ m @ basis).real
            t[x] = np.clip(diag, 0.0, None)
            t[x] /= t[x].sum()
        tables.append(t)
    return ClassicalIC(tuple(tables))


def interference_free_family(spec: ChannelSpec, j: int,
                             others: str = "zero_cost"):
    """User j's single-letter output states with the other users fixed.

    ``others="zero_cost"``: each other user deterministically sends its
    cheapest symbol.  ``others="at_budget"``: each other (binary) user
    sends i.i.d. Bernoulli(its cost budget) — the convention behind the
    interference-limited capacity of the all-costed example.
    """
    other_idx = [i for i in range(3) if i != j]
    fams = []
    for xj in range(spec.input_sizes[j]):
        if others == "zero_cost":
            x = [int(np.argmin(c)) for c in spec.costs]
            x[j] = xj
            fams.append(spec.reduced(j, x))
        elif others == "at_budget":
            if spec.budget is None:
                raise ConfigMismatch("channel has no cost budget configured")
            taus = spec.budget.as_tuple()
            acc = np.zeros((spec.output_dims[j],) * 2, dtype=complex)
            for xo in np.ndindex(*(spec.input_sizes[i] for i in other_idx)):
                w, x = 1.0, [xj] * 3
                for i, xi in zip(other_idx, xo):
                    if spec.input_sizes[i] != 2:
                        raise Unsupported("at_budget convention needs binary users")
                    w *= taus[i] if xi == 1 else 1.0 - taus[i]
                    x[i] = xi
                acc += w * spec.reduced(j, x)
            fams.append(acc)
        else:
            raise DomainError(f"unknown interference convention {others!r}")
    return fams


#: the golden-section ratio 1/phi
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
#: the step of a capacity search's grid over p(1)
_GRID = 1e-3


def _search_family(spec: ChannelSpec, j: int, tau, others):
    """Check one capacity search; returns its family ``(rho0, rho1, h0,
    h1)`` and its grid over p(1) in [0, upper]."""
    if spec.input_sizes[j] != 2:
        raise Unsupported("capacity scan implemented for binary inputs only")
    c0, c1 = spec.costs[j]
    upper = 0.5
    if tau is not None:
        if c0 > tau + active_tolerances().prob:
            raise DomainError("cost budget below the cheapest symbol")
        if c1 > c0:
            upper = min(0.5, (tau - c0) / (c1 - c0))
    rho0, rho1 = interference_free_family(spec, j, others)
    h0, h1 = von_neumann_entropies(np.array([rho0, rho1])).tolist()
    npts = max(2, int(np.ceil(upper / _GRID)) + 1)
    return (rho0, rho1, h0, h1), np.linspace(0.0, upper, npts)


def _binary_infos(fams, points):
    """S((1-p) rho0 + p rho1) - (1-p) h0 - p h1 of each family at each of
    its points, one eigensolve stack per output dimension."""
    out = [None] * len(fams)
    by_dim = {}
    for i, fam in enumerate(fams):
        by_dim.setdefault(fam[0].shape[-1], []).append(i)
    for idx in by_dim.values():
        ents = von_neumann_entropies(np.concatenate(
            [(1.0 - points[i])[:, None, None] * fams[i][0]
             + points[i][:, None, None] * fams[i][1] for i in idx]))
        at = 0
        for i in idx:
            ps, (_, _, h0, h1) = points[i], fams[i]
            out[i] = ents[at:at + len(ps)] - (1.0 - ps) * h0 - ps * h1
            at += len(ps)
    return out


def _golden(a, b):
    """Golden-section search for a maximum on [a, b], to width 1e-9.  A
    coroutine: it yields the points it wants evaluated, takes their
    values by ``send`` and returns its last two (value, point) pairs."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = yield [x1, x2]
    while b - a > 1e-9:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            [f1] = yield [x1]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            [f2] = yield [x2]
    return (f1, x1), (f2, x2)


def _capacity_searches(spec: ChannelSpec, jobs, others: str = "zero_cost"):
    """:func:`user_capacity_cost` of each ``(j, tau)`` in ``jobs``.

    Every search is checked first, in order.  The grids are then
    evaluated as one stack, and the golden-section searches step in lock
    step: each step evaluates the new point of every unfinished search
    as one stack.  Each value is bit for bit the one-search value.
    """
    fams, grids = zip(*(_search_family(spec, j, tau, others)
                        for j, tau in jobs))
    # each grid, then its two end points again as separate candidates
    vals = _binary_infos(fams, [np.concatenate([ps, ps[[-1, 0]]])
                                for ps in grids])
    best = [int(np.argmax(v[:-2])) for v in vals]
    searches = [_golden(ps[max(0, k - 1)], ps[min(len(ps) - 1, k + 1)])
                for ps, k in zip(grids, best)]
    want = {i: s.send(None) for i, s in enumerate(searches)}
    last = {}
    while want:  # the points every unfinished search wants next
        got = _binary_infos([fams[i] for i in want],
                            [np.array(w) for w in want.values()])
        for i, f in zip(list(want), got):
            try:
                want[i] = searches[i].send(list(f))
            except StopIteration as stop:
                last[i] = stop.value
                del want[i]
    out = []
    for i, (ps, v, k) in enumerate(zip(grids, vals, best)):
        candidates = [(v[k], ps[k]), *last[i], (v[-2], ps[-1]), (v[-1], 0.0)]
        cbest, pbest = max(candidates, key=lambda t: t[0])
        out.append((float(cbest), Pmf([1.0 - pbest, pbest])))
    return out


def user_capacity_cost(spec: ChannelSpec, j: int, tau: float | None,
                       others: str = "zero_cost") -> tuple[float, Pmf]:
    """Cost-constrained single-user capacity over p(1) in [0, 1/2].

    Grid scan in steps of 1e-3 followed by golden-section refinement to
    1e-9; ``tau=None`` drops the cost constraint.  Only binary-input
    users are supported.
    """
    return _capacity_searches(spec, [(j, tau)], others)[0]


@dataclass(frozen=True)
class Capacities:
    """Cost-constrained per-user capacities plus user 1's unconstrained one."""

    c1: float
    c2: float
    c3: float
    c1_free: float


def condition_eq1(spec: ChannelSpec, caps: Capacities) -> bool:
    """Strict sum condition: c1 + c2 + c3 > c1_free, with rate margin."""
    tol = active_tolerances()
    return caps.c1 + caps.c2 + caps.c3 > caps.c1_free + tol.rate


def example_capacities(spec: ChannelSpec) -> Capacities:
    """The four headline capacities of a built example instance."""
    if spec.budget is None:
        raise ConfigMismatch("channel has no cost budget configured")
    taus = spec.budget.as_tuple()
    jobs = [(j, taus[j] if spec.costs[j].max() > 0 else None)
            for j in range(3)]
    caps = _capacity_searches(spec, jobs + [(0, None)])
    return Capacities(*(c for c, _ in caps))


OR_RECOVERY_TABLE = {0: 0, 1: 1, 2: 1}


def or_recovery_check() -> bool:
    """H(X2 v X3 | X2 +_3 X3) is exactly 0 on a pmf grid with p(2) = 0.

    Enumerates every joint pmf over {0,1}^2 with weights i/16.
    Because each fiber of the ternary sum is constant under logical OR
    (0 -> 0, 1 -> 1, 2 -> 1), the conditional entropy is exactly zero;
    returns False if any grid pmf breaks that.
    """
    denominator = 16
    for w00 in range(denominator + 1):
        for w01 in range(denominator + 1 - w00):
            for w10 in range(denominator + 1 - w00 - w01):
                w11 = denominator - w00 - w01 - w10
                weights = {(0, 0): w00, (0, 1): w01, (1, 0): w10, (1, 1): w11}
                seen: dict[int, int] = {}
                for (x2, x3), w in weights.items():
                    if w == 0:
                        continue
                    s = (x2 + x3) % 3
                    v = x2 | x3
                    if seen.setdefault(s, v) != v:
                        return False
                for s, v in seen.items():
                    if OR_RECOVERY_TABLE[s] != v:
                        return False
    return True


def coset_sufficiency_threshold(phi, tau1, tau2, tau3,
                                corrected_indices: bool = False) -> float:
    """Threshold vartheta for the all-costed example's sum condition.

    As printed, the inner three-atom entropy terms use (tau1, tau2)
    while the min runs over j in {2, 3} — the grouping is ambiguous and
    the index pair looks like a slip for (tau2, tau3), since the
    three atoms are exactly the distribution of the ternary sum of the
    two interfering users' layer variables.  ``corrected_indices=True``
    evaluates that variant; the default follows the printed text
    literally.  See README / notes for the mapping between the two.
    """
    a, b = (tau2, tau3) if corrected_indices else (tau1, tau2)
    beta = tau2 + tau3 - tau2 * tau3
    atoms = [(1 - a) * (1 - b), binary_convolve(a, b), a * b]
    h3 = shannon_entropy(np.array(atoms))
    inner = min(binary_entropy(tau2), binary_entropy(tau3))
    return inner - h3 + binary_entropy(fact1_f(binary_convolve(tau1, beta), phi))
