"""The lock-step capacity searches against the scalar oracle, bit for bit.

``cqic.channels`` checks every search first, scans all grids as one
stack and steps the golden-section searches together.
``channel_oracle`` runs them one after the other, each step one scalar
eigensolve.  Values, maximising points and raised errors (type, message
and the user that raises first) must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import channel_oracle as oracle
from cqic import channels
from cqic.channels import (ChannelSpec, build_ex1, build_ex2, build_ex3,
                           example_capacities, user_capacity_cost)


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the type and message of the error raised."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):  # (capacity, Pmf)
        return repr(out[0]), repr(out[1].probs.tolist())
    return repr(out)


def _density(rng, d):
    r = int(rng.integers(1, d + 1))
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


_noise = st.floats(0.02, 0.45)
_phi = st.floats(0.2, 1.5)


@st.composite
def example_channels(draw):
    family = draw(st.sampled_from(("ex1", "ex2", "ex3")))
    if family == "ex1":
        return build_ex1(draw(_noise), draw(_noise), draw(_noise),
                         draw(st.floats(0.0, 0.5)))
    if family == "ex2":
        return build_ex2(draw(_phi), draw(_noise), draw(_noise),
                         draw(st.floats(0.0, 0.5)))
    return build_ex3(draw(_phi), draw(_noise), draw(_noise),
                     *(draw(st.floats(0.01, 0.49)) for _ in range(3)))


@st.composite
def json_channels(draw):
    """JSON channels with random states, mostly binary inputs; output
    dimensions 1..3 per receiver, costs and budgets drawn freely."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [2, 2, 2]
    if draw(st.integers(0, 4)) == 0:
        sizes[draw(st.integers(0, 2))] = 3
    dims = [draw(st.integers(1, 3)) for _ in range(3)]
    if math.prod(dims) > 12:
        dims[draw(st.integers(0, 2))] = 1
    total = math.prod(dims)
    rows = []
    for x in np.ndindex(*sizes):
        rho = _density(rng, total)
        rows.append({"x": list(x), "matrix_re": rho.real.ravel().tolist(),
                     "matrix_im": rho.imag.ravel().tolist()})
    costs = [sorted(draw(st.lists(st.sampled_from((0.0, 0.1, 0.5, 1.0)),
                                  min_size=n, max_size=n)))
             for n in sizes]
    doc = {"inputs": sizes, "output_dims": dims, "states": rows,
           "costs": costs}
    if draw(st.booleans()) or draw(st.booleans()):
        doc["budget"] = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    return ChannelSpec.from_json_dict(doc)


_taus = st.one_of(st.none(), st.floats(0.0, 0.05), st.floats(0.2, 1.0))
_others = st.sampled_from(("zero_cost", "at_budget"))


@settings(max_examples=40, deadline=None)
@given(example_channels(), _taus, _others)
def test_user_capacity_matches_oracle_on_examples(spec, tau, others):
    for j in range(3):
        assert _outcome(user_capacity_cost, spec, j, tau, others=others) == \
            _outcome(oracle.user_capacity_cost, spec, j, tau, others=others)


@settings(max_examples=60, deadline=None)
@given(json_channels(), _taus, _others)
def test_user_capacity_matches_oracle_on_json_channels(spec, tau, others):
    # the library's grid step is fixed at the oracle's default, 1e-3
    for j in range(3):
        assert _outcome(user_capacity_cost, spec, j, tau, others=others) == \
            _outcome(oracle.user_capacity_cost, spec, j, tau, others=others)


@settings(max_examples=40, deadline=None)
@given(st.one_of(example_channels(), json_channels()))
def test_example_capacities_match_oracle(spec):
    assert _outcome(example_capacities, spec) == \
        _outcome(oracle.example_capacities, spec)


def _json_spec(sizes, costs, budget):
    rng = np.random.default_rng(3)
    rows = []
    for x in np.ndindex(*sizes):
        rho = _density(rng, 8)
        rows.append({"x": list(x), "matrix_re": rho.real.ravel().tolist(),
                     "matrix_im": rho.imag.ravel().tolist()})
    return ChannelSpec.from_json_dict({
        "inputs": list(sizes), "output_dims": [2, 2, 2], "states": rows,
        "costs": costs, "budget": budget})


@pytest.mark.parametrize("sizes,costs,budget,want", [
    # user 2 is not binary, user 3's budget is below its cheapest symbol
    ((2, 3, 2), [[0.0, 1.0], [0.0, 0.5, 1.0], [0.5, 1.0]], [0.3, 0.3, 0.1],
     ("Unsupported", "capacity scan implemented for binary inputs only")),
    # user 1's budget fails before user 3's
    ((2, 2, 2), [[0.5, 1.0], [0.0, 0.0], [0.5, 1.0]], [0.1, 0.3, 0.1],
     ("DomainError", "cost budget below the cheapest symbol")),
])
def test_first_failing_user_raises(sizes, costs, budget, want):
    spec = _json_spec(sizes, costs, budget)
    assert _outcome(example_capacities, spec) == want
    assert _outcome(oracle.example_capacities, spec) == want


def test_one_stack_per_step(monkeypatch):
    # the four searches of an example share each evaluation: all grids,
    # then the first two points of every search, then one point each
    spec = build_ex2(0.9, 0.1, 0.15, 0.3)
    calls = []
    real = channels.von_neumann_entropies

    def spy(rhos):
        calls.append(len(rhos))
        return real(rhos)

    monkeypatch.setattr(channels, "von_neumann_entropies", spy)
    example_capacities(spec)
    assert calls[:4] == [2, 2, 2, 2]  # h0, h1 of each search, in order
    assert calls[4] == 301 + 3 * 501 + 4 * 2  # grids plus both end points
    assert calls[5] == 8
    steps = calls[6:]
    calls.clear()
    user_capacity_cost(spec, 0, None)
    assert calls[:3] == [2, 501 + 2, 2]
    assert steps == [4] * (len(calls) - 3) and len(steps) > 20
