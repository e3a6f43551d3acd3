"""The stacked channel route against the per-state oracle, bit for bit.

``ChannelSpec`` validates its states as one stack and traces the three
reduced tables from it in one pass; ``channel_oracle`` keeps the route
one state at a time.  States and tables must agree exactly (compared as
uint64 views, so -0.0 against 0.0 counts as a difference), a faulty
family must raise the oracle's exception with its message, and the
family checks of a scan run once per channel.
"""

import numpy as np
import pytest

import channel_oracle as oracle
from cqic import cli, direct, regions as rg
from cqic.channels import (ChannelSpec, CostVector, build_ex1, build_ex2,
                           build_ex3, gamma_state, sigma_state)
from cqic.errors import Not3to1
from cqic.linalg import partial_trace, tensor_all
from cqic.regions import UnstructuredConfig, max_r1_scan, \
    unstructured_3to1_check
from cqic.states import DensityOperator

ZERO_COSTS = (np.zeros(2), np.zeros(2), np.zeros(2))


def _bits(a):
    a = np.ascontiguousarray(a, dtype=complex)
    return a.shape, a.view(np.uint64).tobytes()


def random_density(rng, d, rank=None):
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _assert_matches_oracle(spec, states):
    sizes, dims = spec.input_sizes, spec.output_dims
    assert list(spec.states) == list(states)
    for x, m in states.items():
        assert _bits(spec.states[x]) == _bits(m)
        assert _bits(spec.state_table[x]) == _bits(m)
    for j in range(3):
        assert _bits(spec.reduced_table(j)) == \
            _bits(oracle.reduced_table(states, sizes, dims, j))
        for x in np.ndindex(*sizes):
            assert _bits(spec.reduced(j, x)) == \
                _bits(oracle.reduced(states, dims, j, x))


EXAMPLES = [("ex1", build_ex1, (0.05, 0.1, 0.2), (0.3,)),
            ("ex1", build_ex1, (0.31, 0.49, 0.01), (0.0,)),
            ("ex2", build_ex2, (0.9, 0.1, 0.15), (0.5,)),
            ("ex2", build_ex2, (1.4, 0.3, 0.05), (0.1,)),
            ("ex3", build_ex3, (0.8, 0.1, 0.1), (0.2, 0.2, 0.2)),
            ("ex3", build_ex3, (0.3, 0.45, 0.2), (0.1, 0.3, 0.4))]


class TestDifferential:
    @pytest.mark.parametrize("name,build,noise,taus", EXAMPLES)
    def test_examples(self, name, build, noise, taus):
        _assert_matches_oracle(build(*noise, *taus),
                               oracle.example_states(name, *noise))

    @pytest.mark.parametrize("seed", range(3))
    def test_json_channel_with_three_inputs_for_user1(self, seed):
        rng = np.random.default_rng(seed)
        rows = [{"x": list(x), "matrix_re": rho.real.ravel().tolist(),
                 "matrix_im": rho.imag.ravel().tolist()}
                for x in np.ndindex(3, 2, 2)
                for rho in [random_density(rng, 8, rank=1 + seed)]]
        doc = {"inputs": [3, 2, 2], "output_dims": [2, 2, 2], "states": rows,
               "costs": [[0.0, 1.0, 2.0], [0.0, 0.0], [0.0, 1.0]]}
        spec = ChannelSpec.from_json_dict(doc)
        states = oracle.channel_states((3, 2, 2), (2, 2, 2),
                                       oracle.json_states(doc))
        _assert_matches_oracle(spec, states)

    @pytest.mark.parametrize("seed", range(3))
    def test_output_dims_two_three_two(self, seed):
        # three-term traces over Y2 and a 12 x 12 family: entangled
        # states, and product states from random factors
        rng = np.random.default_rng(10 + seed)
        states = {}
        for x in np.ndindex(2, 2, 2):
            if sum(x) % 2:
                states[x] = random_density(rng, 12)
            else:
                states[x] = oracle.tensor_all(
                    [random_density(rng, d) for d in (2, 3, 2)])
        spec = ChannelSpec((2, 2, 2), (2, 3, 2), states, ZERO_COSTS)
        _assert_matches_oracle(
            spec, oracle.channel_states((2, 2, 2), (2, 3, 2), states))

    def test_stacked_linalg_rows_are_the_single_matrix_route(self):
        rng = np.random.default_rng(7)
        facs = [np.array([[random_density(rng, d) for _ in range(3)]
                          for _ in range(2)]) for d in (2, 3, 2)]
        table = tensor_all(facs)
        assert table.shape == (2, 3, 12, 12)
        for idx in np.ndindex(2, 3):
            row = oracle.tensor_all([f[idx] for f in facs])
            assert _bits(table[idx]) == _bits(row)
            for keep in ({0}, {1}, {2}, {0, 2}, {1, 2}, set()):
                assert _bits(partial_trace(table, (2, 3, 2), keep)[idx]) == \
                    _bits(oracle.partial_trace(row, (2, 3, 2), keep))


def _family():
    return {x: m.copy() for x, m in build_ex2(0.9, 0.1, 0.15, 0.5)
            .states.items()}


def _non_psd():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0], m[1, 1] = 1.2, -0.2
    return m


def _non_hermitian(m):
    m = m.copy()
    m[0, 1] += 1e-3
    return m


#: one faulty state each; None deletes it
FAULTS = {
    "missing": lambda m: None,
    "non_square": lambda m: np.ones((8, 4)) / 8,
    "three_axes": lambda m: np.array([m, m]),
    "non_finite": lambda m: np.where(np.eye(8, dtype=bool), np.nan, m),
    "infinite": lambda m: m + np.inf,
    "non_hermitian": _non_hermitian,
    "wrong_trace": lambda m: 1.1 * m,
    "non_psd": lambda m: _non_psd(),
    "wrong_dim": lambda m: np.eye(4, dtype=complex) / 4,
    "wrong_dim_and_trace": lambda m: np.eye(4, dtype=complex) / 3,
}


def _with_faults(faults):
    states = _family()
    for x, kind in faults:
        bad = FAULTS[kind](states[x])
        if bad is None:
            del states[x]
        else:
            states[x] = bad
    return states


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _outcome(fn, mat):
    """The exception raised on ``mat``, or the bits of the valid matrix."""
    try:
        out = fn(mat)
    except Exception as exc:
        return type(exc), str(exc)
    return _bits(getattr(out, "mat", out))


class TestErrorPaths:
    @pytest.mark.parametrize("x", [(0, 0, 0), (0, 1, 1), (1, 1, 1)])
    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_one_faulty_state(self, kind, x):
        states = _with_faults([(x, kind)])
        want = _raised(oracle.channel_states, (2, 2, 2), (2, 2, 2), states)
        assert _raised(ChannelSpec, (2, 2, 2), (2, 2, 2), states,
                       ZERO_COSTS) == want

    @pytest.mark.parametrize("faults", [
        [((0, 1, 0), "non_psd"), ((1, 0, 0), "missing")],
        [((0, 0, 1), "missing"), ((1, 1, 0), "non_hermitian")],
        [((0, 1, 0), "wrong_dim"), ((0, 1, 1), "wrong_trace")],
        [((0, 1, 0), "wrong_trace"), ((0, 1, 1), "non_psd")],
        [((1, 0, 1), "non_psd"), ((0, 0, 1), "non_finite")],
        [((1, 0, 0), "non_square"), ((1, 0, 1), "non_psd")],
    ])
    def test_first_fault_in_input_order_wins(self, faults):
        states = _with_faults(faults)
        want = _raised(oracle.channel_states, (2, 2, 2), (2, 2, 2), states)
        assert _raised(ChannelSpec, (2, 2, 2), (2, 2, 2), states,
                       ZERO_COSTS) == want

    @pytest.mark.parametrize("kind", sorted(set(FAULTS) - {"missing"}))
    def test_density_operator(self, kind):
        bad = FAULTS[kind](_family()[0, 0, 0])
        assert _outcome(DensityOperator, bad) == \
            _outcome(oracle.density_operator, bad)

    @pytest.mark.parametrize("seed", range(4))
    def test_valid_density_operator_bits(self, seed):
        rho = random_density(np.random.default_rng(seed), 2 + 3 * seed)
        assert _bits(DensityOperator(rho).mat) == \
            _bits(oracle.density_operator(rho))


def _leaky(j, xj, source):
    """ex2 with receiver j + 1 flipped by input ``source`` at x_j = xj."""
    states = {}
    for x in np.ndindex(2, 2, 2):
        facs = [gamma_state(0.9, x[0] ^ x[1] ^ x[2]),
                sigma_state(0.1, x[1]), sigma_state(0.15, x[2])]
        if x[j] == xj and x[source]:
            facs[j] = sigma_state(0.2 if j == 1 else 0.25, x[j])
        states[x] = oracle.tensor_all(facs)
    return ChannelSpec((2, 2, 2), (2, 2, 2), states, ZERO_COSTS,
                       CostVector(0.5, 0.0, 0.0))


class TestNot3to1:
    @pytest.mark.parametrize("j,xj,source", [(1, 0, 0), (1, 1, 2), (2, 0, 1),
                                             (2, 1, 0)])
    def test_same_message_as_the_loop(self, j, xj, source):
        spec = _leaky(j, xj, source)
        want = _raised(oracle.require_3to1, spec.states, (2, 2, 2), (2, 2, 2))
        assert want == (Not3to1, f"receiver {j + 1} output varies with other "
                                 f"users' inputs at x_{j + 1}={xj}")
        assert _raised(rg._require_3to1, spec) == want
        assert _raised(max_r1_scan, spec, 0.1, 0.1, "unstructured",
                       (2, 2), 2, 4) == want
        cfg = UnstructuredConfig([0.5, 0.5], [[0.5, 0.0], [0.0, 0.5]],
                                 [[0.5, 0.0], [0.0, 0.5]])
        # a failed check is not kept: it raises again
        for _ in range(2):
            assert _raised(unstructured_3to1_check, spec, cfg,
                           (0.1, 0.1, 0.1)) == want

    def test_first_receiver_reported_first(self):
        states = {x: oracle.tensor_all([
            gamma_state(0.9, x[0]), sigma_state(0.1 if x[0] else 0.2, x[1]),
            sigma_state(0.1 if x[0] else 0.2, x[2])])
            for x in np.ndindex(2, 2, 2)}
        spec = ChannelSpec((2, 2, 2), (2, 2, 2), states, ZERO_COSTS)
        assert _raised(rg._require_3to1, spec) == (
            Not3to1, "receiver 2 output varies with other users' inputs "
                     "at x_2=0")

    def test_3to1_channels_pass(self):
        for spec in (build_ex1(0.05, 0.1, 0.2, 0.3),
                     build_ex3(0.8, 0.1, 0.1, 0.2, 0.2, 0.2)):
            assert rg._require_3to1(spec) is None


class TestReadOnly:
    def test_tables_and_views(self):
        spec = build_ex3(0.8, 0.1, 0.1, 0.2, 0.2, 0.2)
        arrays = [spec.state_table, *spec.states.values()]
        for j in range(3):
            arrays += [spec.reduced_table(j), spec.reduced(j, (1, 0, 1))]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[..., 0, 0] = 0.0
        assert np.shares_memory(spec.reduced(2, (1, 0, 1)),
                                spec.reduced_table(2))

    def test_caller_arrays_are_copied(self):
        states = _family()
        spec = ChannelSpec((2, 2, 2), (2, 2, 2), states, ZERO_COSTS)
        before = _bits(spec.state_table)
        states[0, 0, 0][0, 0] = 7.0
        assert _bits(spec.state_table) == before


def test_two_ray_scan_checks_the_family_once(monkeypatch, tmp_path, capsys):
    calls = {"_require_3to1": 0, "_parity_gamma_form": 0}
    for module, name in ((rg, "_require_3to1"), (direct, "_parity_gamma_form")):
        def counted(channel, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(channel)
        monkeypatch.setattr(module, name, counted)
    assert cli.main(["scan", "--example", "ex2", "--r2", "0.1", "0.2",
                     "--denominator", "4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == {"_require_3to1": 1, "_parity_gamma_form": 1}
