import numpy as np
import pytest

from cqic.channels import (Capacities, ChannelSpec, ClassicalIC,
                           NonCommuting, OR_RECOVERY_TABLE, build_ex1,
                           build_ex2, build_ex3, classical_equivalent,
                           condition_eq1, coset_sufficiency_threshold,
                           example_capacities, gamma_state,
                           interference_free_family, or_recovery_check,
                           sigma_state, user_capacity_cost)
from cqic.errors import DomainError, Unsupported
from cqic.states import (binary_convolve, binary_entropy, fact1_f,
                         shannon_entropy, von_neumann_entropy)


class TestElementaryStates:
    def test_sigma_at_zero(self):
        # substituting x=0: (1-d)|1><1| + d|0><0| = diag(d, 1-d)
        assert np.allclose(sigma_state(0.1, 0), np.diag([0.1, 0.9]))

    def test_sigma_at_one(self):
        assert np.allclose(sigma_state(0.1, 1), np.diag([0.9, 0.1]))

    def test_gamma_zero(self):
        assert np.allclose(gamma_state(0.7, 0), np.diag([1.0, 0.0]))

    def test_gamma_one_near_right_angle(self):
        got = gamma_state(np.pi / 2 - 1e-9, 1)
        assert np.allclose(got, np.diag([0.0, 1.0]), atol=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_state(0.6, 0)
        with pytest.raises(DomainError):
            gamma_state(2.0, 1)
        with pytest.raises(DomainError):
            sigma_state(0.1, 2)


class TestBuilders:
    def test_ex1_outputs_commute(self):
        spec = build_ex1(0.05, 0.1, 0.2, 0.3)
        mats = list(spec.states.values())
        for a in mats:
            for b in mats:
                assert np.abs(a @ b - b @ a).max() < 1e-12

    def test_ex2_y1_is_gamma_of_x1(self):
        phi = 0.9
        spec = build_ex2(phi, 0.1, 0.1, 0.2)
        for x1 in (0, 1):
            got = spec.reduced(0, (x1, 0, 0))
            assert np.abs(got - gamma_state(phi, x1)).max() < 1e-12

    def test_ex3_all_ones_gives_ground_state(self):
        spec = build_ex3(0.8, 0.1, 0.1, 0.2, 0.2, 0.2)
        got = spec.reduced(0, (1, 1, 1))  # 1 xor (1 or 1) = 0
        assert np.abs(got - np.diag([1.0, 0.0])).max() < 1e-12

    def test_all_states_validated(self):
        spec = build_ex3(1.0, 0.2, 0.3, 0.1, 0.1, 0.1)
        assert len(spec.states) == 8
        for m in spec.states.values():
            assert abs(np.trace(m).real - 1.0) < 1e-12

    def test_json_round_trip(self):
        spec = build_ex2(1.1, 0.1, 0.2, 0.25)
        back = ChannelSpec.from_json_dict(spec.to_json_dict())
        for x in spec.states:
            assert np.abs(back.states[x] - spec.states[x]).max() < 1e-12
        assert back.budget.as_tuple() == spec.budget.as_tuple()

    @pytest.mark.parametrize("field, index, value", [
        ("budget", 0, float("nan")), ("costs", 0, float("nan")),
        ("costs", 0, float("inf"))])
    def test_json_non_finite_cost_or_budget_rejected(self, field, index,
                                                     value):
        doc = build_ex2(1.1, 0.1, 0.2, 0.25).to_json_dict()
        if field == "budget":
            doc["budget"][index] = value
        else:
            doc["costs"][index][1] = value
        with pytest.raises(DomainError):
            ChannelSpec.from_json_dict(doc)

    @pytest.mark.parametrize("inputs,dims", [((2.7, 2, 2), (2, 2, 2)),
                                             ((2, 2, 2), (2, 2.5, 2))])
    def test_non_integral_sizes_rejected(self, inputs, dims):
        spec = build_ex2(1.1, 0.1, 0.2, 0.25)
        with pytest.raises(DomainError, match="must be an integer"):
            ChannelSpec(inputs, dims, spec.states, spec.costs)

    def test_integral_sizes_read_as_int(self):
        spec = build_ex2(1.1, 0.1, 0.2, 0.25)
        back = ChannelSpec((2.0, np.int64(2), 2), (2, 2.0, np.int32(2)),
                           spec.states, spec.costs)
        assert back.input_sizes == back.output_dims == (2, 2, 2)
        assert all(type(s) is int for s in back.input_sizes + back.output_dims)

    def test_json_infinite_budget_means_unconstrained(self):
        doc = build_ex2(1.1, 0.1, 0.2, 0.25).to_json_dict()
        doc["budget"][0] = float("inf")
        assert ChannelSpec.from_json_dict(doc).budget.tau1 == float("inf")


class TestClassicalEquivalent:
    def test_ex1_round_trip(self):
        spec = build_ex1(0.05, 0.1, 0.2, 0.3)
        eq = classical_equivalent(spec)
        assert isinstance(eq, ClassicalIC)
        # Y1 = X1 xor X2 xor X3 xor N1 with N1 ~ Ber(delta1)
        t1 = eq.transitions[0]
        for x in np.ndindex(2, 2, 2):
            parity = x[0] ^ x[1] ^ x[2]
            assert t1[x][parity] == pytest.approx(0.95, abs=1e-9)

    def test_ex2_non_commuting(self):
        res = classical_equivalent(build_ex2(0.7, 0.1, 0.1, 0.2))
        assert isinstance(res, NonCommuting)
        assert res.max_commutator_norm > 1e-3

    def test_trivial_uniform_channel(self):
        states = {x: np.eye(8) / 8 for x in np.ndindex(2, 2, 2)}
        spec = ChannelSpec((2, 2, 2), (2, 2, 2), states,
                           (np.zeros(2), np.zeros(2), np.zeros(2)))
        eq = classical_equivalent(spec)
        assert isinstance(eq, ClassicalIC)
        for t in eq.transitions:
            assert np.allclose(t, 0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_info_matches_quantum(self, seed):
        # I(X1;Y1) under random p on the classical table matches the
        # quantum-core computation on the cq state
        rng = np.random.default_rng(seed)
        spec = build_ex1(0.05, 0.1, 0.2, 0.3)
        eq = classical_equivalent(spec)
        p = rng.dirichlet(np.ones(2))
        x2, x3 = int(rng.integers(2)), int(rng.integers(2))
        rho = [spec.reduced(0, (x1, x2, x3)) for x1 in (0, 1)]
        avg = p[0] * rho[0] + p[1] * rho[1]
        q_info = von_neumann_entropy(avg) - sum(
            p[i] * von_neumann_entropy(rho[i]) for i in (0, 1))
        t = eq.transitions[0]
        py = p[0] * t[0, x2, x3] + p[1] * t[1, x2, x3]
        c_info = shannon_entropy(py) - sum(
            p[i] * shannon_entropy(t[i, x2, x3]) for i in (0, 1))
        assert q_info == pytest.approx(c_info, abs=1e-9)


class TestCapacity:
    def test_ex2_users23(self):
        spec = build_ex2(np.pi / 3, 0.1, 0.15, 0.2)
        c2, _ = user_capacity_cost(spec, 1, None)
        c3, _ = user_capacity_cost(spec, 2, None)
        assert c2 == pytest.approx(1 - binary_entropy(0.1), abs=1e-6)
        assert c3 == pytest.approx(1 - binary_entropy(0.15), abs=1e-6)

    def test_ex2_user1(self):
        phi, tau = np.pi / 3, 0.2
        spec = build_ex2(phi, 0.1, 0.1, tau)
        c1, arg = user_capacity_cost(spec, 0, tau)
        assert c1 == pytest.approx(binary_entropy(fact1_f(tau, phi)), abs=1e-6)
        assert arg.probs[1] == pytest.approx(tau, abs=1e-6)
        c1f, argf = user_capacity_cost(spec, 0, None)
        assert c1f == pytest.approx(binary_entropy((1 + np.cos(phi)) / 2), abs=1e-6)
        assert argf.probs[1] == pytest.approx(0.5, abs=1e-6)

    def test_ex3_cost_constrained(self):
        spec = build_ex3(1.0, 0.1, 0.2, 0.3, 0.25, 0.15)
        c2, _ = user_capacity_cost(spec, 1, 0.25)
        want = binary_entropy(binary_convolve(0.25, 0.1)) - binary_entropy(0.1)
        assert c2 == pytest.approx(want, abs=1e-6)

    def test_monotone_in_tau_and_capped(self):
        spec = build_ex2(np.pi / 3, 0.1, 0.1, 0.2)
        caps = [user_capacity_cost(spec, 0, t)[0]
                for t in (0.05, 0.1, 0.2, 0.35, 0.5)]
        free = user_capacity_cost(spec, 0, None)[0]
        assert all(a <= b + 1e-12 for a, b in zip(caps, caps[1:]))
        assert all(c <= free + 1e-9 for c in caps)

    def test_non_binary_unsupported(self):
        states = {x: np.eye(8) / 8 for x in np.ndindex(3, 2, 2)}
        spec = ChannelSpec((3, 2, 2), (2, 2, 2), states,
                           (np.zeros(3), np.zeros(2), np.zeros(2)))
        with pytest.raises(Unsupported):
            user_capacity_cost(spec, 0, 0.2)

    @pytest.mark.parametrize("args,want", [
        ((0.05, 0.1, 0.1, 0.25), ("0.5621512211786597", "0.5310044064107188",
                                  "0.5310044064107188", "0.7136030428840439")),
        ((0.1, 0.2, 0.15, 0.1), ("0.2110814521389985", "0.27807190511263774",
                                 "0.3901596952835998", "0.5310044064107189")),
    ])
    def test_ex1_capacities_pinned(self, args, want):
        # exact bits of the grid scan plus golden-section refinement
        caps = example_capacities(build_ex1(*args))
        assert tuple(repr(c) for c in (caps.c1, caps.c2, caps.c3,
                                       caps.c1_free)) == want

    @pytest.mark.parametrize("tau,want_c,want_p", [
        (0.3, "0.03682889980308224", "0.3"),
        (None, "0.04375781689063074", "0.49999997702623394"),
    ])
    def test_at_budget_capacity_pinned(self, tau, want_c, want_p):
        spec = build_ex3(1.0, 0.1, 0.2, 0.3, 0.25, 0.15)
        c, arg = user_capacity_cost(spec, 0, tau, others="at_budget")
        assert (repr(c), repr(float(arg.probs[1]))) == (want_c, want_p)

    def test_interior_optimum_pinned(self):
        # a random qubit channel whose optimum lies inside the search
        # interval, so its bits pin the golden-section steps themselves: a
        # search one step short moves the capacity and the maximiser
        rng = np.random.default_rng(0)
        for _ in range(36):
            states = {}
            for x in (0, 1):
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                rho = g @ g.conj().T
                states[(x, 0, 0)] = rho / np.trace(rho).real
        spec = ChannelSpec((2, 1, 1), (2, 1, 1), states,
                           ([0.0, 0.0], [0.0], [0.0]))
        c, arg = user_capacity_cost(spec, 0, None)
        assert (repr(c), repr(arg.probs.tolist())) == (
            "0.1678124669450474", "[0.5463620142165997, 0.45363798578340025]")

    def test_hbf_strictly_increasing_on_lower_half(self):
        ts = np.arange(1e-3, 0.5, 1e-3)
        vals = binary_entropy_vec = [binary_entropy(fact1_f(t, 1.0)) for t in ts]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)


class TestConditionEq1:
    def test_trivial_true(self):
        spec = build_ex1(0.05, 0.1, 0.1, 0.2)
        assert condition_eq1(spec, Capacities(0.5, 0.4, 0.4, 1.0))

    def test_trivial_false(self):
        spec = build_ex1(0.05, 0.1, 0.1, 0.2)
        assert not condition_eq1(spec, Capacities(0.1, 0.1, 0.1, 1.0))

    def test_ex2_documented_instance(self):
        spec = build_ex2(np.pi / 3, 0.1, 0.1, 0.2)
        caps = example_capacities(spec)
        assert condition_eq1(spec, caps)


class TestOrRecovery:
    def test_grid(self):
        assert or_recovery_check() is True

    def test_table_row_11(self):
        # ternary sum of (1,1) is 2; logical OR of (1,1) is 1
        assert OR_RECOVERY_TABLE[2] == 1

    def test_uniform_inputs_conditional_entropy_zero(self):
        # direct enumeration of the 4 input pairs at uniform weights
        joint = {}
        for x2 in (0, 1):
            for x3 in (0, 1):
                s, v = (x2 + x3) % 3, x2 | x3
                joint[(s, v)] = joint.get((s, v), 0) + 0.25
        by_sum = {}
        for (s, v), w in joint.items():
            by_sum.setdefault(s, set()).add(v)
        assert all(len(vs) == 1 for vs in by_sum.values())


class TestThreshold:
    def test_literal_vs_corrected_symmetric_agree(self):
        # with tau1 = tau3 the printed index pair and the corrected one
        # give the same three-atom entropy
        lit = coset_sufficiency_threshold(1.0, 0.2, 0.3, 0.2)
        cor = coset_sufficiency_threshold(1.0, 0.2, 0.3, 0.2,
                                          corrected_indices=True)
        assert lit == pytest.approx(cor, abs=1e-12)

    def test_finite(self):
        v = coset_sufficiency_threshold(np.pi / 3, 0.2, 0.15, 0.1)
        assert np.isfinite(v)

    @pytest.mark.parametrize("phi", [np.nan, np.inf])
    def test_non_finite_angle(self, phi):
        with pytest.raises(DomainError, match="angle"):
            coset_sufficiency_threshold(phi, 0.1, 0.1, 0.1)


def test_interference_at_budget_matches_or_convolution():
    phi, t1, t2, t3 = np.pi / 3, 0.2, 0.15, 0.1
    spec = build_ex3(phi, 0.1, 0.1, t1, t2, t3)
    fam = interference_free_family(spec, 0, others="at_budget")
    beta = t2 + t3 - t2 * t3
    avg = 0.5 * fam[0] + 0.5 * fam[1]
    want = binary_entropy(fact1_f(binary_convolve(0.5, beta), phi))
    assert von_neumann_entropy(avg) == pytest.approx(want, abs=1e-9)
