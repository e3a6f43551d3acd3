import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqic import regions as rg
from cqic.channels import (ChannelSpec, build_ex1, build_ex2,
                           condition_eq1, example_capacities, gamma_state,
                           sigma_state)
from cqic.errors import (BudgetExceeded, ConfigMismatch, DomainError, Not3to1,
                         NotPrime, Unsupported)
from cqic.regions import (Thm1Config, Thm2Config, Thm3Config,
                          UnstructuredConfig, boundary_slice, max_r1_scan,
                          source_divergence_pair, thm1_check,
                          thm2_config_from_thm1, thm2_feasible,
                          thm3_config_from_unstructured, thm3_feasible,
                          unstructured_3to1_check)
from cqic.states import binary_convolve, binary_entropy, fact1_f

PHI = math.pi / 3
HALF_COS = binary_entropy((1 + math.cos(PHI)) / 2)


def ex2(tau=0.5):
    return build_ex2(PHI, 0.1, 0.1, tau)


def proof_config(tau):
    # uniform layer pmfs, identity symbol maps, cost-tight user-1 input
    return Thm1Config(2, (1 - tau, tau), (0.5, 0.5), (0.5, 0.5),
                      (0, 1), (0, 1))


class TestThm1:
    def test_proof_config_bound_values(self):
        tau = 1 / 32
        rep = thm1_check(ex2(tau), proof_config(tau), (0.0, 0.0, 0.0))
        own = 1 - binary_entropy(0.1)
        assert abs(rep.record("thm1.r1").rhs
                   - binary_entropy(fact1_f(tau, PHI))) < 1e-9
        assert abs(rep.record("thm1.own.j=2").rhs - own) < 1e-9
        assert abs(rep.record("thm1.own.j=3").rhs - own) < 1e-9
        # at this config the layer sum determines x2 xor x3, so both
        # composite walls sit at the interference-free ceiling
        assert abs(rep.record("thm1.cross.j=2").rhs - HALF_COS) < 1e-9
        assert abs(rep.record("thm1.sum.j=2").rhs - HALF_COS) < 1e-9

    def test_feasible_at_backed_off_capacities(self):
        tau = 1 / 32
        spec = ex2(tau)
        caps = example_capacities(spec)
        rep = thm1_check(spec, proof_config(tau),
                         (caps.c1 - 1e-6, caps.c2 - 1e-6, caps.c3 - 1e-6))
        assert rep.feasible
        assert rep.witness is not None
        # cost is met with equality and the closed comparison accepts it
        assert rep.record("thm1.cost.j=1").slack == 0.0

    def test_each_violation_flips_verdict(self):
        tau = 1 / 32
        spec = ex2(tau)
        caps = example_capacities(spec)
        base = [caps.c1 - 1e-6, caps.c2 - 1e-6, caps.c3 - 1e-6]
        for k in range(3):
            rates = list(base)
            rates[k] += 2e-3
            assert not thm1_check(spec, proof_config(tau), rates).feasible

    def test_cost_overrun_infeasible(self):
        spec = ex2(1 / 32)
        cfg = proof_config(1 / 8)  # spends 1/8 against a 1/32 budget
        rep = thm1_check(spec, cfg, (0.0, 0.0, 0.0))
        assert not rep.feasible
        assert rep.record("thm1.cost.j=1").slack < 0

    def test_label_set(self):
        rep = thm1_check(ex2(), proof_config(0.25), (0.0, 0.0, 0.0))
        got = {r.label for r in rep.records}
        assert got == {"thm1.r1", "thm1.own.j=2", "thm1.own.j=3",
                       "thm1.cross.j=2", "thm1.cross.j=3",
                       "thm1.sum.j=2", "thm1.sum.j=3",
                       "thm1.cost.j=1", "thm1.cost.j=2", "thm1.cost.j=3"}

    def test_ternary_field(self):
        cfg = Thm1Config(3, (0.75, 0.25), (1 / 3,) * 3, (1 / 3,) * 3,
                         (0, 1, 1), (0, 0, 1))
        rep = thm1_check(ex2(0.5), cfg, (0.0, 0.0, 0.0))
        assert rep.feasible
        for lbl in ("thm1.own.j=2", "thm1.own.j=3", "thm1.r1"):
            assert rep.record(lbl).rhs >= 0.0

    def test_validation(self):
        spec = ex2()
        with pytest.raises(ConfigMismatch):
            thm1_check(spec, Thm1Config(2, (1.0,), (0.5, 0.5), (0.5, 0.5),
                                        (0, 1), (0, 1)), (0, 0, 0))
        with pytest.raises(ConfigMismatch):
            thm1_check(spec, Thm1Config(2, (0.5, 0.5), (0.5, 0.5), (0.5, 0.5),
                                        (0, 2), (0, 1)), (0, 0, 0))
        with pytest.raises(NotPrime):
            thm1_check(spec, Thm1Config(4, (0.5, 0.5), (0.25,) * 4,
                                        (0.25,) * 4, (0, 1, 0, 1),
                                        (0, 1, 0, 1)), (0, 0, 0))
        with pytest.raises(DomainError):
            thm1_check(spec, proof_config(0.25), (0.1, -0.2, 0.0))


class TestUnstructured:
    def deterministic_cloud(self, p_on):
        return np.array([[1 - p_on, 0.0], [0.0, p_on]])

    def test_closed_form_bounds(self):
        spec = ex2(0.5)
        p1, q2, q3 = 0.25, 0.25, 0.375
        cfg = UnstructuredConfig(np.array([1 - p1, p1]),
                                 self.deterministic_cloud(q2),
                                 self.deterministic_cloud(q3))
        rep = unstructured_3to1_check(spec, cfg, (0.0, 0.0, 0.0))

        def hbf(t):
            return binary_entropy(fact1_f(t, PHI))

        assert abs(rep.record("unstr.r1").rhs - hbf(p1)) < 1e-9
        assert abs(rep.record("unstr.pair.j=2").rhs
                   - hbf(binary_convolve(p1, q2))) < 1e-9
        assert abs(rep.record("unstr.pair.j=3").rhs
                   - hbf(binary_convolve(p1, q3))) < 1e-9
        total = hbf(binary_convolve(binary_convolve(p1, q2), q3))
        assert abs(rep.record("unstr.sum").rhs - total) < 1e-9
        own2 = binary_entropy(binary_convolve(q2, 0.1)) - binary_entropy(0.1)
        assert abs(rep.record("unstr.own.j=2").rhs - own2) < 1e-9

    def test_noisy_cloud_refinement_terms(self):
        # cloud-to-input flips with prob 0.2; the private refinement
        # I(X;Y|U) shifts the composite walls by a computable amount
        spec = ex2(0.5)
        noisy = np.array([[0.4, 0.1], [0.1, 0.4]])
        cfg = UnstructuredConfig(np.array([0.7, 0.3]), noisy,
                                 self.deterministic_cloud(0.5))
        rep = unstructured_3to1_check(spec, cfg, (0.0, 0.0, 0.0))
        refine2 = (binary_entropy(binary_convolve(0.2, 0.1))
                   - binary_entropy(0.1))
        pair2 = (binary_entropy(fact1_f(0.5, PHI))
                 - binary_entropy(fact1_f(0.2, PHI)))
        assert abs(rep.record("unstr.pair.j=2").rhs
                   - (pair2 + refine2)) < 1e-9
        own2 = binary_entropy(binary_convolve(0.5, 0.1)) - binary_entropy(0.1)
        assert abs(rep.record("unstr.own.j=2").rhs - own2) < 1e-9

    def test_monotone_in_rates(self):
        spec = ex2(0.5)
        cfg = UnstructuredConfig(np.array([0.5, 0.5]),
                                 self.deterministic_cloud(0.5),
                                 self.deterministic_cloud(0.5))
        assert unstructured_3to1_check(spec, cfg, (0.05, 0.2, 0.2)).feasible
        assert not unstructured_3to1_check(spec, cfg, (0.5, 0.2, 0.2)).feasible

    def test_rejects_general_interference(self):
        # receiver 2 made to see the parity as well
        states = {}
        for x in np.ndindex(2, 2, 2):
            par = (x[0] + x[1] + x[2]) % 2
            states[x] = np.kron(np.kron(gamma_state(PHI, par),
                                        sigma_state(0.1, par)),
                                sigma_state(0.1, x[2]))
        bad = ChannelSpec((2, 2, 2), (2, 2, 2), states,
                          (np.zeros(2), np.zeros(2), np.zeros(2)))
        cfg = UnstructuredConfig(np.array([0.5, 0.5]),
                                 self.deterministic_cloud(0.5),
                                 self.deterministic_cloud(0.5))
        with pytest.raises(Not3to1):
            unstructured_3to1_check(bad, cfg, (0.0, 0.0, 0.0))

    def test_ex1_is_3to1(self):
        spec = build_ex1(0.05, 0.1, 0.1, 0.25)
        cfg = UnstructuredConfig(np.array([0.75, 0.25]),
                                 self.deterministic_cloud(0.5),
                                 self.deterministic_cloud(0.5))
        rep = unstructured_3to1_check(spec, cfg, (0.0, 0.0, 0.0))
        assert rep.feasible

    def test_table_shape_validation(self):
        spec = ex2(0.5)
        with pytest.raises(ConfigMismatch):
            unstructured_3to1_check(
                spec, UnstructuredConfig(np.array([0.5, 0.5]),
                                         np.ones(4) / 4,
                                         self.deterministic_cloud(0.5)),
                (0, 0, 0))


def random_thm2_config(rng, fields=(2, 2, 2)):
    factors = []
    for t in range(3):
        others = [o for o in range(3) if o != t]
        shape = (fields[others[0]], fields[others[1]], 2)
        tab = rng.random(shape)
        factors.append(tab / tab.sum())
    return Thm2Config(fields, tuple(factors))


class TestThm2:
    def test_row_counts_fully_active(self):
        rng = np.random.default_rng(11)
        rep = thm2_feasible(ex2(), random_thm2_config(rng), (0.0, 0.0, 0.0))
        by_kind = {}
        for r in rep.records:
            by_kind.setdefault(r.kind, []).append(r.label)
        assert len(by_kind["coupling"]) == 3
        for j in "123":
            src = [l for l in by_kind["source"] if f".j={j}." in l]
            chn = [l for l in by_kind["channel"] if f".j={j}." in l]
            assert len(src) == 7
            assert len(chn) == 23
        assert len(rep.records) == 93

    def test_drop_dont_care_removes_pure_sum_rows(self):
        rng = np.random.default_rng(11)
        cfg = random_thm2_config(rng)
        full = thm2_feasible(ex2(), cfg, (0.0, 0.0, 0.0))
        trimmed = thm2_feasible(ex2(), cfg, (0.0, 0.0, 0.0),
                                drop_dont_care=True)
        gone = ({r.label for r in full.records}
                - {r.label for r in trimmed.records})
        assert gone == {f"thm2.chnl.j={j}.A={{}}{c}"
                        for j in "123" for c in ("+ij", "+kj")}

    def test_embedded_proof_config_matches_thm1_verdicts(self):
        tau = 1 / 32
        spec = ex2(tau)
        caps = example_capacities(spec)
        cfg = thm2_config_from_thm1(spec, proof_config(tau))
        ok = (caps.c1 - 1e-6, caps.c2 - 1e-6, caps.c3 - 1e-6)
        assert thm2_feasible(spec, cfg, ok).feasible
        assert not thm2_feasible(
            spec, cfg, (caps.c1 + 2e-3, caps.c2 - 1e-6, caps.c3 - 1e-6)).feasible
        assert not thm2_feasible(
            spec, cfg, (caps.c1 - 1e-6, caps.c2 + 2e-3, caps.c3 - 1e-6)).feasible

    def test_embedding_preserves_feasibility(self):
        spec = ex2(0.5)
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10:
            pu2 = rng.dirichlet((2.0, 2.0))
            pu3 = rng.dirichlet((2.0, 2.0))
            p1 = rng.dirichlet((2.0, 2.0))
            if p1[1] > 0.5:
                p1 = p1[::-1].copy()
            cfg = Thm1Config(2, tuple(p1), tuple(pu2), tuple(pu3),
                             (0, 1), (0, 1))
            caps = [rg._thm1_bounds(spec, cfg)[k]
                    for k in ("r1_rhs", "own2", "own3", "cross_rhs",
                              "sum_rhs")]
            u = rng.random(3)
            r2 = u[1] * max(min(caps[1], caps[3]), 0.0) * 0.95
            r3 = u[2] * max(min(caps[2], caps[3]), 0.0) * 0.95
            r1 = u[0] * max(min(caps[0], caps[4] - max(r2, r3)), 0.0) * 0.95
            if not thm1_check(spec, cfg, (r1, r2, r3)).feasible:
                continue
            checked += 1
            emb = thm2_config_from_thm1(spec, cfg)
            assert thm2_feasible(spec, emb, (r1, r2, r3)).feasible

    def test_point_mass_config_pins_rates_at_zero(self):
        pm = np.zeros((2, 2, 2))
        pm[0, 0, 0] = 1.0
        cfg = Thm2Config((2, 2, 2), (pm, pm, pm))
        assert thm2_feasible(ex2(), cfg, (0.0, 0.0, 0.0)).feasible
        assert not thm2_feasible(ex2(), cfg, (0.01, 0.0, 0.0)).feasible

    def test_private_only_user_hits_interference_free_ceiling(self):
        pm = np.zeros((2, 2, 2))
        pm[0, 0, 0] = 1.0
        f1 = np.zeros((2, 2, 2))
        f1[0, 0, 0] = 0.5
        f1[0, 0, 1] = 0.5
        cfg = Thm2Config((2, 2, 2), (f1, pm, pm))
        assert thm2_feasible(ex2(), cfg, (HALF_COS - 1e-3, 0.0, 0.0)).feasible
        assert not thm2_feasible(ex2(), cfg,
                                 (HALF_COS + 1e-3, 0.0, 0.0)).feasible
        labels = {r.label for r in
                  thm2_feasible(ex2(), cfg, (0.0, 0.0, 0.0)).records}
        assert labels == {"thm2.src.j=1.A={}+K", "thm2.chnl.j=1.A={}+X",
                          "thm2.rate.j=1", "thm2.rate.j=2", "thm2.rate.j=3"}

    def test_region_is_convex_in_rates(self):
        tau = 1 / 32
        spec = ex2(tau)
        caps = example_capacities(spec)
        cfg = thm2_config_from_thm1(spec, proof_config(tau))
        a = (caps.c1 - 1e-3, 0.0, 0.0)
        b = (0.0, caps.c2 - 1e-3, caps.c3 - 1e-3)
        assert thm2_feasible(spec, cfg, a).feasible
        assert thm2_feasible(spec, cfg, b).feasible
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        assert thm2_feasible(spec, cfg, mid).feasible

    def test_witness_respects_rate_coupling(self):
        tau = 1 / 32
        spec = ex2(tau)
        caps = example_capacities(spec)
        cfg = thm2_config_from_thm1(spec, proof_config(tau))
        rates = (caps.c1 / 2, caps.c2 / 2, caps.c3 / 2)
        rep = thm2_feasible(spec, cfg, rates)
        assert rep.feasible
        parts = dict(rep.witness.parts)
        assert abs(parts["L1"] - rates[0]) < 1e-7
        assert abs(parts["T21"] + parts["L2"] - rates[1]) < 1e-7
        assert abs(parts["T31"] + parts["L3"] - rates[2]) < 1e-7

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_source_divergence_two_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        cfg = random_thm2_config(rng)
        for t in range(3):
            div, assembled = source_divergence_pair(ex2(), cfg, t)
            assert div >= -1e-12
            assert abs(div - assembled) < 1e-9

    def test_validation(self):
        spec = ex2()
        good = np.full((2, 2, 2), 1 / 8)
        with pytest.raises(NotPrime):
            thm2_feasible(spec, Thm2Config((4, 2, 2), (good,) * 3), (0, 0, 0))
        with pytest.raises(ConfigMismatch):
            bad = np.full((2, 2, 3), 1 / 12)
            thm2_feasible(spec, Thm2Config((2, 2, 2), (bad, good, good)),
                          (0, 0, 0))
        with pytest.raises(ConfigMismatch):
            thm2_feasible(spec, Thm2Config((2, 2, 2),
                                           (good * 2, good, good)), (0, 0, 0))
        with pytest.raises(ConfigMismatch):
            bad = np.full((3, 2, 2), 1 / 12)
            thm2_feasible(spec, Thm2Config((2, 2, 2), (bad, good, good)),
                          (0, 0, 0))


class TestThm3:
    def test_trivial_collapse_matches_unstructured(self):
        spec = ex2(0.5)
        rng = np.random.default_rng(42)
        agree = 0
        feas = 0
        for _ in range(15):
            p1 = rng.dirichlet((1.0, 1.0))
            if p1[1] > 0.5:
                p1 = p1[::-1].copy()
            j2 = rng.dirichlet(np.ones(4)).reshape(2, 2)
            j3 = rng.dirichlet(np.ones(4)).reshape(2, 2)
            cfg = UnstructuredConfig(p1, j2, j3)
            b = rg._unstructured_bounds(spec, cfg)
            u = rng.random(3)
            rates = (u[0] * b["r1_rhs"] * 1.3, u[1] * b["own2"] * 1.3,
                     u[2] * b["own3"] * 1.3)
            direct = unstructured_3to1_check(spec, cfg, rates).feasible
            layered = thm3_feasible(
                spec, thm3_config_from_unstructured(spec, cfg),
                rates).feasible
            assert direct == layered
            agree += 1
            feas += direct
        assert agree == 15
        assert 0 < feas < 15  # both verdicts exercised

    def test_all_trivial_is_point_to_point(self):
        spec = ex2(0.5)
        uni = np.full((1, 1, 1, 1, 2), 0.5)
        quiet = np.zeros((1, 1, 1, 1, 2))
        quiet[..., 0] = 1.0
        cfg = Thm3Config((2, 2, 2), (uni, quiet, quiet))
        assert thm3_feasible(spec, cfg, (HALF_COS - 1e-3, 0, 0)).feasible
        assert not thm3_feasible(spec, cfg, (HALF_COS + 1e-3, 0, 0)).feasible

    def test_embedded_labels_carry_layer_sets(self):
        spec = ex2(0.5)
        cfg = thm3_config_from_unstructured(
            spec, UnstructuredConfig(np.array([0.5, 0.5]),
                                     np.eye(2) / 2, np.eye(2) / 2))
        rep = thm3_feasible(spec, cfg, (0.0, 0.0, 0.0))
        labels = {r.label for r in rep.records}
        # receiver 1 sees both cross layers as decodable side content
        assert "thm3.chnl.j=1.A={}.C={}.D={21,31}+X" in labels
        # user 2's own layer toward receiver 1 packs at its own receiver
        assert "thm3.chnl.j=2.A={}.C={21}.D={}" in labels
        assert "thm3.src.j=2.A={}.C={21}+K" in labels
        # no cross-only error events
        assert "thm3.chnl.j=1.A={}.C={}.D={21}" not in labels
        assert "thm3.chnl.j=1.A={}.C={}.D={21,31}" not in labels

    def test_full_config_row_census(self):
        # all coset and unstructured layers active at every user
        rng = np.random.default_rng(3)
        factors = []
        for _ in range(3):
            tab = rng.random((2, 2, 2, 2, 2))
            factors.append(tab / tab.sum())
        rep = thm3_feasible(ex2(), Thm3Config((2, 2, 2), tuple(factors)),
                            (0.0, 0.0, 0.0))
        src = [r for r in rep.records if r.kind == "source"]
        chn = [r for r in rep.records if r.kind == "channel"]
        # per user: 15 walls without the input, 16 with it
        assert len(src) == 3 * 31
        # per receiver: 8 atoms, own-content or pure-sum events only,
        # sum events duplicated per active cross layer
        assert len(chn) == 3 * 374

    def test_coset_plus_unstructured_layers_compose(self):
        spec = ex2(0.5)
        caps = example_capacities(spec)
        # users 2/3: uniform coset layer toward receiver 1 on top of a
        # fresh unstructured layer carrying the private input
        tx1 = np.zeros((1, 1, 1, 1, 2))
        tx1[..., 0] = 1.0 - 0.5
        tx1[..., 1] = 0.5
        tx23 = np.zeros((2, 1, 2, 1, 2))
        for v, u in np.ndindex(2, 2):
            tx23[v, 0, u, 0, (v + u) % 2] = 0.25
        cfg = Thm3Config((2, 2, 2), (tx1, tx23, tx23))
        rep = thm3_feasible(spec, cfg, (caps.c1_free - 1e-3, 0.0, 0.0))
        assert rep.feasible
        rep = thm3_feasible(spec, cfg, (caps.c1_free + 1e-3, 0.0, 0.0))
        assert not rep.feasible


class TestScan:
    def test_separation_instance_scan_is_empty(self):
        tau = 1 / 32
        spec = ex2(tau)
        caps = example_capacities(spec)
        assert condition_eq1(spec, caps)
        res = max_r1_scan(spec, caps.c2 - 1e-6, caps.c3 - 1e-6,
                          evaluator="unstructured")
        assert res.r1_max == -math.inf
        assert res.r1_max <= caps.c1 - 1e-3

    def test_thm1_scan_recovers_capacity_triple(self):
        tau = 1 / 16
        spec = ex2(tau)
        caps = example_capacities(spec)
        assert condition_eq1(spec, caps)
        res = max_r1_scan(spec, caps.c2 - 1e-6, caps.c3 - 1e-6,
                          evaluator="thm1", denominator=16)
        assert res.r1_max >= caps.c1 - 1e-6
        assert res.best.p_u2 == (0.5, 0.5)
        assert res.best.f2 in ((0, 1), (1, 0))

    @pytest.mark.parametrize("refine", [False, True])
    def test_fast_and_generic_paths_agree(self, monkeypatch, refine):
        spec = ex2(0.5)
        form = rg._parity_gamma_form(spec)
        fast_u = max_r1_scan(spec, 0.2, 0.1, evaluator="unstructured",
                             denominator=4, refine=refine)
        fast_t = max_r1_scan(spec, 0.2, 0.1, evaluator="thm1",
                             denominator=4, refine=refine)
        monkeypatch.setattr(rg, "_parity_gamma_form", lambda c: None)
        slow_u = max_r1_scan(spec, 0.2, 0.1, evaluator="unstructured",
                             denominator=4, refine=refine)
        slow_t = max_r1_scan(spec, 0.2, 0.1, evaluator="thm1",
                             denominator=4, refine=refine)
        assert abs(fast_u.r1_max - slow_u.r1_max) < 1e-9
        assert abs(fast_t.r1_max - slow_t.r1_max) < 1e-9
        # every bound value of the full denominator-8 grid, both evaluators
        p1s = rg._lattice_pmfs(2, 8)
        g2 = rg._binary_user_grid(spec, 1, 2, 8)
        g3 = rg._binary_user_grid(spec, 2, 2, 8)
        shape = (len(p1s), len(g2), len(g3))
        for evaluator in ("unstructured", "thm1"):
            closed = rg._closed_bounds(form, evaluator,
                                       [p[1] for p in p1s], g2, g3)
            engine = rg._grid_bounds(spec, evaluator, p1s, g2, g3)
            for key, val in closed.items():
                diff = np.abs(np.broadcast_to(val, shape) - engine[key])
                assert float(diff.max()) < 1e-12, (evaluator, key)

    @pytest.mark.parametrize("closed_form", [True, False])
    @pytest.mark.parametrize("evaluator", ["unstructured", "thm1"])
    def test_scan_supremum_is_checker_boundary(self, monkeypatch, evaluator,
                                               closed_form):
        # the scan's R1 supremum and the checker read the same rate rows:
        # the winning config is feasible just below r1_max, not above it
        if not closed_form:
            monkeypatch.setattr(rg, "_parity_gamma_form", lambda c: None)
        spec = ex2(0.3)
        check = (thm1_check if evaluator == "thm1"
                 else unstructured_3to1_check)
        res = max_r1_scan(spec, 0.2, 0.1, evaluator=evaluator,
                          denominator=4)
        assert math.isfinite(res.r1_max)
        assert check(spec, res.best, (res.r1_max - 1e-7, 0.2, 0.1)).feasible
        assert not check(spec, res.best,
                         (res.r1_max + 1e-7, 0.2, 0.1)).feasible

    def test_refinement_reaches_off_grid_cost_cap(self):
        spec = ex2(0.3)
        res = max_r1_scan(spec, 0.0, 0.0, evaluator="unstructured",
                          denominator=4)
        want = binary_entropy(fact1_f(0.3, PHI))
        assert res.r1_max > res.grid_value + 1e-3
        assert abs(res.r1_max - want) < 1e-6

    def test_deterministic_reruns(self):
        spec = ex2(0.3)
        a = max_r1_scan(spec, 0.1, 0.2, evaluator="unstructured",
                        denominator=8)
        b = max_r1_scan(spec, 0.1, 0.2, evaluator="unstructured",
                        denominator=8)
        assert a.r1_max == b.r1_max
        assert a.evaluations == b.evaluations
        assert np.array_equal(a.best.p_x1, b.best.p_x1)

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            max_r1_scan(ex2(), 0.1, 0.1, scan_cap=100)

    def test_unknown_evaluator(self):
        with pytest.raises(Unsupported):
            max_r1_scan(ex2(), 0.1, 0.1, evaluator="fancy")

    def test_negative_fixed_rate(self):
        with pytest.raises(DomainError):
            max_r1_scan(ex2(), -0.1, 0.1)

    def test_boundary_slice_monotone(self):
        spec = ex2(0.5)
        cfg = proof_config(0.5)

        def fn(rates):
            return thm1_check(spec, cfg, rates).feasible

        own = 1 - binary_entropy(0.1)
        rows = boundary_slice(fn, [0.0, 0.2, 0.4, own + 0.05], r1_hi=1.0)
        assert rows[-1][1] == -math.inf
        finite = [r1 for _, r1 in rows[:-1]]
        assert all(x >= y - 1e-9 for x, y in zip(finite, finite[1:]))
        # sum wall: r1 + r2 caps at the interference-free ceiling
        assert abs(rows[1][1] - (HALF_COS - 0.2)) < 1e-5
        assert abs(rows[2][1] - (HALF_COS - 0.4)) < 1e-5
