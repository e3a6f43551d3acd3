import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_oracle import staged_bounds
from cqic import direct, layered
from cqic import regions as rg
from cqic.channels import (ChannelSpec, build_ex1, build_ex2,
                           condition_eq1, example_capacities, gamma_state,
                           sigma_state)
from cqic.config import tolerance_scope
from cqic.errors import (BudgetExceeded, ConfigMismatch, DomainError, Not3to1,
                         NotPrime, Unsupported)
from cqic.regions import (Thm1Config, Thm2Config, Thm3Config,
                          UnstructuredConfig, boundary_slice, max_r1_scan,
                          thm1_check, thm2_config_from_thm1, thm2_feasible,
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

    def test_bounds_read_the_clipped_tables(self):
        # Pmf accepts a mass down to -tol.prob and clips it: the bounds
        # must be those of the clipped tables, bit for bit
        spec = build_ex2(1.0, 0.1, 0.1, 0.5)
        p_x1 = np.array([0.6, 0.4])
        raw = UnstructuredConfig(p_x1,
                                 np.array([[0.5, 0.3], [0.2 + 1e-10, -1e-10]]),
                                 np.array([[0.5, 0.5], [0.0, 0.0]]))
        clipped = UnstructuredConfig(p_x1, np.clip(raw.p_u2x2, 0.0, None),
                                     raw.p_u3x3)
        got = rg._unstructured_bounds(spec, raw)
        want = rg._unstructured_bounds(spec, clipped)
        assert got.keys() == want.keys()
        for key, val in want.items():
            assert np.float64(got[key]).tobytes() == \
                np.float64(val).tobytes(), key


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

    def test_nan_factor_entry_rejected(self):
        good = np.full((2, 2, 2), 1 / 8)
        bad = good.copy()
        bad[0, 0, 0] = math.nan
        with pytest.raises(ConfigMismatch):
            thm2_feasible(ex2(), Thm2Config((2, 2, 2), (good, bad, good)),
                          (0, 0, 0))

    def test_empty_factor_rejected(self):
        good = np.full((2, 2, 2), 1 / 8)
        with pytest.raises(ConfigMismatch, match="no entries"):
            thm2_feasible(ex2(), Thm2Config((2, 2, 2),
                                            (np.zeros((1, 1, 0)), good, good)),
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

    @pytest.mark.parametrize("tables, message", [
        ((np.array([0.5, 0.5]), np.full((2, 3), 1 / 6), np.eye(2) / 2),
         r"p_u2x2 must be a \(m, 2\) table, got \(2, 3\)"),
        ((np.array([0.5, 0.5]), np.eye(2) / 2, np.ones(4) / 4),
         r"p_u3x3 must be a \(m, 2\) table, got \(4,\)"),
        ((np.ones(3) / 3, np.eye(2) / 2, np.eye(2) / 2),
         "p_x1 has 3 atoms, user 1 input has 2"),
    ])
    def test_embedding_checks_table_shapes(self, tables, message):
        # the message unstructured_3to1_check gives for the same tables
        cfg = UnstructuredConfig(*tables)
        for check in (lambda: unstructured_3to1_check(ex2(), cfg, (0, 0, 0)),
                      lambda: thm3_config_from_unstructured(ex2(), cfg)):
            with pytest.raises(ConfigMismatch, match=message):
                check()

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

    def test_empty_factor_rejected(self):
        # a zero V axis passes every shape check
        quiet = np.zeros((1, 1, 1, 1, 2))
        quiet[..., 0] = 1.0
        empty = np.zeros((0, 1, 1, 1, 2))
        with pytest.raises(ConfigMismatch, match="no entries"):
            thm3_feasible(ex2(), Thm3Config((2, 2, 2), (empty, quiet, quiet)),
                          (0, 0, 0))


#: how a factor axis carries its layer: spread over its symbols (active),
#: of size 1 or all mass on one symbol (absent)
_LAYER_MODES = ("present", "size1", "point")


@st.composite
def covering_cases(draw):
    """(theorem, config, active) with ``active[t]`` the axes of user t's
    five-axis factor (V, V, U, U, X) that carry a layer."""
    theorem = draw(st.sampled_from((2, 3)))
    fields = tuple(draw(st.sampled_from((2, 3) if theorem == 2 else (2,)))
                   for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors, active = [], []
    for t in range(3):
        a, b = layered._OTHERS[t]
        sizes = (2, 2, fields[a], fields[b], 2)
        modes = [draw(st.sampled_from(_LAYER_MODES)) if theorem == 3 or ax > 1
                 else "size1" for ax in range(4)]
        modes.append(draw(st.sampled_from(("present", "point"))))
        index = [slice(None) if m == "present" else
                 slice(0, 1) if m == "size1" else
                 slice(k, k + 1) for m, k in
                 zip(modes, (draw(st.integers(0, n - 1)) for n in sizes))]
        tab = np.zeros(tuple(1 if m == "size1" else n
                             for m, n in zip(modes, sizes)))
        weights = rng.random(tab[tuple(index)].shape) + 0.05
        tab[tuple(index)] = weights / weights.sum()
        factors.append(tab if theorem == 3 else tab.reshape(tab.shape[2:]))
        active.append([ax for ax, m in enumerate(modes) if m == "present"])
    cfg = (Thm2Config if theorem == 2 else Thm3Config)(fields, tuple(factors))
    return theorem, cfg, active


@settings(max_examples=150, deadline=None)
@given(covering_cases(), st.sampled_from((build_ex1(0.1, 0.12, 0.08, 0.5),
                                          ex2())))
def test_full_covering_wall_is_the_source_divergence(case, spec):
    # the covering row over all of user t's active layers (and its input,
    # when active) is D(p || unif_U x prod p_V x p_X) over those axes; a
    # point-mass layer drops out, as it does in the checker
    theorem, cfg, active = case
    check = thm2_feasible if theorem == 2 else thm3_feasible
    rep = check(spec, cfg, (0.0, 0.0, 0.0))
    for t, axes in enumerate(active):
        if not axes:
            continue
        tab = np.asarray(cfg.factors[t])
        tab = tab.reshape((1,) * (5 - tab.ndim) + tab.shape)  # Thm 2: no V
        joint = tab.sum(axis=tuple(ax for ax in range(5) if ax not in axes))
        q = np.ones(joint.shape)
        for n, ax in enumerate(axes):
            if ax in (2, 3):  # U: uniform over its field
                marg = np.full(joint.shape[n], 1.0 / joint.shape[n])
            else:
                marg = joint.sum(axis=tuple(m for m in range(len(axes))
                                            if m != n))
            q = q * marg.reshape([-1 if m == n else 1
                                  for m in range(len(axes))])
        mask = joint > 0.0
        div = float(np.sum(joint[mask] * np.log2(joint[mask] / q[mask])))
        others = layered._OTHERS[t]
        pairs = [",".join(f"{t + 1}{others[ax % 2] + 1}" for ax in axes
                          if ax in group) for group in ((2, 3), (0, 1))]
        label = f"thm{theorem}.src.j={t + 1}.A={{{pairs[0]}}}"
        if theorem == 3:
            label += f".C={{{pairs[1]}}}"
        if 4 in axes:
            label += "+K"
        assert div >= -1e-12
        assert abs(rep.record(label).rhs - div) < 1e-9


NON_FINITE_RATES = [(0.1, math.nan, 0.1), (math.nan, 0.1, 0.1),
                    (0.1, math.inf, 0.1), (0.1, 0.1, -math.inf)]


@pytest.mark.parametrize("rates", NON_FINITE_RATES)
def test_checkers_reject_non_finite_rates(rates):
    spec = ex2()
    thm1 = proof_config(0.25)
    unstr = UnstructuredConfig(np.array([0.6, 0.4]),
                               np.array([[0.3, 0.2], [0.1, 0.4]]),
                               np.array([[0.35, 0.15], [0.05, 0.45]]))
    for check, cfg in ((thm1_check, thm1),
                       (unstructured_3to1_check, unstr),
                       (thm2_feasible, thm2_config_from_thm1(spec, thm1)),
                       (thm3_feasible,
                        thm3_config_from_unstructured(spec, unstr))):
        with pytest.raises(DomainError):
            check(spec, cfg, rates)


class TestIntegerConfigValues:
    """Field sizes and symbol maps are integers or integral floats."""

    @pytest.mark.parametrize("change", [
        {"f2": (0, 0.5)}, {"field_size": 2.9}, {"f2": (0, "1")},
        {"f2": (0, math.nan)}, {"f3": (True, 0)},
    ])
    def test_thm1_rejects(self, change):
        fields = dict(proof_config(0.5).__dict__, **change)
        with pytest.raises(ConfigMismatch, match="must be an integer"):
            thm1_check(ex2(), Thm1Config(**fields), (0.0, 0.0, 0.0))
        with pytest.raises(ConfigMismatch, match="must be an integer"):
            thm2_config_from_thm1(ex2(), Thm1Config(**fields))

    def test_integral_floats_read_as_ints(self):
        spec = ex2()
        cfg = Thm1Config(2.0, (0.5, 0.5), (0.5, 0.5), (0.5, 0.5),
                         (0.0, 1.0), (np.int64(0), 1))
        rates = (0.1, 0.1, 0.1)
        assert thm1_check(spec, cfg, rates) == \
            thm1_check(spec, proof_config(0.5), rates)
        emb = thm2_config_from_thm1(spec, proof_config(0.5))
        assert thm2_feasible(spec, Thm2Config((2.0, 2, 2), emb.factors),
                             rates) == thm2_feasible(spec, emb, rates)

    @pytest.mark.parametrize("fields", [(2.7, 2, 2), (2, math.nan, 2),
                                        (2, 2, "2")])
    def test_layered_rejects_after_a_cached_build(self, fields):
        # the (2, 2, 2) system is cached first: a truncated field must
        # not find it
        spec = ex2()
        emb = thm2_config_from_thm1(spec, proof_config(0.5))
        thm2_feasible(spec, emb, (0.1, 0.1, 0.1))
        with pytest.raises(ConfigMismatch, match="must be an integer"):
            thm2_feasible(spec, Thm2Config(fields, emb.factors),
                          (0.1, 0.1, 0.1))


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
        form = direct._parity_gamma_form(spec)
        fast_u = max_r1_scan(spec, 0.2, 0.1, evaluator="unstructured",
                             denominator=4, refine=refine)
        fast_t = max_r1_scan(spec, 0.2, 0.1, evaluator="thm1",
                             denominator=4, refine=refine)
        monkeypatch.setattr(direct, "_parity_gamma_form", lambda c: None)
        slow_u = max_r1_scan(spec, 0.2, 0.1, evaluator="unstructured",
                             denominator=4, refine=refine)
        slow_t = max_r1_scan(spec, 0.2, 0.1, evaluator="thm1",
                             denominator=4, refine=refine)
        assert abs(fast_u.r1_max - slow_u.r1_max) < 1e-9
        assert abs(fast_t.r1_max - slow_t.r1_max) < 1e-9
        # every bound value of the full denominator-8 grid, both evaluators
        p1s = direct._lattice_pmfs(2, 8)
        g2 = direct._binary_user_grid(spec, 1, 2, 8)
        g3 = direct._binary_user_grid(spec, 2, 2, 8)
        shape = (len(p1s), len(g2.p), len(g3.p))
        for evaluator in ("unstructured", "thm1"):
            closed = staged_bounds(form, evaluator, p1s, g2, g3)
            engine = direct._grid_bounds(spec, evaluator, p1s, g2, g3)
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
            monkeypatch.setattr(direct, "_parity_gamma_form", lambda c: None)
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

    @pytest.mark.parametrize("r2, r3", [(math.nan, 0.1), (0.1, math.nan),
                                        (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_fixed_rate(self, r2, r3):
        with pytest.raises(DomainError):
            max_r1_scan(ex2(), r2, r3, evaluator="thm1", denominator=4)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.inf, math.nan])
    def test_boundary_slice_needs_positive_tol(self, tol):
        with pytest.raises(DomainError):
            boundary_slice(lambda r: r[0] < 0.3, [0.1], tol=tol)

    @pytest.mark.parametrize("r1_hi", [math.nan, -1.0, math.inf])
    def test_boundary_slice_needs_finite_nonnegative_bracket(self, r1_hi):
        with pytest.raises(DomainError, match="r1_hi"):
            boundary_slice(lambda r: r[0] < 1, [0.1], r1_hi=r1_hi)

    @pytest.mark.parametrize("kwargs", [
        {"u_sizes": (2.5, 2)},
        {"evaluator": "thm1", "field_size": 2.5},
        {"denominator": 2.5},
    ])
    def test_non_integral_scan_size(self, kwargs):
        with pytest.raises(DomainError, match="must be an integer"):
            max_r1_scan(ex2(), 0.1, 0.1, **kwargs)

    @pytest.mark.parametrize("u_sizes", [(), (2,), (2, 2, 9)])
    def test_needs_two_u_sizes(self, u_sizes):
        with pytest.raises(DomainError, match="u_sizes"):
            max_r1_scan(ex2(), 0.1, 0.1, u_sizes=u_sizes, denominator=4)

    @pytest.mark.parametrize("r2_values, r3", [
        ([0.1], math.nan), ([0.1], math.inf), ([0.1], -0.1),
        ([0.1, math.nan], 0.0), ([math.inf], 0.0), ([-math.inf], 0.0),
        ([0.0, -0.1], 0.0)])
    def test_boundary_slice_rejects_bad_rays(self, r2_values, r3):
        # checked before any ray: an opaque predicate never sees them
        calls = []
        with pytest.raises(DomainError, match="fixed rates"):
            boundary_slice(lambda r: calls.append(r) or True, r2_values,
                           r3=r3)
        assert calls == []

    def test_boundary_slice_stops_at_adjacent_floats(self):
        # a tol below one ulp of the boundary would never be met
        (_, r1), = boundary_slice(lambda r: r[0] < 0.3, [0.1], tol=1e-300)
        assert r1 < 0.3 and math.nextafter(r1, 1.0) >= 0.3

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


def layered_case(theorem, tau=1 / 32):
    """A boundary-slice config as the benchmark builds them."""
    spec = ex2(tau)
    if theorem == 2:
        return spec, thm2_config_from_thm1(spec, proof_config(tau)), \
            thm2_feasible
    cfg = thm3_config_from_unstructured(spec, UnstructuredConfig(
        np.array([0.6, 0.4]), np.array([[0.3, 0.2], [0.1, 0.4]]),
        np.array([[0.35, 0.15], [0.05, 0.45]])))
    return spec, cfg, thm3_feasible


@pytest.fixture
def count_builds(monkeypatch):
    """Start from an empty system cache and count the builds."""
    monkeypatch.setattr(layered, "_SYSTEMS", {})
    built = []
    build = layered._layered_system

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(layered, "_layered_system", counted)
    return built


class TestLayeredCache:
    @pytest.mark.parametrize("theorem", (2, 3))
    def test_slice_reports_equal_cold_builds(self, count_builds, theorem):
        spec, cfg, check = layered_case(theorem)
        probed = []

        def fn(rates):
            probed.append((rates, check(spec, cfg, rates)))
            return probed[-1][1].feasible

        rows = boundary_slice(fn, [0.0, 0.05], 0.02, r1_hi=1.0, tol=1e-3)
        assert len(count_builds) == 1
        assert len(probed) > 10 and all(r1 > 0.0 for _, r1 in rows)
        assert {rep.feasible for _, rep in probed} == {True, False}
        for rates, rep in probed:
            layered._SYSTEMS.clear()
            cold = check(spec, cfg, rates)
            assert (cold.feasible, cold.records, cold.witness) == \
                (rep.feasible, rep.records, rep.witness)
        assert len(count_builds) == 1 + len(probed)

    def test_in_place_factor_change_rebuilds(self, count_builds):
        spec, cfg, check = layered_case(2)
        assert check(spec, cfg, (0.1, 0.0, 0.0)).feasible
        # user 1 sends a fixed input: R1 is pinned at 0
        cfg.factors[0][...] = [[[1.0, 0.0]]]
        assert not check(spec, cfg, (0.1, 0.0, 0.0)).feasible
        assert len(count_builds) == 2

    def test_tolerance_change_rebuilds(self, count_builds):
        spec, cfg, check = layered_case(3)
        loose = check(spec, cfg, (0.1, 0.0, 0.0))
        with tolerance_scope(1e-3):
            tight = check(spec, cfg, (0.1, 0.0, 0.0))
            assert len(count_builds) == 2
            assert tight.records != loose.records
            layered._SYSTEMS.clear()
            assert check(spec, cfg, (0.1, 0.0, 0.0)) == tight

    def test_size_stays_bounded(self, count_builds):
        spec = ex2(1 / 32)
        for i in range(layered._SYSTEMS_MAX + 4):
            cfg = thm2_config_from_thm1(spec, proof_config((i + 1) / 64))
            thm2_feasible(spec, cfg, (0.05, 0.0, 0.0))
            assert len(layered._SYSTEMS) <= layered._SYSTEMS_MAX
        assert len(layered._SYSTEMS) == layered._SYSTEMS_MAX
        # the most recent config is still held: no rebuild
        thm2_feasible(spec, cfg, (0.1, 0.0, 0.0))
        assert len(count_builds) == layered._SYSTEMS_MAX + 4

    def test_invalid_config_not_cached(self, count_builds):
        spec, cfg, check = layered_case(2)
        bad = Thm2Config(cfg.fields, cfg.factors[:2])
        for _ in range(2):
            with pytest.raises(ConfigMismatch):
                check(spec, bad, (0.1, 0.0, 0.0))
        assert layered._SYSTEMS == {} and len(count_builds) == 2

    def test_threads_share_the_cache(self, count_builds):
        spec = ex2(1 / 32)
        cfgs = [thm2_config_from_thm1(spec, proof_config((i + 1) / 64))
                for i in range(layered._SYSTEMS_MAX + 4)]
        want = [thm2_feasible(spec, cfg, (0.05, 0.0, 0.0)) for cfg in cfgs]
        got, errors = [], []

        def work(offset):
            try:
                for k in range(2 * len(cfgs)):
                    i = (k + offset) % len(cfgs)
                    got.append(thm2_feasible(spec, cfgs[i], (0.05, 0.0, 0.0))
                               == want[i])
            except Exception as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(3 * n,))
                       for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(got) == 4 * 2 * len(cfgs) and all(got)
        assert len(layered._SYSTEMS) <= layered._SYSTEMS_MAX
