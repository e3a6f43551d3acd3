import math
import warnings

import numpy as np
import pytest

from cqic.channels import gamma_state
from cqic.errors import (DimensionMismatch, DimOverflow, DomainError,
                         InvalidOperands, LengthMismatch, NotUnit)
from cqic.linalg import operator_norm
from cqic.tiltlab import (TiltSpace, closeness, closeness_chain,
                          four_user_omega, four_user_smoothing_report,
                          four_user_tilt_report, hayashi_nagaoka_check,
                          printed_omega, smoothing_residual, tilt_state,
                          tilt_vector, tiny_srm)


def _random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestTiltSpace:
    def test_layout(self):
        space = TiltSpace(4, (2, 3))
        assert space.total_dim == 4 * (1 + 2 + 3)
        assert space.slot_offset(0) == 4
        assert space.slot_offset(1) == 4 + 8

    def test_dim_cap(self):
        with pytest.raises(DimOverflow):
            TiltSpace(64, (64, 64))

    def test_dim_cap_is_1024(self):
        # bookkeeping only: a space is checked before anything is allocated
        assert TiltSpace(2, (509, 2)).total_dim == 1024
        for base, aux in ((1, (1024,)), (2, (510, 2))):
            with pytest.raises(DimOverflow, match=r"\d+ exceeds 1024"):
                TiltSpace(base, aux)

    @pytest.mark.parametrize("base,aux", [(4, (2.9, 3)), (4.5, (2,)),
                                          (4.0, (2,)), (4, (2, 3.0))])
    def test_dims_must_be_integers(self, base, aux):
        with pytest.raises(DomainError, match="must be an integer"):
            TiltSpace(base, aux)

    def test_numpy_integer_dims_read_as_int(self):
        space = TiltSpace(np.int64(4), (np.int32(2), 3))
        assert (space.base_dim, space.aux_dims, space.total_dim) == (4, (2, 3), 24)
        assert all(type(d) is int for d in (space.base_dim,) + space.aux_dims)


class TestTiltVector:
    def test_eta_zero_is_embedding(self):
        h = np.array([0.6, 0.8j])
        out = tilt_vector(h, (np.eye(3)[0],), 0.0)
        assert np.array_equal(out[:2], h)
        assert not out[2:].any()

    def test_two_direction_overlap(self):
        h = np.array([1.0, 0.0])
        d = np.eye(4)[2]
        out = tilt_vector(h, (d, d), 0.3)
        emb = np.zeros(out.size, dtype=complex)
        emb[:2] = h
        assert abs(np.vdot(emb, out) - 1 / math.sqrt(1 + 2 * 0.09)) < 1e-12

    def test_isometry_randomized(self):
        # 10^3 random (dimension, direction count, eta) configurations
        rng = np.random.default_rng(8)
        for _ in range(1000):
            dim = int(rng.integers(1, 6))
            h = _random_unit(rng, dim)
            dirs = [_random_unit(rng, int(rng.integers(1, 5)))
                    for _ in range(int(rng.integers(0, 3)))]
            eta = float(rng.uniform(0.0, 1.0))
            assert abs(np.linalg.norm(tilt_vector(h, dirs, eta)) - 1.0) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            tilt_vector([1.0, 1.0], (), 0.1)
        with pytest.raises(NotUnit):
            tilt_vector([1.0, 0.0], ([0.5, 0.5],), 0.1)

    def test_rejects_bad_eta(self):
        with pytest.raises(DomainError):
            tilt_vector([1.0, 0.0], (), 1.5)

    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [math.inf, 0.0],
                                     [1.0, -math.inf], [math.nan, math.inf]])
    def test_rejects_non_finite_vectors(self, bad):
        # a NaN norm compares False against any bound: it must still fail
        with pytest.raises(NotUnit):
            tilt_vector(bad, [[1.0]], 0.1)
        with pytest.raises(NotUnit):
            tilt_vector([1.0, 0.0], [bad], 0.1)
        with pytest.raises(NotUnit):
            tilt_state(np.eye(2) / 2, bad, [1.0], 0.1)
        with pytest.raises(NotUnit):
            tilt_state(np.eye(2) / 2, [1.0], bad, 0.1)
        with pytest.raises(NotUnit):
            four_user_tilt_report(bad, 2, 0.1)


class TestFourUserVariant:
    def test_per_subset_normalizer(self):
        assert four_user_omega(1, 0.3) == 1 + 0.3 ** 2
        assert four_user_omega(3, 0.3) == 1 + 0.3 ** 6

    def test_printed_polynomial(self):
        e2 = 0.25 ** 2
        assert abs(printed_omega(0.25)
                   - (1 + 16 * e2 + 36 * e2 ** 2 + 16 * e2 ** 3)) < 1e-15

    def test_norm_deviation_reported(self):
        rep = four_user_tilt_report([1.0, 0.0], 2, 0.3)
        e2 = 0.09
        assert abs(rep["exact_norm_sq"]
                   - (1 + 4 * e2 + 6 * e2 ** 2 + 4 * e2 ** 3)) < 1e-12
        # printed aggregate normalizer over-normalizes; deviation is data,
        # not a failure
        assert rep["norm_deviation"] > 0.1
        assert abs(rep["scaled_norm"] ** 2
                   - rep["exact_norm_sq"] / rep["printed_omega"]) < 1e-12


class TestTiltState:
    def test_eta_zero_distance(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        ts = tilt_state(rho, [1, 0], [0, 1], 0.0)
        assert closeness(rho, ts) == 0.0

    def test_pure_state_exact_distance(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        eta = 0.1
        dist = closeness(rho, tilt_state(rho, [1, 0], [1, 0], eta))
        assert abs(dist - 2 * math.sqrt(1 - 1 / (1 + 2 * eta * eta))) < 1e-12
        assert dist <= 0.4

    def test_mixed_states_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rho = _random_density(rng)
            for eta in (0.05, 0.1, 0.2):
                dist = closeness(rho, tilt_state(rho, [0, 1], [1, 0], eta))
                chain, four = closeness_chain(eta)
                assert dist <= chain + 1e-12 <= four + 1e-12

    def test_tilted_operator_is_density(self):
        rng = np.random.default_rng(3)
        rho = _random_density(rng)
        op = tilt_state(rho, [1, 0], [0, 1], 0.2).operator
        assert abs(np.trace(op).real - 1.0) < 1e-12
        assert float(np.linalg.eigvalsh(op).min()) > -1e-12

    def test_provenance(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        ts = tilt_state(rho, [1, 0], [0, 1], 0.15)
        assert ts.eta == 0.15
        assert np.array_equal(ts.original, rho)
        assert ts.space.total_dim == 2 * (1 + 2 + 2)

    def test_closeness_rejects_other_dimension(self):
        tilted = tilt_state(np.diag([0.5, 0.5]), [1, 0], [0, 1], 0.1)
        for rho in (np.eye(3) / 3, np.eye(1), np.array([0.5, 0.5])):
            with pytest.raises(DimensionMismatch):
                closeness(rho, tilted)


class TestSmoothing:
    def test_residual_shrinks_with_direction_count(self):
        rng = np.random.default_rng(1)
        rho = _random_density(rng)
        eta, last = 0.2, np.inf
        for size in (2, 4, 8, 16):
            _, norm = smoothing_residual(rho, (size, 2), eta)
            assert norm <= 3 * eta / math.sqrt(size)
            assert norm < last
            last = norm

    def test_eta_zero_residual_vanishes(self):
        rho = np.diag([0.4, 0.6]).astype(complex)
        _, norm = smoothing_residual(rho, (4, 2), 0.0)
        assert norm == 0.0

    def test_two_path_reconstruction(self):
        rng = np.random.default_rng(2)
        rho = _random_density(rng)
        structured, norm = smoothing_residual(rho, (4, 2), 0.2)
        avg = np.zeros_like(structured)
        for i in range(4):
            d1 = np.eye(4)[i]
            avg += tilt_state(rho, d1, [1, 0], 0.2).operator
        avg /= 4
        assert abs(operator_norm(avg - structured) - norm) < 1e-12

    def test_dim_guard(self):
        with pytest.raises(DimOverflow):
            smoothing_residual(np.diag([1.0, 0.0]), (2048, 2), 0.1)

    def test_rejects_other_than_two_sizes(self):
        rho = np.diag([0.5, 0.5])
        for dims in ((4, 2, 2), (4,), ()):
            with pytest.raises(DomainError):
                smoothing_residual(rho, dims, 0.1)

    # integer arguments given as floats: an IndexError, a TypeError or a
    # silent truncation to int before they were checked
    def test_rejects_float_d2_index(self):
        with pytest.raises(DomainError, match="d2 index must be an integer"):
            smoothing_residual(np.diag([0.5, 0.5]), (2, 2), 0.1, 1.0)

    def test_rejects_non_integral_sizes(self):
        with pytest.raises(DomainError, match="must be an integer, got 2.5"):
            smoothing_residual(np.diag([0.5, 0.5]), (2.5, 2), 0.1)

    def test_rejects_float_four_user_dim(self):
        with pytest.raises(DomainError, match="must be an integer, got 2.0"):
            four_user_smoothing_report(np.diag([0.5, 0.5]), 2.0, 0.1)

    def test_rejects_float_four_user_tilt_dim(self):
        with pytest.raises(DomainError, match="must be an integer, got 2.0"):
            four_user_tilt_report([1.0, 0.0], 2.0, 0.1)

    def test_numpy_integers_accepted(self):
        rho = np.diag([0.5, 0.5])
        want = smoothing_residual(rho, (3, 2), 0.1, 1)
        got = smoothing_residual(rho, (np.int64(3), np.int32(2)), 0.1,
                                 np.int64(1))
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_four_user_report(self):
        rng = np.random.default_rng(5)
        rep = four_user_smoothing_report(_random_density(rng), 4, 0.2)
        assert rep["measured"] >= 0.0
        assert abs(rep["bound_21eta"] - 7 * rep["bound_3eta"]) < 1e-12
        assert isinstance(rep["within_3eta"], bool)
        assert isinstance(rep["within_21eta"], bool)


class TestHayashiNagaoka:
    def test_s_equals_identity(self):
        assert hayashi_nagaoka_check(np.eye(3), np.zeros((3, 3)))

    def test_s_zero(self):
        assert hayashi_nagaoka_check(np.zeros((2, 2)), np.diag([0.5, 0.0]))

    def test_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            dim = int(rng.choice([2, 4, 8, 16]))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            herm = (a + a.conj().T) / 2
            w, v = np.linalg.eigh(herm)
            s = (v * ((w - w.min()) / (w.max() - w.min()))) @ v.conj().T
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            t = (b @ b.conj().T) * float(rng.uniform(0.0, 0.5))
            assert hayashi_nagaoka_check(s, t)

    def test_rejects_bad_operands(self):
        with pytest.raises(InvalidOperands):
            hayashi_nagaoka_check(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                  np.zeros((2, 2)))
        with pytest.raises(InvalidOperands):
            hayashi_nagaoka_check(np.diag([2.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(InvalidOperands):
            hayashi_nagaoka_check(np.diag([0.5, 0.5]), np.diag([-0.1, 0.0]))
        with pytest.raises(InvalidOperands):
            hayashi_nagaoka_check(np.eye(2), np.zeros((3, 3)))
        # non-finite entries passed the Hermitian test (a NaN deviation
        # compares false) and reached the eigensolver, which raised another
        # class, or met the other operand's range check first
        nan, inf = np.diag([np.nan, 0.5]), np.diag([np.inf, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s_op, t_op, what in ((nan, np.zeros((2, 2)), "S"),
                                     (0.5 * np.eye(2), inf, "T"),
                                     (np.diag([2.0, 0.0]), nan, "T")):
                with pytest.raises(InvalidOperands,
                                   match=f"{what} has non-finite entries"):
                    hayashi_nagaoka_check(s_op, t_op)


class TestTinySrm:
    def test_orthogonal_pure_states(self):
        states = [np.diag([1.0, 0.0]).astype(complex),
                  np.diag([0.0, 1.0]).astype(complex)]
        povm, p = tiny_srm(states, [0.5, 0.5])
        assert abs(p - 1.0) < 1e-12
        assert operator_norm(sum(povm) - np.eye(2)) < 1e-9

    def test_identical_pair(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        _, p = tiny_srm([rho, rho], [0.5, 0.5])
        assert abs(p - 0.5) < 1e-12

    def test_gamma_ensemble_matches_helstrom(self):
        phi = math.pi / 4
        _, p = tiny_srm([gamma_state(phi, 0), gamma_state(phi, 1)], [0.5, 0.5])
        assert abs(p - (1 + math.sin(phi)) / 2) < 1e-12

    def test_elements_psd_and_complete(self):
        rng = np.random.default_rng(11)
        states = [_random_density(rng, 3) for _ in range(4)]
        povm, _ = tiny_srm(states, [0.4, 0.3, 0.2, 0.1])
        total = sum(povm)
        for mu in povm:
            assert float(np.linalg.eigvalsh(mu).min()) > -1e-9
        assert operator_norm(total @ total - total) < 1e-9  # projector

    def test_validation(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(LengthMismatch):
            tiny_srm([rho, rho], [1.0])
        with pytest.raises(DomainError):
            tiny_srm([rho, rho], [0.9, 0.3])
        with pytest.raises(DomainError):
            tiny_srm([rho] * 17, [1 / 17.0] * 17)

    @pytest.mark.parametrize("priors", [(math.nan, 1.0), (0.5, math.nan)])
    def test_nan_prior(self, priors):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(DomainError, match="priors"):
            tiny_srm([rho, rho], priors)
