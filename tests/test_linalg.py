import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqic.errors import DimensionMismatch, InvalidState, NotHermitian
from cqic.linalg import (eig_hermitian, eigvals_hermitian, operator_norm,
                         partial_trace, singular_values, tensor, tensor_all,
                         trace_norm)
from cqic.states import DensityOperator


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def random_density(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestEigHermitian:
    def test_identity(self):
        w, _ = eig_hermitian(np.eye(2, dtype=complex))
        assert np.allclose(w, [1.0, 1.0])

    def test_diagonal(self):
        w, v = eig_hermitian(np.diag([0.7, 0.3]).astype(complex))
        assert np.allclose(w, [0.7, 0.3])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x(self):
        # hand diagonalization of [[0,1],[1,0]]: eigenpairs (1, |+>), (-1, |->)
        w, v = eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [1.0, -1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        assert np.allclose(v[:, 0], [s, s], atol=1e-12)
        assert np.allclose(v[:, 1], [s, -s], atol=1e-12)

    @pytest.mark.parametrize("n,seed", [(2, 1), (5, 2), (16, 3), (33, 4), (64, 5)])
    def test_reconstruction_and_unitarity(self, n, seed):
        h = random_hermitian(n, seed)
        w, v = eig_hermitian(h)
        assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-9
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-11
        assert np.all(np.diff(w) <= 1e-15)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_deterministic_repeat(self):
        h = random_hermitian(12, 99)
        w1, v1 = eig_hermitian(h)
        w2, v2 = eig_hermitian(h)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_degenerate_spectrum(self):
        h = np.diag([0.5, 0.5, 0.0]).astype(complex)
        w, v = eig_hermitian(h)
        assert np.allclose(w, [0.5, 0.5, 0.0])
        assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-12


def ranked_hermitian_stack(d, seed, copies):
    """Shuffled stack of signed Hermitian matrices of ranks 1, d//2, d-1, d."""
    rng = np.random.default_rng(seed)
    mats = []
    for rank in (1, d // 2, d - 1, d):
        for _ in range(copies):
            g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            signs = rng.choice([-1.0, 1.0], size=rank)
            mats.append((g * signs) @ g.conj().T)
    return np.array([mats[i] for i in rng.permutation(len(mats))])


class TestEigvalsHermitian:
    @pytest.mark.parametrize("d", range(1, 33))
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 3),
           lead=st.sampled_from([(-1,), (1, -1)]))
    def test_bit_equal_to_eig_hermitian(self, d, seed, copies, lead):
        stack = ranked_hermitian_stack(d, seed, copies)
        want = np.array([eig_hermitian(m)[0] for m in stack])
        got = eigvals_hermitian(stack.reshape(lead + (d, d)))
        assert got.shape == lead[:-1] + (len(stack), d)
        assert got.reshape(-1, d).tobytes() == want.tobytes()

    def test_single_matrix(self):
        h = random_hermitian(5, 31)
        assert eigvals_hermitian(h).tobytes() == eig_hermitian(h)[0].tobytes()

    def test_empty_stack(self):
        assert eigvals_hermitian(np.zeros((0, 2, 2))).shape == (0, 2)

    def test_one_non_hermitian_matrix_rejected(self):
        stack = np.array([random_hermitian(3, s) for s in range(5)])
        stack[3, 0, 2] += 1e-3
        with pytest.raises(NotHermitian):
            eigvals_hermitian(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0, 0), (2, 1, 0), (4, 2, 2)])
    def test_non_finite_anywhere_rejected(self, bad, where):
        stack = np.array([random_hermitian(3, s) for s in range(5)])
        stack[where] = bad
        with pytest.raises(NotHermitian):
            eigvals_hermitian(stack)

    def test_tolerance_scale_is_per_matrix(self):
        # 1e-7 of asymmetry fails 1e-9 * max(1, 0.5) but would pass a scale
        # taken from the 1e6-norm neighbour
        small = np.diag([0.5, 0.5]).astype(complex)
        small[0, 1] = 1e-7
        big = 1e6 * random_hermitian(2, 41)
        eigvals_hermitian(big)
        with pytest.raises(NotHermitian):
            eigvals_hermitian(small)
        with pytest.raises(NotHermitian):
            eigvals_hermitian(np.array([big, small]))

    def test_tolerance_scale_floor_of_one(self):
        # 8e-10 of asymmetry passes 1e-9 * max(1, 0.5), not 1e-9 * 0.5
        small = np.diag([0.5, 0.5]).astype(complex)
        small[0, 1] = 8e-10
        assert eigvals_hermitian(np.array([small, small])).shape == (2, 2)
        assert eig_hermitian(small)[0].shape == (2,)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(NotHermitian):
            eigvals_hermitian(np.zeros(shape))

    def test_eig_hermitian_still_takes_one_matrix(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([np.eye(2), np.eye(2)]))


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert np.allclose(tensor(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_sigma_product(self):
        s = np.diag([0.1, 0.9])
        assert np.allclose(tensor(s, s), np.diag([0.01, 0.09, 0.09, 0.81]))

    def test_tensor_all(self):
        s = np.diag([0.1, 0.9])
        assert np.allclose(tensor_all([s, s, np.eye(2)]),
                           tensor(tensor(s, s), np.eye(2)))


class TestPartialTrace:
    def test_product_state(self):
        a = random_density(2, 7)
        b = random_density(3, 8)
        assert np.abs(partial_trace(tensor(a, b), [2, 3], {0}) - a).max() < 1e-12
        assert np.abs(partial_trace(tensor(a, b), [2, 3], {1}) - b).max() < 1e-12

    def test_bell_marginal(self):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        assert np.abs(partial_trace(bell, [2, 2], {0}) - np.eye(2) / 2).max() < 1e-12

    def test_index_sum(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.allclose(np.diag(partial_trace(rho, [2, 2], {1})).real, [0.4, 0.6])

    def test_trace_preserved(self):
        rho = random_density(8, 11)
        red = partial_trace(rho, [2, 2, 2], {0, 2})
        assert abs(np.trace(red).real - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4) / 4, [2, 3], {0})
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4) / 4, [2, 2], {0, 5})


class TestNorms:
    def test_identity(self):
        assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-12)
        assert operator_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_signed_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_state_difference(self):
        # rho=diag(1,0), sigma=I/2: eigenvalues of the difference are +-1/2
        d = np.diag([1.0, 0.0]) - np.eye(2) / 2
        assert trace_norm(d) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_inequality(self):
        a = random_hermitian(5, 21)
        b = random_hermitian(5, 22)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9

    def test_singular_values_match_abs_eigs(self):
        h = random_hermitian(6, 23)
        w, _ = eig_hermitian(h)
        sv = singular_values(h)
        assert np.allclose(np.sort(np.abs(w)), np.sort(sv), atol=1e-9)

    def test_tiny_eigenvalues_keep_full_precision(self):
        # eigenvalues near 1e-8: the norms must be exact to rounding, far
        # inside the 1e-9 tolerance family
        rng = np.random.default_rng(2024)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        w = np.array([3e-8, -2e-8, 1.5e-8, -0.5e-8])
        h = q @ np.diag(w) @ q.conj().T
        h = (h + h.conj().T) / 2
        assert abs(trace_norm(h) - np.abs(w).sum()) < 1e-15
        assert abs(operator_norm(h) - np.abs(w).max()) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fn,exc", [(eig_hermitian, NotHermitian),
                                    (trace_norm, NotHermitian),
                                    (operator_norm, NotHermitian),
                                    (DensityOperator, InvalidState)])
def test_non_finite_entries_rejected(fn, exc, bad):
    with pytest.raises(exc):
        fn(np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex))
