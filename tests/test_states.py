import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqic.config import DEFAULT_TOL
from cqic.errors import (DomainError, InvalidState, OverlappingQueries,
                         UnknownRegister)
from cqic.linalg import eig_hermitian
from cqic.states import (CqState, DensityOperator, EntropyQuery, Pmf,
                         binary_convolve, binary_entropy,
                         conditional_mutual_info, entropy, fact1_f,
                         shannon_entropies, shannon_entropy,
                         von_neumann_entropies,
                         von_neumann_entropy)

HB_01 = 0.4689955935892812  # -0.1 log2 0.1 - 0.9 log2 0.9, frozen by hand


def gamma_pair(phi):
    v = np.array([np.cos(phi), np.sin(phi)], dtype=complex)
    return np.diag([1.0, 0.0]).astype(complex), np.outer(v, v.conj())


def random_cq_state(seed, n_regs=2, d=2):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 4, size=n_regs)
    regs = [(f"R{i}", int(a)) for i, a in enumerate(sizes)]
    total = int(np.prod(sizes))
    pmf = rng.dirichlet(np.ones(total))
    smap = {}
    for flat in range(total):
        key = tuple(int(v) for v in np.unravel_index(flat, sizes))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        smap[key] = rho / np.trace(rho).real
    return CqState(regs, pmf, smap)


class TestScalars:
    def test_binary_entropy_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(0.1) == pytest.approx(HB_01, abs=1e-15)

    def test_binary_entropy_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(1.5)
        with pytest.raises(DomainError):
            binary_entropy(-0.1)

    def test_convolve_identity(self):
        assert binary_convolve(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)

    def test_fact1_f_edge(self):
        assert fact1_f(0.5, np.pi / 2) == pytest.approx(0.5, abs=1e-15)
        assert fact1_f(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_convolve_commutative_associative(self, p, q, r):
        assert binary_convolve(p, q) == pytest.approx(binary_convolve(q, p), abs=1e-12)
        assert binary_convolve(binary_convolve(p, q), r) == pytest.approx(
            binary_convolve(p, binary_convolve(q, r)), abs=1e-12)

    @given(st.floats(0, 1))
    def test_convolve_half_absorbing(self, p):
        assert binary_convolve(p, 0.5) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(0, 1), st.floats(0.01, np.pi / 2))
    def test_fact1_f_symmetric(self, t, phi):
        assert fact1_f(t, phi) == pytest.approx(fact1_f(1 - t, phi), abs=1e-12)

    def test_fact1_f_decreasing_on_lower_half(self):
        ts = np.linspace(0.01, 0.49, 30)
        vals = [fact1_f(t, 1.0) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDensityOperator:
    def test_valid(self):
        rho = DensityOperator(np.diag([0.9, 0.1]).astype(complex))
        assert rho.dim == 2

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidState):
            DensityOperator(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(InvalidState):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_immutable(self):
        rho = DensityOperator(np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 2.0


class TestVonNeumannEntropy:
    def test_pure(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_diag_09_01(self):
        rho = DensityOperator(np.diag([0.9, 0.1]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(HB_01, abs=1e-12)

    def test_clamp_window(self):
        # slightly negative but within tolerance: clamped, not an error
        val = von_neumann_entropy(np.diag([1.0 + 5e-10, -5e-10]))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_invalid_state(self):
        with pytest.raises(InvalidState):
            von_neumann_entropy(np.diag([1.1, -0.1]))


def ranked_state_stack(d, seed, copies):
    """Shuffled stack of density operators of ranks 1, d//2, d-1, d."""
    rng = np.random.default_rng(seed)
    mats = []
    for rank in (1, d // 2, d - 1, d):
        for _ in range(copies):
            k = max(1, rank)
            g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
            rho = g @ g.conj().T
            mats.append(rho / np.trace(rho).real)
    return np.array([mats[i] for i in rng.permutation(len(mats))])


def single_state_entropy(rho):
    # the per-matrix formula the batched entropies must reproduce bit for bit
    w, _ = eig_hermitian(rho)
    assert float(w.min()) >= -DEFAULT_TOL.psd
    return shannon_entropy(np.where(w < DEFAULT_TOL.eig_floor, 0.0, w))


class TestVonNeumannEntropies:
    @pytest.mark.parametrize("d", range(1, 33))
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 3),
           lead=st.sampled_from([(-1,), (1, -1)]))
    def test_bit_equal_to_single_state_formula(self, d, seed, copies, lead):
        stack = ranked_state_stack(d, seed, copies)
        want = np.array([single_state_entropy(m) for m in stack])
        got = von_neumann_entropies(stack.reshape(lead + (d, d)))
        assert got.shape == lead[:-1] + (len(stack),)
        assert got.ravel().tobytes() == want.tobytes()
        assert np.array([von_neumann_entropy(m) for m in stack]).tobytes() \
            == want.tobytes()

    def test_empty_stack(self):
        assert von_neumann_entropies(np.zeros((0, 2, 2))).shape == (0,)

    def test_one_negative_row_rejected(self):
        stack = np.array([np.eye(2) / 2, np.diag([1.1, -0.1]), np.eye(2) / 2])
        with pytest.raises(InvalidState):
            von_neumann_entropies(stack)

    def test_clamp_window_per_row(self):
        stack = np.array([np.diag([1.0 + 5e-10, -5e-10]), np.eye(2) / 2])
        assert von_neumann_entropies(stack).tolist() == pytest.approx([0.0, 1.0],
                                                                      abs=1e-9)


class TestPmf:
    def test_entropy(self):
        assert Pmf([0.5, 0.5]).entropy() == pytest.approx(1.0, abs=1e-12)

    def test_bad_sum(self):
        with pytest.raises(DomainError):
            Pmf([0.5, 0.4])

    def test_negative(self):
        with pytest.raises(DomainError):
            Pmf([1.1, -0.1])


class TestEntropy:
    def test_copied_bit_joint(self):
        # joint operator is diag(1/2, 0, 0, 1/2): one shared bit of entropy
        smap = {(0,): np.diag([1.0, 0.0]), (1,): np.diag([0.0, 1.0])}
        s = CqState([("X", 2)], [0.5, 0.5], smap)
        assert entropy(s, EntropyQuery({"X"}, True)) == pytest.approx(1.0, abs=1e-12)
        assert entropy(s, EntropyQuery((), True)) == pytest.approx(1.0, abs=1e-12)

    def test_fact1_state_average_entropy(self):
        g0, g1 = gamma_pair(np.pi / 4)
        s = CqState([("A", 2)], [0.5, 0.5], {(0,): g0, (1,): g1})
        want = binary_entropy(fact1_f(0.5, np.pi / 4))
        assert entropy(s, EntropyQuery((), True)) == pytest.approx(want, abs=1e-9)
        # cross-check via direct eigensolve of the assembled average
        direct = von_neumann_entropy((g0 + g1) / 2)
        assert direct == pytest.approx(want, abs=1e-9)

    def test_unknown_register(self):
        smap = {(0,): np.eye(2) / 2, (1,): np.eye(2) / 2}
        s = CqState([("X", 2)], [0.5, 0.5], smap)
        with pytest.raises(UnknownRegister):
            entropy(s, EntropyQuery({"Z"}))

    @pytest.mark.parametrize("seed", range(6))
    def test_blockdiag_two_path(self, seed):
        # H(all classical + quantum) equals the entropy of the assembled
        # block-diagonal joint operator
        s = random_cq_state(seed, n_regs=2)
        h1 = entropy(s, EntropyQuery(set(s.register_names()), True))
        total = s.prob_table.size
        d = s.quantum_dim
        blk = np.zeros((total * d, total * d), dtype=complex)
        flat = s.prob_table.ravel()
        sizes = tuple(a for _, a in s.registers)
        for i, p in enumerate(flat):
            if p <= 0:
                continue
            key = tuple(int(v) for v in np.unravel_index(i, sizes))
            blk[i * d:(i + 1) * d, i * d:(i + 1) * d] = p * s.state_map[key]
        assert h1 == pytest.approx(von_neumann_entropy(blk), abs=1e-9)

    @pytest.mark.parametrize("seed,d,rank,want_h,want_cmi", [
        (4, 4, 2, ("1.4133500373863572", "2.195607180659321",
                   "2.773041950950381", "3.0042137516175593"),
         "0.2301900976784823"),
        (8, 8, 3, ("1.9014800438703316", "2.6212131337339066",
                   "3.159521362874627", "3.5988874434982945"),
         "0.3289778851445071"),
    ])
    def test_rank_deficient_pinned(self, seed, d, rank, want_h, want_cmi):
        # every output has rank `rank` inside one (rank+1)-dim subspace, so
        # each averaged state is rank deficient: exact bits of the entropy
        # sums, which depend on the order the eigenvalue terms are added
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        basis = q[:, :rank + 1]
        smap = {}
        for key in np.ndindex(2, 2, 2):
            g = rng.normal(size=(rank + 1, rank)) + 1j * rng.normal(size=(rank + 1, rank))
            rho = basis @ (g @ g.conj().T) @ basis.conj().T
            smap[key] = rho / np.trace(rho).real
        s = CqState([("A", 2), ("B", 2), ("C", 2)], rng.dirichlet(np.ones(8)), smap)
        got = tuple(repr(entropy(s, EntropyQuery(sub, True)))
                    for sub in ((), ("A",), ("A", "B"), ("A", "B", "C")))
        assert got == want_h
        cmi = conditional_mutual_info(s, EntropyQuery({"A"}), EntropyQuery((), True),
                                      EntropyQuery({"B"}))
        assert repr(cmi) == want_cmi

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_under_discard(self, seed):
        s = random_cq_state(seed, n_regs=3)
        names = s.register_names()
        hab = entropy(s, EntropyQuery(names[:2]))
        ha = entropy(s, EntropyQuery(names[:1]))
        assert hab >= ha - 1e-9


class TestConditionalMutualInfo:
    def test_independent(self):
        pm = np.outer([0.3, 0.7], [0.6, 0.4]).ravel()
        smap = {(i, j): np.eye(2) / 2 for i in range(2) for j in range(2)}
        s = CqState([("A", 2), ("B", 2)], pm, smap)
        i_ab = conditional_mutual_info(s, EntropyQuery({"A"}), EntropyQuery({"B"}))
        assert i_ab == pytest.approx(0.0, abs=1e-12)

    def test_copied_bit(self):
        smap = {(0,): np.diag([1.0, 0.0]), (1,): np.diag([0.0, 1.0])}
        s = CqState([("X", 2)], [0.5, 0.5], smap)
        got = conditional_mutual_info(s, EntropyQuery({"X"}), EntropyQuery((), True))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_fact1_identity(self):
        alpha, phi = 0.3, np.pi / 3
        g0, g1 = gamma_pair(phi)
        s = CqState([("A", 2)], [1 - alpha, alpha], {(0,): g0, (1,): g1})
        got = conditional_mutual_info(s, EntropyQuery({"A"}), EntropyQuery((), True))
        assert got == pytest.approx(binary_entropy(fact1_f(1 - alpha, phi)), abs=1e-9)

    def test_overlap_rejected(self):
        smap = {(0, 0): np.eye(2) / 2, (0, 1): np.eye(2) / 2,
                (1, 0): np.eye(2) / 2, (1, 1): np.eye(2) / 2}
        s = CqState([("A", 2), ("B", 2)], [0.25] * 4, smap)
        with pytest.raises(OverlappingQueries):
            conditional_mutual_info(s, EntropyQuery({"A"}), EntropyQuery({"A"}))
        with pytest.raises(OverlappingQueries):
            conditional_mutual_info(s, EntropyQuery({"A"}, True),
                                    EntropyQuery({"B"}, True))

    @pytest.mark.parametrize("seed", range(10))
    def test_cmi_nonnegative(self, seed):
        s = random_cq_state(seed, n_regs=3)
        names = s.register_names()
        val = conditional_mutual_info(s, EntropyQuery({names[0]}),
                                      EntropyQuery({names[1]}, True),
                                      EntropyQuery({names[2]}))
        assert val >= -1e-9


def test_shannon_entropy_ignores_zeros():
    assert shannon_entropy(np.array([0.5, 0.5, 0.0])) == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.lists(
    st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=n, max_size=n),
    min_size=1, max_size=12)))
def test_shannon_entropies_bit_equal_per_row(rows):
    # rows of mixed support sizes, empty ones too, on both sides of the
    # eight terms where numpy starts summing pairwise
    p = np.array(rows, dtype=float).reshape(len(rows), -1)
    want = np.array([shannon_entropy(r) for r in p])
    assert shannon_entropies(p).tobytes() == want.tobytes()


def test_point_mass_entropies_are_positive_zero():
    # -sum over a point mass's lone 1*log2(1) term would be -0.0
    assert repr(shannon_entropy([1.0])) == "0.0"
    assert repr(Pmf([1.0, 0.0]).entropy()) == "0.0"
    assert repr(von_neumann_entropy(np.diag([1.0, 0.0]))) == "0.0"
