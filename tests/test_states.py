import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_oracle as co
import cq_oracle
from cqic import states
from cqic.config import DEFAULT_TOL
from cqic.errors import (DomainError, InvalidState, OverlappingQueries,
                         UnknownRegister)
from cqic.linalg import eig_hermitian
from cqic.states import (CqState, DensityOperator, EntropyQuery, Pmf,
                         _subset_entropies, binary_convolve, binary_entropy,
                         conditional_mutual_info, entropy, entropy_plan,
                         fact1_f, receiver_layout, shannon_entropies,
                         shannon_entropy, von_neumann_entropies,
                         von_neumann_entropy)

HB_01 = 0.4689955935892812  # -0.1 log2 0.1 - 0.9 log2 0.9, frozen by hand

#: [0, 1] within the prob tolerance, end points, signed zeros, subnormals
_unit_floats = st.one_of(st.floats(-DEFAULT_TOL.prob, 1.0 + DEFAULT_TOL.prob),
                         st.sampled_from((0.0, -0.0, 1.0, 5e-324, 1e-310,
                                          0.5)))


def _float_bits(x):
    return np.asarray(x, dtype=float).tobytes()


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

    def test_binary_entropy_nan(self):
        with pytest.raises(DomainError):
            binary_entropy(math.nan)

    @pytest.mark.parametrize("p, q", [(math.nan, 0.1), (0.1, math.nan)])
    def test_convolve_nan(self, p, q):
        with pytest.raises(DomainError):
            binary_convolve(p, q)

    def test_fact1_f_nan(self):
        with pytest.raises(DomainError):
            fact1_f(math.nan, 1.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_fact1_f_non_finite_angle(self, phi):
        with pytest.raises(DomainError, match="angle"):
            fact1_f(0.3, phi)

    @settings(max_examples=300, deadline=None)
    @given(_unit_floats, _unit_floats, st.floats(allow_nan=False,
                                                 allow_infinity=False))
    def test_scalars_have_the_old_formulas_bits(self, p, q, phi):
        # each scalar is its array form's one-element call, and keeps the
        # bits of the scalar formula it replaced; p * q rounds as the scan's
        # p + q - 2pq
        h, f = binary_entropy(p), fact1_f(p, phi)
        assert type(h) is type(f) is float
        assert _float_bits(h) == _float_bits(co.binary_entropy(p))
        assert _float_bits(f) == _float_bits(co.fact1_f(p, phi))
        assert _float_bits(binary_convolve(p, q)) == \
            _float_bits(p + q - 2.0 * p * q)
        assert _float_bits(states._hb_arr([p, q])) == \
            _float_bits([h, binary_entropy(q)])

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
    return co.shannon_entropy(np.where(w < DEFAULT_TOL.eig_floor, 0.0, w))


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
        assert np.array([co.von_neumann_entropy(m) for m in stack]).tobytes() \
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

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [1.0, math.nan]])
    def test_nan(self, probs):
        with pytest.raises(DomainError):
            Pmf(probs)


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

    def test_subnormal_atom(self):
        # 1/p overflows at p = 2.2e-311: the conditional state used to
        # come out non-finite and raise NotHermitian
        g0, g1 = gamma_pair(0.7)
        pmf = [2.2e-311, 1.0]
        s = CqState([("A", 2)], pmf, {(0,): g0, (1,): g1})
        got = entropy(s, EntropyQuery(("A",), True))
        # both states are pure, so H(A, Y) = H(A)
        assert got == shannon_entropy(pmf) > 0.0

    def test_subnormal_group_pooled_exactly(self):
        # at a mass of 3 ulps, p * rho rounds each entry to whole ulps:
        # the pooled "state" had eigenvalue -0.1009 and raised InvalidState
        v = np.array([np.sqrt(0.9), np.sqrt(0.1)])
        pmf = [3 * 5e-324, 1.0]
        s = CqState([("A", 2)], pmf,
                    {(0,): np.outer(v, v), (1,): np.diag([1.0, 0.0])})
        got = entropy(s, EntropyQuery(("A",), True))
        assert got == shannon_entropy(pmf) > 0.0
        (_, w, rho), _ = cq_oracle.conditional_average_states(s, ("A",))
        assert w == pmf[0]
        assert np.abs(rho - np.outer(v, v)).max() < 1e-15

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


class TestCqStateValidation:
    HALF = np.eye(2) / 2

    @pytest.mark.parametrize("key", [(0, 1), (), (2,), (-1,), 0, ("a",)])
    def test_bad_key(self, key):
        # wrong arity, outside the alphabet, or not a tuple of ints
        smap = {(0,): self.HALF, (1,): self.HALF, key: self.HALF}
        with pytest.raises(DomainError):
            CqState([("A", 2)], [0.5, 0.5], smap)

    @pytest.mark.parametrize("op", [np.ones((2, 3)) / 2, np.ones(2) / 2,
                                    np.ones((1, 2, 2)) / 2])
    def test_operator_not_square(self, op):
        with pytest.raises(DomainError):
            CqState([("A", 2)], [0.5, 0.5], {(0,): self.HALF, (1,): op})

    def test_operator_dimension_mismatch(self):
        with pytest.raises(DomainError):
            CqState([("A", 2)], [0.5, 0.5],
                    {(0,): self.HALF, (1,): np.eye(4) / 4})

    def test_missing_support_point(self):
        with pytest.raises(DomainError):
            CqState([("A", 2)], [0.5, 0.5], {(0,): self.HALF})

    def test_classical_register_named_y(self):
        # Y names the quantum register
        with pytest.raises(DomainError, match="collides"):
            CqState([("Y", 2)], [0.5, 0.5], {(0,): self.HALF,
                                             (1,): self.HALF})

    def test_outputs_stacked_in_pmf_order(self):
        g0, g1 = gamma_pair(0.3)
        s = CqState([("A", 3)], [0.5, 0.0, 0.5], {(0,): g0, (2,): g1})
        assert s.quantum_dim == 2
        assert np.array_equal(s.outputs, [g0, np.zeros((2, 2)), g1])


class TestCqStateEdges:
    def test_zero_registers(self):
        s = CqState([], [1.0], {(): np.diag([0.75, 0.25])})
        assert repr(entropy(s, EntropyQuery((), True))) == "0.8112781244591328"
        assert repr(entropy(s, EntropyQuery(()))) == "0.0"

    def test_zero_mass_points_without_operator(self):
        # A = 0, B = 1 and A = 1, B = 0 have no mass and no operator
        rng = np.random.default_rng(7)
        pmf = np.array([0.2, 0.0, 0.0, 0.3, 0.1, 0.4])
        smap = {}
        for flat in np.flatnonzero(pmf):
            g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            rho = g @ g.conj().T
            key = tuple(int(i) for i in np.unravel_index(flat, (3, 2)))
            smap[key] = rho / np.trace(rho).real
        s = CqState([("A", 3), ("B", 2)], pmf, smap)
        got = tuple(repr(entropy(s, EntropyQuery(sub, True)))
                    for sub in ((), ("A",), ("B",), ("A", "B")))
        assert got == ("1.6986400520634266", "2.11359999417522",
                       "2.0372019202931484", "2.263932921360725")
        cmi = conditional_mutual_info(s, EntropyQuery({"A"}),
                                      EntropyQuery((), True),
                                      EntropyQuery({"B"}))
        assert repr(cmi) == "0.738417444372746"


@st.composite
def cq_states(draw, d):
    """Cq states on registers A, B, C of sizes 1..3 with d-dim outputs.

    Point masses may be zero or subnormal; a zero-mass point may have no
    operator.  Outputs are random states of rank 1..d.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    n = math.prod(sizes)
    kinds = draw(st.lists(st.sampled_from(("zero", "subnormal", "normal")),
                          min_size=n, max_size=n))
    if "normal" not in kinds:
        kinds[0] = "normal"
    normal = np.array([k == "normal" for k in kinds])
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    pmf = np.where(normal, w / w[normal].sum(), 0.0)
    for i in np.flatnonzero(np.array(kinds) == "subnormal"):
        pmf[i] = draw(st.integers(1, 1 << 20)) * 5e-324
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    smap = {}
    for flat in range(n):
        if pmf[flat] == 0.0 and draw(st.booleans()):
            continue
        r = int(rng.integers(1, d + 1))
        g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        rho = g @ g.conj().T
        key = tuple(int(i) for i in np.unravel_index(flat, sizes))
        smap[key] = rho / np.trace(rho).real
    return CqState([("A", sizes[0]), ("B", sizes[1]), ("C", sizes[2])],
                   pmf, smap)


_SUBSETS = [(), ("A",), ("B",), ("A", "B"), ("A", "C"), ("A", "B", "C")]
_Y = EntropyQuery((), True)


def _q(*names):
    return EntropyQuery(names)


@pytest.mark.parametrize("d", [2, 4])
class TestCqStateProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bit_equal_to_scalar_oracle(self, d, data):
        s = data.draw(cq_states(d))
        for sub in _SUBSETS:
            for with_y in (False, True):
                q = EntropyQuery(sub, with_y)
                assert repr(entropy(s, q)) == repr(cq_oracle.entropy(s, q))
        for a, b, c in [(_q("A"), _Y, _q("C")), (_q("A", "B"), _Y, None),
                        (_q("B"), _Y, _q("A")), (_q("A"), _q("B"), _q("C")),
                        (_q("C"), _q("A", "B"), EntropyQuery((), True))]:
            assert repr(conditional_mutual_info(s, a, b, c)) == \
                repr(cq_oracle.conditional_mutual_info(s, a, b, c))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_information_properties(self, d, data):
        s = data.draw(cq_states(d))
        tol = DEFAULT_TOL.info
        assert conditional_mutual_info(s, _q("A"), _Y, _q("C")) >= -tol
        # strong subadditivity across the classical-quantum split
        by = EntropyQuery(("B",), True)
        assert conditional_mutual_info(s, _q("A"), by, _q("C")) >= -tol
        # chain rule I(AB; Y) = I(A; Y) + I(B; Y | A)
        whole = conditional_mutual_info(s, _q("A", "B"), _Y)
        parts = (conditional_mutual_info(s, _q("A"), _Y)
                 + conditional_mutual_info(s, _q("B"), _Y, _q("A")))
        assert abs(whole - parts) <= 1e-12
        for sub in _SUBSETS:
            assert entropy(s, EntropyQuery(sub, True)) >= \
                entropy(s, EntropyQuery(sub)) - tol


@st.composite
def pooled_blocks(draw):
    """Stage-2 input: 1..3 receivers of a block of 1..3 configs.

    Each receiver has 1..3 registers of sizes 1..3 and its own output
    dimension 1..3, and lays out the empty and the full subset plus a
    few drawn ones.  Pooled masses may be zero (whole groups too) or
    subnormal; ``lift`` is drawn, and set where a mass is subnormal.
    """
    g = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    receivers, pooled, subnormal = [], [], False
    for _ in range(draw(st.integers(1, 3))):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        names = [f"R{i}" for i in range(len(sizes))]
        n = math.prod(sizes)
        drawn = draw(st.lists(st.sets(st.sampled_from(names)), max_size=4))
        subsets = dict.fromkeys([frozenset(), frozenset(names)]
                                + [frozenset(d) for d in drawn])
        receivers.append(receiver_layout(list(zip(names, sizes)),
                                         np.arange(n), subsets))
        kinds = np.array(draw(st.lists(
            st.sampled_from(_KINDS), min_size=g * n,
            max_size=g * n))).reshape(g, n)
        pooled.append(_pooled_state(rng, kinds, draw(st.integers(1, 3))))
        subnormal |= bool((kinds == "subnormal").any())
    return receivers, pooled, draw(st.booleans()) or subnormal


_KINDS = ("zero", "subnormal", "normal")


def _pooled_state(rng, kinds, d):
    """``(p, smap)`` of one receiver: masses of the given kinds, ``(g,
    n)``, and random states of dimension ``d``."""
    g, n = kinds.shape
    p = np.where(kinds == "normal", rng.uniform(0.01, 1.0, (g, n)), 0.0)
    tiny = kinds == "subnormal"
    p[tiny] = rng.integers(1, 1 << 20, int(tiny.sum())) * 5e-324
    a = rng.normal(size=(g, n, d, d)) + 1j * rng.normal(size=(g, n, d, d))
    rho = a @ a.conj().swapaxes(-1, -2)
    return p, rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _bits(h):
    return {key: np.asarray(v).tobytes() for key, v in h.items()}


def _planned_stage2(plan, pooled, lift):
    """Stage 2 on per-receiver pooled states, laid end to end in each
    group of the plan as stage 1 lays them."""
    laid = [tuple(np.concatenate([pooled[rx][i] for rxs, _, _ in grp.stacks
                                  for rx in rxs], axis=1) for i in (0, 1))
            for grp in plan.groups]
    return _subset_entropies(plan, laid, lift)


@settings(max_examples=150, deadline=None)
@given(pooled_blocks())
def test_stacked_stage2_matches_per_subset_oracle(block):
    # the subsets of one group width pooled as one stack against the
    # per-subset stage, key for key and bit for bit
    receivers, pooled, lift = block
    plan = entropy_plan(receivers, [smap.shape[-1] for _, smap in pooled])
    assert _bits(_planned_stage2(plan, pooled, lift)) == \
        _bits(cq_oracle.subset_entropies(*block))


@settings(max_examples=30, deadline=None)
@given(pooled_blocks(), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_plans_reused_across_blocks_match_oracle(block, seed, dim):
    # one plan per output dimensions, built once and reused on blocks of
    # 1, 3 and 64 configs with zero and subnormal masses, also against
    # layouts rebuilt from the same content
    receivers, pooled, _ = block
    rng = np.random.default_rng(seed)
    dim_sets = {tuple(smap.shape[-1] for _, smap in pooled),
                (dim,) * len(receivers)}
    plans = {dims: entropy_plan(receivers, dims) for dims in dim_sets}
    for rebuilt in (False, True):
        if rebuilt:
            receivers = [receiver_layout(
                [(f"R{i}", a) for i, a in enumerate(shape)],
                np.arange(len(pool)), subsets)
                for shape, pool, subsets in receivers]
            assert receivers[0] is not block[0][0]
        for g in (1, 3, 64):
            for dims, plan in plans.items():
                lift = bool(rng.integers(2))
                pooled = []
                for (_, pool, _), d in zip(receivers, dims):
                    kinds = rng.choice(_KINDS, size=(g, len(pool)))
                    lift |= bool((kinds == "subnormal").any())
                    pooled.append(_pooled_state(rng, kinds, d))
                assert _bits(_planned_stage2(plan, pooled, lift)) == \
                    _bits(cq_oracle.subset_entropies(receivers, pooled, lift))


def test_classical_queries_make_no_eigensolve(monkeypatch):
    # H(S) alone lays out no Y stage: no eigensolve, and the same bits
    s = random_cq_state(5)
    classical = [EntropyQuery(sub) for sub in (("R0",), ("R1",),
                                               ("R0", "R1"), ())]
    with_y = EntropyQuery(("R0",), True)
    want = [repr(cq_oracle.entropy(s, q)) for q in classical + [with_y]]
    want_cmi = repr(cq_oracle.conditional_mutual_info(
        s, _q("R0"), _q("R1")))
    solves = []
    solve = states.eigvals_hermitian
    monkeypatch.setattr(states, "eigvals_hermitian",
                        lambda m: solves.append(len(m)) or solve(m))
    assert [repr(entropy(s, q)) for q in classical] == want[:-1]
    assert repr(conditional_mutual_info(s, _q("R0"), _q("R1"))) == want_cmi
    assert solves == []
    assert repr(entropy(s, with_y)) == want[-1]
    assert len(solves) == 1


def test_state_plans_keyed_by_content():
    # equal registers and queries at other output dimensions
    queries = [EntropyQuery(("R0",), True), EntropyQuery(("R0", "R1")),
               EntropyQuery((), True)]
    for d in (2, 3, 2):
        s = random_cq_state(11, d=d)
        for q in queries:
            assert repr(entropy(s, q)) == repr(cq_oracle.entropy(s, q))


def _same_layout(a, b):
    (shape_a, pool_a, subs_a), (shape_b, pool_b, subs_b) = a, b
    return (shape_a == shape_b and np.array_equal(pool_a, pool_b)
            and list(subs_a) == list(subs_b)
            and all(subs_a[k][0] == subs_b[k][0]
                    and np.array_equal(subs_a[k][1], subs_b[k][1])
                    for k in subs_a))


def test_layouts_depend_only_on_content():
    subsets = {frozenset(): None, frozenset({"A"}): None}
    one = receiver_layout([("A", 2), ("B", 2)], np.array([3, 1, 2, 0]),
                          subsets)
    assert one[1].tolist() == [[3], [1], [2], [0]]
    assert not any(a.flags.writeable for a in
                   [one[1]] + [groups for _, groups in one[2].values()])
    # equal content in other containers, shapes and dtypes: equal layouts
    assert _same_layout(receiver_layout(
        (("A", 2), ("B", 2)), np.array([[3, 1], [2, 0]], dtype=np.int32),
        list(subsets)), one)
    # other key values: another pool, the same subset groups
    other = receiver_layout([("A", 2), ("B", 2)], np.arange(4), subsets)
    assert other[1].tolist() == [[0], [1], [2], [3]]
    assert not _same_layout(other, one)
    assert all(np.array_equal(other[2][k][1], one[2][k][1]) for k in subsets)


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
    want = np.array([co.shannon_entropy(r) for r in p])
    assert shannon_entropies(p).tobytes() == want.tobytes()
    assert np.array([shannon_entropy(r) for r in p]).tobytes() \
        == want.tobytes()


def test_point_mass_entropies_are_positive_zero():
    # -sum over a point mass's lone 1*log2(1) term would be -0.0
    assert repr(shannon_entropy([1.0])) == "0.0"
    assert repr(Pmf([1.0, 0.0]).entropy()) == "0.0"
    assert repr(von_neumann_entropy(np.diag([1.0, 0.0]))) == "0.0"
