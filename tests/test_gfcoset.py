import itertools

import numpy as np
import pytest

from cqic.errors import (DomainError, IncompatiblePair, LengthMismatch,
                         NotPrime, TooLarge)
from cqic.gfcoset import (CodePair, NestedCosetCode, codeword, draw_bit_rows,
                          draw_rows, enumerate_coset, half_bits, index_tuples,
                          pcg64_streams, pcg64_words, random_code_pair, random_nested_code, sum_code,
                          sum_codeword, sum_message, uniforms)

# chi-square upper critical values at the 1% level, by degrees of freedom
CHI2_CRIT = {3: 11.345, 8: 20.090, 2: 9.210}


class TestCodeword:
    def test_zero_indices_give_bias(self):
        code = NestedCosetCode(3, 1, 1, [[1, 0, 1]], [[0, 1, 1]], [1, 1, 0], 2)
        assert np.array_equal(codeword(code, [0], [0]), [1, 1, 0])

    def test_single_row(self):
        code = NestedCosetCode(3, 1, 0, [[1, 1, 0]], np.zeros((0, 3)), [0, 0, 0], 2)
        assert np.array_equal(codeword(code, [1], []), [1, 1, 0])

    def test_hand_arithmetic_f3(self):
        code = NestedCosetCode(2, 1, 1, [[1, 2]], [[2, 1]], [1, 1], 3)
        assert np.array_equal(codeword(code, [1], [1]), [1, 1])

    def test_length_mismatch(self):
        code = NestedCosetCode(3, 2, 0, [[1, 0, 0], [0, 1, 0]], np.zeros((0, 3)),
                               [0, 0, 0], 2)
        with pytest.raises(LengthMismatch):
            codeword(code, [1], [])


class TestEnumerateCoset:
    def test_k_zero(self):
        code = NestedCosetCode(2, 0, 1, np.zeros((0, 2)), [[1, 1]], [1, 0], 2)
        rows = enumerate_coset(code, [1])
        assert rows.shape == (1, 2)
        assert np.array_equal(rows[0], [0, 1])

    def test_identity_generator(self):
        code = NestedCosetCode(2, 2, 0, np.eye(2, dtype=int), np.zeros((0, 2)),
                               [0, 0], 2)
        rows = enumerate_coset(code, [])
        assert sorted(map(tuple, rows)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_hand_enumeration(self):
        code = NestedCosetCode(3, 2, 0, [[1, 1, 0], [0, 1, 1]], np.zeros((0, 3)),
                               [1, 0, 0], 2)
        rows = set(map(tuple, enumerate_coset(code, [])))
        assert rows == {(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)}

    def test_multiset_for_singular_generator(self):
        code = NestedCosetCode(2, 2, 0, [[1, 1], [1, 1]], np.zeros((0, 2)),
                               [0, 0], 2)
        rows = enumerate_coset(code, [])
        assert rows.shape[0] == 4  # duplicates retained
        assert len(set(map(tuple, rows))) == 2

    def test_too_large(self):
        code = NestedCosetCode(25, 25, 0, np.eye(25, dtype=int),
                               np.zeros((0, 25)), np.zeros(25), 2)
        with pytest.raises(TooLarge):
            enumerate_coset(code, [])


class TestSumCodeword:
    def pair(self, v=2, n=4, seed=5):
        return random_code_pair(n, 1, 1, 2, 2, v, seed)

    def test_zero_everything_gives_bias_sum(self):
        p = self.pair()
        got = sum_codeword(p, [0], [0], [0, 0], [0, 0])
        want = (p.code2.bias + p.code3.bias) % 2
        assert np.array_equal(got, want)

    def test_characteristic_two_cancellation(self):
        code = random_nested_code(4, 2, 2, 2, 17)
        pair = CodePair(code, code)
        got = sum_codeword(pair, [1, 0], [1, 1], [1, 0], [1, 1])
        assert np.array_equal(got, (2 * code.bias) % 2)

    def test_moduli_mismatch(self):
        c2 = random_nested_code(4, 1, 1, 2, 1)
        c3 = random_nested_code(4, 1, 1, 3, 1)
        with pytest.raises(IncompatiblePair):
            CodePair(c2, c3)

    @pytest.mark.parametrize("v,n,k2,l2,k3,l3,seed", [
        (3, 4, 1, 1, 1, 1, 11),   # the worked example shape
        (2, 5, 1, 2, 2, 1, 12),
        (2, 6, 2, 2, 2, 2, 13),
        (5, 3, 1, 1, 2, 1, 14),
        (7, 2, 1, 1, 1, 2, 15),
    ])
    def test_sum_closure_exhaustive(self, v, n, k2, l2, k3, l3, seed):
        # every pairwise sum lands in the coset of the containing code
        # indexed by the padded message sum
        pair = random_code_pair(n, k2, l2, k3, l3, v, seed)
        csum = sum_code(pair)
        for m2 in index_tuples(v, l2):
            for m3 in index_tuples(v, l3):
                target = sum_message(pair, m2, m3)
                coset = set(map(tuple, enumerate_coset(csum, target)))
                for a2 in index_tuples(v, k2):
                    for a3 in index_tuples(v, k3):
                        s = sum_codeword(pair, a2, m2, a3, m3)
                        assert tuple(s) in coset

    def test_sum_set_equals_full_coset(self):
        # with k2 = k3 = k and injective generators the sum set is the
        # whole coset, not just a subset
        pair = random_code_pair(4, 2, 1, 2, 1, 2, 21)
        csum = sum_code(pair)
        for m2 in index_tuples(2, 1):
            for m3 in index_tuples(2, 1):
                sums = {tuple(sum_codeword(pair, a2, m2, a3, m3))
                        for a2 in index_tuples(2, 2)
                        for a3 in index_tuples(2, 2)}
                coset = set(map(tuple, enumerate_coset(csum, sum_message(pair, m2, m3))))
                assert sums == coset


class TestCosetPartition:
    def test_disjoint_union(self):
        # injective combined generator: cosets partition v^{k+l} points
        code = NestedCosetCode(4, 2, 2,
                               [[1, 0, 0, 0], [0, 1, 0, 0]],
                               [[0, 0, 1, 0], [0, 0, 0, 1]],
                               [1, 0, 1, 0], 2)
        seen = set()
        for m in index_tuples(2, 2):
            rows = set(map(tuple, enumerate_coset(code, m)))
            assert len(rows) == 4
            assert not (rows & seen)
            seen |= rows
        assert len(seen) == 16


class TestRandomCodes:
    def test_determinism(self):
        c1 = random_nested_code(6, 2, 2, 3, 42)
        c2 = random_nested_code(6, 2, 2, 3, 42)
        assert np.array_equal(c1.g_i, c2.g_i)
        assert np.array_equal(c1.g_oi, c2.g_oi)
        assert np.array_equal(c1.bias, c2.bias)

    def test_k_l_zero(self):
        code = random_nested_code(4, 0, 0, 2, 7)
        rows = enumerate_coset(code, [])
        assert rows.shape == (1, 4)
        assert np.array_equal(rows[0], code.bias)

    def test_generator_symbol_frequency(self):
        # 1000 seeds, n=8, v=2: empirical one-frequency within 3 sigma of 1/2
        ones = total = 0
        for seed in range(1000):
            code = random_nested_code(8, 2, 0, 2, seed)
            ones += int(code.g_i.sum())
            total += code.g_i.size
        sigma = np.sqrt(total * 0.25)
        assert abs(ones - total / 2) <= 3 * sigma

    def test_pair_prefix_containment(self):
        pair = random_code_pair(5, 1, 2, 3, 1, 3, 9)
        assert np.array_equal(pair.code2.g_i, pair.code3.g_i[:1])
        assert np.array_equal(pair.code3.g_oi, pair.code2.g_oi[:1])

    @pytest.mark.parametrize("v,dof_key,cells", [(2, 3, 4), (3, 2, 3)])
    def test_codeword_uniformity_chi_square(self, v, dof_key, cells):
        # a fixed codeword index is uniform over F_v^n under random codes
        n = 2 if v == 2 else 1
        counts = {}
        trials = 3000
        for seed in range(trials):
            code = random_nested_code(n, 1, 1, v, seed)
            u = tuple(codeword(code, [1], [1]))
            counts[u] = counts.get(u, 0) + 1
        assert len(counts) <= cells
        expect = trials / cells
        chi2 = sum((counts.get(c, 0) - expect) ** 2 / expect
                   for c in map(tuple, index_tuples(v, n)))
        assert chi2 < CHI2_CRIT[dof_key]


@pytest.mark.parametrize("modulus", [2.9, 3.5, "2"])
def test_modulus_must_be_a_supported_prime(modulus):
    with pytest.raises(NotPrime):
        random_nested_code(4, 1, 1, modulus, 0)


@pytest.mark.parametrize("dims", [(3.7, 1, 0), (3, 1.9, 0), (3, 1, 0.5)])
def test_code_dimensions_must_be_integers(dims):
    with pytest.raises(DomainError, match="must be an integer"):
        NestedCosetCode(*dims, [[1, 0, 1]], np.zeros((0, 3)), [0, 1, 1], 2)


def test_integral_float_modulus_reads_as_int():
    code = random_nested_code(4, 1, 1, 3.0, 0)
    ref = random_nested_code(4, 1, 1, 3, 0)
    assert type(code.modulus) is int and code.modulus == 3
    for name in ("g_i", "g_oi", "bias"):
        assert np.array_equal(getattr(code, name), getattr(ref, name))


def test_rate():
    code = random_nested_code(4, 1, 2, 2, 3)
    assert code.rate == pytest.approx(0.5)


def _same(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _brute_codeword(code, a, m):
    v, out = code.modulus, []
    for t in range(code.n):
        s = int(code.bias[t])
        for i in range(code.k):
            s += int(a[i]) * int(code.g_i[i, t])
        for j in range(code.l):
            s += int(m[j]) * int(code.g_oi[j, t])
        out.append(s % v)
    return np.array(out, dtype=np.int64)


def _brute_tuples(v, length):
    rows = list(itertools.product(range(v), repeat=length))
    return np.array(rows, dtype=np.int64).reshape(len(rows), length)


_DIMS = [(0, 0), (0, 2), (2, 0), (1, 1), (2, 3)]


@pytest.mark.parametrize("v", [2, 3, 5, 7])
@pytest.mark.parametrize("k,l", _DIMS)
def test_code_operations_match_brute_force(v, k, l):
    # indices outside [0, v) as well, which every operation reduces mod v
    rng = np.random.default_rng(100 * v + 10 * k + l)
    code = random_nested_code(4, k, l, v, int(rng.integers(2 ** 63)))
    for length in (0, 1, k, l):
        _same(index_tuples(v, length), _brute_tuples(v, length))
        # row-major, as the simulator's gathers and products over the
        # tuples of soft_covering_tv expect
        assert index_tuples(v, length).flags.c_contiguous
    for _ in range(5):
        a, m = rng.integers(-v, 2 * v, size=k), rng.integers(-v, 2 * v, size=l)
        _same(codeword(code, a, m), _brute_codeword(code, a, m))
        want = np.array([_brute_codeword(code, row, m)
                         for row in _brute_tuples(v, k)]).reshape(v ** k, 4)
        _same(enumerate_coset(code, m), want)


@pytest.mark.parametrize("v", [2, 3, 5, 7])
@pytest.mark.parametrize("k2,l2", _DIMS)
@pytest.mark.parametrize("k3,l3", [(0, 0), (1, 2), (3, 1)])
def test_sum_operations_match_brute_force(v, k2, l2, k3, l3):
    rng = np.random.default_rng([v, k2, l2, k3, l3])
    pair = random_code_pair(3, k2, l2, k3, l3, v, int(rng.integers(2 ** 63)))
    l = max(l2, l3)
    for _ in range(5):
        a2, m2, a3, m3 = (rng.integers(-v, 2 * v, size=d)
                          for d in (k2, l2, k3, l3))
        want = (_brute_codeword(pair.code2, a2, m2)
                + _brute_codeword(pair.code3, a3, m3)) % v
        _same(sum_codeword(pair, a2, m2, a3, m3), want)
        msg = [((int(m2[i]) if i < l2 else 0) + (int(m3[i]) if i < l3 else 0)) % v
               for i in range(l)]
        _same(sum_message(pair, m2, m3), np.array(msg, dtype=np.int64))


def test_index_for_an_empty_generator_must_be_empty():
    # an index of the wrong length is an error even when its generator
    # has no rows, instead of being dropped
    code = NestedCosetCode(3, 0, 0, np.zeros((0, 3)), np.zeros((0, 3)),
                           [1, 0, 1], 2)
    with pytest.raises(LengthMismatch):
        codeword(code, [1], [])
    with pytest.raises(LengthMismatch):
        codeword(code, [], [1])
    with pytest.raises(LengthMismatch):
        enumerate_coset(code, [1])
    pair = CodePair(code, random_nested_code(3, 0, 1, 2, 4))
    with pytest.raises(LengthMismatch):
        sum_message(pair, [1], [1])
    assert sum_message(pair, [], [1]).tolist() == [1]


_SEEDS = [0, 1, 7, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 9, 2 ** 62 + 3,
          2 ** 63 - 1]


class TestArrayStreams:
    """The array PCG64 against numpy's own ``Generator(PCG64(entropy))``."""

    @pytest.mark.parametrize("prefix, counters", [
        (None, _SEEDS),                         # one int, up to 2^63
        (0, [0, 1, 5]),                         # seed 0
        (2 ** 31 - 1, [0, 1, 5, 2 ** 32 - 1]),  # [seed, t]
        (2 ** 32 + 11, [0, 3, 2 ** 31]),        # seed of two words
        (2 ** 64 - 1, [2, 2 ** 32 - 1]),        # seed of two words
        (5, [2 ** 32, 2 ** 40 + 1, 2 ** 64 - 1]),  # t of two words
        (2 ** 33, [2 ** 32 + 4, 7]),            # both of two words
        (2 ** 70 + 3, [0, 9]),                  # three-word seed
    ])
    def test_raw_words_match_numpy(self, prefix, counters):
        got = pcg64_words(pcg64_streams(prefix, counters), 0, 70)
        for row, c in zip(got, counters):
            entropy = c if prefix is None else [prefix, c]
            want = np.random.Generator(
                np.random.PCG64(entropy)).bit_generator.random_raw(70)
            assert np.array_equal(row, want), (prefix, c)
        # a later window is the same words, reached in one jump
        assert np.array_equal(
            pcg64_words(pcg64_streams(prefix, counters), 37, 300)[:, :33],
            got[:, 37:])

    def test_entropy_past_the_pool_is_refused(self):
        assert pcg64_streams(2 ** 70, [2 ** 32]) is None
        assert pcg64_streams(2 ** 100, [0]) is None
        assert pcg64_streams(2 ** 70, [2 ** 32 - 1]) is not None

    def test_draw_rules_match_generator_methods(self):
        streams = pcg64_streams(None, _SEEDS)
        words = pcg64_words(streams, 0, 40)
        for row, seed in zip(words, _SEEDS):
            g = np.random.default_rng(seed)
            # integers(0, 2**63): Lemire's threshold is 0, so w >> 1
            assert [int(g.integers(0, 2 ** 63)) for _ in range(2)] == \
                [int(w >> 1) for w in row[:2]]
            # an odd fill leaves a half buffered across random(), which
            # the next fill takes first
            assert np.array_equal(g.integers(0, 2, size=5),
                                  half_bits(row[None, 2:5], 5)[0])
            assert g.random() == uniforms(row[5])
            rest = np.concatenate([row[4:5], row[6:9]])
            assert np.array_equal(g.integers(0, 2, size=7),
                                  half_bits(rest[None], 8)[0, 1:])
            # an even fill leaves none
            assert np.array_equal(g.integers(0, 2, size=6),
                                  half_bits(row[None, 9:12], 6)[0])
            assert np.array_equal(g.random(3), uniforms(row[12:15]))

    @pytest.mark.parametrize("rows, n", [(1, 1), (3, 5), (4, 16), (2, 70)])
    def test_bit_rows_match_draw_rows(self, rows, n):
        got = draw_bit_rows(pcg64_streams(None, _SEEDS), rows, n)
        for stack, seed in zip(got, _SEEDS):
            want = draw_rows(n, rows - 1, 0, 1, 2, seed)
            assert stack.dtype == np.uint8 and np.array_equal(stack, want)
