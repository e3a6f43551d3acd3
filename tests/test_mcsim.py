import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqic import mcsim
from cqic.errors import (BudgetExceeded, DomainError, NotPrime,
                         NumericalFailure, TooLarge, ZeroMassCoset)
from cqic.gfcoset import (NestedCosetCode, enumerate_coset, index_tuples,
                          random_nested_code)
from cqic.mcsim import (SimConfig, SimResult, _book, _coset_weights, _gf2_ranks,
                        _gf_rank, _gf_rref, _index, _nearest, _nearest_pair,
                        _pack, _pick, _selection_law, likelihood_encode,
                        run_ex1_sim, selection_probabilities, soft_covering_tv,
                        wilson_interval)
import cover_oracle
import sim_oracle
from sim_oracle import oracle_sim


def _f3_code():
    # identity generator, zero bias: the coset is all 9 pairs over F_3
    return NestedCosetCode(2, 2, 0, [[1, 0], [0, 1]], np.zeros((0, 2)), [0, 0], 3)


class TestSelectionProbabilities:
    def test_uniform_target_is_uniform(self):
        code = random_nested_code(5, 3, 1, 2, 11)
        probs = selection_probabilities(code, (1,), (0.5, 0.5))
        assert np.array_equal(probs, np.full(8, 0.125))

    def test_sums_to_one_exactly(self):
        probs = selection_probabilities(_f3_code(), (), (0.6, 0.4, 0.0))
        assert probs.sum() == 1.0

    def test_matches_direct_weights(self):
        p = np.array([0.6, 0.4, 0.0])
        rows = index_tuples(3, 2)
        w = p[rows].prod(axis=1)
        probs = selection_probabilities(_f3_code(), (), p)
        assert np.allclose(probs, w / w.sum(), atol=1e-15)

    def test_duplicate_rows_carry_multiplicity(self):
        # singular generator: both rows repeat the same two codewords
        code = NestedCosetCode(2, 2, 0, [[1, 1], [1, 1]], np.zeros((0, 2)),
                               [0, 0], 2)
        probs = selection_probabilities(code, (), (0.9, 0.1))
        assert np.allclose(probs, np.array([0.81, 0.01, 0.01, 0.81]) / 1.64)

    def test_zero_mass_raises(self):
        code = NestedCosetCode(2, 0, 0, np.zeros((0, 2)), np.zeros((0, 2)),
                               [1, 1], 2)
        with pytest.raises(ZeroMassCoset):
            selection_probabilities(code, (), (1.0, 0.0))

    def test_bad_pmf_rejected(self):
        code = _f3_code()
        with pytest.raises(DomainError):
            selection_probabilities(code, (), (0.5, 0.5))  # wrong length
        with pytest.raises(DomainError):
            selection_probabilities(code, (), (0.8, 0.4, -0.2))


    def test_array_law_matches_scalar_oracle(self):
        # random cosets over F_2, F_3 and F_5 with random targets (some with
        # a zero entry), bit for bit; most raw normalizations miss a unit
        # sum, so the nudge runs on many of them
        rng = np.random.default_rng(23)
        nudged = compared = 0
        for _ in range(600):
            v = int(rng.choice([2, 3, 5]))
            k = int(rng.integers(0, {2: 7, 3: 5, 5: 4}[v]))
            n, l = int(rng.integers(1, 7)), int(rng.integers(0, 3))
            code = random_nested_code(n, k, l, v, int(rng.integers(2 ** 63)))
            m = rng.integers(0, v, size=l)
            p = rng.dirichlet(np.ones(v))
            if rng.random() < 0.2:
                p[rng.integers(v)] = 0.0
                p /= p.sum()
            try:
                want = sim_oracle.selection_probabilities(code, m, p)
            except (ZeroMassCoset, DomainError) as exc:
                with pytest.raises(type(exc)):
                    selection_probabilities(code, m, p)
                continue
            got = selection_probabilities(code, m, p)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            weights = p[enumerate_coset(code, m)].prod(axis=1)
            nudged += float((weights / weights.sum()).sum()) != 1.0
            compared += 1
        assert compared >= 500 and nudged >= 100


class TestLikelihoodEncode:
    def test_degenerate_target_picks_zero_word(self):
        code = NestedCosetCode(3, 1, 0, [[1, 1, 0]], np.zeros((0, 3)),
                               [0, 0, 0], 2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert likelihood_encode(code, (), (1.0, 0.0), rng) == (0,)

    def test_empirical_frequencies_multinomial(self):
        # 10^5 draws against the exact weights, three-sigma per cell
        code, p = _f3_code(), np.array([0.6, 0.4, 0.0])
        probs = selection_probabilities(code, (), p)
        rng = np.random.default_rng(2024)
        draws = 100_000
        counts = np.zeros(9)
        for _ in range(draws):
            a = likelihood_encode(code, (), p, rng)
            counts[a[0] * 3 + a[1]] += 1
        for c, q in zip(counts, probs):
            if q == 0.0:
                assert c == 0
            else:
                assert abs(c - draws * q) <= 3.0 * math.sqrt(draws * q * (1 - q))

    def test_deterministic_given_stream(self):
        code = random_nested_code(6, 3, 2, 2, 4)
        a = [likelihood_encode(code, (1, 0), (0.7, 0.3), np.random.default_rng(5))
             for _ in range(2)]
        assert a[0] == a[1]


class TestSoftCovering:
    def test_uniform_target_zero_for_every_code(self):
        for seed in range(5):
            assert soft_covering_tv(6, 3, 2, (0.5, 0.5), seed, num_codes=4) == 0.0

    def test_full_space_zero_exactly(self):
        assert soft_covering_tv(10, 10, 2, (0.8, 0.2), 1, num_codes=5) == 0.0
        assert soft_covering_tv(7, 7, 3, (0.5, 0.3, 0.2), 2, num_codes=3) < 1e-12

    def test_monotone_in_rate(self):
        tvs = [soft_covering_tv(10, k, 2, (0.8, 0.2), 42, num_codes=50)
               for k in range(11)]
        assert all(a >= b - 1e-12 for a, b in zip(tvs, tvs[1:]))
        # divergence D(p||unif) = 1 - h_b(0.2) ~ 0.278: well above it the
        # residual variation is small, far below it the law stays skewed
        assert tvs[9] < 0.08
        assert tvs[1] > 0.5

    def test_matches_every_dither_brute_force(self):
        # independent oracle: the same code draws, every dither b, and the
        # likelihood choice inside b + rowspace(G) enumerated message by
        # message; full rank is judged by counting distinct codewords.
        # Modulus 3 runs the label matmul, modulus 2 the label doubling.
        for v, n, p, ks in ((2, 8, (0.8, 0.2), (1, 3, 5, 8)),
                            (3, 5, (0.6, 0.3, 0.1), (1, 2, 4))):
            p = np.array(p)
            place = v ** np.arange(n - 1, -1, -1)
            seqs = index_tuples(v, n)
            target = np.zeros(v ** n)
            target[seqs @ place] = p[seqs].prod(axis=1)
            for k in ks:
                master = np.random.default_rng(42)
                total = 0.0
                for _ in range(50):
                    while True:
                        g = random_nested_code(n, k, 0, v,
                                               int(master.integers(0, 2 ** 63))).g_i
                        words = (index_tuples(v, k) @ g) % v
                        if np.unique(words @ place).size == v ** k:
                            break
                    cosets = (seqs[:, None, :] + words[None, :, :]) % v
                    w = p[cosets].prod(axis=2)
                    law = np.zeros(v ** n)
                    np.add.at(law, cosets @ place, w / w.sum(axis=1, keepdims=True))
                    total += 0.5 * np.abs(law / v ** n - target).sum()
                got = soft_covering_tv(n, k, v, tuple(p), 42, num_codes=50)
                assert abs(got - total / 50) <= 1e-12, (v, k)

    def test_enumeration_guard(self):
        # the cap bounds the v^(n - k) dual words a code's transform runs
        # over: 2^17 is past it, the 2^14 of (18, 4) no longer is
        with pytest.raises(TooLarge):
            soft_covering_tv(18, 1, 2, (0.5, 0.5), 0)

    def test_past_the_old_enumeration_cap_matches_oracle(self):
        # 2^17 sequences were beyond the enumeration's cap; 2^4 dual words
        # are a small transform
        got = soft_covering_tv(17, 13, 2, (0.8, 0.2), 3, num_codes=4)
        want = cover_oracle.soft_covering_tv(17, 13, 2, (0.8, 0.2), 3,
                                             num_codes=4)
        assert abs(got - want) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(2, 10), (3, 6), (5, 4)]), st.integers(1, 10),
           st.integers(0, 10), st.sampled_from(["full", "zero", "near"]),
           st.sampled_from([1, 7, 64, mcsim._DUAL_TABLE]),
           st.integers(0, 2 ** 31 - 1))
    @example((2, 10), 10, 3, "near", mcsim._DUAL_TABLE, 0)
    @example((3, 6), 6, 0, "zero", 7, 1)
    @example((5, 4), 4, 2, "near", 64, 2)
    def test_transform_matches_enumeration(self, size, n, k, kind, table,
                                           seed):
        # the dual-code transform against the tests-only enumeration, the
        # codes split into chunks of every size; near-degenerate p sends
        # transformed masses to zero or below, so a sign test would miss
        # cosets that the enumeration counts
        v, top = size
        n = min(n, top)
        k = min(k, n)
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(v))
        if kind == "zero":
            p[rng.integers(v)] = 0.0
        elif kind == "near":
            p = np.full(v, 1e-12)
            p[rng.integers(v)] = 1.0 - (v - 1) * 1e-12
        p = tuple(p / p.sum())
        with mock.patch.object(mcsim, "_DUAL_TABLE", table):
            got = soft_covering_tv(n, k, v, p, seed, num_codes=6)
        want = cover_oracle.soft_covering_tv(n, k, v, p, seed, num_codes=6)
        assert abs(got - want) <= 1e-12, (v, n, k, p)

    @pytest.mark.parametrize("v, n, p", [
        (2, 9, (0.7, 0.3)), (2, 9, (0.0, 1.0)), (2, 9, (1 - 1e-12, 1e-12)),
        (3, 5, (0.5, 0.3, 0.2)), (3, 5, (0.6, 0.0, 0.4)),
        (5, 3, (0.5, 0.2, 0.1, 0.1, 0.1)), (5, 3, (1e-12, 0, 1 - 1e-12, 0, 0))])
    @pytest.mark.parametrize("whole", [False, True])
    def test_transform_matches_enumeration_at_the_rate_ends(self, v, n, p,
                                                             whole):
        k = n if whole else 0
        got = soft_covering_tv(n, k, v, p, 11, num_codes=5)
        assert abs(got - cover_oracle.soft_covering_tv(n, k, v, p, 11,
                                                       num_codes=5)) <= 1e-12

    def test_chunked_transform_memory(self):
        # n = 16, k = 0: the 50 codes' 2^16 dual words each would hold
        # 103 MiB under tracemalloc as one transform; chunks of 2^20
        # entries peaked at 49 MiB here
        tracemalloc.start()
        try:
            soft_covering_tv(16, 0, 2, (0.8, 0.2), 42, num_codes=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            soft_covering_tv(4, 5, 2, (0.5, 0.5), 0)
        with pytest.raises(DomainError):
            soft_covering_tv(4, 2, 2, (0.5, 0.5), 0, num_codes=0)

    @pytest.mark.parametrize("n, k, num_codes", [(10.5, 2, 2), (4, 2.5, 2),
                                                 (4, 2, 2.5), (4, "2", 2)])
    def test_non_integral_sizes_rejected(self, n, k, num_codes):
        with pytest.raises(DomainError, match="must be an integer"):
            soft_covering_tv(n, k, 2, (0.5, 0.5), 0, num_codes=num_codes)

    def test_non_integral_modulus_rejected(self):
        with pytest.raises(NotPrime):
            soft_covering_tv(4, 2, 2.9, (0.5, 0.5), 0, num_codes=2)

    def test_integral_float_sizes_read_as_ints(self):
        assert soft_covering_tv(4.0, 2.0, 2.0, (0.7, 0.3), 3, num_codes=2.0) \
            == soft_covering_tv(4, 2, 2, (0.7, 0.3), 3, num_codes=2)

    @pytest.mark.parametrize("p", [(math.nan, 1.0), (0.5, math.nan)])
    def test_nan_target_rejected(self, p):
        with pytest.raises(DomainError):
            soft_covering_tv(4, 2, 2, p, 1, num_codes=2)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), axis=-1).astype(np.int64)
    assert not bits[..., n:].any()  # padding stays zero
    return bits[..., :n]


def _codebook(code: NestedCosetCode) -> np.ndarray:
    # the block engine's codebook of one code
    return _book(np.vstack([code.g_i, code.g_oi, code.bias])[None])[0]


class TestPackedKernels:
    """The packed GF(2) kernels against the int64 arithmetic they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 24), st.integers(1, 130), st.integers(0, 24),
           st.integers(0, 2 ** 31 - 1))
    @example(0, 5, 0, 0)
    @example(24, 3, 24, 1)
    @example(20, 130, 20, 2)
    def test_rank_matches_rref(self, rows, cols, inner, seed):
        # rank at most `inner`, plus a zero row and a repeated row
        rng = np.random.default_rng(seed)
        m = (rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols))) % 2
        if rows >= 2:
            m[rng.integers(rows)] = 0
            m[rng.integers(rows)] = m[rng.integers(rows)]
        rank = len(_gf_rref(m, 2)[1])
        assert _gf_rank(m, 2) == rank
        # the block elimination, alone and beside a zero and a full-rank copy
        assert _gf2_ranks(_pack(m)) == rank
        batch = np.stack([m, np.zeros_like(m), np.eye(rows, cols, dtype=m.dtype)])
        assert _gf2_ranks(_pack(batch)).tolist() == [rank, 0, min(rows, cols)]

    @pytest.mark.parametrize("n", [1, 12, 63, 64, 65, 130])
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 2 ** 31 - 1))
    def test_codewords_match_matmul(self, n, k, l, seed):
        code = random_nested_code(n, k, l, 2, seed)
        stack = np.vstack([code.g_i, code.g_oi])
        want = (index_tuples(2, k + l) @ stack + code.bias) % 2
        assert np.array_equal(_unpack(_codebook(code), n), want)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 3, 12, 64, 65, 130, 257]), st.integers(0, 3),
           st.integers(0, 3), st.integers(0, 4), st.integers(0, 2 ** 31 - 1))
    @example(1, 2, 2, 2, 0)  # 16 hypotheses on one symbol: ties everywhere
    def test_decoders_match_int64_argmin(self, n, k1, l1, ls, seed):
        rng = np.random.default_rng(seed)
        own = random_nested_code(n, k1, l1, 2, int(rng.integers(2 ** 63)))
        sc = random_nested_code(n, 0, ls, 2, int(rng.integers(2 ** 63)))
        cb_own, cb_sum = _codebook(own), _codebook(sc)
        bits_own, bits_sum = _unpack(cb_own, n), _unpack(cb_sum, n)
        y = rng.integers(0, 2, n)
        assert _nearest(cb_own[None], _pack(y)[None]) == int(
            np.argmin(np.abs(bits_own - y).sum(axis=1)))
        eff = (bits_own + y) % 2
        dist = np.abs(eff[:, None, :] - bits_sum[None, :, :]).sum(axis=2)
        got = _nearest_pair(cb_own[None], cb_sum[None], _pack(y)[None])
        assert (int(got[0][0]), int(got[1][0])) == divmod(
            int(np.argmin(dist)), len(bits_sum))

    def test_distances_past_255_bits(self):
        # n = 300: the all-ones word sits 300 bits from y = 0, which a
        # uint8 distance would wrap to 44, below the 100 of the other word
        second = np.zeros(300, dtype=np.int64)
        second[:100] = 1
        code = NestedCosetCode(300, 0, 1, np.zeros((0, 300)), [second ^ 1],
                               np.ones(300), 2)
        zero = NestedCosetCode(300, 0, 0, np.zeros((0, 300)), np.zeros((0, 300)),
                               np.zeros(300), 2)
        y = _pack(np.zeros(300, dtype=np.int64))[None]
        assert _nearest(_codebook(code)[None], y) == 1
        assert _nearest_pair(_codebook(zero)[None], _codebook(code)[None], y) == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 6), st.integers(0, 2),
           st.sampled_from([0.05, 0.1, 0.2, 0.35, 0.5]),
           st.integers(0, 2 ** 31 - 1))
    def test_shaped_dithers_match_scalar_encoder(self, n, k, l, tau, seed):
        # uniforms on every cdf value of the oracle's scalar law, where a
        # missing nudge or a strict comparison would pick the neighbouring
        # index; the oracle's scalar pick reads each uniform in turn
        code = random_nested_code(n, k, l, 2, seed)
        m = np.random.default_rng(seed).integers(0, 2, size=(1, l))
        probs = sim_oracle.selection_probabilities(code, m[0], (1 - tau, tau))
        cdf = np.cumsum(probs)
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0]])
        cfg = SimConfig(n, (k, 0, 0), (l, 0, 0), (0.0, 0.0, 0.0), tau1=tau)
        weights = _coset_weights(cfg, _codebook(code)[None], _index(m))
        got = _pick(_selection_law(np.repeat(weights, len(u), axis=0)), u)
        stream = mock.Mock(random=mock.Mock(side_effect=u.tolist()))
        want = [sim_oracle._draw_index(probs, stream) for _ in u]
        assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 14), st.integers(0, 2 ** 31 - 1))
    def test_binary_coset_labels_match_matmul(self, n, k, seed):
        # k may exceed n, so singular generators are covered
        g = random_nested_code(n, k, 0, 2, seed).g_i
        seqs = index_tuples(2, n)
        rref, piv = _gf_rref(g, 2)
        free = [c for c in range(n) if c not in piv]
        red = (seqs - seqs[:, piv] @ rref[:len(piv)]) % 2
        want = red[:, free] @ 2 ** np.arange(len(free) - 1, -1, -1)
        labels, cosets = cover_oracle._coset_labels(g, seqs, 2)
        assert np.array_equal(labels, want)
        assert cosets == 2 ** len(free)


class TestWilsonInterval:
    def test_textbook_point(self):
        lo, hi = wilson_interval(3, 10)
        assert abs(lo - 0.10779) < 5e-5
        assert abs(hi - 0.60322) < 5e-5

    def test_contains_estimate_at_extremes(self):
        for count, trials in ((0, 17), (17, 17), (5, 9)):
            lo, hi = wilson_interval(count, trials)
            assert lo <= count / trials <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            wilson_interval(5, 3)

    @pytest.mark.parametrize("count, trials", [(1.5, 3), (True, 3), (1, 3.5),
                                               (1, True), ("1", 3)])
    def test_non_integral_arguments_rejected(self, count, trials):
        with pytest.raises(DomainError, match="must be an integer"):
            wilson_interval(count, trials)

    def test_integral_floats_read_as_ints(self):
        assert wilson_interval(3.0, np.int64(10)) == wilson_interval(3, 10)


class TestSimConfig:
    def test_rates(self):
        cfg = SimConfig(n=8, coset_dims=(0, 0, 0), message_dims=(2, 4, 4),
                        delta=(0.0, 0.1, 0.1))
        assert cfg.rates == (0.25, 0.5, 0.5)

    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceeded):
            SimConfig(n=24, coset_dims=(0, 0, 0), message_dims=(2, 21, 2),
                      delta=(0.0, 0.1, 0.1))

    def test_joint_budget(self):
        cfg = SimConfig(n=24, coset_dims=(0, 0, 0), message_dims=(5, 16, 16),
                        delta=(0.0, 0.1, 0.1), trials=1)
        with pytest.raises(BudgetExceeded):
            run_ex1_sim(cfg)

    def test_domain_checks(self):
        good = dict(n=8, coset_dims=(0, 0, 0), message_dims=(2, 2, 2),
                    delta=(0.0, 0.1, 0.1))
        with pytest.raises(DomainError):
            SimConfig(**{**good, "delta": (0.0, 0.7, 0.1)})
        with pytest.raises(DomainError):
            SimConfig(**good, trials=0)
        with pytest.raises(DomainError):
            SimConfig(**good, decoder="belief_prop")
        with pytest.raises(DomainError):
            SimConfig(**good, tau1=0.9)

    @pytest.mark.parametrize("delta", [(0.1, 0.1), (0.0, 0.1, 0.1, 0.1), ()])
    def test_delta_needs_three_entries(self, delta):
        with pytest.raises(DomainError, match="all three users"):
            SimConfig(8, (0, 0, 0), (1, 1, 1), delta)

    @pytest.mark.parametrize("change", [
        {"message_dims": (2.5, 2, 2)}, {"coset_dims": (0, 0.5, 0)},
        {"n": 8.5}, {"trials": 10.5}, {"n": "8"},
    ])
    def test_non_integral_sizes_rejected(self, change):
        good = dict(n=8, coset_dims=(0, 0, 0), message_dims=(2, 2, 2),
                    delta=(0.0, 0.1, 0.1))
        with pytest.raises(DomainError, match="must be an integer"):
            SimConfig(**{**good, **change})

    def test_integral_floats_read_as_ints(self):
        cfg = SimConfig(n=8.0, coset_dims=(0, 0, 0), message_dims=(2.0, 2, 2),
                        delta=(0.0, 0.1, 0.1), trials=np.int64(10))
        assert cfg == SimConfig(8, (0, 0, 0), (2, 2, 2), (0.0, 0.1, 0.1), 10)
        assert repr(cfg) == repr(SimConfig(8, (0, 0, 0), (2, 2, 2),
                                           (0.0, 0.1, 0.1), 10))


class TestRunEx1:
    def test_noiseless_is_error_free(self):
        cfg = SimConfig(n=8, coset_dims=(0, 0, 0), message_dims=(2, 3, 3),
                        delta=(0.0, 0.0, 0.0), trials=300, rng_seed=5)
        assert run_ex1_sim(cfg).error_rates == (0.0, 0.0, 0.0)

    def test_successive_decoder_with_silent_user(self):
        # degenerate shaping pins user 1 at the zero word; the dither coset
        # only sometimes contains it, so the bias resampler must kick in
        cfg = SimConfig(n=8, coset_dims=(6, 0, 0), message_dims=(0, 3, 3),
                        delta=(0.0, 0.0, 0.0), trials=120, rng_seed=5,
                        decoder="sum_coset", tau1=0.0)
        res = run_ex1_sim(cfg)
        assert res.error_rates == (0.0, 0.0, 0.0)
        assert res.codeword_types[0] == 0.0
        assert res.bias_retries > 0

    def test_shaping_hits_target_type(self):
        cfg = SimConfig(n=14, coset_dims=(9, 0, 0), message_dims=(1, 3, 3),
                        delta=(0.05, 0.1, 0.1), trials=500, rng_seed=3,
                        tau1=0.2)
        res = run_ex1_sim(cfg)
        assert abs(res.codeword_types[0] - 0.2) < 0.05
        assert all(abs(t - 0.5) < 0.05 for t in res.codeword_types[1:])

    def test_rate_one_user_over_capacity(self):
        # 16 information bits in 16 symbols through BSC(0.1): any decoder
        # fails whenever the noise is nonzero, so the floor is 1 - 0.9^16
        cfg = SimConfig(n=16, coset_dims=(0, 0, 0), message_dims=(2, 16, 2),
                        delta=(0.05, 0.1, 0.1), trials=150, rng_seed=11)
        res = run_ex1_sim(cfg)
        assert res.error_rates[1] >= 0.5
        assert res.intervals[1][0] > 0.5

    def test_error_decreases_with_blocklength(self):
        errs = []
        for n in (12, 20):
            cfg = SimConfig(n=n, coset_dims=(0, 0, 0),
                            message_dims=(n // 4, n // 4, n // 4),
                            delta=(0.05, 0.1, 0.1), trials=4000, rng_seed=77)
            errs.append(run_ex1_sim(cfg).error_rates[0])
        assert errs[0] > errs[1]

    def test_bit_identical_across_runs_and_threads(self):
        cfg = SimConfig(n=10, coset_dims=(0, 0, 0), message_dims=(2, 3, 3),
                        delta=(0.05, 0.1, 0.1), trials=60, rng_seed=9)
        one = run_ex1_sim(cfg, threads=1)
        four = run_ex1_sim(cfg, threads=4)
        again = run_ex1_sim(cfg, threads=1)
        assert one == four == again

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("decoder, err1", [("ml_joint", 4), ("sum_coset", 27)])
    def test_blocklength_above_one_word_pinned(self, decoder, err1, threads):
        # n = 70 spans two 64-bit words; counts and types were recorded
        # with the int64 matmul decoder and must survive any repacking
        cfg = SimConfig(n=70, coset_dims=(2, 1, 2), message_dims=(3, 3, 3),
                        delta=(0.25, 0.38, 0.38), trials=30, rng_seed=70,
                        decoder=decoder)
        res = run_ex1_sim(cfg, threads=threads)
        assert res.error_counts == (err1, 10, 13)
        assert res.codeword_types == (0.5085714285714286, 0.5114285714285713,
                                      0.4895238095238096)
        assert res.bias_retries == 0

    def test_result_invariants_and_csv(self):
        cfg = SimConfig(n=10, coset_dims=(0, 0, 0), message_dims=(2, 3, 3),
                        delta=(0.05, 0.1, 0.1), trials=80, rng_seed=1)
        res = run_ex1_sim(cfg)
        for est, (lo, hi) in zip(res.error_rates, res.intervals):
            assert 0.0 <= lo <= est <= hi <= 1.0
        row = res.csv_row()
        assert len(row) == len(SimResult.csv_header())
        assert row[0] == 10 and row[4] == 80 and row[-1] == 1

    def test_threads_validated(self):
        cfg = SimConfig(n=6, coset_dims=(0, 0, 0), message_dims=(1, 1, 1),
                        delta=(0.0, 0.0, 0.0), trials=1)
        with pytest.raises(DomainError):
            run_ex1_sim(cfg, threads=0)

    @pytest.mark.parametrize("threads", [1.5, True, "2", None])
    def test_non_integral_threads_rejected(self, threads):
        cfg = SimConfig(n=6, coset_dims=(0, 0, 0), message_dims=(1, 1, 1),
                        delta=(0.0, 0.0, 0.0), trials=1)
        with pytest.raises(DomainError, match="must be an integer"):
            run_ex1_sim(cfg, threads=threads)
        assert run_ex1_sim(cfg, threads=2.0) == run_ex1_sim(cfg)


def _oracle_or_error(cfg):
    try:
        return oracle_sim(cfg), None
    except (NumericalFailure, ZeroMassCoset) as exc:
        return None, type(exc)


class TestBlockEngine:
    """The block engine against ``sim_oracle``, one trial at a time."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 5, 8, 12, 65, 70]),
           coset=st.tuples(*[st.integers(0, 3)] * 3),
           message=st.tuples(*[st.integers(0, 3)] * 3),
           decoder=st.sampled_from(["ml_joint", "sum_coset"]),
           tau1=st.sampled_from([None, 0.0, 0.2, 0.5]),
           trials=st.integers(1, 23), seed=st.integers(0, 2 ** 31 - 1),
           cap=st.sampled_from([1, 40, 300, mcsim._BLOCK_TABLE]),
           threads=st.sampled_from([1, 2, 4]))
    # rank-deficient draws at n = 8 and n = 2; forced bias retries (tau1 = 0
    # keeps only cosets through the zero word); two words; the criterion-10
    # point at a block size that splits 23 trials unevenly
    @example(8, (6, 0, 0), (0, 3, 3), "sum_coset", 0.0, 23, 5, 300, 2)
    @example(2, (1, 1, 0), (1, 1, 1), "ml_joint", None, 23, 3, 40, 4)
    @example(70, (2, 1, 2), (3, 3, 3), "sum_coset", 0.2, 9, 70, 1, 1)
    @example(20, (0, 0, 0), (5, 5, 5), "ml_joint", None, 23, 2026, 10_000, 2)
    def test_matches_oracle(self, n, coset, message, decoder, tau1, trials,
                            seed, cap, threads):
        cfg = SimConfig(n, coset, message, (0.05, 0.2, 0.3), trials=trials,
                        rng_seed=seed, decoder=decoder, tau1=tau1)
        want, error = _oracle_or_error(cfg)
        with mock.patch.object(mcsim, "_BLOCK_TABLE", cap):
            if error is not None:
                with pytest.raises(error):
                    run_ex1_sim(cfg, threads=threads)
                return
            res = run_ex1_sim(cfg, threads=threads)
        assert (res.error_counts, res.codeword_types, res.bias_retries) == want

    def test_retries_and_redraws_are_exercised(self):
        # the examples above must reach both fallbacks, not only the blocks
        shaped = SimConfig(8, (6, 0, 0), (0, 3, 3), (0.05, 0.2, 0.3), trials=23,
                           rng_seed=5, decoder="sum_coset", tau1=0.0)
        assert oracle_sim(shaped)[2] > 0
        cfg = SimConfig(2, (1, 1, 0), (1, 1, 1), (0.05, 0.2, 0.3), trials=23,
                        rng_seed=3)
        with mock.patch.object(mcsim, "_draw_trial",
                               wraps=mcsim._draw_trial) as draw:
            run_ex1_sim(cfg)
        assert 0 < draw.call_count < cfg.trials

    def test_block_sizes_follow_the_table_cap(self):
        light = SimConfig(20, (0, 0, 0), (5, 5, 5), (0.05, 0.1, 0.1))
        assert mcsim._block_size(light) == mcsim._BLOCK_TABLE // (1024 + 64)
        for heavy in (SimConfig(20, (0, 0, 0), (10, 10, 10), (0.05, 0.1, 0.1)),
                      SimConfig(16, (0, 0, 0), (0, 16, 0), (0.05, 0.1, 0.1))):
            assert mcsim._block_size(heavy) == 1

    def test_heavy_point_memory_stays_one_trial_deep(self):
        # n = 20, dims (10, 10, 10): one trial's joint table has 2^20
        # entries.  The per-trial engine this replaced peaked at 9.05 MiB
        # under tracemalloc here; a block of two such trials would need
        # over 18 MiB.
        cfg = SimConfig(20, (0, 0, 0), (10, 10, 10), (0.05, 0.1, 0.1),
                        trials=3, rng_seed=1)
        tracemalloc.start()
        try:
            run_ex1_sim(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    @pytest.mark.parametrize("n, dims, trials, per_trial_mib", [
        (256, (1, 1, 1), 4000, 45.1), (64, (2, 2, 2), 4000, 10.9)])
    def test_wide_light_point_memory_stays_near_the_per_trial_draws(
            self, n, dims, trials, per_trial_mib):
        # thousands of trials per block: the array streams go through a
        # block in chunks, so their (trials, words) temporaries stay small
        # beside the block's own draws and tables.  per_trial_mib is the
        # tracemalloc peak when every trial was drawn through its own
        # Generator.
        cfg = SimConfig(n, (0, 0, 0), dims, (0.05, 0.1, 0.1), trials=trials,
                        rng_seed=1)
        tracemalloc.start()
        try:
            run_ex1_sim(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * per_trial_mib * 2 ** 20


class TestBlockDraws:
    """``_draw_block``'s array streams against numpy's Generator per trial."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 5, 12, 33, 70]),
           coset=st.tuples(*[st.integers(0, 3)] * 3),
           message=st.tuples(*[st.integers(0, 3)] * 3),
           decoder=st.sampled_from(["ml_joint", "sum_coset"]),
           tau1=st.sampled_from([None, 0.2]),
           seed=st.sampled_from([0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 63 + 5,
                                 2 ** 64 - 1, 2 ** 70 + 3]),
           start=st.integers(0, 50), size=st.integers(2, 9),
           chunk=st.sampled_from([1, 100, mcsim._DRAW_WORDS]))
    # shaped runs with odd and with even l1, and one where users 2 and 3
    # send nothing
    @example(16, (3, 0, 0), (3, 4, 4), "ml_joint", 0.2, 1, 0, 5, 1)
    @example(16, (2, 0, 0), (2, 4, 4), "sum_coset", 0.2, 1, 0, 5, 100)
    @example(16, (3, 0, 0), (1, 0, 0), "ml_joint", 0.2, 7, 3, 4, 1)
    def test_block_draws_match_per_trial_oracle(self, n, coset, message,
                                                decoder, tau1, seed, start,
                                                size, chunk):
        cfg = SimConfig(n, coset, message, (0.05, 0.2, 0.3), trials=1,
                        rng_seed=seed, decoder=decoder, tau1=tau1)
        trials = range(start, start + size)
        got, want = mcsim._Draws.empty(cfg, size), mcsim._Draws.empty(cfg, size)
        with mock.patch.object(mcsim, "_DRAW_WORDS", chunk):
            assert mcsim._draw_block(cfg, trials, got)
        for b, t in enumerate(trials):
            sim_oracle.draw_unchecked(cfg, t, want, b)
        for field, a, w in zip(got._fields, got, want):
            assert a.dtype == w.dtype and np.array_equal(a, w), field

    def test_entropy_past_the_pool_falls_back_to_the_generator(self):
        # four seed words and a trial index make five: no array streams,
        # every trial drawn through numpy's Generator, same results
        cfg = SimConfig(8, (2, 0, 0), (1, 2, 2), (0.05, 0.2, 0.3), trials=12,
                        rng_seed=2 ** 100 + 5, tau1=0.3)
        assert not mcsim._draw_block(cfg, range(12), mcsim._Draws.empty(cfg, 12))
        res = run_ex1_sim(cfg)
        assert (res.error_counts, res.codeword_types,
                res.bias_retries) == oracle_sim(cfg)


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_sim_config_rejects_bad_seeds(self, seed):
        with pytest.raises(DomainError, match="rng_seed"):
            SimConfig(8, (0, 0, 0), (2, 2, 2), (0.0, 0.1, 0.1), rng_seed=seed)

    def test_integral_float_seed_reads_as_int(self):
        cfg = SimConfig(8, (0, 0, 0), (2, 2, 2), (0.0, 0.1, 0.1), trials=5,
                        rng_seed=7.0)
        assert cfg.rng_seed == 7 and type(cfg.rng_seed) is int
        assert run_ex1_sim(cfg) == run_ex1_sim(
            SimConfig(8, (0, 0, 0), (2, 2, 2), (0.0, 0.1, 0.1), trials=5,
                      rng_seed=7))

    @pytest.mark.parametrize("seed", [-5, 2.5, False])
    def test_soft_covering_rejects_bad_seeds(self, seed):
        with pytest.raises(DomainError, match="rng_seed"):
            soft_covering_tv(4, 2, 2, (0.5, 0.5), seed, num_codes=1)
