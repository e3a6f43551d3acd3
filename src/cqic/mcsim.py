"""Monte-Carlo study of coset codes on the binary additive 3-user channel.

Three layers of evidence, all at desk scale:

* exact selection laws of the likelihood encoder on enumerable cosets,
* exact soft-covering total variation for random coset ensembles (the
  selected-codeword law, marginalized over a uniform dither, against the
  i.i.d. target law),
* sampled block-error rates for the sum-decoding strategy on the additive
  channel Y1 = X1 + X2 + X3 + N1, Yk = Xk + Nk (mod 2), where users 2 and 3
  employ cosets of one shared linear code so that receiver 1 can hunt for
  the interference X2 + X3 inside a single coset of the same code.

All simulation randomness is counter-derived: trial t uses numpy's
stream ``default_rng([rng_seed, t])``, so results are bit-identical across
runs and across worker counts.  Trials run in blocks.  A block of several
trials takes every trial's draws at once from array-built copies of those
streams (``cqic.gfcoset.pcg64_streams``), bit for bit numpy's, as if no
code were redrawn; the few trials whose codes fail a check are drawn
again through numpy's ``Generator``, as is a block of one trial.  Then
everything that depends only on the draws (rank checks, codebooks, the
sum-coset check, decoding, codeword types) runs as one numpy pass over
the block.  A block holds at most ``_BLOCK_TABLE`` hypothesis-table
entries, so heavy points run one trial per block.  ``threads`` spreads the
blocks over a pool; a run of one block stays in the caller's thread.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .config import ENUMERATION_CAP, _integer, _seed, active_tolerances
from .errors import (BudgetExceeded, DomainError, NumericalFailure, TooLarge,
                     ZeroMassCoset)
from .gfcoset import (NestedCosetCode, _check_modulus, draw_bit_rows,
                      draw_rows, enumerate_coset, half_bits, index_tuples,
                      pcg64_streams, pcg64_words, random_nested_code,
                      uniforms)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_SOFT_COVER_CAP = 100_000
_MAX_CODE_RETRIES = 200
_MAX_BIAS_RETRIES = 100
#: hypothesis-table entries (codewords, joint (own, sum) pairs, shaped-dither
#: coset bits) one block of trials may hold; a trial above it runs alone
_BLOCK_TABLE = 1 << 16
#: stream words one array draw of a block handles at once; more trials go
#: in chunks, so the (trials, words) temporaries stay small
_DRAW_WORDS = 1 << 15


@lru_cache(maxsize=64)
def _lex_tuples(modulus: int, length: int) -> np.ndarray:
    t = index_tuples(modulus, length)
    t.setflags(write=False)
    return t


def _target_pmf(p, modulus: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (modulus,):
        raise DomainError(f"target pmf must have length {modulus}, got shape {arr.shape}")
    if not (np.all(arr >= 0.0)
            and abs(float(arr.sum()) - 1.0) <= active_tolerances().prob):
        raise DomainError("target pmf entries must be nonnegative and sum to 1")
    return arr


def selection_probabilities(code: NestedCosetCode, m, p) -> np.ndarray:
    """Normalized likelihood-encoder weights over the coset of message m.

    Weight of index a is prod_t p(u_t(a, m)); the uniform reference pmf
    cancels in the normalization.  Rows with repeated codewords (singular
    inner generator) keep their multiplicity.
    """
    weights = _target_pmf(p, code.modulus)[enumerate_coset(code, m)].prod(axis=1)
    if weights.sum() <= 0.0:
        raise ZeroMassCoset("every codeword in the coset has zero target mass")
    return _selection_law(weights[None])[0]


def _selection_law(weights: np.ndarray) -> np.ndarray:
    """Each row of weights normalized, its largest entry nudged until the
    float sum is exactly one."""
    probs = weights / weights.sum(axis=-1, keepdims=True)
    rows = np.arange(len(probs))
    for _ in range(8):
        gap = probs.sum(axis=-1) - 1.0
        if not gap.any():
            break
        # a row already at one takes a zero nudge, which changes no bit
        probs[rows, probs.argmax(axis=-1)] -= gap
    return probs


def _pick(probs: np.ndarray, u) -> np.ndarray:
    """Index picked by each uniform in u from its row of probs: the count
    of cdf entries at most u, capped at the last index."""
    cdf = np.cumsum(probs, axis=-1)
    return np.minimum((cdf <= np.expand_dims(u, -1)).sum(axis=-1),
                      probs.shape[-1] - 1)


def likelihood_encode(code: NestedCosetCode, m, p, rng: np.random.Generator):
    """Sample a coset index with probability proportional to its p-mass."""
    idx = _pick(selection_probabilities(code, m, p), rng.random())
    return tuple(int(d) for d in _lex_tuples(code.modulus, code.k)[idx])


def _gf_rref(mat: np.ndarray, v: int):
    """Reduced row echelon form over F_v; returns (rref, pivot columns)."""
    m = np.array(mat, dtype=np.int64) % v
    rows, cols = m.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), v - 2, v)) % v
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % v
        piv.append(c)
        r += 1
    return m, piv


def _gf_rank(mat: np.ndarray, v: int) -> int:
    if v != 2:
        return len(_gf_rref(mat, v)[1])
    # XOR elimination on packed rows: each pivot is keyed by its leading bit
    pivots = {}
    for row in np.packbits(np.asarray(mat, dtype=np.int64) % 2, axis=1):
        x = int.from_bytes(row.tobytes(), "big")
        while x and x.bit_length() in pivots:
            x ^= pivots[x.bit_length()]
        if x:
            pivots[x.bit_length()] = x
    return len(pivots)


def _coset_labels(g_i: np.ndarray, seqs: np.ndarray, v: int):
    """Coset of rowspace(g_i) holding each row of the lex-ordered seqs.

    A coset is numbered by its reduced form read at the non-pivot columns;
    returns (labels, number of cosets).
    """
    n = seqs.shape[1]
    rref, piv = _gf_rref(g_i, v)
    rank = len(piv)
    free = [c for c in range(n) if c not in set(piv)]
    powers = v ** np.arange(len(free) - 1, -1, -1)

    def label(x):
        return ((x - x[:, piv] @ rref[:rank]) % v)[:, free] @ powers

    if v != 2:
        return label(seqs), v ** (n - rank)
    # over F_2 the label is linear and seqs runs through F_2^n in lex
    # order, so fold in one digit per step from the unit-vector labels
    labels = np.zeros(1, dtype=np.int64)
    for col in label(np.eye(n, dtype=np.int64)):
        labels = (labels[:, None] ^ np.array([0, col])).reshape(-1)
    return labels, 2 ** (n - rank)


def _partition_tv(g_i: np.ndarray, seqs: np.ndarray, pn: np.ndarray, v: int) -> float:
    # Dither-averaged selected-codeword law: p^n conditioned on each coset
    # of rowspace(g_i), mixed uniformly over the positive-mass cosets (a
    # zero-mass coset triggers a dither resample, hence never appears).
    labels, cosets = _coset_labels(g_i, seqs, v)
    masses = np.bincount(labels, weights=pn, minlength=cosets)
    shares = masses / masses.sum()
    pos = masses > 0.0
    return 0.5 * float(np.abs(shares[pos] - 1.0 / int(pos.sum())).sum())


def soft_covering_tv(n: int, k: int, modulus: int, p, rng_seed,
                     num_codes: int = 50) -> float:
    """Average total variation between the coset-selection law and p^n.

    For each random code the law of the selected codeword — likelihood
    encoding inside the coset, exact expectation over the uniform bias —
    is compared with the i.i.d. target in total variation.  Generators are
    redrawn until full rank so that k = n yields the whole space.
    """
    n, k = _integer(n, "n", DomainError), _integer(k, "k", DomainError)
    num_codes = _integer(num_codes, "num_codes", DomainError)
    rng_seed = _seed(rng_seed, "rng_seed")
    modulus = _check_modulus(modulus)
    if n < 1 or not 0 <= k <= n:
        raise DomainError(f"need 1 <= n and 0 <= k <= n, got n={n} k={k}")
    if num_codes < 1:
        raise DomainError("num_codes must be at least 1")
    if float(modulus) ** n > _SOFT_COVER_CAP:
        raise TooLarge(f"{modulus}^{n} sequences exceed the exact-enumeration cap")
    parr = _target_pmf(p, modulus)
    seqs = _lex_tuples(modulus, n)
    pn = parr[seqs].prod(axis=1)
    master = np.random.default_rng(rng_seed)
    total = 0.0
    for _ in range(num_codes):
        for _ in range(_MAX_CODE_RETRIES):
            code = random_nested_code(n, k, 0, modulus,
                                      int(master.integers(0, 2 ** 63)))
            if _gf_rank(code.g_i, modulus) == k:
                break
        else:
            raise NumericalFailure("could not draw a full-rank generator")
        total += _partition_tv(np.asarray(code.g_i), seqs, pn, modulus)
    return total / num_codes


def wilson_interval(count: int, trials: int):
    """Wilson score interval (95 %) for a binomial proportion."""
    count = _integer(count, "count", DomainError)
    trials = _integer(trials, "trials", DomainError)
    if trials < 1 or not 0 <= count <= trials:
        raise DomainError(f"bad count/trials pair ({count}, {trials})")
    phat = count / trials
    denom = 1.0 + _Z95 * _Z95 / trials
    center = (phat + _Z95 * _Z95 / (2.0 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(phat * (1.0 - phat) / trials
                                      + _Z95 * _Z95 / (4.0 * trials * trials))
    # the score interval contains phat mathematically; keep it so in floats
    return (max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat)))


@dataclass(frozen=True)
class SimConfig:
    """Parameters for one simulation run on the additive 3-user channel.

    coset_dims[j] and message_dims[j] are the inner (dither) and outer
    (message) generator row counts of user j+1's binary nested coset code;
    the message rate of user j+1 is message_dims[j] / n bits per symbol.
    tau1, when set, shapes user 1's dither toward Hamming type tau1 via
    likelihood encoding; None leaves all dithers uniform.
    """

    n: int
    coset_dims: tuple[int, int, int]
    message_dims: tuple[int, int, int]
    delta: tuple[float, float, float]
    trials: int = 10_000
    rng_seed: int = 0
    decoder: str = "ml_joint"
    tau1: float | None = None

    def __post_init__(self):
        for name in ("coset_dims", "message_dims"):
            object.__setattr__(self, name, tuple(
                _integer(d, name, DomainError) for d in getattr(self, name)))
        for name in ("n", "trials"):
            object.__setattr__(self, name,
                               _integer(getattr(self, name), name, DomainError))
        object.__setattr__(self, "rng_seed", _seed(self.rng_seed, "rng_seed"))
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        if len(self.delta) != 3:
            raise DomainError(f"need a crossover probability for all three "
                              f"users, got {len(self.delta)}")
        if self.n < 1:
            raise DomainError(f"blocklength must be positive, got {self.n}")
        if len(self.coset_dims) != 3 or len(self.message_dims) != 3:
            raise DomainError("need coset and message dims for all three users")
        if any(d < 0 for d in self.coset_dims + self.message_dims):
            raise DomainError("code dimensions must be nonnegative")
        for j in range(3):
            if 2 ** (self.coset_dims[j] + self.message_dims[j]) > ENUMERATION_CAP:
                raise BudgetExceeded(f"user {j + 1} codebook exceeds the enumeration cap")
        ks = max(self.coset_dims[1], self.coset_dims[2])
        ls = max(self.message_dims[1], self.message_dims[2])
        if 2 ** (ks + ls) > ENUMERATION_CAP:
            raise BudgetExceeded("sum codebook exceeds the enumeration cap")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if any(not 0.0 <= d <= 0.5 for d in self.delta):
            raise DomainError("crossover probabilities must lie in [0, 1/2]")
        if self.tau1 is not None and not 0.0 <= self.tau1 <= 0.5:
            raise DomainError(f"tau1 {self.tau1} outside [0, 1/2]")
        if self.decoder not in ("ml_joint", "sum_coset"):
            raise DomainError(f"unknown decoder {self.decoder!r}")

    @property
    def rates(self) -> tuple[float, float, float]:
        return tuple(l / self.n for l in self.message_dims)


@dataclass(frozen=True)
class SimResult:
    """Block-error estimates with Wilson 95% intervals, plus codeword types."""

    config: SimConfig
    error_counts: tuple[int, int, int]
    error_rates: tuple[float, float, float]
    intervals: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    codeword_types: tuple[float, float, float]
    bias_retries: int

    def __post_init__(self):
        for est, (lo, hi) in zip(self.error_rates, self.intervals):
            if not 0.0 <= est <= 1.0:
                raise DomainError(f"error estimate {est} outside [0, 1]")
            if not lo <= est <= hi:
                raise DomainError("confidence interval must contain the estimate")

    @staticmethod
    def csv_header() -> tuple[str, ...]:
        return ("n", "rate1", "rate2", "rate3", "trials",
                "err1", "err1_lo", "err1_hi", "err2", "err2_lo", "err2_hi",
                "err3", "err3_lo", "err3_hi", "seed")

    def csv_row(self) -> tuple:
        cfg = self.config
        row = [cfg.n, *cfg.rates, cfg.trials]
        for est, (lo, hi) in zip(self.error_rates, self.intervals):
            row += [est, lo, hi]
        row.append(cfg.rng_seed)
        return tuple(row)


class _Draws(NamedTuple):
    """A block's draws, one row per trial, as the trials' streams gave them."""

    pair: np.ndarray     # (B, ks + ls + 2, n) bits: g_I, g_{O/I}, b2, b3
    code1: np.ndarray    # (B, k1 + l1 + 1, n) bits: g_I, g_{O/I}, b1
    msg: np.ndarray      # (B, l1 + k1 + k2 + l2 + k3 + l3): m1 a1 a2 m2 a3 m3
                         # (a1 stays 0 when shaped: u picks it)
    u: np.ndarray        # (B,) uniform that picks a shaped dither
    noise: np.ndarray    # (B, 3 n) uniforms of channels 1, 2, 3
    retries: np.ndarray  # (B,) bias retries of the shaped dither

    @classmethod
    def empty(cls, cfg: SimConfig, size: int) -> _Draws:
        """Rows for size trials; the rows every draw fills start empty."""
        k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
        n = cfg.n
        return cls(np.empty((size, ks + ls + 2, n), np.uint8),
                   np.empty((size, k1 + l1 + 1, n), np.uint8),
                   np.zeros((size, l1 + k1 + k2 + l2 + k3 + l3), np.int64),
                   np.zeros(size), np.empty((size, 3 * n)),
                   np.zeros(size, np.int64))


def _dims(cfg: SimConfig):
    """(k1, l1, k2, l2, k3, l3, ks, ls): the codes' and the sum code's dims."""
    (k1, k2, k3), (l1, l2, l3) = cfg.coset_dims, cfg.message_dims
    return k1, l1, k2, l2, k3, l3, max(k2, k3), max(l2, l3)


def _block_size(cfg: SimConfig) -> int:
    """Trials per block: as many as keep the block's tables in _BLOCK_TABLE."""
    k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
    own, sums = 2 ** (k1 + l1), 2 ** (ks + ls)
    table = (own * sums if cfg.decoder == "ml_joint" else own + sums) \
        + 2 ** (k2 + l2) + 2 ** (k3 + l3)
    if cfg.tau1 is not None:
        table += 2 ** k1 * cfg.n
    return max(1, _BLOCK_TABLE // table)


def _pack(bits) -> np.ndarray:
    """0/1 vectors along the last axis as zero-padded uint64 words."""
    bits = np.asarray(bits)
    words = -(-bits.shape[-1] // 64)
    out = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    packed = np.packbits(bits, axis=-1)
    out[..., :packed.shape[-1]] = packed
    return out.view(np.uint64)


def _gf2_ranks(rows: np.ndarray) -> np.ndarray:
    """GF(2) ranks of packed matrices (..., r, words) by XOR elimination.

    Row i, already reduced by the pivots above it, is a pivot when nonzero;
    its lowest set bit in its first nonzero word is then cleared from every
    row below it.
    """
    m = rows.copy()
    rank = np.zeros(m.shape[:-2], dtype=np.int64)
    for i in range(m.shape[-2]):
        x = m[..., i, :]
        low = x & (~x + np.uint64(1))
        if x.shape[-1] > 1:
            low[..., 1:] *= ~np.logical_or.accumulate(x[..., :-1] != 0, axis=-1)
        below = m[..., i + 1:, :]
        hit = np.logical_or.reduce(below & low[..., None, :], axis=-1)
        below ^= x[..., None, :] * hit[..., None]
        rank += np.logical_or.reduce(x, axis=-1)
    return rank


def _injective(stacks) -> np.ndarray:
    """Trials whose stacked generators all reach their ranks.

    ``stacks`` holds (bits of shape (B, rows, n), rank) pairs.  A block's
    run through one elimination, zero-padded to a common row count; a
    single trial's go one matrix at a time through ``_gf_rank``, which is
    the faster at that size.
    """
    if len(stacks[0][0]) == 1:
        return np.array([all(_gf_rank(s[0], 2) == r for s, r in stacks)])
    b, _, n = stacks[0][0].shape
    mats = np.zeros((len(stacks), b, max(s.shape[1] for s, _ in stacks), n),
                    dtype=np.uint8)
    for j, (s, _) in enumerate(stacks):
        mats[j, :, :s.shape[1]] = s
    want = np.array([r for _, r in stacks])[:, None]
    return (_gf2_ranks(_pack(mats)) == want).all(axis=0)


def _rows(stack: np.ndarray, k: int, l: int, ks: int) -> np.ndarray:
    """A code's generator inside a pair's stacked bits (B, ks + ls + .., n):
    the first k of the ks inner rows and the first l outer rows."""
    return np.concatenate([stack[:, :k], stack[:, ks:ks + l]], axis=1)


def _pair_stacks(cfg: SimConfig, pair: np.ndarray):
    # users 2 and 3 and their sum code need rank min(k + l, n): distinct
    # codewords whenever the index space fits in the ambient space
    k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
    return [(_rows(pair, k, l, ks), min(k + l, cfg.n))
            for k, l in ((k2, l2), (k3, l3), (ks, ls))]


def _code1_stacks(cfg: SimConfig, pair: np.ndarray, code1: np.ndarray):
    # when everything fits, user 1's rows and the sum code's rows (of rank
    # min(ks + ls, n) once the pair passed) must span trivially
    # intersecting spaces, so the joint decoder's hypothesis map (own
    # codeword, interference codeword) -> sum stays injective
    n = cfg.n
    k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
    extra = min(ks + ls, n)
    if k1 + l1 + extra <= n:
        return [(np.concatenate([code1[:, :-1], pair[:, :ks + ls]], axis=1),
                 k1 + l1 + extra)]
    return [(code1[:, :-1], min(k1 + l1, n))]


def _codebooks(rows: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Packed codebooks (B, 2^r, words) of packed rows (B, r, words).

    Lex order of the index digits, by XOR doubling from the biases
    (B, words): the last generator row flips the least significant digit.
    """
    b, r, w = rows.shape
    out = np.empty((b, 1 << r, w), dtype=np.uint64)
    out[:, 0] = bias
    h = 1
    for i in range(r - 1, -1, -1):
        np.bitwise_xor(out[:, :h], rows[:, i, None], out=out[:, h:2 * h])
        h *= 2
    return out


def _book(bits: np.ndarray) -> np.ndarray:
    """Codebooks of bit stacks (B, r + 1, n) whose last row is the bias."""
    packed = _pack(bits)
    return _codebooks(packed[:, :-1], packed[:, -1])


def _index(digits: np.ndarray) -> np.ndarray:
    """Binary digit rows (B, r), most significant first, as integers."""
    return digits @ (1 << np.arange(digits.shape[1] - 1, -1, -1))


def _coset_weights(cfg: SimConfig, cb1: np.ndarray, m1: np.ndarray) -> np.ndarray:
    # likelihood-encoder weights over user 1's coset of message index m1,
    # each the product of p(bit) along the codeword in symbol order, as
    # selection_probabilities takes them
    k1, l1 = cfg.coset_dims[0], cfg.message_dims[0]
    words = cb1[np.arange(len(cb1))[:, None],
                (np.arange(2 ** k1) << l1) + m1[:, None]]
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=cfg.n)
    return np.array([1.0 - cfg.tau1, cfg.tau1])[bits].prod(axis=-1)


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # bit distances between broadcast packed rows, one word at a time so
    # the temporaries stay the size of the result
    words = a.shape[-1]
    dist = np.bitwise_count(a[..., 0] ^ b[..., 0]).astype(
        np.min_scalar_type(64 * words), copy=False)
    for w in range(1, words):
        dist += np.bitwise_count(a[..., w] ^ b[..., w])
    return dist


def _nearest(codebooks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per trial, the first index of a codeword nearest to y."""
    return _hamming(codebooks, y[:, None]).argmin(axis=1)


def _nearest_pair(cb_own: np.ndarray, cb_sum: np.ndarray, y: np.ndarray):
    """Per trial, the first (own, sum) index pair in row-major order whose
    XOR is nearest to y."""
    dist = _hamming((cb_own ^ y[:, None])[:, :, None], cb_sum[:, None])
    return np.divmod(dist.reshape(len(dist), -1).argmin(axis=1), cb_sum.shape[1])


def _draw_trial(cfg: SimConfig, t: int, d: _Draws, b: int):
    """Trial t's draws, from numpy's Generator on its own stream, into row b.

    Each code is redrawn until it passes its rank checks and user 1's bias
    until its coset has mass.  A trial that needs neither draws what
    ``_draw_block`` gives it.
    """
    n = cfg.n
    k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
    rng = np.random.default_rng([cfg.rng_seed, t])
    pair, code1 = d.pair[b:b + 1], d.code1[b:b + 1]
    for _ in range(_MAX_CODE_RETRIES):
        pair[0] = draw_rows(n, ks, ls, 2, 2, int(rng.integers(0, 2 ** 63)))
        if _injective(_pair_stacks(cfg, pair))[0]:
            break
    else:
        raise NumericalFailure("could not draw an injective code pair")
    for _ in range(_MAX_CODE_RETRIES):
        code1[0] = draw_rows(n, k1, l1, 1, 2, int(rng.integers(0, 2 ** 63)))
        if _injective(_code1_stacks(cfg, pair, code1))[0]:
            break
    else:
        raise NumericalFailure("could not draw an injective code")
    # a bounded int64 fill takes one 32-bit output per entry, so one fill
    # gives the messages and dithers of consecutive separate fills
    if cfg.tau1 is None:
        d.msg[b] = rng.integers(0, 2, size=d.msg.shape[1])
    else:
        d.msg[b, :l1] = rng.integers(0, 2, size=l1)
        retries = 0
        while not _coset_weights(
                cfg, _book(code1), _index(d.msg[b:b + 1, :l1])).sum() > 0.0:
            retries += 1
            if retries > _MAX_BIAS_RETRIES:
                raise ZeroMassCoset("every codeword in the coset has zero target mass")
            code1[0, -1] = rng.integers(0, 2, size=n)
        d.retries[b] = retries
        d.u[b] = rng.random()
        d.msg[b, l1 + k1:] = rng.integers(0, 2, size=d.msg.shape[1] - l1 - k1)
    d.noise[b] = rng.random(3 * n)


def _draw_block(cfg: SimConfig, trials: range, d: _Draws) -> bool:
    """Every trial's draws, as ``_draw_trial`` would make them if no code
    were redrawn and no bias retried, from array-built streams.

    Trial t's stream takes the pair's and user 1's code seeds from its
    words 0 and 1 (``integers(0, 2**63)`` keeps a word's top 63 bits),
    then the message and dither bits, shaped user 1's uniform after its
    message, and the channel uniforms.  False, with nothing drawn, when
    the entropy [rng_seed, t] outgrows the 4-word pool.
    """
    n = cfg.n
    k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
    main = pcg64_streams(cfg.rng_seed, np.arange(trials.start, trials.stop,
                                                 dtype=np.uint64))
    if main is None:
        return False
    # rows 2b and 2b + 1: trial b's pair and user-1 code streams
    codes = pcg64_streams(None, pcg64_words(main, 0, 2) >> 1)
    shaped = cfg.tau1 is not None
    fill = d.msg.shape[1] - k1 * shaped
    bit_words, u_word = -(-fill // 2), -(-l1 // 2)
    stop = 2 + bit_words + shaped + 3 * n
    step = max(1, _DRAW_WORDS // max(stop, d.pair[0].size, d.code1[0].size))
    for lo in range(0, len(trials), step):
        rows = slice(lo, lo + step)
        d.pair[rows] = draw_bit_rows(codes[2 * lo:2 * (lo + step):2],
                                     *d.pair.shape[1:])
        d.code1[rows] = draw_bit_rows(codes[2 * lo + 1:2 * (lo + step):2],
                                      *d.code1.shape[1:])
        words = pcg64_words(main[rows], 2, stop)
        if shaped:
            # the uniform's word sits between the message bits and the
            # rest; an odd l1 leaves a half buffered across it
            d.u[rows] = uniforms(words[:, u_word])
            words = np.delete(words, u_word, axis=1)
        bits = half_bits(words[:, :bit_words], fill)
        if shaped:
            d.msg[rows, :l1], d.msg[rows, l1 + k1:] = bits[:, :l1], bits[:, l1:]
        else:
            d.msg[rows] = bits
        d.noise[rows] = uniforms(words[:, bit_words:])
    return True


def _decode(cfg: SimConfig, d: _Draws):
    """Error flags (3, B) and codeword types (3, B) of accepted draws."""
    n = cfg.n
    k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
    rows = np.arange(len(d.msg))
    pair = _pack(d.pair)
    g, b2, b3 = pair[:, :ks + ls], pair[:, -2], pair[:, -1]
    cb1 = _book(d.code1)
    cb2 = _codebooks(_rows(g, k2, l2, ks), b2)
    cb3 = _codebooks(_rows(g, k3, l3, ks), b3)
    cbs = _codebooks(g, b2 ^ b3)

    m1, a1, a2, m2, a3, m3 = (_index(part) for part in np.split(
        d.msg, np.cumsum([l1, k1, k2, l2, k3]), axis=1))
    if cfg.tau1 is not None:
        a1 = _pick(_selection_law(_coset_weights(cfg, cb1, m1)), d.u)
    x1 = cb1[rows, a1 << l1 | m1]
    x2 = cb2[rows, a2 << l2 | m2]
    x3 = cb3[rows, a3 << l3 | m3]
    s23 = x2 ^ x3
    # the shorter index of the pair fills the leading digits of the sum's
    a_s = a2 << (ks - k2) ^ a3 << (ks - k3)
    m_s = m2 << (ls - l2) ^ m3 << (ls - l3)
    if not np.array_equal(cbs[rows, a_s << ls | m_s], s23):
        raise NumericalFailure("sum of codewords left the predicted sum coset")

    flips = _pack(d.noise.reshape(-1, 3, n) < np.array(cfg.delta)[:, None])
    y1 = x1 ^ s23 ^ flips[:, 0]
    err2 = _nearest(cb2, x2 ^ flips[:, 1]) % 2 ** l2 != m2
    err3 = _nearest(cb3, x3 ^ flips[:, 2]) % 2 ** l3 != m3
    if cfg.decoder == "ml_joint":
        i1, iw = _nearest_pair(cb1, cbs, y1)
    else:
        iw = _nearest(cbs, y1)
        i1 = _nearest(cb1, y1 ^ cbs[rows, iw])
    err1 = (i1 % 2 ** l1 != m1) | (cbs[rows, iw] != s23).any(axis=-1)

    types = np.bitwise_count(np.stack([x1, x2, x3])).sum(axis=-1) / n
    return np.stack([err1, err2, err3]), types


def _run_block(cfg: SimConfig, trials: range):
    """Error flags, codeword types and bias retries of a block of trials.

    Every trial of a block of several is drawn at once by ``_draw_block``;
    the few whose codes fail a check are drawn again by ``_draw_trial``
    before the block decodes.  A block of one trial, or one whose seed
    outgrows the array streams, is drawn by ``_draw_trial`` throughout.
    """
    l1, size = cfg.message_dims[0], len(trials)
    d = _Draws.empty(cfg, size)
    if size == 1 or not _draw_block(cfg, trials, d):
        for b, t in enumerate(trials):
            _draw_trial(cfg, t, d, b)
    else:
        ok = _injective(_pair_stacks(cfg, d.pair)
                        + _code1_stacks(cfg, d.pair, d.code1))
        if cfg.tau1 is not None:
            ok &= _coset_weights(cfg, _book(d.code1),
                                 _index(d.msg[:, :l1])).sum(axis=-1) > 0.0
        for b in np.flatnonzero(~ok):
            _draw_trial(cfg, trials[b], d, b)
    return (*_decode(cfg, d), d.retries)


def run_ex1_sim(cfg: SimConfig, threads: int = 1) -> SimResult:
    """Estimate per-receiver block-error rates under fresh random codes.

    Every trial draws its own codes (users 2 and 3 share generator rows),
    encodes uniform messages, checks that the transmitted sum codeword
    lies in the predicted sum coset, and decodes exhaustively: receivers
    2 and 3 by minimum distance in their own codebooks, receiver 1 either
    jointly over (own codeword, sum-coset codeword) or successively (sum
    coset first, then own code).  Receiver 1 errs when its message or the
    decoded interference codeword is wrong.
    """
    threads = _integer(threads, "threads", DomainError)
    if threads < 1:
        raise DomainError("threads must be at least 1")
    k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
    if cfg.decoder == "ml_joint" and 2 ** (k1 + l1 + ks + ls) > ENUMERATION_CAP:
        raise BudgetExceeded("joint hypothesis space exceeds the enumeration cap")
    size = _block_size(cfg)
    blocks = [range(s, min(s + size, cfg.trials)) for s in range(0, cfg.trials, size)]
    if threads == 1 or len(blocks) == 1:
        outs = [_run_block(cfg, block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(_run_block, repeat(cfg), blocks))

    errs, types, retries = (np.concatenate(part, axis=-1) for part in zip(*outs))
    counts = tuple(int(c) for c in errs.sum(axis=1))
    types = tuple(float(np.mean(row)) for row in types)
    retries = int(retries.sum())
    return SimResult(
        config=cfg,
        error_counts=counts,
        error_rates=tuple(c / cfg.trials for c in counts),
        intervals=tuple(wilson_interval(c, cfg.trials) for c in counts),
        codeword_types=types,
        bias_retries=retries,
    )
