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

All simulation randomness is counter-derived: trial t uses the stream
seeded by (rng_seed, t), so results are bit-identical across runs and
across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat

import numpy as np

from .config import ENUMERATION_CAP, active_tolerances
from .errors import (BudgetExceeded, DomainError, NumericalFailure, TooLarge,
                     ZeroMassCoset)
from .gfcoset import (CodePair, NestedCosetCode, codeword, enumerate_coset,
                      index_tuples, random_code_pair, random_nested_code,
                      sum_code, sum_codeword)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_SOFT_COVER_CAP = 100_000
_MAX_CODE_RETRIES = 200
_MAX_BIAS_RETRIES = 100


@lru_cache(maxsize=64)
def _lex_tuples(modulus: int, length: int) -> np.ndarray:
    t = index_tuples(modulus, length)
    t.setflags(write=False)
    return t


def _target_pmf(p, modulus: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (modulus,):
        raise DomainError(f"target pmf must have length {modulus}, got shape {arr.shape}")
    if np.any(arr < 0.0) or abs(float(arr.sum()) - 1.0) > active_tolerances().prob:
        raise DomainError("target pmf entries must be nonnegative and sum to 1")
    return arr


def selection_probabilities(code: NestedCosetCode, m, p) -> np.ndarray:
    """Normalized likelihood-encoder weights over the coset of message m.

    Weight of index a is prod_t p(u_t(a, m)); the uniform reference pmf
    cancels in the normalization.  Rows with repeated codewords (singular
    inner generator) keep their multiplicity.
    """
    parr = _target_pmf(p, code.modulus)
    rows = enumerate_coset(code, m)
    weights = parr[rows].prod(axis=1)
    total = float(weights.sum())
    if total <= 0.0:
        raise ZeroMassCoset("every codeword in the coset has zero target mass")
    probs = weights / total
    # nudge the dominant entry until the float sum is exactly one
    for _ in range(8):
        gap = float(probs.sum()) - 1.0
        if gap == 0.0:
            break
        probs[int(np.argmax(probs))] -= gap
    return probs


def _draw_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    cdf = np.cumsum(probs)
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), len(probs) - 1)


def likelihood_encode(code: NestedCosetCode, m, p, rng: np.random.Generator):
    """Sample a coset index with probability proportional to its p-mass."""
    probs = selection_probabilities(code, m, p)
    idx = _draw_index(probs, rng)
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


def wilson_interval(count: int, trials: int, z: float = _Z95):
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= count <= trials:
        raise DomainError(f"bad count/trials pair ({count}, {trials})")
    phat = count / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials
                                   + z * z / (4.0 * trials * trials))
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
        object.__setattr__(self, "coset_dims", tuple(int(d) for d in self.coset_dims))
        object.__setattr__(self, "message_dims", tuple(int(d) for d in self.message_dims))
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
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


def _draw_injective_code(rng: np.random.Generator, n: int, k: int, l: int,
                         against: np.ndarray | None = None) -> NestedCosetCode:
    # stacked generator redrawn until rank min(k+l, n): distinct codewords
    # whenever the index space fits in the ambient space.  When `against`
    # rows are supplied and everything fits, additionally require the two
    # row spans to intersect trivially, so the joint decoder's hypothesis
    # map (own codeword, interference codeword) -> sum stays injective.
    extra = 0 if against is None else _gf_rank(against, 2)
    joint = k + l + extra <= n
    for _ in range(_MAX_CODE_RETRIES):
        code = random_nested_code(n, k, l, 2, int(rng.integers(0, 2 ** 63)))
        stack = np.vstack([code.g_i, code.g_oi])
        if joint:
            if _gf_rank(np.vstack([stack, against]) if extra else stack, 2) == k + l + extra:
                return code
        elif _gf_rank(stack, 2) == min(k + l, n):
            return code
    raise NumericalFailure("could not draw an injective code")


def _draw_injective_pair(rng: np.random.Generator, n: int, dims) -> tuple[CodePair, NestedCosetCode]:
    (k2, l2), (k3, l3) = dims
    for _ in range(_MAX_CODE_RETRIES):
        pair = random_code_pair(n, k2, l2, k3, l3, 2, int(rng.integers(0, 2 ** 63)))
        sc = sum_code(pair)
        ok = True
        for c in (pair.code2, pair.code3, sc):
            stack = np.vstack([c.g_i, c.g_oi])
            if _gf_rank(stack, 2) != min(c.k + c.l, n):
                ok = False
                break
        if ok:
            return pair, sc
    raise NumericalFailure("could not draw an injective code pair")


def _pack(bits) -> np.ndarray:
    """0/1 vectors along the last axis as zero-padded uint64 words."""
    bits = np.asarray(bits)
    words = -(-bits.shape[-1] // 64)
    out = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    packed = np.packbits(bits, axis=-1)
    out[..., :packed.shape[-1]] = packed
    return out.view(np.uint64)


def _all_codewords(code: NestedCosetCode) -> np.ndarray:
    # binary codebook, packed, in lex order of (a, m) by XOR doubling: the
    # last generator row flips the least significant index digit
    rows = _pack(np.vstack([code.g_i, code.g_oi]))
    out = np.empty((1 << len(rows), rows.shape[1]), dtype=np.uint64)
    out[0] = _pack(code.bias)
    h = 1
    for g in rows[::-1]:
        np.bitwise_xor(out[:h], g, out=out[h:2 * h])
        h *= 2
    return out


def _digits_to_index(digits: np.ndarray, v: int) -> int:
    out = 0
    for d in digits:
        out = out * v + int(d)
    return out


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # bit distances between broadcast packed rows, one word at a time so
    # the temporaries stay the size of the result
    words = a.shape[-1]
    dist = np.bitwise_count(a[..., 0] ^ b[..., 0]).astype(
        np.min_scalar_type(64 * words), copy=False)
    for w in range(1, words):
        dist += np.bitwise_count(a[..., w] ^ b[..., w])
    return dist


def _ml_single(y: np.ndarray, codebook: np.ndarray) -> int:
    return int(np.argmin(_hamming(codebook, y)))


def _ml_joint_pair(y: np.ndarray, cb_own: np.ndarray, cb_sum: np.ndarray):
    flat = int(np.argmin(_hamming((cb_own ^ y)[:, None], cb_sum[None])))
    return divmod(flat, cb_sum.shape[0])


def _shaped_dither(code: NestedCosetCode, m, p, rng: np.random.Generator):
    retries = 0
    while True:
        try:
            probs = selection_probabilities(code, m, p)
            break
        except ZeroMassCoset:
            retries += 1
            if retries > _MAX_BIAS_RETRIES:
                raise
            code = replace(code, bias=rng.integers(0, 2, size=code.n))
    a = _lex_tuples(2, code.k)[_draw_index(probs, rng)]
    return code, np.asarray(a), retries


def _ex1_trial(cfg: SimConfig, t: int):
    rng = np.random.default_rng([cfg.rng_seed, t])
    n = cfg.n
    (k1, k2, k3), (l1, l2, l3) = cfg.coset_dims, cfg.message_dims

    pair, sumc = _draw_injective_pair(rng, n, ((k2, l2), (k3, l3)))
    code1 = _draw_injective_code(rng, n, k1, l1,
                                 against=np.vstack([sumc.g_i, sumc.g_oi]))

    m1 = rng.integers(0, 2, size=l1)
    retries = 0
    if cfg.tau1 is None:
        a1 = rng.integers(0, 2, size=k1)
    else:
        code1, a1, retries = _shaped_dither(code1, m1, (1.0 - cfg.tau1, cfg.tau1), rng)
    a2, m2 = rng.integers(0, 2, size=k2), rng.integers(0, 2, size=l2)
    a3, m3 = rng.integers(0, 2, size=k3), rng.integers(0, 2, size=l3)

    x1 = codeword(code1, a1, m1)
    x2 = codeword(pair.code2, a2, m2)
    x3 = codeword(pair.code3, a3, m3)
    s23 = (x2 + x3) % 2
    if not np.array_equal(s23, sum_codeword(pair, a2, m2, a3, m3)):
        raise NumericalFailure("sum of codewords left the predicted sum coset")

    y1 = _pack((x1 + s23 + (rng.random(n) < cfg.delta[0])) % 2)
    y2 = _pack((x2 + (rng.random(n) < cfg.delta[1])) % 2)
    y3 = _pack((x3 + (rng.random(n) < cfg.delta[2])) % 2)

    cb1, cb2, cb3 = _all_codewords(code1), _all_codewords(pair.code2), _all_codewords(pair.code3)
    cbs = _all_codewords(sumc)

    err2 = _ml_single(y2, cb2) % 2 ** l2 != _digits_to_index(m2, 2)
    err3 = _ml_single(y3, cb3) % 2 ** l3 != _digits_to_index(m3, 2)
    if cfg.decoder == "ml_joint":
        i1, iw = _ml_joint_pair(y1, cb1, cbs)
    else:
        iw = _ml_single(y1, cbs)
        i1 = _ml_single(y1 ^ cbs[iw], cb1)
    err1 = (i1 % 2 ** l1 != _digits_to_index(m1, 2)
            or not np.array_equal(cbs[iw], _pack(s23)))

    types = (float(x1.mean()), float(x2.mean()), float(x3.mean()))
    return (bool(err1), bool(err2), bool(err3)), types, retries


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
    if threads < 1:
        raise DomainError("threads must be at least 1")
    if cfg.decoder == "ml_joint":
        k1, l1 = cfg.coset_dims[0], cfg.message_dims[0]
        ks = max(cfg.coset_dims[1], cfg.coset_dims[2])
        ls = max(cfg.message_dims[1], cfg.message_dims[2])
        if 2 ** (k1 + l1 + ks + ls) > ENUMERATION_CAP:
            raise BudgetExceeded("joint hypothesis space exceeds the enumeration cap")
    if threads == 1:
        outs = [_ex1_trial(cfg, t) for t in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(_ex1_trial, repeat(cfg), range(cfg.trials)))

    counts = tuple(sum(out[0][j] for out in outs) for j in range(3))
    types = tuple(float(np.mean([out[1][j] for out in outs])) for j in range(3))
    retries = sum(out[2] for out in outs)
    return SimResult(
        config=cfg,
        error_counts=counts,
        error_rates=tuple(c / cfg.trials for c in counts),
        intervals=tuple(wilson_interval(c, cfg.trials) for c in counts),
        codeword_types=types,
        bias_retries=retries,
    )
