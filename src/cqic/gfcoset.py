"""Prime-field arithmetic and nested coset codes with sum-coset closure.

A nested coset code over F_v maps an index pair (a, m) to
``a g_I + m g_{O/I} + b`` (all arithmetic mod v).  Two codes whose
generator rows are prefix-contained in each other sum into a single
coset of the containing code indexed by m2 + m3, which is the algebraic
fact the decoding construction rides on.

Randomness comes from numpy's PCG64 (``numpy.random.default_rng``),
seeded explicitly everywhere, so every experiment replays bit-for-bit.
For binary draws of many streams at once, ``pcg64_streams`` and
``pcg64_words`` reproduce ``PCG64(SeedSequence(entropy))`` as array code,
one row per stream, and ``half_bits`` and ``uniforms`` apply numpy's
draw rules to its words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import ENUMERATION_CAP, _integer
from .errors import (DomainError, IncompatiblePair, LengthMismatch, NotPrime,
                     TooLarge)

SUPPORTED_MODULI = (2, 3, 5, 7)


def _check_modulus(v: int) -> int:
    v = _integer(v, "modulus", NotPrime)
    if v not in SUPPORTED_MODULI:
        raise NotPrime(f"modulus must be a prime in {SUPPORTED_MODULI}, got {v}")
    return v


def _as_field_array(x, modulus, length, what) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if arr.ndim != 1 or arr.size != length:
        raise LengthMismatch(f"{what} must have length {length}, got {arr.size}")
    return arr % modulus


@dataclass(frozen=True)
class NestedCosetCode:
    """Coset code u(a, m) = a g_I + m g_{O/I} + bias over F_modulus."""

    n: int
    k: int
    l: int
    g_i: np.ndarray
    g_oi: np.ndarray
    bias: np.ndarray
    modulus: int

    def __post_init__(self):
        v = _check_modulus(self.modulus)
        n, k, l = (_integer(getattr(self, name), name, DomainError)
                   for name in ("n", "k", "l"))
        if n <= 0 or k < 0 or l < 0:
            raise DomainError(f"bad code dimensions n={n} k={k} l={l}")
        g_i = np.asarray(self.g_i, dtype=np.int64).reshape(k, n) % v
        g_oi = np.asarray(self.g_oi, dtype=np.int64).reshape(l, n) % v
        bias = np.asarray(self.bias, dtype=np.int64).reshape(n) % v
        for name, arr in (("g_i", g_i), ("g_oi", g_oi), ("bias", bias)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "modulus", v)

    @property
    def rate(self) -> float:
        return (self.l / self.n) * np.log2(self.modulus)


def _prefix_contained(small: np.ndarray, large: np.ndarray) -> bool:
    r = small.shape[0]
    return r <= large.shape[0] and bool(np.array_equal(small, large[:r]))


@dataclass(frozen=True)
class CodePair:
    """Two nested coset codes whose generator rows are prefix-contained.

    The code with fewer rows (per generator) must be the literal row
    prefix of the other, which makes the elementwise sum of any two
    codewords land in the coset of the containing code indexed by the
    (padded) sum of the two messages.
    """

    code2: NestedCosetCode
    code3: NestedCosetCode

    def __post_init__(self):
        c2, c3 = self.code2, self.code3
        if c2.modulus != c3.modulus:
            raise IncompatiblePair(f"moduli differ: {c2.modulus} vs {c3.modulus}")
        if c2.n != c3.n:
            raise IncompatiblePair(f"blocklengths differ: {c2.n} vs {c3.n}")
        for a, b, what in ((c2.g_i, c3.g_i, "g_i"), (c2.g_oi, c3.g_oi, "g_oi")):
            small, large = (a, b) if a.shape[0] <= b.shape[0] else (b, a)
            if not _prefix_contained(small, large):
                raise IncompatiblePair(f"{what} rows are not prefix-contained")

    @property
    def modulus(self) -> int:
        return self.code2.modulus


def codeword(code: NestedCosetCode, a, m) -> np.ndarray:
    """a g_I + m g_{O/I} + bias over F_modulus."""
    v = code.modulus
    return (code.bias + _as_field_array(a, v, code.k, "index a") @ code.g_i
            + _as_field_array(m, v, code.l, "message m") @ code.g_oi) % v


def sum_code(pair: CodePair) -> NestedCosetCode:
    """The containing code: k = max k_j, l = max l_j, bias = b2 + b3."""
    c2, c3 = pair.code2, pair.code3
    g_i = c2.g_i if c2.k >= c3.k else c3.g_i
    g_oi = c2.g_oi if c2.l >= c3.l else c3.g_oi
    return NestedCosetCode(c2.n, max(c2.k, c3.k), max(c2.l, c3.l),
                           g_i, g_oi, (c2.bias + c3.bias) % c2.modulus,
                           c2.modulus)


def sum_codeword(pair: CodePair, a2, m2, a3, m3) -> np.ndarray:
    """codeword(code2, a2, m2) + codeword(code3, a3, m3) elementwise mod v.

    Lies in coset (padded m2 + m3) of ``sum_code(pair)``.
    """
    u2 = codeword(pair.code2, a2, m2)
    u3 = codeword(pair.code3, a3, m3)
    return (u2 + u3) % pair.modulus


def sum_message(pair: CodePair, m2, m3) -> np.ndarray:
    """The coset index of the containing code that sum_codeword lands in."""
    v = pair.modulus
    out = np.zeros(max(pair.code2.l, pair.code3.l), dtype=np.int64)
    for code, m, what in ((pair.code2, m2, "m2"), (pair.code3, m3, "m3")):
        out[:code.l] += _as_field_array(m, v, code.l, what)
    return out % v


def index_tuples(modulus: int, length: int) -> np.ndarray:
    """All v^length tuples over F_v, lexicographic, as a (v^length, length) array."""
    count = modulus ** length
    if count > ENUMERATION_CAP:
        raise TooLarge(f"{count} tuples exceed the enumeration cap")
    return np.ascontiguousarray(
        np.indices((modulus,) * length, dtype=np.int64).reshape(length, count).T)


def enumerate_coset(code: NestedCosetCode, m) -> np.ndarray:
    """All v^k codewords of coset m, as rows; duplicates retained.

    A singular g_I yields repeated rows on purpose: downstream counting
    (likelihood masses, uniform index draws) works with multiplicity.
    """
    v = code.modulus
    if v ** code.k > ENUMERATION_CAP:
        raise TooLarge(f"coset of size {v ** code.k} exceeds cap")
    return (code.bias + _as_field_array(m, v, code.l, "message m") @ code.g_oi
            + index_tuples(v, code.k) @ code.g_i) % v


def draw_rows(n: int, k: int, l: int, biases: int, modulus: int,
              rng_seed) -> np.ndarray:
    """Rows g_I (k), g_{O/I} (l) and `biases` bias vectors, stacked in that
    order, with entries i.i.d. uniform over F_v from PCG64(seed).

    This is the one source of the draw order of random codes, and
    ``draw_bit_rows`` its binary array form.  The whole stack is a single
    fill: numpy draws each entry of a bounded int64 fill from the
    generator's 32-bit stream in turn, so the entries equal those of
    separate fills for g_I, g_{O/I} and each bias.
    """
    v = _check_modulus(modulus)
    return np.random.default_rng(rng_seed).integers(
        0, v, size=(k + l + biases, n), dtype=np.int64)


def random_nested_code(n: int, k: int, l: int, modulus: int,
                       rng_seed) -> NestedCosetCode:
    """Generator and bias entries i.i.d. uniform over F_v from PCG64(seed)."""
    rows = draw_rows(n, k, l, 1, modulus, rng_seed)
    return NestedCosetCode(n, k, l, rows[:k], rows[k:k + l], rows[k + l],
                           modulus)


def random_code_pair(n: int, k2: int, l2: int, k3: int, l3: int,
                     modulus: int, rng_seed) -> CodePair:
    """Random pair with prefix-contained generators and independent biases."""
    ks, ls = max(k2, k3), max(l2, l3)
    rows = draw_rows(n, ks, ls, 2, modulus, rng_seed)
    g_i, g_oi = rows[:ks], rows[ks:ks + ls]
    code2 = NestedCosetCode(n, k2, l2, g_i[:k2], g_oi[:l2], rows[-2], modulus)
    code3 = NestedCosetCode(n, k3, l3, g_i[:k3], g_oi[:l3], rows[-1], modulus)
    return CodePair(code2, code3)


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
_M32 = 0xFFFFFFFF


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    # the hash constant runs through init * mult^i whatever the data
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)


def _xorshift(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> 16)


def pcg64_streams(prefix: int | None, counters) -> np.ndarray | None:
    """``PCG64(SeedSequence([prefix, c]))`` (``[c]`` without a prefix) for
    each counter c < 2^64, one row per counter; None when some entropy
    outgrows SeedSequence's 4-word pool.

    SeedSequence reads a non-negative int as its 32-bit words, low first
    (0 as one zero word), and hashes zeros into the pool past a short
    entropy, so zero padding is exact while the entropy fits in 4 words.
    Mixing and ``generate_state(4, uint64)`` follow it word for word, as
    uint32 array expressions.  Each row holds, as uint64 (hi, lo) halves,
    x = seed + inc and inc: PCG64's set-seed steps the zero state to inc,
    adds the seed and steps again, so the state behind output k is
    mult^(k+2) x + G_(k+2) inc with G_j = sum_(i<j) mult^i
    (``pcg64_words``).
    """
    words = [] if prefix is None else [
        prefix >> s & _M32 for s in range(0, max(prefix.bit_length(), 1), 32)]
    c = np.asarray(counters, dtype=np.uint64).reshape(-1)
    width = len(words) + (1 if len(c) == 0 or c.max() <= _M32 else 2)
    if width > _POOL:
        return None
    e = np.zeros((len(c), _POOL), dtype=np.uint32)
    e[:, :len(words)] = words
    e[:, len(words)] = c & _M32
    e[:, len(words) + 1:width] = (c >> 32)[:, None]
    ha = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
    pool = _xorshift((e ^ ha[:_POOL]) * ha[1:_POOL + 1])
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        h = ha[_POOL + 3 * src:]
        mixed = _xorshift((pool[:, src, None] ^ h[:3]) * h[1:4])
        pool[:, dst] = _xorshift(pool[:, dst] * _MIX_L - mixed * _MIX_R)
    hb = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    out = _xorshift((np.tile(pool, 2) ^ hb[:-1]) * hb[1:]).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = (out[:, 0::2] | out[:, 1::2] << 32).T
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    x_lo = seed_lo + inc_lo
    x_hi = seed_hi + inc_hi + (x_lo < inc_lo)
    return np.stack([x_hi, x_lo, inc_hi, inc_lo], axis=1)


@lru_cache(maxsize=None)
def _jump_table(size: int) -> np.ndarray:
    """(4, size) uint64: hi and lo halves of mult^j, then of G_j, j < size.

    Callers ask for powers of two, so the cache holds a few tables.
    """
    mask = (1 << 128) - 1
    a, g, cols = 1, 0, []
    for _ in range(size):
        cols.append((a >> 64, a & (1 << 64) - 1, g >> 64, g & (1 << 64) - 1))
        a, g = a * _PCG_MULT & mask, (g + a) & mask
    table = np.array(cols, dtype=np.uint64).T.copy()
    table.setflags(write=False)
    return table


def _mul_wide(x: np.ndarray, y: np.ndarray):
    # (lo, hi) 64-bit halves of the 128-bit products x y, from 32-bit halves
    x0, x1, y0, y1 = x & _M32, x >> 32, y & _M32, y >> 32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return x * y, x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def pcg64_words(streams: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Outputs start..stop-1 of each stream, as ``PCG64.random_raw`` gives
    them: (rows, stop - start) uint64, each reached in one jump-ahead step
    (Brown 1994) and mapped by PCG64's XSL-RR output function."""
    x_hi, x_lo, i_hi, i_lo = streams.T[:, :, None]
    size = 1 << max(6, (stop + 1).bit_length())
    a_hi, a_lo, g_hi, g_lo = _jump_table(size)[:, start + 2:stop + 2]
    lo_a, hi_a = _mul_wide(a_lo, x_lo)
    lo_g, hi_g = _mul_wide(g_lo, i_lo)
    lo = lo_a + lo_g
    hi = (hi_a + hi_g + (lo < lo_g) + a_lo * x_hi + a_hi * x_lo
          + g_lo * i_hi + g_hi * i_lo)
    out = hi ^ lo
    rot = hi >> 58
    return out >> rot | out << (64 - rot & 63)


def half_bits(words: np.ndarray, count: int) -> np.ndarray:
    """An ``integers(0, 2, size=count)`` fill from consecutive words.

    Numpy takes one 32-bit output per entry, the low half of a word before
    its high half, and keeps Lemire's product's top bit: bit 31 of the half
    (the threshold is 0 at range 2).  An odd count leaves the last high
    half buffered for the generator's next 32-bit draw.
    """
    return np.stack([words >> 31 & 1, words >> 63], axis=-1).reshape(
        len(words), -1)[:, :count]


def uniforms(words: np.ndarray) -> np.ndarray:
    """``random()`` of each word: its top 53 bits over 2^53."""
    return (words >> 11) * (1.0 / 9007199254740992.0)


def draw_bit_rows(streams: np.ndarray, rows: int, n: int) -> np.ndarray:
    """``draw_rows``' binary (rows, n) stack for each of ``pcg64_streams``:
    the same single fill, from each stream's first words, as uint8."""
    words = pcg64_words(streams, 0, -(-rows * n // 2))
    return half_bits(words, rows * n).reshape(-1, rows, n).astype(np.uint8)
