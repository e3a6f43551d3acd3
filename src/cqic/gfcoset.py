"""Prime-field arithmetic and nested coset codes with sum-coset closure.

A nested coset code over F_v maps an index pair (a, m) to
``a g_I + m g_{O/I} + b`` (all arithmetic mod v).  Two codes whose
generator rows are prefix-contained in each other sum into a single
coset of the containing code indexed by m2 + m3, which is the algebraic
fact the decoding construction rides on.

Randomness comes from numpy's PCG64 (``numpy.random.default_rng``),
seeded explicitly everywhere, so every experiment replays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    This is the one source of the draw order of random codes.  The whole
    stack is a single fill: numpy draws each entry of a bounded int64 fill
    from the generator's 32-bit stream in turn, so the entries equal those
    of separate fills for g_I, g_{O/I} and each bias.
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
