"""Soft covering by enumeration: the test-side oracle of the dual transform.

``soft_covering_tv`` draws the same codes as
``cqic.mcsim.soft_covering_tv`` and takes each code's total variation
from a vⁿ-row table of pⁿ, every sequence labelled with its coset
(``_coset_labels``) and the masses summed per label (``_partition_tv``).
The library's transform must agree with it to 1e-12 wherever no pⁿ entry
underflows; nothing here calls the transform.
"""

import numpy as np

from cqic.errors import NumericalFailure
from cqic.gfcoset import random_nested_code
from cqic.mcsim import (_MAX_CODE_RETRIES, _gf_rank, _gf_rref, _lex_tuples,
                        _target_pmf)


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
    """Mean enumerated TV over the library's full-rank code draws."""
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
