"""One simulation trial at a time: the test-side oracle of the block engine.

``_ex1_trial`` draws trial t's codes from its own stream, redrawing each
until its rank checks pass, shapes user 1's dither with bias retries, and
decodes with per-trial codebooks.  ``oracle_sim`` loops it over the
trials in order.  ``cqic.mcsim.run_ex1_sim`` must give its error counts,
codeword types and bias retries bit for bit; nothing here calls the
block engine.  ``selection_probabilities`` and ``_draw_index`` are the
scalar likelihood law and pick the engine's array forms must match.
``draw_unchecked`` is trial t's first attempt drawn through numpy's
``Generator``, which ``cqic.mcsim._draw_block`` must give bit for bit.
"""

from dataclasses import replace

import numpy as np

from cqic.errors import NumericalFailure, ZeroMassCoset
from cqic.gfcoset import (CodePair, NestedCosetCode, codeword, draw_rows,
                          enumerate_coset, random_code_pair,
                          random_nested_code, sum_code, sum_codeword)
from cqic.mcsim import (_MAX_BIAS_RETRIES, _MAX_CODE_RETRIES, SimConfig,
                        _dims, _Draws, _gf_rank, _hamming, _lex_tuples, _pack,
                        _target_pmf)


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


def oracle_sim(cfg: SimConfig):
    """(error_counts, codeword_types, bias_retries) of the trials in order."""
    outs = [_ex1_trial(cfg, t) for t in range(cfg.trials)]
    counts = tuple(sum(out[0][j] for out in outs) for j in range(3))
    types = tuple(float(np.mean([out[1][j] for out in outs])) for j in range(3))
    return counts, types, sum(out[2] for out in outs)


def draw_unchecked(cfg: SimConfig, t: int, d: _Draws, b: int):
    """Trial t's draws into row b of d, from its own stream in its own
    order, as if no code were redrawn and no bias retried."""
    n = cfg.n
    k1, l1, k2, l2, k3, l3, ks, ls = _dims(cfg)
    rng = np.random.default_rng([cfg.rng_seed, t])
    d.pair[b] = draw_rows(n, ks, ls, 2, 2, int(rng.integers(0, 2 ** 63)))
    d.code1[b] = draw_rows(n, k1, l1, 1, 2, int(rng.integers(0, 2 ** 63)))
    if cfg.tau1 is None:
        d.msg[b] = rng.integers(0, 2, size=d.msg.shape[1])
    else:
        d.msg[b, :l1] = rng.integers(0, 2, size=l1)
        d.u[b] = rng.random()
        d.msg[b, l1 + k1:] = rng.integers(0, 2, size=d.msg.shape[1] - l1 - k1)
    d.noise[b] = rng.random(3 * n)
