"""One layered builder for Thm 2 and Thm 3 against the two-branch oracle.

``cqic.layered._layered_system`` builds both theorems' covering (source)
rows with one loop; ``layered_oracle.layered_rows`` keeps the per-theorem
branches it replaced.  Over random configs, with every U, V and X layer
present or absent, each row must come out the same: label, coefficient
names and values in order, sense and the rhs bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cqic import layered
from cqic.channels import build_ex1, build_ex2, build_ex3
from cqic.regions import Thm2Config, Thm3Config
from layered_oracle import layered_rows

CHANNELS = (build_ex1(0.1, 0.12, 0.08, 0.5),
            build_ex2(math.pi / 3, 0.1, 0.1, 0.5),
            build_ex3(1.0, 0.1, 0.12, 0.4, 0.38, 0.42))

#: how an axis carries its layer: spread over its symbols (present), of
#: size 1 or all mass on one symbol (absent)
_MODES = ("present", "size1", "point")


@st.composite
def layered_cases(draw):
    """(channel, theorem, config, drop_dont_care) over fields {2, 3}."""
    channel = draw(st.sampled_from(CHANNELS))
    theorem = draw(st.sampled_from((2, 3)))
    fields = tuple(draw(st.sampled_from((2, 3))) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = []
    for t in range(3):
        a, b = layered._OTHERS[t]
        sizes = [fields[a], fields[b]]
        if theorem == 3:
            sizes = [draw(st.integers(2, 3)), draw(st.integers(2, 3))] + sizes
        modes = [draw(st.sampled_from(_MODES)) for _ in sizes]
        modes.append(draw(st.sampled_from(("present", "point"))))  # X
        sizes.append(channel.input_sizes[t])
        index = []
        for mode, n in zip(modes, sizes):
            if mode == "present":
                index.append(slice(None))
            elif mode == "size1":
                index.append(slice(0, 1))
            else:
                k = draw(st.integers(0, n - 1))
                index.append(slice(k, k + 1))
        shape = tuple(1 if m == "size1" else n for m, n in zip(modes, sizes))
        tab = np.zeros(shape)
        sub = tab[tuple(index)]
        weights = rng.random(sub.shape)
        if draw(st.booleans()):  # some exact zeros
            weights *= rng.random(sub.shape) < 0.7
        weights.flat[draw(st.integers(0, weights.size - 1))] += 0.1
        tab[tuple(index)] = weights / weights.sum()
        factors.append(tab)
    cfg = (Thm2Config if theorem == 2 else Thm3Config)(fields, tuple(factors))
    return channel, theorem, cfg, draw(st.booleans())


def _bits(rhs):
    return None if rhs is None else int(np.float64(rhs).view(np.uint64))


def _row_key(row):
    label, kind, coeffs, sense, rhs = row
    return (label, kind, [(nm, repr(c)) for nm, c in coeffs.items()], sense,
            _bits(rhs))


@settings(max_examples=150, deadline=None)
@given(layered_cases())
def test_one_builder_matches_two_branch_oracle(case):
    channel, theorem, cfg, drop = case
    system = layered._layered_system(channel, cfg, theorem, drop)
    names, rows = layered_rows(channel, cfg, theorem, drop)
    assert system.names == names
    assert [r[0] for r in system.rows] == [r[0] for r in rows]
    got = [_row_key(r) for r in system.rows]
    want = [_row_key(r) for r in rows]
    assert [k for k in got if k[1] == "source"] == \
        [k for k in want if k[1] == "source"]
    assert [k for k in got if k[1] != "source"] == \
        [k for k in want if k[1] != "source"]
    assert all(lbl.startswith(f"thm{theorem}.") for lbl, *_ in got)

