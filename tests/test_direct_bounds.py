"""Direct inner bounds (Thm 1 and the unstructured bound).

The batched engine in :mod:`cqic.direct` must give bit for bit the
values of the per-config evaluation: one ``CqState`` per receiver and
``conditional_mutual_info`` per bound.  That evaluation is kept here as
the oracle.  The pinned scan and checker values below were recorded
from it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cqic import direct
from cqic import regions as rg
from cqic.channels import build_ex1, build_ex2, build_ex3
from cqic.regions import (Thm1Config, UnstructuredConfig, max_r1_scan,
                          thm1_check, unstructured_3to1_check)
from cqic.states import (EntropyQuery, Pmf, conditional_mutual_info,
                         shannon_entropy)


def ex1():
    return build_ex1(0.1, 0.12, 0.08, 0.5)


def ex2():
    return build_ex2(math.pi / 3, 0.1, 0.1, 0.5)


def ex3():
    return build_ex3(1.0, 0.1, 0.12, 0.4, 0.38, 0.42)


def _best_repr(cfg):
    if cfg is None:
        return None
    if isinstance(cfg, UnstructuredConfig):
        return repr((cfg.p_x1.tolist(), cfg.p_u2x2.tolist(),
                     cfg.p_u3x3.tolist()))
    return repr((cfg.field_size, [float(x) for x in cfg.p_x1],
                 [float(x) for x in cfg.p_u2], [float(x) for x in cfg.p_u3],
                 cfg.f2, cfg.f3))


def _scan_pin(res):
    return (repr(res.r1_max), repr(res.grid_value), res.evaluations,
            _best_repr(res.best))


# (r1_max, grid_value, evaluations, best) of generic-path scans
SCAN_PINS = {
    "ex1-thm1-2": ("0.5110044064107195",
                   "0.5110044064107195",
                   424,
                   "(2, [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], (0, 1), (0, 1))"),
    "ex1-thm1-f3": ("0.011004406410719553",
                    "0.011004406410719553",
                    4744,
                    "(3, [0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0], (0, "
                    "1, 0), (0, 1, 0))"),
    "ex3-unstructured-3": ("0.7074654561105798",
                           "0.7069635496216209",
                           264,
                           "([0.600000003973643, 0.39999999602635705], "
                           "[[0.6666666666666666, 0.0], [0.0, "
                           "0.3333333333333333]], [[0.6666666666666666, "
                           "0.0], [0.0, 0.3333333333333333]])"),
    "ex3-thm1-3": ("0.35460265456298795",
                   "0.3541007480740291",
                   264,
                   "(2, [0.600000003973643, 0.39999999602635705], "
                   "[0.6666666666666666, 0.3333333333333333], "
                   "[0.6666666666666666, 0.3333333333333333], (0, 1), (0, "
                   "1))"),
    "ex2-unstructured-False": ("0.511278124459133",
                               "0.511278124459133",
                               1200,
                               "([0.75, 0.25], [[0.5, 0.0], [0.0, 0.5]], "
                               "[[0.5, 0.0], [0.0, 0.5]])"),
    "ex2-unstructured-True": ("0.511278124459133",
                              "0.511278124459133",
                              1336,
                              "([0.75, 0.25], [[0.5, 0.0], [0.0, 0.5]], "
                              "[[0.5, 0.0], [0.0, 0.5]])"),
    "ex2-thm1-False": ("0.611278124459133",
                       "0.611278124459133",
                       1200,
                       "(2, [0.75, 0.25], [0.5, 0.5], [0.5, 0.5], (0, 1), "
                       "(0, 1))"),
    "ex2-thm1-True": ("0.6112781244591332",
                      "0.611278124459133",
                      1336,
                      "(2, [0.7734375, 0.2265625], [0.5, 0.5], [0.5, 0.5], "
                      "(0, 1), (0, 1))"),
}

SCAN_CASES = {
    "ex1-thm1-2": (ex1, 0.02, 0.02, dict(evaluator="thm1", denominator=2)),
    "ex1-thm1-f3": (ex1, 0.02, 0.02, dict(evaluator="thm1", field_size=3,
                                          denominator=2)),
    "ex3-unstructured-3": (ex3, 0.04, 0.03, dict(evaluator="unstructured",
                                                 denominator=3)),
    "ex3-thm1-3": (ex3, 0.04, 0.03, dict(evaluator="thm1", denominator=3)),
}
for _ev in ("unstructured", "thm1"):
    for _refine in (False, True):
        SCAN_CASES[f"ex2-{_ev}-{_refine}"] = (
            ex2, 0.2, 0.1, dict(evaluator=_ev, denominator=4, refine=_refine))


@pytest.mark.parametrize("case", sorted(SCAN_PINS))
def test_scan_reprs_pinned(monkeypatch, case):
    build, r2, r3, kwargs = SCAN_CASES[case]
    # ex2 is in the closed-form family: force the generic path
    monkeypatch.setattr(rg, "_parity_gamma_form", lambda c: None)
    assert _scan_pin(max_r1_scan(build(), r2, r3, **kwargs)) == SCAN_PINS[case]


CHECK_CASES = {
    "unstr-ex2-noisy": (unstructured_3to1_check, ex2, UnstructuredConfig(
        np.array([0.7, 0.3]), np.array([[0.3, 0.1], [0.0, 0.6]]),
        np.array([[0.25, 0.25], [0.5, 0.0]])), (0.1, 0.05, 0.05)),
    "unstr-ex1-m3": (unstructured_3to1_check, ex1, UnstructuredConfig(
        np.array([1.0, 0.0]), np.array([[0.2, 0.1], [0.0, 0.0], [0.3, 0.4]]),
        np.array([[0.15, 0.35], [0.4, 0.1]])), (0.0, 0.1, 0.1)),
    "unstr-ex3-m1": (unstructured_3to1_check, ex3, UnstructuredConfig(
        np.array([0.55, 0.45]), np.array([[0.6, 0.4]]),
        np.array([[0.1, 0.2], [0.0, 0.3], [0.25, 0.15]])),
        (0.05, 0.02, 0.02)),
    "thm1-ex2-zero": (thm1_check, ex2, Thm1Config(
        2, (0.8, 0.2), (1.0, 0.0), (0.35, 0.65), (0, 1), (1, 1)),
        (0.1, 0.0, 0.1)),
    "thm1-ex3-f3": (thm1_check, ex3, Thm1Config(
        3, (0.6, 0.4), (0.2, 0.0, 0.8), (0.3, 0.3, 0.4), (0, 1, 1),
        (1, 0, 1)), (0.05, 0.05, 0.05)),
    "thm1-ex1-f5": (thm1_check, ex1, Thm1Config(
        5, (0.0, 1.0), (0.1, 0.2, 0.0, 0.3, 0.4), (0.2, 0.2, 0.2, 0.2, 0.2),
        (0, 1, 0, 1, 1), (1, 1, 0, 0, 1)), (0.0, 0.05, 0.05)),
}

# (label, lhs, rhs) of every record: zero-mass atoms, noisy cloud tables
CHECK_PINS = {
    "unstr-ex2-noisy": [("unstr.r1", "0.1", "0.24033052846892922"),
                        ("unstr.own.j=2", "0.05", "0.455823111383749"),
                        ("unstr.own.j=3", "0.05", "0.41229530564141115"),
                        ("unstr.pair.j=2",
                         "0.15000000000000002",
                         "0.43170632494372774"),
                        ("unstr.pair.j=3",
                         "0.15000000000000002",
                         "0.5231909211163878"),
                        ("unstr.sum", "0.2", "0.7010400542095151"),
                        ("unstr.cost.j=1", "0.3", "0.5"),
                        ("unstr.cost.j=2", "0.0", "0.0"),
                        ("unstr.cost.j=3", "0.0", "0.0")],
    "unstr-ex1-m3": [("unstr.r1", "0.0", "0.0"),
                     ("unstr.own.j=2", "0.1", "0.47063913471263596"),
                     ("unstr.own.j=3", "0.1", "0.5927249790976159"),
                     ("unstr.pair.j=2", "0.1", "0.45636561254276165"),
                     ("unstr.pair.j=3", "0.1", "0.46585692836554304"),
                     ("unstr.sum", "0.2", "0.9167111769938895"),
                     ("unstr.cost.j=1", "0.0", "0.5"),
                     ("unstr.cost.j=2", "0.0", "0.0"),
                     ("unstr.cost.j=3", "0.0", "0.0")],
    "unstr-ex3-m1": [("unstr.r1", "0.05", "0.3111600725457384"),
                     ("unstr.own.j=2", "0.02", "0.5124583014443722"),
                     ("unstr.own.j=3", "0.02", "0.43280876793195366"),
                     ("unstr.pair.j=2", "0.07", "0.8236183739901106"),
                     ("unstr.pair.j=3", "0.07", "0.6166409421371459"),
                     ("unstr.sum",
                      "0.09000000000000001",
                      "1.1290992435815181"),
                     ("unstr.cost.j=1", "0.45", "0.4"),
                     ("unstr.cost.j=2", "0.4", "0.38"),
                     ("unstr.cost.j=3", "0.65", "0.42")],
    "thm1-ex2-zero": [("thm1.r1", "0.1", "0.5827831343002601"),
                      ("thm1.own.j=2", "0.0", "0.0"),
                      ("thm1.own.j=3", "0.1", "0.0"),
                      ("thm1.cross.j=2", "0.0", "-0.9340680553754908"),
                      ("thm1.cross.j=3", "0.1", "-0.9340680553754908"),
                      ("thm1.sum.j=2", "0.1", "-0.3512849210752307"),
                      ("thm1.sum.j=3", "0.2", "-0.3512849210752307"),
                      ("thm1.cost.j=1", "0.2", "0.5"),
                      ("thm1.cost.j=2", "0.0", "0.0"),
                      ("thm1.cost.j=3", "0.0", "0.0")],
    "thm1-ex3-f3": [("thm1.r1", "0.05", "0.5749792956266941"),
                    ("thm1.own.j=2", "0.05", "0.3577507789033365"),
                    ("thm1.own.j=3", "0.05", "0.40290832626070294"),
                    ("thm1.cross.j=2", "0.05", "-0.7901662822233959"),
                    ("thm1.cross.j=3", "0.05", "-0.7901662822233959"),
                    ("thm1.sum.j=2", "0.1", "-0.2801165306806761"),
                    ("thm1.sum.j=3", "0.1", "-0.2801165306806761"),
                    ("thm1.cost.j=1", "0.4", "0.4"),
                    ("thm1.cost.j=2", "0.8", "0.38"),
                    ("thm1.cost.j=3", "0.7", "0.42")],
    "thm1-ex1-f5": [("thm1.r1", "0.0", "0.0"),
                    ("thm1.own.j=2", "0.05", "0.18449473022028273"),
                    ("thm1.own.j=3", "0.05", "0.5773646293271906"),
                    ("thm1.cross.j=2", "0.05", "-0.39558364191503337"),
                    ("thm1.cross.j=3", "0.05", "-0.39558364191503337"),
                    ("thm1.sum.j=2", "0.05", "-0.39558364191503337"),
                    ("thm1.sum.j=3", "0.05", "-0.39558364191503337"),
                    ("thm1.cost.j=1", "1.0", "0.5"),
                    ("thm1.cost.j=2", "0.0", "0.0"),
                    ("thm1.cost.j=3", "0.0", "0.0")],
}


@pytest.mark.parametrize("case", sorted(CHECK_PINS))
def test_checker_reprs_pinned(case):
    check, build, cfg, rates = CHECK_CASES[case]
    rep = check(build(), cfg, rates)
    got = [(r.label, repr(r.lhs), repr(r.rhs)) for r in rep.records]
    assert got == CHECK_PINS[case]


# ---------------------------------------------------------------------------
# the per-config oracle

_Y = EntropyQuery((), True)


def _eq(*names):
    return EntropyQuery(names)


def oracle_thm1(channel, cfg):
    v = int(cfg.field_size)
    sizes = channel.input_sizes
    px1, pu2, pu3 = Pmf(cfg.p_x1), Pmf(cfg.p_u2), Pmf(cfg.p_u3)
    f2 = tuple(int(x) for x in cfg.f2)
    f3 = tuple(int(x) for x in cfg.f3)
    p1, p2, p3 = px1.probs, pu2.probs, pu3.probs
    points = [((u2, u3, x1), p2[u2] * p3[u3] * p1[x1], (x1, f2[u2], f3[u3]))
              for u2 in range(v) for u3 in range(v)
              for x1 in range(sizes[0])]
    st1 = rg._receiver_state(channel, 0, (("U", v), ("X1", sizes[0])),
                             [(((u2 + u3) % v, x1), p, x)
                              for (u2, u3, x1), p, x in points])
    st2 = rg._receiver_state(channel, 1, (("U2", v),),
                             [(key[:1], p, x) for key, p, x in points])
    st3 = rg._receiver_state(channel, 2, (("U3", v),),
                             [(key[1:2], p, x) for key, p, x in points])
    p_u = np.zeros(v)
    for u2 in range(v):
        for u3 in range(v):
            p_u[(u2 + u3) % v] += p2[u2] * p3[u3]
    h_u = shannon_entropy(p_u)
    h_min = min(pu2.entropy(), pu3.entropy())
    k1, k2, k3 = channel.costs
    return {
        "r1_rhs": conditional_mutual_info(st1, _eq("X1"), _Y, _eq("U")),
        "own2": conditional_mutual_info(st2, _eq("U2"), _Y),
        "own3": conditional_mutual_info(st3, _eq("U3"), _Y),
        "cross_rhs": conditional_mutual_info(st1, _eq("U"), _Y, _eq("X1"))
                     - h_u + h_min,
        "sum_rhs": conditional_mutual_info(st1, _eq("U", "X1"), _Y)
                   - h_u + h_min,
        "e1": float(p1 @ k1),
        "e2": float(sum(p2[u] * k2[f2[u]] for u in range(v))),
        "e3": float(sum(p3[u] * k3[f3[u]] for u in range(v))),
    }


def oracle_unstructured(channel, cfg):
    sizes = channel.input_sizes
    p1 = Pmf(cfg.p_x1).probs
    j2 = np.asarray(cfg.p_u2x2, dtype=float)
    j3 = np.asarray(cfg.p_u3x3, dtype=float)
    m2, m3 = j2.shape[0], j3.shape[0]
    points = [((u2, x2, u3, x3, x1), j2[u2, x2] * j3[u3, x3] * p1[x1],
               (x1, x2, x3))
              for u2, x2 in np.ndindex(m2, sizes[1])
              for u3, x3 in np.ndindex(m3, sizes[2])
              for x1 in range(sizes[0])]
    st1 = rg._receiver_state(channel, 0,
                             (("U2", m2), ("U3", m3), ("X1", sizes[0])),
                             [((u2, u3, x1), p, x)
                              for (u2, _, u3, _, x1), p, x in points])
    st2 = rg._receiver_state(channel, 1, (("U2", m2), ("X2", sizes[1])),
                             [(key[:2], p, x) for key, p, x in points])
    st3 = rg._receiver_state(channel, 2, (("U3", m3), ("X3", sizes[2])),
                             [(key[2:4], p, x) for key, p, x in points])
    k1, k2, k3 = channel.costs
    return {
        "r1_rhs": conditional_mutual_info(st1, _eq("X1"), _Y,
                                          _eq("U2", "U3")),
        "pair2": conditional_mutual_info(st1, _eq("U2", "X1"), _Y,
                                         _eq("U3")),
        "pair3": conditional_mutual_info(st1, _eq("U3", "X1"), _Y,
                                         _eq("U2")),
        "total1": conditional_mutual_info(st1, _eq("U2", "U3", "X1"), _Y),
        "own2": conditional_mutual_info(st2, _eq("U2", "X2"), _Y),
        "own3": conditional_mutual_info(st3, _eq("U3", "X3"), _Y),
        "refine2": conditional_mutual_info(st2, _eq("X2"), _Y, _eq("U2")),
        "refine3": conditional_mutual_info(st3, _eq("X3"), _Y, _eq("U3")),
        "e1": float(p1 @ k1),
        "e2": float(j2.sum(axis=0) @ k2),
        "e3": float(j3.sum(axis=0) @ k3),
    }


def _reprs(bounds):
    return [(k, repr(float(v))) for k, v in bounds.items()]


def _outcome(fn, *args):
    """Bound reprs, or the error raised (subnormal masses overflow 1/p)."""
    try:
        return _reprs(fn(*args))
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__


# ---------------------------------------------------------------------------
# random channels and configs

_rates = st.floats(0.05, 0.45)


@st.composite
def channels(draw):
    family = draw(st.sampled_from(("ex1", "ex2", "ex3")))
    if family == "ex1":
        return build_ex1(draw(_rates), draw(_rates), draw(_rates),
                         draw(st.floats(0.1, 0.5)))
    phi = draw(st.floats(0.2, 1.5))
    if family == "ex2":
        return build_ex2(phi, draw(_rates), draw(_rates),
                         draw(st.floats(0.1, 0.5)))
    return build_ex3(phi, draw(_rates), draw(_rates),
                     *(draw(st.floats(0.1, 0.45)) for _ in range(3)))


@st.composite
def pmfs(draw, n, zeros=True):
    """Pmfs on n atoms; some atoms may get exactly zero mass."""
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if zeros:
        w = w * np.array(draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)))
    if w.sum() <= 1e-3:
        w[draw(st.integers(0, n - 1))] = 1.0
    return w / w.sum()


@st.composite
def cloud_tables(draw, m, n):
    """Joint (cloud, input) tables: noisy, deterministic or with zero rows."""
    kind = draw(st.sampled_from(("noisy", "map", "zeros")))
    if kind == "map":
        f = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        return rg._map_table(draw(pmfs(m)), f, n)
    return draw(pmfs(m * n, zeros=kind == "zeros")).reshape(m, n)


@st.composite
def unstructured_configs(draw, m2=None, m3=None):
    m2 = draw(st.integers(1, 3)) if m2 is None else m2
    m3 = draw(st.integers(1, 3)) if m3 is None else m3
    return UnstructuredConfig(draw(pmfs(2)), draw(cloud_tables(m2, 2)),
                              draw(cloud_tables(m3, 2)))


def _maps(v):
    return st.lists(st.integers(0, 1), min_size=v, max_size=v).map(tuple)


@st.composite
def thm1_configs(draw, v=None):
    v = draw(st.sampled_from((2, 3, 5))) if v is None else v
    return Thm1Config(v, tuple(draw(pmfs(2))), tuple(draw(pmfs(v))),
                      tuple(draw(pmfs(v))), draw(_maps(v)), draw(_maps(v)))


# ---------------------------------------------------------------------------
# the engine against the oracle (on one config both overflow 1/p on
# subnormal masses)

_overflow_ok = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@_overflow_ok
@settings(max_examples=100, deadline=None)
@given(channels(), unstructured_configs())
def test_unstructured_one_config_matches_oracle(channel, cfg):
    assert _outcome(rg._unstructured_bounds, channel, cfg) == \
        _outcome(oracle_unstructured, channel, cfg)


@_overflow_ok
@settings(max_examples=100, deadline=None)
@given(channels(), thm1_configs())
def test_thm1_one_config_matches_oracle(channel, cfg):
    assert _outcome(rg._thm1_bounds, channel, cfg) == \
        _outcome(oracle_thm1, channel, cfg)


def _grid_vs_oracle(channel, evaluator, cfgs):
    """Engine over the product of the configs' factors vs the oracle.

    Masses are kept above 1e-100, so that every product of three stays a
    normal float and every config of the grid is compared by value.
    """
    p1s = [np.asarray(c.p_x1, dtype=float) for c in cfgs]
    if evaluator == "thm1":
        users2 = [(np.asarray(c.p_u2, dtype=float), c.f2) for c in cfgs]
        users3 = [(np.asarray(c.p_u3, dtype=float), c.f3) for c in cfgs]
        oracle = oracle_thm1
    else:
        users2 = [c.p_u2x2 for c in cfgs]
        users3 = [c.p_u3x3 for c in cfgs]
        oracle = oracle_unstructured
    fields = (("p_x1", "p_u2", "p_u3") if evaluator == "thm1"
              else ("p_x1", "p_u2x2", "p_u3x3"))
    masses = np.concatenate([np.ravel(getattr(c, f)) for c in cfgs
                             for f in fields])
    assume(masses[masses > 0.0].min() > 1e-100)
    n = len(cfgs)
    want = {}
    for i1, i2, i3 in np.ndindex(n, n, n):
        if evaluator == "thm1":
            c2, c3 = cfgs[i2], cfgs[i3]
            cfg = Thm1Config(c2.field_size, cfgs[i1].p_x1, c2.p_u2, c3.p_u3,
                             c2.f2, c3.f3)
        else:
            cfg = UnstructuredConfig(cfgs[i1].p_x1, cfgs[i2].p_u2x2,
                                     cfgs[i3].p_u3x3)
        want[i1, i2, i3] = _outcome(oracle, channel, cfg)
    got = direct.direct_bounds(channel, evaluator, p1s, users2, users3)
    for idx, w in want.items():
        assert [(k, repr(float(v[idx]))) for k, v in got.items()] == w


@settings(max_examples=25, deadline=None)
@given(channels(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_unstructured_grid_matches_oracle(channel, m2, m3, data):
    cfgs = data.draw(st.lists(unstructured_configs(m2, m3), min_size=2,
                              max_size=4))
    _grid_vs_oracle(channel, "unstructured", cfgs)


@settings(max_examples=25, deadline=None)
@given(channels(), st.sampled_from((2, 3, 5)), st.data())
def test_thm1_grid_matches_oracle(channel, v, data):
    cfgs = data.draw(st.lists(thm1_configs(v), min_size=2, max_size=4))
    _grid_vs_oracle(channel, "thm1", cfgs)


@pytest.mark.parametrize("evaluator", ["unstructured", "thm1"])
def test_block_boundaries_do_not_move_values(monkeypatch, evaluator):
    spec = ex2()
    p1s = rg._lattice_pmfs(2, 4)
    g2 = rg._binary_user_grid(spec, 1, 2, 3)
    g3 = rg._binary_user_grid(spec, 2, 2, 2)
    whole = rg._grid_bounds(spec, evaluator, p1s, g2, g3)
    assert math.prod(whole["r1_rhs"].shape) > direct.BLOCK
    monkeypatch.setattr(direct, "BLOCK", 7)
    blocked = rg._grid_bounds(spec, evaluator, p1s, g2, g3)
    assert list(blocked) == list(whole)
    for k in whole:
        assert np.array_equal(blocked[k].view(np.int64),
                              whole[k].view(np.int64)), k
