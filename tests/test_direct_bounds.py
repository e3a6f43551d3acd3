"""Receiver cq-state entropies of the inner bounds, from the batched kernel.

The kernel must give bit for bit the values of the per-config
evaluation: one ``CqState`` per receiver, pooled here point by point,
with the scalar ``conditional_mutual_info`` of ``cq_oracle`` per direct
bound (Thm 1 and the unstructured bound) and its ``entropy`` per packing
bound of the layered checkers (Thm 2 and 3).  That evaluation never
calls the kernel.  The pinned scan, checker and layered values below
were recorded from it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqic import direct, layered
from cqic import regions as rg
from cqic.channels import build_ex1, build_ex2, build_ex3
from cqic.lp import feasible_point
from cqic.regions import (Thm1Config, Thm2Config, Thm3Config,
                          UnstructuredConfig, max_r1_scan, thm1_check,
                          thm2_feasible, thm3_feasible,
                          thm3_config_from_unstructured,
                          unstructured_3to1_check)
from cqic.states import (CqState, EntropyQuery, Pmf, mass_quotient,
                         mass_scale, shannon_entropy)
import closed_oracle as co
from cq_oracle import conditional_mutual_info, entropy


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
    monkeypatch.setattr(direct, "_parity_gamma_form", lambda c: None)
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


LAYERED_CASES = {
    "thm2-ex1-sum": (thm2_feasible, ex1, Thm2Config((2, 2, 2), (
        np.array([[[0.7, 0.3]]]),
        np.array([[[0.3, 0.2]], [[0.0, 0.5]]]),
        np.array([[[0.25, 0.25]], [[0.4, 0.1]]]))),
        (0.05, 0.02, 0.02), False),
    "thm2-ex3-f3-drop": (thm2_feasible, ex3, Thm2Config((3, 2, 3), (
        np.array([[[0.2, 0.1], [0.0, 0.3], [0.25, 0.15]]]),
        np.array([[[0.3, 0.1]], [[0.2, 0.0]], [[0.1, 0.3]]]),
        np.array([[[0.6, 0.4]]]))),
        (0.01, 0.01, 0.0), True),
    "thm3-ex2-v": (thm3_feasible, ex2, Thm3Config((2, 2, 2), (
        np.array([[[[[0.6, 0.4]]]]]),
        np.array([[[[[0.2, 0.1]]]], [[[[0.3, 0.4]]]]]),
        np.array([[[[[0.1, 0.2]], [[0.0, 0.2]]]],
                  [[[[0.3, 0.0]], [[0.1, 0.1]]]]]))),
        (0.02, 0.01, 0.01), False),
    "thm3-ex2-embedded": (thm3_feasible, ex2, thm3_config_from_unstructured(
        ex2(), CHECK_CASES["unstr-ex2-noisy"][2]),
        (0.001, 0.001, 0.001), False),
}

# verdict, (label, rhs) of every packing row, and the witness split
LAYERED_PINS = {
    "thm2-ex1-sum": (False, [
        ("thm2.chnl.j=1.A={}+X", "0.018348239774776065"),
        ("thm2.chnl.j=1.A={}+ij", "0.015152112813963114"),
        ("thm2.chnl.j=1.A={}+kj", "0.015152112813963114"),
        ("thm2.chnl.j=1.A={}+X+ij", "0.020746368864268172"),
        ("thm2.chnl.j=1.A={}+X+kj", "0.020746368864268172"),
        ("thm2.chnl.j=2.A={21}", "0.3958156020033585"),
        ("thm2.chnl.j=2.A={}+X", "0.6227697749079357"),
        ("thm2.chnl.j=2.A={21}+X", "0.7987239282640612"),
        ("thm2.chnl.j=3.A={31}", "0.07310400793181038"),
        ("thm2.chnl.j=3.A={}+X", "0.5749712093418169"),
        ("thm2.chnl.j=3.A={31}+X", "0.6246187762138296")], None),
    "thm2-ex3-f3-drop": (True, [
        ("thm2.chnl.j=1.A={13}", "0.349524008867963"),
        ("thm2.chnl.j=1.A={}+X", "0.4194954009333489"),
        ("thm2.chnl.j=1.A={13}+X", "0.47828419649530485"),
        ("thm2.chnl.j=1.A={13}+ij", "0.4971237572460301"),
        ("thm2.chnl.j=1.A={}+X+ij", "0.5122642475734152"),
        ("thm2.chnl.j=1.A={13}+X+ij", "0.5420601310635091"),
        ("thm2.chnl.j=2.A={21}", "0.3849625007211557"),
        ("thm2.chnl.j=2.A={}+X", "0.651764339400491"),
        ("thm2.chnl.j=2.A={21}+X", "0.8974208021655281"),
        ("thm2.chnl.j=3.A={}+X", "0.45390834580915373"),
        ("thm2.chnl.j=3.A={}+X+ij", "0.4679202520756416")],
        [("S13", "0.02401190726648763"), ("T13", "0.01"),
         ("K1", "0.33551210260147535"), ("L1", "0.0"),
         ("S21", "0.07303440683379393"), ("T21", "0.01"),
         ("K2", "0.3219280948873624"), ("L2", "0.0"),
         ("K3", "1e-09"), ("L3", "0.0")]),
    "thm3-ex2-v": (False, [
        ("thm3.chnl.j=1.A={}.C={}.D={}+X", "0.014690760765179833"),
        ("thm3.chnl.j=1.A={}.C={}.D={}+kj", "0.034105164650719555"),
        ("thm3.chnl.j=1.A={}.C={}.D={}+X+kj", "0.04393662797714337"),
        ("thm3.chnl.j=1.A={}.C={}.D={21}+X", "0.01529486316645201"),
        ("thm3.chnl.j=1.A={}.C={}.D={31}+X", "0.01510615741736987"),
        ("thm3.chnl.j=1.A={}.C={}.D={21}+X+kj", "0.04434426871178321"),
        ("thm3.chnl.j=1.A={}.C={}.D={31}+X+kj", "0.04434426871178365"),
        ("thm3.chnl.j=1.A={}.C={}.D={21,31}+X", "0.01529486316645201"),
        ("thm3.chnl.j=1.A={}.C={}.D={21,31}+X+kj", "0.04434426871178321"),
        ("thm3.chnl.j=2.A={}.C={21}.D={}", "0.0348515545596777"),
        ("thm3.chnl.j=2.A={}.C={}.D={}+X", "0.5436698243338363"),
        ("thm3.chnl.j=2.A={}.C={21}.D={}+X", "0.5658559609703964"),
        ("thm3.chnl.j=3.A={31}.C={}.D={}", "0.27548875021634656"),
        ("thm3.chnl.j=3.A={}.C={31}.D={}", "0.3999999999999999"),
        ("thm3.chnl.j=3.A={}.C={}.D={}+X", "0.774436926067184"),
        ("thm3.chnl.j=3.A={31}.C={31}.D={}", "0.5535606553289842"),
        ("thm3.chnl.j=3.A={31}.C={}.D={}+X", "0.9113114342323207"),
        ("thm3.chnl.j=3.A={}.C={31}.D={}+X", "0.9768789620429921"),
        ("thm3.chnl.j=3.A={31}.C={31}.D={}+X", "1.084565061739703")], None),
    "thm3-ex2-embedded": (True, [
        ("thm3.chnl.j=1.A={}.C={}.D={}+X", "0.24033052846892944"),
        ("thm3.chnl.j=1.A={}.C={}.D={21}+X", "0.2667882026871631"),
        ("thm3.chnl.j=1.A={}.C={}.D={31}+X", "0.257688717911029"),
        ("thm3.chnl.j=1.A={}.C={}.D={21,31}+X", "0.2706197287475911"),
        ("thm3.chnl.j=2.A={}.C={21}.D={}", "0.5567796494470394"),
        ("thm3.chnl.j=2.A={}.C={}.D={}+X", "0.7216977717036039"),
        ("thm3.chnl.j=2.A={}.C={21}.D={}+X", "1.0126027608307882"),
        ("thm3.chnl.j=3.A={}.C={31}.D={}", "0.3112781244591327"),
        ("thm3.chnl.j=3.A={}.C={}.D={}+X", "0.5767803276644922"),
        ("thm3.chnl.j=3.A={}.C={31}.D={}+X", "0.7235734301005443")],
        [("K1", "1e-09"), ("L1", "0.001"), ("B21", "1e-09"),
         ("N21", "0.001"), ("K2", "0.5567796494470394"), ("L2", "0.0"),
         ("B31", "1e-09"), ("N31", "0.001"),
         ("K3", "0.31127812445913294"), ("L3", "0.0")]),
}


@pytest.mark.parametrize("case", sorted(LAYERED_PINS))
def test_layered_reprs_pinned(case):
    check, build, cfg, rates, drop = LAYERED_CASES[case]
    rep = check(build(), cfg, rates, drop)
    rows = [(r.label, repr(r.rhs)) for r in rep.records
            if r.kind == "channel"]
    split = None if rep.witness is None else \
        [(n, repr(v)) for n, v in rep.witness.parts]
    assert (rep.feasible, rows, split) == LAYERED_PINS[case]


def test_subnormal_atom_gives_a_report():
    # 1/p overflows at p = 2.2e-311: the pooled conditional state used to
    # come out non-finite and raise NotHermitian
    spec = build_ex1(0.1, 0.1, 0.1, 0.5)
    cfg = Thm1Config(2, (1, 0), (1, 0), (2.2e-311, 1.0), (0, 0), (0, 0))
    rep = thm1_check(spec, cfg, (0.1, 0.1, 0.1))
    tiny = "-2.270360694769768e-308"
    assert [(r.label, repr(r.rhs)) for r in rep.records] == [
        ("thm1.r1", tiny), ("thm1.own.j=2", "0.0"), ("thm1.own.j=3", "0.0"),
        ("thm1.cross.j=2", tiny), ("thm1.cross.j=3", tiny),
        ("thm1.sum.j=2", tiny), ("thm1.sum.j=3", tiny),
        ("thm1.cost.j=1", "0.5"), ("thm1.cost.j=2", "0.0"),
        ("thm1.cost.j=3", "0.0")]
    assert _reprs(rg._thm1_bounds(spec, cfg)) == _reprs(oracle_thm1(spec, cfg))


# ---------------------------------------------------------------------------
# the per-config oracle

_Y = EntropyQuery((), True)


def _receiver_state(channel, j, regs, points):
    """cq state at receiver j over the classical registers ``regs``.

    ``points`` yields (register values, mass, channel input) triples;
    masses pool per register value, and each conditional state is the
    mass-weighted average of the receiver's outputs there.  Zero-mass
    points are skipped.
    """
    points = [(key, p, x) for key, p, x in points if p != 0.0]
    probs = np.zeros(tuple(size for _, size in regs))
    for key, p, _ in points:
        probs[key] += p
    acc = {}
    for key, p, x in points:
        mat = (p * mass_scale(probs[key])) * channel.reduced(j, x)
        cur = acc.get(key)
        acc[key] = mat if cur is None else cur + mat
    return CqState(regs, probs.ravel(),
                   {k: mass_quotient(m, probs[k]) for k, m in acc.items()})


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
    st1 = _receiver_state(channel, 0, (("U", v), ("X1", sizes[0])),
                             [(((u2 + u3) % v, x1), p, x)
                              for (u2, u3, x1), p, x in points])
    st2 = _receiver_state(channel, 1, (("U2", v),),
                             [(key[:1], p, x) for key, p, x in points])
    st3 = _receiver_state(channel, 2, (("U3", v),),
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
    st1 = _receiver_state(channel, 0,
                             (("U2", m2), ("U3", m3), ("X1", sizes[0])),
                             [((u2, u3, x1), p, x)
                              for (u2, _, u3, _, x1), p, x in points])
    st2 = _receiver_state(channel, 1, (("U2", m2), ("X2", sizes[1])),
                             [(key[:2], p, x) for key, p, x in points])
    st3 = _receiver_state(channel, 2, (("U3", m3), ("X3", sizes[2])),
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


def oracle_rx_entropies(channel, blocks, tpl):
    """H(S, Y) per register subset of each receiver of a layered template,
    one receiver at a time, each from one pooled ``CqState``."""
    return [oracle_one_rx(channel, blocks, tpl.fields, rx.j, rx.atoms,
                          rx.subsets) for rx in tpl.receivers]


def oracle_one_rx(channel, blocks, fields, j, atoms, subsets):
    """H(S, Y) per register subset, from one pooled ``CqState``.

    Points run over the product of the factor tables' supports, one
    Python tuple each, as the layered checkers once pooled them.
    """
    i, k = layered._OTHERS[j]

    def value(a, idx):
        if a.is_sum:
            return (idx[i][layered._u_axis(i, j)]
                    + idx[k][layered._u_axis(k, j)]) % fields[j]
        if a.pair is None:  # X_j
            return idx[j][4]
        t, r = a.pair
        return idx[t][layered._u_axis(t, r) if a.reg.startswith("U")
                      else layered._v_axis(t, r)]

    supports = [[(tuple(int(v) for v in key), float(b[tuple(key)]))
                 for key in np.argwhere(b > 0.0)] for b in blocks]
    points = []
    for (i0, p0), (i1, p1), (i2, p2) in itertools.product(*supports):
        idx = (i0, i1, i2)
        points.append((tuple(value(a, idx) for a in atoms), p0 * p1 * p2,
                       (i0[4], i1[4], i2[4])))
    state = _receiver_state(channel, j, tuple((a.reg, a.size) for a in atoms),
                            points)
    return {sub: entropy(state, EntropyQuery(sub, True)) for sub in subsets}


def _reprs(bounds):
    return [(k, repr(float(v))) for k, v in bounds.items()]


def _outcome(fn, *args):
    """Bound reprs, or the name of the error raised."""
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
        return co.map_table(draw(pmfs(m)), f, n)
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
# the engine against the oracle


@settings(max_examples=100, deadline=None)
@given(channels(), unstructured_configs())
def test_unstructured_one_config_matches_oracle(channel, cfg):
    assert _outcome(rg._unstructured_bounds, channel, cfg) == \
        _outcome(oracle_unstructured, channel, cfg)


@settings(max_examples=100, deadline=None)
@given(channels(), thm1_configs())
def test_thm1_one_config_matches_oracle(channel, cfg):
    assert _outcome(rg._thm1_bounds, channel, cfg) == \
        _outcome(oracle_thm1, channel, cfg)


def _grid_vs_oracle(channel, evaluator, cfgs):
    """Engine over the product of the configs' factors vs the oracle.

    Every config is compared by value.  If the oracle raises on some
    config, the engine must raise one of the oracle's errors for the
    grid.
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
    errors = {w for w in want.values() if isinstance(w, str)}
    if errors:
        with pytest.raises(Exception) as info:
            direct.direct_bounds(channel, evaluator, p1s, users2, users3)
        assert type(info.value).__name__ in errors
        return
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(2, 3), st.integers(1, 5), st.data())
def test_map_tables_match_per_config_loop(m, n, count, data):
    p = np.array([data.draw(pmfs(m)) for _ in range(count)])
    f = np.array(data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
        min_size=count, max_size=count)))
    tables = direct._map_tables(p, f, n)
    assert tables.shape == (count, m, n)
    for row in range(count):
        want = co.map_table(p[row], f[row], n)
        assert np.array_equal(tables[row].view(np.uint64),
                              want.view(np.uint64))
        assert np.array_equal(direct._map_tables(p[row], f[row], n)
                              .view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("evaluator", ["unstructured", "thm1"])
def test_block_boundaries_do_not_move_values(monkeypatch, evaluator):
    spec = ex2()
    p1s = direct._lattice_pmfs(2, 4)
    g2 = direct._binary_user_grid(spec, 1, 2, 3)
    g3 = direct._binary_user_grid(spec, 2, 2, 2)
    whole = direct._grid_bounds(spec, evaluator, p1s, g2, g3)
    assert math.prod(whole["r1_rhs"].shape) > direct.BLOCK
    monkeypatch.setattr(direct, "BLOCK", 7)
    blocked = direct._grid_bounds(spec, evaluator, p1s, g2, g3)
    assert list(blocked) == list(whole)
    for k in whole:
        assert np.array_equal(blocked[k].view(np.int64),
                              whole[k].view(np.int64)), k


# ---------------------------------------------------------------------------
# the layered checkers against the oracle

@st.composite
def layered_configs(draw, theorem):
    """Thm 2/3 configs over fields {2, 3}.  Each user has at most two
    layer axes of size > 1 (so the oracle's point loop stays short); the
    others have size 1.  Entries may be exactly zero."""
    fields = tuple(draw(st.sampled_from((2, 3))) for _ in range(3))
    factors = []
    for t in range(3):
        a, b = layered._OTHERS[t]
        sizes = [fields[a], fields[b]]
        if theorem == 3:
            sizes = [draw(st.integers(2, 3)), draw(st.integers(2, 3))] + sizes
        shown = draw(st.sets(st.sampled_from(range(len(sizes))), max_size=2))
        shape = tuple(n if ax in shown else 1
                      for ax, n in enumerate(sizes)) + (2,)
        factors.append(draw(pmfs(math.prod(shape))).reshape(shape))
    return (Thm2Config if theorem == 2 else Thm3Config)(fields,
                                                         tuple(factors))


def _layered_outcome(check, *args):
    """Verdict, every record and the witness, or the error raised."""
    try:
        rep = check(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__
    witness = None if rep.witness is None else \
        (rep.witness.rates, [(n, repr(v)) for n, v in rep.witness.parts])
    return (rep.feasible,
            [(r.label, repr(r.lhs), repr(r.rhs), repr(r.slack), r.kind)
             for r in rep.records], witness)


def _layered_vs_oracle(check, channel, cfg, rates, drop):
    got = _layered_outcome(check, channel, cfg, rates, drop)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layered, "_rx_entropies", oracle_rx_entropies)
        # build afresh, through the oracle, from an uncached template
        mp.setattr(layered, "_SYSTEMS", {})
        mp.setattr(layered, "_template", layered._template.__wrapped__)
        want = _layered_outcome(check, channel, cfg, rates, drop)
    assert got == want


_small_rates = st.tuples(*[st.floats(0.0, 0.05)] * 3)


@settings(max_examples=30, deadline=None)
@given(channels(), layered_configs(2), _small_rates, st.booleans())
def test_thm2_matches_oracle(channel, cfg, rates, drop):
    _layered_vs_oracle(thm2_feasible, channel, cfg, rates, drop)


@settings(max_examples=30, deadline=None)
@given(channels(), layered_configs(3), _small_rates, st.booleans())
def test_thm3_matches_oracle(channel, cfg, rates, drop):
    _layered_vs_oracle(thm3_feasible, channel, cfg, rates, drop)


def oracle_records(channel, cfg, rates, theorem, drop):
    """Every record as the row loop wrote it, one Python ``sum`` per row,
    from the same cached system and LP point."""
    rates = rg._rate_triple(rates)
    system = layered._cached_system(channel, cfg, theorem, drop)
    b = system.b.copy()
    b[-6:] = [v for r in rates for v in (r, -r)]
    _, x = feasible_point(system.a, b)
    rows = system.rows[:-3] + tuple(row[:4] + (r,) for row, r
                                    in zip(system.rows[-3:], rates))
    records = []
    for label, kind, coeffs, sense, rhs in rows:
        lhs = float(sum(c * x[system.col[nm]] for nm, c in coeffs.items()))
        if sense == "<":
            slack = rhs - lhs
        elif sense == ">":
            slack = lhs - rhs
        else:
            slack = -abs(lhs - rhs)
        records.append(rg.InequalityRecord(label, lhs, float(rhs),
                                           float(slack), kind))
    return tuple(records)


@settings(max_examples=60, deadline=None)
@given(channels(), st.sampled_from((2, 3)), st.data(),
       st.tuples(*[st.floats(0.0, 0.5)] * 3), st.booleans())
def test_records_match_row_loop(channel, theorem, data, rates, drop):
    # feasible and infeasible LP points alike
    cfg = data.draw(layered_configs(theorem))
    check = thm2_feasible if theorem == 2 else thm3_feasible
    try:
        rep = check(channel, cfg, rates, drop)
    except Exception as exc:  # compared, not swallowed
        with pytest.raises(type(exc)):
            oracle_records(channel, cfg, rates, theorem, drop)
        return
    assert repr(rep.records) == \
        repr(oracle_records(channel, cfg, rates, theorem, drop))


def test_subnormal_group_matches_oracle():
    # receiver 1 pools (U12, X1) = (1, 1) from one point of mass 4 ulps;
    # rounding p * rho to whole ulps left eigenvalue -0.059 (InvalidState)
    spec = build_ex2(2 * math.asin(math.sqrt(0.1)), 0.1, 0.1, 0.5)
    point = np.array([1.0, 0.0]).reshape(1, 1, 2)
    f1 = np.array([[0.25, 0.25], [0.5, 4 * 5e-324]]).reshape(2, 1, 2)
    cfg = Thm2Config((2, 2, 2), (f1, point, point))
    assert thm2_feasible(spec, cfg, (0.05, 0.0, 0.0)).feasible
    _layered_vs_oracle(thm2_feasible, spec, cfg, (0.05, 0.0, 0.0), False)


def test_entropy_plans_built_once_per_template_and_layout():
    # the direct and layered checks of a job list, twice over with fresh
    # numbers: one plan per layered template and per direct layout
    spec, rng, builds = ex2(), np.random.default_rng(1), []

    def counted(build):
        def plan(*args):
            builds.append(args)
            return build(*args)
        return plan

    def checks():
        for _ in range(4):
            p1 = rng.dirichlet((1.0, 1.0))
            rates = tuple(rng.uniform(0.0, 0.1, 3))
            cfg = UnstructuredConfig(p1, rng.dirichlet(np.ones(4)).reshape(
                2, 2), rng.dirichlet(np.ones(4)).reshape(2, 2))
            unstructured_3to1_check(spec, cfg, rates)
            thm3_feasible(spec, thm3_config_from_unstructured(spec, cfg),
                          rates)
            cfg = Thm1Config(2, tuple(p1), tuple(rng.dirichlet((2.0, 2.0))),
                             tuple(rng.dirichlet((2.0, 2.0))), (0, 1), (0, 1))
            thm1_check(spec, cfg, rates)
            thm2_feasible(spec, rg.thm2_config_from_thm1(spec, cfg), rates)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layered, "_SYSTEMS", {})
        mp.setattr(layered, "entropy_plan", counted(layered.entropy_plan))
        mp.setattr(direct, "entropy_plan", counted(direct.entropy_plan))
        layered._template.cache_clear()
        direct._layout.cache_clear()
        checks()
        built = len(builds)
        checks()
    assert len(builds) == built == 4
    assert layered._template.cache_info().misses == 2
    assert direct._layout.cache_info().misses == 2
