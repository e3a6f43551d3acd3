"""The staged closed-form scan against the per-call oracle, bit for bit.

``closed_oracle`` keeps the closed form as one call over the full
broadcast grid; ``cqic.direct`` evaluates a p1-free stage once per scan,
on a channel-free frame cached once per user-grid pair, and every
entropy term once per distinct argument.  Every bound value,
user grid entry and scan result must agree exactly (compared as uint64
views, so -0.0 against 0.0 counts as a difference).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_oracle as co
from cqic import cli, direct, states
from cqic import regions as rg
from cqic.channels import ChannelSpec, CostVector, build_ex1, build_ex2, \
    build_ex3, gamma_state, sigma_state

PHI = 0.9
#: (user-symbol counts, denominator) of the unstructured scans of
#: criterion 4; Thm 1 runs on the binary field only
SIZES = {"unstructured": (((2, 2), 32), ((3, 3), 6), ((4, 4), 3)),
         "thm1": (((2, 2), 32),)}
#: user-1 budgets 1/32 and 2/32 and none, and 0.3, off every grid, so
#: that the zoom moves past the grid value; "costed" channels also charge
#: users 2 and 3, so the user grids lose rows to the budget masks
BUDGETS = (("ex2", 1 / 32), ("costed", 2 / 32), ("costed", None),
           ("ex2", 0.3))
CASES = [(ev, sizes, denom, kind, tau)
         for ev in ("unstructured", "thm1")
         for sizes, denom in SIZES[ev] for kind, tau in BUDGETS]


def _channel(kind, tau):
    spec = build_ex2(PHI, 0.1, 0.15, 0.5)
    costs, budget = spec.costs, None
    if kind == "costed":
        costs = (np.arange(2.0),) * 3
    if tau is not None:
        budget = CostVector(tau, *((0.3, 0.2) if kind == "costed"
                                   else (0.0, 0.0)))
    return ChannelSpec(spec.input_sizes, spec.output_dims, spec.states,
                       costs, budget)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _taus(spec):
    budget = spec.budget
    return budget.as_tuple() if budget is not None else (math.inf,) * 3


def _grids(spec, evaluator, sizes, denom):
    """The budget-filtered user-1 pmfs and user grids, staged and oracle."""
    prob = rg.active_tolerances().prob
    taus = _taus(spec)
    p1s = [p for p in co.lattice_pmfs(2, denom)
           if float(p @ spec.costs[0]) <= taus[0] + prob]
    new, old = [], []
    for j, n in ((1, sizes[0]), (2, sizes[1])):
        grid = direct._binary_user_grid(spec, j, n, denom)
        new.append(direct._grid_rows(grid, grid.cost <= taus[j] + prob))
        old.append([c for c in co.binary_user_grid(spec, j, n, denom)
                    if c[3] <= taus[j] + prob])
    return p1s, new, old


_any_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.floats(-0.1, 1.1), st.sampled_from((0.0, -0.0, 1.0,
                                                              5e-324)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_any_floats, min_size=1, max_size=12), st.booleans(),
       st.floats(0.01, 1.56))
def test_entropy_terms_match_oracle(values, scalar, phi):
    t = np.array(values[0]) if scalar else np.array(values)
    assert _same_bits(states._hb_arr(t), co.hb_arr(t))
    assert _same_bits(direct._haf_arr(t, phi), co.haf_arr(t, phi))
    assert np.shape(states._hb_arr(t)) == np.shape(t)


@pytest.mark.parametrize("n_sym,denom", [(2, 32), (3, 6), (4, 3)])
def test_user_grids_match_oracle(n_sym, denom):
    spec = _channel("costed", 2 / 32)
    for j in (1, 2):
        grid = direct._binary_user_grid(spec, j, n_sym, denom)
        old = co.binary_user_grid(spec, j, n_sym, denom)
        assert len(grid.p) == len(old)
        assert _same_bits(grid.p, [c[0] for c in old])
        assert grid.f.tolist() == [list(c[1]) for c in old]
        assert _same_bits(grid.q, [c[2] for c in old])
        assert _same_bits(grid.cost, [c[3] for c in old])
        # point masses on either input
        assert grid.q.min() == 0.0 and grid.q.max() == 1.0
        assert not any(a.flags.writeable for a in grid if a is not None)
        assert direct._binary_user_grid(spec, j, n_sym, denom) is grid
    assert _same_bits(direct._lattice_pmfs(n_sym, denom),
                      co.lattice_pmfs(n_sym, denom))


@pytest.mark.parametrize("evaluator,sizes,denom,kind,tau", CASES)
def test_bound_values_match_oracle(evaluator, sizes, denom, kind, tau):
    spec = _channel(kind, tau)
    form = direct._parity_gamma_form(spec)
    p1s, (g2, g3), (o2, o3) = _grids(spec, evaluator, sizes, denom)
    old = co.closed_bounds(form, evaluator, [p[1] for p in p1s], o2, o3)
    new = co.staged_bounds(form, evaluator, np.array(p1s), g2, g3)
    assert sorted(new) == sorted(old)
    shape = (len(p1s), len(o2), len(o3))
    for key, val in old.items():
        assert _same_bits(new[key], np.broadcast_to(val, shape)), key


@pytest.mark.parametrize("evaluator", ["unstructured", "thm1"])
def test_cell_values_match_oracle(evaluator):
    # the refinement reads the winning config's cell of the grid's stage
    spec = _channel("costed", None)
    p1s, (g2, g3), (o2, o3) = _grids(spec, evaluator, (2, 2), 8)
    form = direct._parity_gamma_form(spec)
    source = direct.grid_source(spec, evaluator, g2, g3)
    p1v = np.linspace(0.0, 1.0, 17)
    for a2, a3 in ((0, 0), (5, 17), (len(o2) - 1, 3), (len(o2) - 1,
                                                       len(o3) - 1)):
        old = co.closed_bounds(form, evaluator, p1v, [o2[a2]], [o3[a3]])
        new = source.at([source.index(a2, a3)])(
            np.stack([1.0 - p1v, p1v], axis=1))
        assert sorted(new) == sorted(old)
        for key, val in old.items():
            assert _same_bits(np.broadcast_to(new[key], (17, 1)),
                              np.broadcast_to(val, (17, 1, 1))[:, 0]), key


def _same_config(a, b):
    assert type(a) is type(b)
    for x, y in zip(vars(a).values(), vars(b).values()):
        if isinstance(y, np.ndarray):
            assert _same_bits(x, y)
        else:
            assert repr(x) == repr(y)


@pytest.mark.parametrize("evaluator,sizes,denom,kind,tau", CASES)
def test_scan_results_match_oracle(evaluator, sizes, denom, kind, tau):
    spec = _channel(kind, tau)
    refined = 0
    for r2, r3 in ((0.0, 0.0), (0.2, 0.1), (0.45, 0.05), (0.9, 0.9)):
        for refine in (True, False):
            kw = dict(evaluator=evaluator, u_sizes=sizes, denominator=denom,
                      refine=refine)
            new = rg.max_r1_scan(spec, r2, r3, **kw)
            old = co.scan(spec, r2, r3, **kw)
            assert _same_bits(new.r1_max, old.r1_max)
            assert _same_bits(new.grid_value, old.grid_value)
            assert new.evaluations == old.evaluations
            if old.best is None:
                assert new.best is None
            else:
                _same_config(new.best, old.best)
            refined += new.r1_max > new.grid_value
    # within 0.3 the denominator-3 grid has only p1 = 0, where R1 = 0
    assert refined or tau != 0.3 or denom == 3


def _random_channel(rng, denom):
    """An ex2 channel at random phi, deltas and budgets; half of them
    also charge users 2 and 3, so that their grids lose rows."""
    spec = build_ex2(rng.uniform(0.3, 1.45), *rng.uniform(0.02, 0.35, 2),
                     0.5)
    tau1 = (1 / denom, 2 / denom, rng.uniform(0.05, 0.5), None)[
        rng.integers(4)]
    costs, taus = spec.costs, (0.0, 0.0)
    if rng.integers(2):
        costs, taus = (np.arange(2.0),) * 3, tuple(rng.uniform(0.2, 0.6, 2))
    budget = None if tau1 is None else CostVector(tau1, *taus)
    return ChannelSpec(spec.input_sizes, spec.output_dims, spec.states,
                       costs, budget)


#: (evaluator, u_sizes, denominator) of the pruning tests; (3, 2) users
#: only at denominator 8, since at 16 the grid passes ENUMERATION_CAP
PRUNE_CASES = [("thm1", (2, 2), d) for d in (8, 16, 32)] + [
    ("unstructured", (2, 2), d) for d in (8, 16, 32)] + [
    ("unstructured", (3, 2), 8)]


@pytest.mark.parametrize("evaluator,sizes,denom", PRUNE_CASES)
def test_pruned_scans_match_oracle(evaluator, sizes, denom):
    # the closed forms test the rows without R1 once and evaluate R1 only
    # where they hold: every supremum over the grid, and every scan
    # result, must still be the oracle's, which evaluates every config
    rng = np.random.default_rng([25, denom, sizes[0],
                                 evaluator == "thm1"])
    rows = rg._THM1_ROWS if evaluator == "thm1" else rg._UNSTR_ROWS
    free_rows = [r for r in rows if not r[1][0]]
    tol = rg.active_tolerances().rate
    kinds = set()
    for _ in range(2):
        spec = _random_channel(rng, denom)
        form = direct._parity_gamma_form(spec)
        p1s, (g2, g3), (o2, o3) = _grids(spec, evaluator, sizes, denom)
        p1s = np.array(p1s)
        source = direct.grid_source(spec, evaluator, g2, g3)
        old_b = co.closed_bounds(form, evaluator, p1s[:, 1], o2, o3)
        own2 = np.asarray(old_b["own2"])
        rays = [(0.0, 0.0), (0.9, 0.9), (float(np.median(own2[own2 > 0])),
                                          0.0)]
        rays += [tuple(rng.uniform(0.0, 0.35, 2)) for _ in range(3)]
        # a user that sends a constant input has own rate 0, so it fails
        # the rows without R1 at every rate
        varied = [np.array([0.0 < c[2] < 1.0 for c in o]) for o in (o2, o3)]
        varied = varied[0][:, None] & varied[1][None, :]
        for r2, r3 in rays:
            passing = np.isposinf(co.r1_sup(free_rows, old_b, r2, r3, tol))
            passing = np.broadcast_to(passing, (1,) + varied.shape)[0]
            kinds.add("none" if not passing.any() else
                      "all" if np.array_equal(passing, varied) else "some")
            old_sup = co.r1_sup(rows, old_b, r2, r3, tol)
            new_sup = rg._grid_sup(rows, source, p1s, r2, r3, tol)
            assert _same_bits(new_sup, np.broadcast_to(
                old_sup, (len(p1s), len(o2), len(o3))))
            kw = dict(evaluator=evaluator, u_sizes=sizes, denominator=denom)
            new = rg.max_r1_scan(spec, r2, r3, **kw)
            old = co.scan(spec, r2, r3, **kw)
            assert _same_bits(new.r1_max, old.r1_max)
            assert _same_bits(new.grid_value, old.grid_value)
            assert new.evaluations == old.evaluations
            if not passing.any():
                assert new.r1_max == -math.inf and new.best is None
                assert new.evaluations == len(p1s) * len(o2) * len(o3)
            if old.best is None:
                assert new.best is None
            else:
                _same_config(new.best, old.best)
    # some rays pass every config with varied inputs (r2 = r3 = 0), some
    # none (0.9), some a part
    assert kinds == {"none", "some", "all"}


def test_vecdot_budget_filter_is_the_per_row_dot():
    # the scan filters p1 by np.vecdot(cands, kappa1); the per-row scalar
    # dot it replaced must give the same bits
    rng = np.random.default_rng(2025)
    kappas = [rng.uniform(0.0, 3.0, 2) for _ in range(40)]
    kappas += [build_ex3(0.9, 0.1, 0.2, 0.3, 0.3, 0.3).costs[0],
               np.array([0.1, 0.7]), np.array([1 / 3, 2 / 3])]
    windows = 0
    for kappa in kappas:
        for _ in range(200):
            center = rng.uniform(0.0, 1.0)
            width = rng.uniform(0.0, 1.0 / 8) / 8.0 ** rng.integers(8)
            pts = np.linspace(max(0.0, center - width),
                              min(1.0, center + width), 17)
            cands = np.stack([1.0 - pts, pts], axis=1)
            assert _same_bits(np.vecdot(cands, kappa),
                              [float(p @ kappa) for p in cands])
            windows += 1
        lattice = direct._lattice_pmfs(2, int(rng.integers(1, 64)))
        assert _same_bits(np.vecdot(lattice, kappa),
                          [float(p @ kappa) for p in lattice])
    assert windows >= 8000


def _frame_arrays(frame):
    for part in frame:
        yield from (part if isinstance(part, direct._Distinct)
                    else () if part is None else (part,))


def test_interleaved_scans_share_frames_and_match_oracle():
    # frames are cached per (evaluator, user grids), not per channel: the
    # scans alternate grids, evaluators and channels and must each still
    # give the oracle's bits
    specs = (build_ex2(PHI, 0.1, 0.15, 0.3), build_ex2(1.3, 0.2, 0.05, 0.3))
    direct._closed_frame.cache_clear()
    scans = 0
    for r2, r3 in ((0.2, 0.1), (0.05, 0.02)):
        for spec in specs:
            for denom in (16, 32):
                for evaluator in ("thm1", "unstructured"):
                    kw = dict(evaluator=evaluator, denominator=denom)
                    new = rg.max_r1_scan(spec, r2, r3, **kw)
                    old = co.scan(spec, r2, r3, **kw)
                    assert _same_bits(new.r1_max, old.r1_max)
                    assert _same_bits(new.grid_value, old.grid_value)
                    assert new.evaluations == old.evaluations
                    _same_config(new.best, old.best)
                    scans += 1
    # users 2 and 3 are uncosted, so both channels share the grids
    info = direct._closed_frame.cache_info()
    assert (info.misses, info.hits) == (4, scans - 4)
    for denom in (16, 32):
        g2, g3 = (direct._binary_user_grid(specs[0], j, 2, denom)
                  for j in (1, 2))
        for evaluator in ("thm1", "unstructured"):
            frame = direct._closed_frame(evaluator, direct._grid_key(g2),
                                         direct._grid_key(g3))
            arrays = list(_frame_arrays(frame))
            assert len(arrays) == (10 if evaluator == "thm1" else 4)
            for a in arrays:
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 0
    assert direct._closed_frame.cache_info().misses == 4


def test_scan_builds_the_thm1_frame_once_and_cells_stay_out(tmp_path,
                                                            capsys):
    direct._closed_frame.cache_clear()
    assert cli.main(["scan", "--example", "ex2", "--r2", "0.1", "0.2",
                     "--r3", "0.1", "--evaluator", "thm1",
                     "--denominator", "16", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    info = direct._closed_frame.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # more refined scans than the cache holds: each reads the grid's
    # frame once, and its refinement cell reads the same stage
    spec = build_ex2(math.pi / 3, 0.1, 0.1, 0.25)
    n_scans = info.maxsize + 4
    refined = 0
    for r2 in np.linspace(0.0, 0.3, n_scans):
        res = rg.max_r1_scan(spec, r2, 0.1, evaluator="thm1",
                             denominator=16)
        refined += res.grid_value > -math.inf  # a finite value is refined
    assert refined > info.maxsize
    after = direct._closed_frame.cache_info()
    assert (after.misses, after.hits, after.currsize) == (1, 1 + n_scans, 1)
    # frames are keyed by content: same shape, other rows, another frame
    g2, g3 = (direct._binary_user_grid(spec, j, 2, 16) for j in (1, 2))
    flipped = direct._grid_rows(g2, slice(None, None, -1))
    source = direct.grid_source(spec, "thm1", flipped, g3)
    source.at(np.arange(math.prod(source.shape)))(direct._lattice_pmfs(2, 16))
    assert direct._closed_frame.cache_info().misses == 2


def _mixed(spec, j_state, eps):
    """spec with the state at input (1, 0, 1) moved toward I/8 by eps."""
    states = dict(spec.states)
    x = (1, 0, 1)
    states[x] = (1.0 - eps) * states[x] + eps * np.eye(8) / 8.0
    return ChannelSpec(spec.input_sizes, spec.output_dims, states,
                       spec.costs, spec.budget)


@pytest.mark.parametrize("build,evaluator,n_sym,closed", [
    (lambda: _channel("ex2", 0.3), "unstructured", 2, True),
    (lambda: _channel("costed", None), "unstructured", 3, True),
    (lambda: _channel("ex2", 0.3), "thm1", 2, True),
    (lambda: _channel("ex2", 0.3), "thm1", 3, False),
    (lambda: build_ex1(0.1, 0.1, 0.2, 0.3), "unstructured", 2, False),
    (lambda: build_ex3(0.1, 0.2, 0.3, 0.4, 0.4, 0.4), "thm1", 2, False),
    (lambda: _mixed(build_ex2(PHI, 0.1, 0.15, 0.3), 0, 1e-6), "thm1", 2,
     False),
])
def test_grid_source_takes_closed_forms_on_the_family_only(
        monkeypatch, build, evaluator, n_sym, closed):
    # the closed forms for the plane-rotation family (Thm 1 on the binary
    # field only), the engine for everything else
    spec = build()
    calls = []
    for name in ("_closed_source", "_grid_bounds"):
        def spied(*args, _fn=getattr(direct, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(direct, name, spied)
    g2, g3 = (direct._binary_user_grid(spec, j, n_sym, 2) for j in (1, 2))
    source = direct.grid_source(spec, evaluator, g2, g3)
    p1s = direct._lattice_pmfs(2, 2)
    values = source.at(np.arange(math.prod(source.shape)))(p1s)
    assert calls == ["_closed_source" if closed else "_grid_bounds"]
    assert (source.free is not None) == closed
    rows = rg._THM1_ROWS if evaluator == "thm1" else rg._UNSTR_ROWS
    sup = source.spread(rg._r1_sup(rows, values, 0.0, 0.0, 1e-9).reshape(
        (len(p1s),) + source.shape))
    assert sup.shape == (len(p1s), len(g2.p), len(g3.p))
    assert _same_bits(rg._grid_sup(rows, source, p1s, 0.0, 0.0, 1e-9), sup)


@pytest.mark.parametrize("build,evaluator,n_sym", [
    (lambda: build_ex1(0.1, 0.1, 0.2, 0.3), "unstructured", 2),
    (lambda: build_ex3(0.1, 0.2, 0.3, 0.4, 0.4, 0.4), "thm1", 2),
    (lambda: _channel("ex2", 0.3), "thm1", 3),
])
def test_engine_cells_have_the_all_cell_bits(build, evaluator, n_sym):
    # the engine evaluates the grid rows a cell subset touches: each cell
    # must read what the all-cell evaluation gives there, whatever cells
    # come with it, in whatever order and however often
    spec = build()
    g2, g3 = (direct._binary_user_grid(spec, j, n_sym, 2) for j in (1, 2))
    source = direct.grid_source(spec, evaluator, g2, g3)
    assert source.free is None and source.shape == (len(g2.p), len(g3.p))
    size = math.prod(source.shape)
    p1s = direct._lattice_pmfs(2, 2)
    every = source.at(np.arange(size))(p1s)
    for flat in _cell_subsets(size):
        some = source.at(flat)(p1s)
        assert sorted(some) == sorted(every)
        for key, val in every.items():
            assert _same_bits(some[key], val[:, flat]), key
    for a2, a3 in ((0, 0), (len(g2.p) - 1, 5), (3, len(g3.p) - 1)):
        assert source.index(a2, a3) == a2 * len(g3.p) + a3


def _cell_subsets(size):
    """Single, repeated, unordered and random cell subsets of a stage
    grid of ``size`` cells."""
    rng = np.random.default_rng(29)
    subsets = [[0], [size - 1], np.arange(size)[::-1], [7, 3, 7, 0, 3]]
    subsets += [rng.integers(0, size, rng.integers(1, 12)) for _ in range(6)]
    subsets += [rng.permutation(size)[:rng.integers(1, 40)] for _ in range(4)]
    return subsets


@pytest.mark.parametrize("kind,evaluator,n_sym,denom", [
    ("ex2", "unstructured", 2, 4),
    ("costed", "unstructured", 3, 4),
    ("ex2", "thm1", 2, 2),
])
def test_closed_cells_have_the_all_cell_bits(kind, evaluator, n_sym, denom):
    # a closed source keeps the p1-term arguments its cells use once each
    # (_used_keys): each cell must read what the all-cell evaluation gives
    # there, whatever cells come with it, in whatever order and however
    # often; values broadcast to (len(p1s), len(flat))
    spec = _channel(kind, None)
    g2, g3 = (direct._binary_user_grid(spec, j, n_sym, denom)
              for j in (1, 2))
    source = direct.grid_source(spec, evaluator, g2, g3)
    assert source.free is not None
    size = math.prod(source.shape)
    p1s = direct._lattice_pmfs(2, 8)
    every = source.at(np.arange(size))(p1s)
    for flat in _cell_subsets(size):
        some = source.at(flat)(p1s)
        assert sorted(some) == sorted(every)
        for key, val in every.items():
            want = np.broadcast_to(val, (len(p1s), size))[:, flat]
            assert _same_bits(np.broadcast_to(some[key], want.shape),
                              want), key


def test_unstructured_index_and_spread_reach_each_configs_stage_cell():
    # the unstructured stage grid is distinct q2 x distinct q3: index and
    # spread must both take config (a2, a3) to the cell of its (q2, q3)
    spec = _channel("costed", 2 / 32)
    _, (g2, g3), _ = _grids(spec, "unstructured", (3, 3), 6)
    source = direct.grid_source(spec, "unstructured", g2, g3)
    (k2, c2), (k3, c3) = (np.unique(g.q, return_inverse=True)
                          for g in (g2, g3))
    assert source.shape == (len(k2), len(k3)) and len(k2) < len(g2.p)
    want = c2[:, None] * len(k3) + c3[None, :]
    cells = np.arange(math.prod(source.shape)).reshape((1,) + source.shape)
    assert np.array_equal(source.spread(cells)[0], want)
    assert np.array_equal([[source.index(a2, a3) for a3 in range(len(g3.p))]
                           for a2 in range(len(g2.p))], want)


@pytest.mark.parametrize("build", [
    lambda: build_ex1(0.1, 0.1, 0.2, 0.3),
    lambda: build_ex2(PHI, 0.1, 0.15, 0.3),
    lambda: build_ex2(1.2, 0.3, 0.05, 0.1),
    lambda: build_ex3(0.1, 0.2, 0.3, 0.4, 0.4, 0.4),
    lambda: _mixed(build_ex2(PHI, 0.1, 0.15, 0.3), 0, 1e-13),
    lambda: _mixed(build_ex2(PHI, 0.1, 0.15, 0.3), 0, 1e-6),
])
def test_family_verdicts_match_oracle(build):
    spec = build()
    assert direct._parity_gamma_form(spec) == co.parity_gamma_form(spec)


def _off_family(input_sizes, own2):
    """A product channel off the family: receiver 1 sees gamma(x1 + x2 +
    x3 mod 2), receiver 2 ``own2(x2)`` and receiver 3 a flip of x3."""
    states_ = {x: np.kron(np.kron(gamma_state(PHI, sum(x) % 2), own2(x[1])),
                          sigma_state(0.15, x[2]))
               for x in np.ndindex(*input_sizes)}
    return ChannelSpec(input_sizes, (2, 2, 2), states_,
                       [np.zeros(n) for n in input_sizes])


@pytest.mark.parametrize("evaluator", ["unstructured", "thm1"])
@pytest.mark.parametrize("build", [
    # a ternary user 1: not the (2, 2, 2) family
    lambda: _off_family((3, 2, 2), lambda x2: sigma_state(0.1, x2)),
    # a noiseless receiver 2 (delta = 0, which sigma_state refuses): its
    # flip lies outside (0, 1/2)
    lambda: _off_family((2, 2, 2), lambda x2: np.diag(
        [float(x2), 1.0 - x2]).astype(complex)),
])
def test_off_family_channels_take_the_engine(build, evaluator):
    spec = build()
    assert direct._parity_gamma_form(spec) is None
    assert co.parity_gamma_form(spec) is None
    g2, g3 = (direct._binary_user_grid(spec, j, 2, 2) for j in (1, 2))
    assert direct.grid_source(spec, evaluator, g2, g3).free is None
