"""The layered builder against two oracles, and its template cache.

``cqic.layered._layered_system`` fills one config's numbers into a cached
template of its shape; ``layered_oracle.layered_system`` is the single
pass it replaced, which builds every label, row and number from scratch.
Over random configs (fields 2, 3 and 5, every U, V and X layer present,
of size 1 or a point mass, zero and subnormal masses) and over every
layered config of the benchmark's ``region_engine`` job lists, the two
must agree bit for bit: names, columns, rows with their rhs bits, A, b
and the term indices and coefficients.  ``layered_oracle.layered_rows``
keeps the per-theorem covering branches that one loop replaced; each row
must come out the same: label, coefficient names and values in order,
sense and the rhs bit for bit.  The cache tests check that what configs
share cannot be written, and that activity, tolerances and threads do not
leak from one config's system into another's.
"""

import importlib.util
import math
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqic import channels, layered, regions
from cqic.channels import build_ex1, build_ex2, build_ex3
from cqic.config import tolerance_scope
from cqic.regions import (Thm1Config, Thm2Config, Thm3Config,
                          thm2_config_from_thm1, thm2_feasible)
from layered_oracle import layered_rows, layered_system

CHANNELS = (build_ex1(0.1, 0.12, 0.08, 0.5),
            build_ex2(math.pi / 3, 0.1, 0.1, 0.5),
            build_ex3(1.0, 0.1, 0.12, 0.4, 0.38, 0.42))

#: how an axis carries its layer: spread over its symbols (present), of
#: size 1 or all mass on one symbol (absent)
_MODES = ("present", "size1", "point")


#: most points (product of the three factor tables' sizes) of a case
#: whose fields may be 5; larger cases lose layers from the last axis on
_POINTS = 4096


@st.composite
def layered_cases(draw, field_set=(2, 3), subnormal=False):
    """(channel, theorem, config, drop_dont_care) over ``field_set``;
    ``subnormal`` may put a subnormal mass into a factor."""
    channel = draw(st.sampled_from(CHANNELS))
    theorem = draw(st.sampled_from((2, 3)))
    fields = tuple(draw(st.sampled_from(field_set)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    all_sizes, all_modes = [], []
    for t in range(3):
        a, b = layered._OTHERS[t]
        sizes = [fields[a], fields[b]]
        if theorem == 3:
            sizes = [draw(st.integers(2, 3)), draw(st.integers(2, 3))] + sizes
        modes = [draw(st.sampled_from(_MODES)) for _ in sizes]
        modes.append(draw(st.sampled_from(("present", "point"))))  # X
        sizes.append(channel.input_sizes[t])
        all_sizes.append(sizes)
        all_modes.append(modes)
    if 5 in field_set:
        for t, ax in [(t, ax) for t in range(3)
                      for ax in range(len(all_sizes[t]) - 1)][::-1]:
            if math.prod(1 if m == "size1" else n for sizes, modes
                         in zip(all_sizes, all_modes)
                         for m, n in zip(modes, sizes)) <= _POINTS:
                break
            all_modes[t][ax] = "size1"
    factors = []
    for t, (sizes, modes) in enumerate(zip(all_sizes, all_modes)):
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
        if subnormal and draw(st.booleans()):  # move an entry's mass away
            k = draw(st.integers(0, tab.size - 1))
            tiny = draw(st.sampled_from((5e-324, 2.2e-311, 1e-310)))
            moved, tab.flat[k] = tab.flat[k] - tiny, tiny
            tab.flat[np.argmax(tab)] += moved
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


# ---------------------------------------------------------------------------
# template and fill against the single-pass builder

def _system_key(system):
    """Everything a layered system holds, floats as their bits."""
    return (system.names, list(system.col.items()),
            [_row_key(r) for r in system.rows],
            *[(arr.shape, arr.dtype.str, arr.tobytes())
              for arr in (system.a, system.b, system.idx, system.coef)])


def _matches_oracle(channel, cfg, theorem, drop):
    system = layered._layered_system(channel, cfg, theorem, drop)
    assert _system_key(system) == \
        _system_key(layered_system(channel, cfg, theorem, drop))
    return system


@settings(max_examples=200, deadline=None)
@given(layered_cases(field_set=(2, 3, 5), subnormal=True))
def test_template_and_fill_match_single_pass_oracle(case):
    channel, theorem, cfg, drop = case
    _matches_oracle(channel, cfg, theorem, drop)


def _workloads():
    """The benchmark's job lists (cqbench/workloads.py), imported by path."""
    path = Path(__file__).resolve().parents[1] / "cqbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("cqbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def region_engine_builds(seed, monkeypatch):
    """(channel, config, theorem, drop) of every layered system the
    ``region_engine`` job list of ``seed`` builds, one per config, found
    by running each job against a stand-in solver."""
    wl = _workloads()
    ctx = wl.Context(types.SimpleNamespace(regions=regions, channels=channels),
                     Path("."))
    seen = {}

    def record(channel, cfg, rates, theorem, drop):
        seen.setdefault(id(cfg), (channel, cfg, theorem, drop))
        return regions.RegionReport(True, (), None)

    with monkeypatch.context() as mp:
        mp.setattr(regions, "_layered_feasible", record)
        for job in wl.make_jobs("region_engine", seed):
            if job.kind in ("thm2", "thm3", "slice", "crit6", "thm1_pair"):
                wl.prepare(job, ctx)()
    return list(seen.values())


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_region_engine_systems_match_single_pass_oracle(seed, monkeypatch):
    builds = region_engine_builds(seed, monkeypatch)
    assert len(builds) == 86
    for channel, cfg, theorem, drop in builds:
        for d in (drop, not drop):
            _matches_oracle(channel, cfg, theorem, d)


# ---------------------------------------------------------------------------
# the template cache

def _embedded(p_x1=(0.6, 0.4), p_u2=(0.7, 0.3), p_u3=(0.45, 0.55)):
    spec = CHANNELS[1]
    return spec, thm2_config_from_thm1(spec, Thm1Config(
        2, p_x1, p_u2, p_u3, (0, 1), (0, 1)))


def test_shared_parts_are_read_only():
    spec, cfg = _embedded()
    _, other = _embedded(p_u2=(0.2, 0.8))
    templates = []
    fill = layered._fill

    def spy(tpl, *args):
        templates.append(tpl)
        return fill(tpl, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layered, "_fill", spy)
        one = layered._layered_system(spec, cfg, 2, False)
        two = layered._layered_system(spec, other, 2, False)
    tpl = templates[0]
    assert templates[1] is tpl
    assert one.col is two.col and one.a is two.a and one.idx is two.idx
    assert one.rows[0][2] is two.rows[0][2]
    assert one.b.tobytes() != two.b.tobytes()
    arrays = [one.a, one.b, one.idx, one.coef, tpl.inputs, tpl.plan.slots]
    arrays += [rx.layout[1] for rx in tpl.receivers]
    for grp in tpl.plan.groups:  # the entropy plan
        arrays += [grp.rows, grp.slots, grp.order]
        arrays += [arr for _, *pair in grp.stacks for arr in pair]
        arrays += [arr for pair in grp.widths for arr in pair]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 7
    with pytest.raises(TypeError):
        one.rows[0][2]["S21"] = 5.0
    with pytest.raises(TypeError):
        one.col["S21"] = 5
    before = repr(thm2_feasible(spec, cfg, (0.01, 0.02, 0.03)))
    thm2_feasible(spec, other, (0.01, 0.02, 0.03))
    assert repr(thm2_feasible(spec, cfg, (0.01, 0.02, 0.03))) == before


def test_equal_shapes_of_other_activity_get_their_own_systems():
    # user 2's layer toward receiver 1 spread, a point mass, nearly one
    spec = CHANNELS[1]
    configs = [_embedded(p_u2=p)[1] for p in
               ((0.7, 0.3), (1.0, 0.0), (0.0, 1.0), (1 - 1e-12, 1e-12))]
    assert len({tuple(f.shape for f in c.factors) for c in configs}) == 1
    names = set()
    for drop in (False, True):
        for cfg in configs:
            names.add(_matches_oracle(spec, cfg, 2, drop).names)
    assert names == {("K1", "L1", "S21", "T21", "K2", "L2", "S31", "T31",
                      "K3", "L3"), ("K1", "L1", "S31", "T31", "K3", "L3")}


def test_changed_tolerance_record_matches_oracle():
    # max mass 1 - 1e-6: an active layer by default, a point mass at 1e-3
    spec, cfg = _embedded(p_u2=(1 - 1e-6, 1e-6))
    default = _matches_oracle(spec, cfg, 2, False)
    with tolerance_scope(1e-3):
        loose = _matches_oracle(spec, cfg, 2, False)
        cached = layered._cached_system(spec, cfg, 2, False)
        assert _system_key(cached) == _system_key(loose)
    assert "S21" in default.names and "S21" not in loose.names
    assert _system_key(layered._cached_system(spec, cfg, 2, False)) == \
        _system_key(default)


def test_thread_pool_reports_equal_serial_reports():
    rng = np.random.default_rng(7)
    configs = []
    for _ in range(24):
        p = rng.uniform(0.1, 0.9, 3)
        configs.append(_embedded(*[(1 - q, q) for q in p]))
    rates = (0.02, 0.01, 0.01)

    def report(case):
        return repr(thm2_feasible(*case, rates))

    serial = [report(c) for c in configs]
    layered._template.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-build
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layered, "_SYSTEMS", {})
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(report, c) for c in configs]
                pooled = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial
    assert layered._template.cache_info().currsize == 1
