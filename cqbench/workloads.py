"""Seeded job lists, job calls and correctness checks for the four workloads.

A workload is a fixed mix of job kinds.  The seed draws only the numeric
inputs of each job (channel parameters, pmfs, rates, random matrices, sim
seeds); the kind counts and the structural sizes that set a job's cost
(scan denominators, factor shapes, blocklengths, matrix dimensions) follow
fixed cycles, so two seeds give the same mix and nearly the same amount of
work.

Every job has three parts:

* ``Job.params`` -- plain JSON values, the whole description of the job;
* ``prepare(job, ctx)`` -- builds library objects (channels, configs,
  operators) during set-up and returns the zero-argument call that is timed;
* ``check(job, result, ctx)`` -- runs untimed after the call, returns a
  summary of the output for the reference comparison plus a list of broken
  invariants.

Calls go through module attributes looked up at call time (``M.regions.
thm2_feasible``), so the outside-in tracer sees them once it rebinds names.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("region_engine", "closed_form_scan", "coset_sim", "operator_lab")

#: the seed whose outputs ``reference.json`` records
DEFAULT_SEED = 1

#: tolerance for rates and entropic values against the reference
CLOSE_TOL = 1e-9

#: agreement demanded between a trace norm and its LAPACK oracle; loose
#: enough for the ~1e-8 error of the eigenvalue route to pass
ORACLE_TOL = 1e-6

#: a finite scan value is probed this far on either side of its boundary
SCAN_PROBE = 1e-6

#: crossover probabilities at the simulation criterion's operating point
SIM_DELTAS = (0.05, 0.1, 0.1)


@dataclass(frozen=True)
class Job:
    job_id: int
    kind: str
    params: dict


@dataclass
class Context:
    """What prepared calls and checks need: cqic modules and a scratch dir."""

    modules: object      # namespace with attributes regions, mcsim, ...
    workdir: Path


# ---------------------------------------------------------------------------
# job-list generation

def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _dirichlet(rng, shape, alpha=0.7) -> list:
    size = int(np.prod(shape))
    return rng.dirichlet(np.full(size, alpha)).reshape(shape).tolist()


def _density(rng, dim) -> dict:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _unit(rng, dim) -> dict:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


# job inputs must not depend on the library under test, so the generators
# carry their own copies of h_b and Fact 1's f

def _hb(p: float) -> float:
    return 0.0 if p <= 0.0 or p >= 1.0 else \
        float(-p * math.log2(p) - (1 - p) * math.log2(1 - p))


def _fact1(t: float, phi: float) -> float:
    return (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * t * (1 - t)
                                * math.sin(phi) ** 2))) / 2.0


def _ex1(rng, tau=0.5) -> dict:
    return {"name": "ex1", "args": [_u(rng, 0.05, 0.15), _u(rng, 0.05, 0.15),
                                    _u(rng, 0.05, 0.15), tau]}


def _ex2(rng, tau=0.5) -> dict:
    return {"name": "ex2", "args": [_u(rng, 0.5, 1.2), _u(rng, 0.05, 0.2),
                                    _u(rng, 0.05, 0.2), tau]}


def _ex3(rng, tau=None) -> dict:
    # budgets above 1/3 keep the denominator-3 lattice's cost-feasible
    # configs non-degenerate, so most scan rays come back finite
    taus = [tau] * 3 if tau is not None else \
        [_u(rng, 0.34, 0.45) for _ in range(3)]
    return {"name": "ex3", "args": [_u(rng, 0.8, 1.3), _u(rng, 0.05, 0.15),
                                    _u(rng, 0.05, 0.15), *taus]}


# generic-path scans: (channel family, evaluator, denominator)
_SCAN_CYCLE = (("ex3", "unstructured", 3), ("ex3", "thm1", 3),
               ("ex1", "thm1", 2), ("ex3", "unstructured", 3))
_THM2_SHAPES = (((1, 1, 2), (2, 1, 2), (2, 1, 2)),
                ((1, 1, 2), (1, 1, 2), (1, 1, 2)),
                ((2, 1, 2), (2, 1, 2), (1, 1, 2)),
                ((2, 2, 2), (1, 1, 2), (1, 1, 2)),
                ((2, 1, 2), (2, 2, 2), (2, 1, 2)))
_THM3_SHAPES = (((1, 1, 1, 1, 2), (2, 1, 1, 1, 2), (2, 1, 1, 1, 2)),
                ((1, 1, 2, 1, 2), (2, 1, 2, 1, 2), (2, 1, 1, 1, 2)),
                ((1, 1, 1, 1, 2), (2, 1, 2, 1, 2), (2, 1, 2, 1, 2)))


def _gen_scan(rng, i):
    family, evaluator, denominator = _SCAN_CYCLE[i % len(_SCAN_CYCLE)]
    channel = _ex3(rng) if family == "ex3" else _ex1(rng)
    return {"channel": channel, "evaluator": evaluator,
            "denominator": denominator, "r2": _u(rng, 0.01, 0.08),
            "r3": _u(rng, 0.01, 0.08)}


def _gen_layered(shapes):
    def gen(rng, i):
        shape = shapes[i % len(shapes)]
        channel = _ex1(rng) if i % 2 == 0 else _ex3(rng)
        return {"channel": channel, "fields": [2, 2, 2],
                "factors": [_dirichlet(rng, s) for s in shape],
                "rates": [_u(rng, 0.0, 0.08) for _ in range(3)]}
    return gen


def _gen_slice(rng, i):
    channel = _ex2(rng)
    rays = [_u(rng, 0.0, 0.1)]
    if i % 2 == 0:
        t1, q2, q3 = _u(rng, 0.1, 0.5), _u(rng, 0.2, 0.5), _u(rng, 0.2, 0.5)
        pred = {"theorem": "thm2", "p_x1": [1 - t1, t1],
                "p_u2": [1 - q2, q2], "p_u3": [1 - q3, q3]}
    else:
        p1 = rng.dirichlet((1.0, 1.0)).tolist()
        pred = {"theorem": "thm3", "p_x1": p1,
                "p_u2x2": _dirichlet(rng, (2, 2)),
                "p_u3x3": _dirichlet(rng, (2, 2))}
    return {"channel": channel, "predicate": pred, "r2_values": rays,
            "r3": _u(rng, 0.0, 0.05), "r1_hi": 1.0, "tol": 1e-2}


def _gen_crit6(rng, i):
    phi, d2, d3 = _u(rng, 0.3, 1.2), _u(rng, 0.05, 0.45), _u(rng, 0.05, 0.45)
    p1 = rng.dirichlet((1.0, 1.0))
    if p1[1] > 0.5:
        p1 = p1[::-1]
    u = rng.random(3) ** 3
    # criterion 6's spiky joints and cubed rate fractions: both verdicts occur
    h1 = _hb(_fact1(0.5, phi))
    rates = [float(u[0]) * h1 * 1.2, float(u[1]) * (1.0 - _hb(d2)) * 1.2,
             float(u[2]) * (1.0 - _hb(d3)) * 1.2]
    return {"channel": {"name": "ex2", "args": [phi, d2, d3, 0.5]},
            "p_x1": p1.tolist(), "p_u2x2": _dirichlet(rng, (2, 2), 0.3),
            "p_u3x3": _dirichlet(rng, (2, 2), 0.3), "rates": rates}


def _gen_thm1_pair(rng, i):
    p1 = rng.dirichlet((2.0, 2.0))
    if p1[1] > 0.5:
        p1 = p1[::-1]
    return {"channel": _ex2(rng), "p_x1": p1.tolist(),
            "p_u2": rng.dirichlet((2.0, 2.0)).tolist(),
            "p_u3": rng.dirichlet((2.0, 2.0)).tolist(),
            "rates": [_u(rng, 0.0, 0.3) for _ in range(3)]}


def _gen_caps(rng, i):
    # the capacity grid spans [0, budget]: fixed budgets fix the job's cost
    family = ("ex1", "ex2", "ex3")[i % 3]
    if family == "ex1":
        return {"channel": _ex1(rng, 0.25)}
    if family == "ex2":
        return {"channel": _ex2(rng, 0.25)}
    return {"channel": _ex3(rng, 0.4)}


def _gen_cli_scan(rng, i):
    # budgets 1/32 and 2/32 keep 2-3 user-1 lattice points: 35k-70k configs
    tau = (1 / 32, 2 / 32)[i % 2]
    evaluator = ("unstructured", "thm1")[(i // 2) % 2]
    n_rays = (1, 2)[(i // 4) % 2]
    return {"phi": _u(rng, 0.5, 1.2), "tau": tau,
            "delta2": _u(rng, 0.05, 0.2), "delta3": _u(rng, 0.05, 0.2),
            "r2": [_u(rng, 0.05, 0.25) for _ in range(n_rays)],
            "r3": _u(rng, 0.05, 0.25), "evaluator": evaluator,
            "denominator": 32, "recheck": i % 5 == 0}


def _gen_sim(rng, i):
    n = (12, 16, 20)[i % 3]
    q = n // 4
    return {"n": n, "coset_dims": [0, 0, 0], "message_dims": [q, q, q],
            "delta": list(SIM_DELTAS), "trials": 40,
            "decoder": ("ml_joint", "sum_coset")[(i // 3) % 2],
            "tau1": None, "seed": int(rng.integers(0, 2 ** 31)),
            "threads": 2 if i % 4 == 3 else 1}


def _gen_shaped(rng, i):
    k1 = (2, 3)[i % 2]
    return {"n": 16, "coset_dims": [k1, 0, 0], "message_dims": [2, 4, 4],
            "delta": list(SIM_DELTAS), "trials": 32, "decoder": "ml_joint",
            "tau1": _u(rng, 0.15, 0.35), "seed": int(rng.integers(0, 2 ** 31)),
            "threads": 1}


def _gen_rate_one(rng, i):
    return {"n": 16, "coset_dims": [0, 0, 0], "message_dims": [0, 16, 0],
            "delta": list(SIM_DELTAS), "trials": 2, "decoder": "ml_joint",
            "tau1": None, "seed": int(rng.integers(0, 2 ** 31)), "threads": 1}


def _gen_tv(rng, i):
    n = (10, 11, 12)[i % 3]
    t = _u(rng, 0.1, 0.4)
    return {"n": n, "k": int(rng.integers(2, 7)), "p": [1 - t, t],
            "seed": int(rng.integers(0, 2 ** 31)), "num_codes": 8}


# (state dimension, |D1|, |D2|): extended spaces from 6 to 56
_TILT_CYCLE = ((2, 1, 1), (2, 3, 2), (3, 2, 2), (4, 1, 2), (4, 3, 3),
               (5, 2, 1), (6, 1, 1), (8, 1, 2), (3, 3, 3), (8, 3, 3))
# Hayashi-Nagaoka dimensions: 10x d2, 8x d4, 6x d8, 4x d16, 2x d32 per 30
_HN_CYCLE = (2, 4, 8, 2, 4, 16, 2, 8, 4, 2, 32, 4, 8, 2, 16,
             2, 4, 8, 2, 4, 16, 2, 8, 4, 2, 32, 4, 8, 2, 16)
_SMOOTH_CYCLE = (2, 3, 4, 6, 8, 12, 16, 5)


def _gen_tilt(rng, i):
    dim, d1, d2 = _TILT_CYCLE[i % len(_TILT_CYCLE)]
    return {"rho": _density(rng, dim), "d1": _unit(rng, d1),
            "d2": _unit(rng, d2), "eta": _u(rng, 0.05, 0.2)}


def _gen_hn(rng, i):
    dim = _HN_CYCLE[i % len(_HN_CYCLE)]
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return {"dim": dim, "h": {"re": h.real.tolist(), "im": h.imag.tolist()},
            "b": {"re": b.real.tolist(), "im": b.imag.tolist()},
            "t_scale": _u(rng, 0.0, 0.5)}


def _gen_smooth(rng, i):
    return {"rho": _density(rng, 2), "d1": _SMOOTH_CYCLE[i % len(_SMOOTH_CYCLE)],
            "eta": _u(rng, 0.05, 0.2)}


def _gen_four_user(rng, i):
    return {"rho": _density(rng, 2), "eta": _u(rng, 0.05, 0.2)}


def _gen_srm(rng, i):
    return {"phi": _u(rng, 0.2, 1.4)}


#: workload -> ((kind, jobs per list, generator), ...)
MIXES = {
    # cheap layered jobs fill the lowest third, criterion-6 pairs (of nearly
    # fixed cost) the middle, so p50 falls inside one block; capacities
    # (fixed budgets) sit just below the four scans, so p90 falls among them
    "region_engine": (("scan", 4, _gen_scan),
                      ("thm2", 20, _gen_layered(_THM2_SHAPES)),
                      ("thm3", 12, _gen_layered(_THM3_SHAPES)),
                      ("slice", 8, _gen_slice),
                      ("crit6", 36, _gen_crit6),
                      ("thm1_pair", 10, _gen_thm1_pair),
                      ("caps", 10, _gen_caps)),
    "closed_form_scan": (("cli_scan", 100, _gen_cli_scan),),
    "coset_sim": (("sim", 60, _gen_sim),
                  ("shaped", 12, _gen_shaped),
                  ("rate_one", 4, _gen_rate_one),
                  ("tv", 24, _gen_tv)),
    "operator_lab": (("tilt", 40, _gen_tilt),
                     ("hn", 30, _gen_hn),
                     ("smooth", 16, _gen_smooth),
                     ("four_user", 4, _gen_four_user),
                     ("srm", 10, _gen_srm)),
}


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The workload's job list for ``seed``; ``smoke`` keeps one job per kind."""
    rng = np.random.default_rng([WORKLOADS.index(workload), abs(int(seed)),
                                 int(seed < 0)])
    drafts = []
    for kind, count, gen in MIXES[workload]:
        for i in range(1 if smoke else count):
            drafts.append((kind, gen(rng, i)))
    order = rng.permutation(len(drafts))
    return [Job(n, drafts[k][0], drafts[k][1]) for n, k in enumerate(order)]


def describe(jobs) -> str:
    """Canonical text of a job list (for equality of two generations)."""
    return json.dumps([[j.job_id, j.kind, j.params] for j in jobs],
                      sort_keys=True)


# ---------------------------------------------------------------------------
# set-up: library objects and the timed calls

def _cmat(d) -> np.ndarray:
    return np.asarray(d["re"]) + 1j * np.asarray(d["im"])


def _rho(d) -> np.ndarray:
    a = _cmat(d)
    r = a @ a.conj().T
    return r / np.trace(r).real


def _channel(M, c):
    build = {"ex1": M.channels.build_ex1, "ex2": M.channels.build_ex2,
             "ex3": M.channels.build_ex3}[c["name"]]
    return build(*c["args"])


def _slice_predicate(M, spec, pred):
    R = M.regions
    if pred["theorem"] == "thm2":
        cfg = R.thm2_config_from_thm1(spec, R.Thm1Config(
            2, tuple(pred["p_x1"]), tuple(pred["p_u2"]), tuple(pred["p_u3"]),
            (0, 1), (0, 1)))
        return lambda rates: M.regions.thm2_feasible(spec, cfg, rates).feasible
    cfg = R.thm3_config_from_unstructured(spec, R.UnstructuredConfig(
        np.asarray(pred["p_x1"]), np.asarray(pred["p_u2x2"]),
        np.asarray(pred["p_u3x3"])))
    return lambda rates: M.regions.thm3_feasible(spec, cfg, rates).feasible


def _cli_argv(p, out: Path) -> list[str]:
    argv = ["scan", "--example", "ex2", "--phi", repr(p["phi"]),
            "--tau", repr(p["tau"]), "--delta2", repr(p["delta2"]),
            "--delta3", repr(p["delta3"]), "--r2"]
    argv += [repr(r) for r in p["r2"]]
    argv += ["--r3", repr(p["r3"]), "--evaluator", p["evaluator"],
             "--denominator", str(p["denominator"]), "--out", str(out)]
    return argv


def prepare(job: Job, ctx: Context):
    """Build the job's inputs and return its timed zero-argument call."""
    M, p, kind = ctx.modules, job.params, job.kind
    if kind == "scan":
        spec = _channel(M, p["channel"])
        return lambda: M.regions.max_r1_scan(
            spec, p["r2"], p["r3"], evaluator=p["evaluator"],
            denominator=p["denominator"], refine=False)
    if kind in ("thm2", "thm3"):
        spec = _channel(M, p["channel"])
        factors = tuple(np.asarray(f) for f in p["factors"])
        if kind == "thm2":
            cfg = M.regions.Thm2Config(tuple(p["fields"]), factors)
            return lambda: M.regions.thm2_feasible(spec, cfg, p["rates"])
        cfg = M.regions.Thm3Config(tuple(p["fields"]), factors)
        return lambda: M.regions.thm3_feasible(spec, cfg, p["rates"])
    if kind == "slice":
        spec = _channel(M, p["channel"])
        pred = _slice_predicate(M, spec, p["predicate"])
        return lambda: M.regions.boundary_slice(
            pred, p["r2_values"], p["r3"], r1_hi=p["r1_hi"], tol=p["tol"])
    if kind == "crit6":
        spec = _channel(M, p["channel"])
        R = M.regions
        cfg = R.UnstructuredConfig(np.asarray(p["p_x1"]),
                                   np.asarray(p["p_u2x2"]),
                                   np.asarray(p["p_u3x3"]))
        layered = R.thm3_config_from_unstructured(spec, cfg)
        return lambda: (M.regions.unstructured_3to1_check(spec, cfg, p["rates"]),
                        M.regions.thm3_feasible(spec, layered, p["rates"]))
    if kind == "thm1_pair":
        spec = _channel(M, p["channel"])
        R = M.regions
        cfg = R.Thm1Config(2, tuple(p["p_x1"]), tuple(p["p_u2"]),
                           tuple(p["p_u3"]), (0, 1), (0, 1))
        layered = R.thm2_config_from_thm1(spec, cfg)
        return lambda: (M.regions.thm1_check(spec, cfg, p["rates"]),
                        M.regions.thm2_feasible(spec, layered, p["rates"]))
    if kind == "caps":
        spec = _channel(M, p["channel"])
        return lambda: M.channels.example_capacities(spec)
    if kind == "cli_scan":
        out = ctx.workdir / f"job{job.job_id}"
        argv = _cli_argv(p, out)

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = M.cli.main(argv)
            return code, buf.getvalue(), out
        return call
    if kind in ("sim", "shaped", "rate_one"):
        cfg = M.mcsim.SimConfig(p["n"], tuple(p["coset_dims"]),
                                tuple(p["message_dims"]), tuple(p["delta"]),
                                trials=p["trials"], rng_seed=p["seed"],
                                decoder=p["decoder"], tau1=p["tau1"])
        return lambda: M.mcsim.run_ex1_sim(cfg, threads=p["threads"])
    if kind == "tv":
        return lambda: M.mcsim.soft_covering_tv(
            p["n"], p["k"], 2, tuple(p["p"]), p["seed"],
            num_codes=p["num_codes"])
    if kind == "tilt":
        rho, d1, d2 = _rho(p["rho"]), _cmat(p["d1"]), _cmat(p["d2"])

        def call():
            tilted = M.tiltlab.tilt_state(rho, d1, d2, p["eta"])
            return tilted, M.tiltlab.closeness(rho, tilted)
        return call
    if kind == "hn":
        dim = p["dim"]
        h = _cmat(p["h"])
        herm = (h + h.conj().T) / 2.0
        w, v = np.linalg.eigh(herm)
        squashed = (w - w.min()) / max(float(w.max() - w.min()), 1e-12)
        s_op = (v * squashed) @ v.conj().T
        b = _cmat(p["b"])
        t_op = (b @ b.conj().T) * p["t_scale"] / dim
        return lambda: M.tiltlab.hayashi_nagaoka_check(s_op, t_op)
    if kind == "smooth":
        rho = _rho(p["rho"])
        return lambda: M.tiltlab.smoothing_residual(rho, (p["d1"], 2),
                                                    p["eta"])[1]
    if kind == "four_user":
        rho = _rho(p["rho"])
        return lambda: M.tiltlab.four_user_smoothing_report(rho, 2, p["eta"])
    if kind == "srm":
        states = [M.channels.gamma_state(p["phi"], 0),
                  M.channels.gamma_state(p["phi"], 1)]
        return lambda: M.tiltlab.tiny_srm(states, (0.5, 0.5))[1]
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# checks

def _report_problems(report, lp_residual: float, what: str) -> list[str]:
    if not report.feasible:
        return []
    out = []
    if report.witness is None:
        out.append(f"{what}: feasible report without a witness")
    if report.min_slack() < -lp_residual:
        out.append(f"{what}: feasible report with min_slack "
                   f"{report.min_slack()!r} below -{lp_residual}")
    return out


def _report_summary(report) -> dict:
    return {"exact": {"feasible": bool(report.feasible),
                      "records": len(report.records)},
            "close": {"rhs": [r.rhs for r in report.records]}}


def _direct_boundary(M, evaluator, spec, cfg, r1, r2, r3) -> list[str]:
    """A finite R1 supremum is feasible just below and infeasible above."""
    fn = (M.regions.thm1_check if evaluator == "thm1"
          else M.regions.unstructured_3to1_check)
    out = []
    if not fn(spec, cfg, (r1 - SCAN_PROBE, r2, r3)).feasible:
        out.append(f"{evaluator}: r1_max {r1!r} infeasible just below")
    if fn(spec, cfg, (r1 + SCAN_PROBE, r2, r3)).feasible:
        out.append(f"{evaluator}: r1_max {r1!r} still feasible just above")
    return out


def _scan_problems(M, p, spec, res, r2, r3) -> list[str]:
    out = []
    if res.r1_max < res.grid_value:
        out.append("refined r1_max below the grid value")
    if math.isfinite(res.r1_max):
        out += _direct_boundary(M, p["evaluator"], spec, res.best,
                                res.r1_max, r2, r3)
    return out


def _wilson_problems(res) -> list[str]:
    out = []
    trials = res.config.trials
    for j, (c, est, (lo, hi)) in enumerate(zip(res.error_counts,
                                                res.error_rates,
                                                res.intervals)):
        if not 0 <= c <= trials:
            out.append(f"receiver {j + 1}: {c} errors in {trials} trials")
        if est != c / trials:
            out.append(f"receiver {j + 1}: estimate {est!r} != {c}/{trials}")
        if not lo <= est <= hi:
            out.append(f"receiver {j + 1}: Wilson interval misses estimate")
    return out


def check(job: Job, result, ctx: Context):
    """Untimed check of one job's output: ``(summary, problems)``."""
    M, p, kind = ctx.modules, job.params, job.kind
    lp_residual = M.config.DEFAULT_TOL.lp_residual
    if kind == "scan":
        spec = _channel(M, p["channel"])
        summary = {"exact": {"evaluations": result.evaluations,
                             "finite": math.isfinite(result.r1_max)},
                   "close": {"r1_max": result.r1_max,
                             "grid_value": result.grid_value}}
        return summary, _scan_problems(M, p, spec, result, p["r2"], p["r3"])
    if kind in ("thm2", "thm3"):
        return (_report_summary(result),
                _report_problems(result, lp_residual, kind))
    if kind == "slice":
        spec = _channel(M, p["channel"])
        pred = _slice_predicate(M, spec, p["predicate"])
        problems = []
        for r2, r1 in result:
            if not math.isfinite(r1):
                if pred((0.0, r2, p["r3"])):
                    problems.append(f"ray {r2!r}: -inf but feasible at R1=0")
                continue
            if not pred((r1, r2, p["r3"])):
                problems.append(f"ray {r2!r}: boundary {r1!r} infeasible")
            if r1 + p["tol"] < p["r1_hi"] and pred((r1 + p["tol"], r2, p["r3"])):
                problems.append(f"ray {r2!r}: feasible beyond the boundary")
        return {"exact": {}, "close": {"rows": [list(r) for r in result]}}, \
            problems
    if kind in ("crit6", "thm1_pair"):
        direct, layered = result
        problems = _report_problems(direct, lp_residual, "direct")
        problems += _report_problems(layered, lp_residual, "layered")
        if kind == "crit6" and direct.feasible != layered.feasible:
            problems.append("direct and layered verdicts disagree")
        # embedding a single-layer config keeps every feasible triple
        if kind == "thm1_pair" and direct.feasible and not layered.feasible:
            problems.append("thm1-feasible triple infeasible after embedding")
        summary = {"exact": {"direct": bool(direct.feasible),
                             "layered": bool(layered.feasible),
                             "records": len(layered.records)},
                   "close": {"direct_rhs": [r.rhs for r in direct.records],
                             "layered_rhs": [r.rhs for r in layered.records]}}
        return summary, problems
    if kind == "caps":
        caps = (result.c1, result.c2, result.c3, result.c1_free)
        problems = []
        if not all(-CLOSE_TOL <= c <= 1.0 + CLOSE_TOL for c in caps):
            problems.append(f"capacity outside [0, 1] bit: {caps!r}")
        if result.c1 > result.c1_free + CLOSE_TOL:
            problems.append("cost-constrained c1 exceeds the free c1")
        return {"exact": {}, "close": {"caps": list(caps)}}, problems
    if kind == "cli_scan":
        return _cli_check(M, p, result)
    if kind in ("sim", "shaped", "rate_one"):
        summary = {"exact": {"error_counts": list(result.error_counts),
                             "bias_retries": result.bias_retries},
                   "close": {"codeword_types": list(result.codeword_types)}}
        problems = _wilson_problems(result)
        if p["tau1"] is None and result.bias_retries:
            problems.append("bias retries without a shaped dither")
        return summary, problems
    if kind == "tv":
        ok = 0.0 <= result <= 1.0
        return {"exact": {}, "close": {"tv": result}}, \
            [] if ok else [f"total variation {result!r} outside [0, 1]"]
    if kind == "tilt":
        tilted, dist = result
        problems = [] if 0.0 <= dist <= 4.0 * p["eta"] + 1e-12 else \
            [f"closeness {dist!r} above 4 eta"]
        # independent oracle: LAPACK singular values of the same difference
        diff = -tilted.operator
        d = tilted.space.base_dim
        diff[:d, :d] += _rho(p["rho"])
        oracle = float(np.linalg.svd(diff, compute_uv=False).sum())
        if abs(dist - oracle) > ORACLE_TOL:
            problems.append(f"closeness {dist!r} != LAPACK trace norm "
                            f"{oracle!r}")
        return {"exact": {"total_dim": tilted.space.total_dim},
                "bounded": {"distance": dist}}, problems
    if kind == "hn":
        return {"exact": {"holds": bool(result)}}, \
            [] if result is True else ["Hayashi-Nagaoka inequality failed"]
    if kind == "smooth":
        bound = 3.0 * p["eta"] / math.sqrt(p["d1"])
        problems = [] if 0.0 <= result <= bound + 1e-12 else \
            [f"smoothing residual {result!r} above 3 eta/sqrt|D1|"]
        return {"exact": {}, "bounded": {"residual": result}}, problems
    if kind == "four_user":
        problems = [] if result["within_21eta"] else \
            ["four-user residual above 21 eta/sqrt|D|"]
        return {"exact": {"within_3eta": result["within_3eta"],
                          "within_21eta": result["within_21eta"]},
                "bounded": {"measured": result["measured"]}}, problems
    if kind == "srm":
        expected = (1.0 + math.sin(p["phi"])) / 2.0
        problems = [] if abs(result - expected) <= CLOSE_TOL else \
            [f"SRM success {result!r} != (1 + sin phi)/2 = {expected!r}"]
        return {"exact": {}, "close": {"success": result}}, problems
    raise ValueError(f"unknown job kind {kind!r}")


def _cli_check(M, p, result):
    code, stdout, out = result
    problems = []
    if code != 0:
        return {"exact": {"code": code}, "close": {}}, [f"exit code {code}"]
    doc = json.loads(stdout)
    if (out / "scan.json").read_text(encoding="utf-8") != stdout:
        problems.append("scan.json differs from stdout")
    csv_rows = (out / "scan.csv").read_text(encoding="utf-8").splitlines()
    if len(csv_rows) != 1 + len(p["r2"]):
        problems.append(f"scan.csv has {len(csv_rows)} lines")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("command") != "scan" or len(manifest.get("outputs", ())) != 2:
        problems.append("manifest does not describe the two scan outputs")
    rows = doc["rows"]
    for row in rows:
        if row["r1_max"] < row["grid_value"]:
            problems.append(f"ray {row['r2']!r}: r1_max below grid value")
    if p["recheck"]:
        # the CLI does not return the winning config: rescan the first ray
        # through the library and probe the boundary with the direct checker
        spec = M.channels.build_ex2(p["phi"], p["delta2"], p["delta3"], p["tau"])
        res = M.regions.max_r1_scan(spec, p["r2"][0], p["r3"],
                                    evaluator=p["evaluator"],
                                    denominator=p["denominator"])
        if res.r1_max != rows[0]["r1_max"]:
            problems.append("library rescan disagrees with the CLI row")
        problems += _scan_problems(M, p, spec, res, p["r2"][0], p["r3"])
    summary = {"exact": {"evaluations": [r["evaluations"] for r in rows],
                         "finite": [math.isfinite(r["r1_max"]) for r in rows]},
               "close": {"r1_max": [r["r1_max"] for r in rows],
                         "grid_value": [r["grid_value"] for r in rows]}}
    return summary, problems


# ---------------------------------------------------------------------------
# reference comparison (default seed only)

def _close(a, b) -> bool:
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and \
            all(_close(x, y) for x, y in zip(a, b))
    if a == b:
        return True
    if isinstance(a, float) and isinstance(b, float) and \
            math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= CLOSE_TOL
    return False


def compare(summary: dict, ref: dict) -> list[str]:
    """Exact fields must match, close fields within ``CLOSE_TOL``."""
    problems = []
    for key, val in summary.get("exact", {}).items():
        if ref.get("exact", {}).get(key) != val:
            problems.append(f"{key}: {val!r} != reference "
                            f"{ref.get('exact', {}).get(key)!r}")
    for key, val in summary.get("close", {}).items():
        if not _close(val, ref.get("close", {}).get(key)):
            problems.append(f"{key} differs from the reference by more "
                            f"than {CLOSE_TOL}")
    return problems


def canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)
