"""Numbered verification battery behind ``cqic verify`` and the
acceptance tests.

Eleven self-contained checks, each pinning one headline claim of the
library to an independent closed form, an exhaustive enumeration, or a
fixed-seed measurement.  Every check returns a :class:`CriterionResult`
with a verdict, its runtime and a one-line summary of what was
measured; nothing is asserted here so a caller can render the whole
table even when a criterion fails.

The battery always runs on the stock tolerance table: :func:`run_criteria`
enters the stock :func:`~cqic.config.tolerance_scope`, whatever scope its
caller set or ``CQRL_TOL`` value the CLI read.
"""

from __future__ import annotations

import contextlib
import io
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .channels import (build_ex2, build_ex3, condition_eq1,
                       example_capacities, gamma_state, or_recovery_check,
                       user_capacity_cost)
from .config import tolerance_scope
from .errors import DomainError
from .mcsim import SimConfig, run_ex1_sim, soft_covering_tv
from .regions import (Thm1Config, UnstructuredConfig, max_r1_scan,
                      thm1_check, thm3_config_from_unstructured,
                      thm3_feasible, unstructured_3to1_check)
from .states import (CqState, EntropyQuery, binary_convolve, binary_entropy,
                     conditional_mutual_info, entropy, fact1_f)
from .tiltlab import (closeness, hayashi_nagaoka_check, random_density,
                      random_hn_pair, random_unit, tilt_state)

#: documented separation instance: rotation angle, flip probabilities,
#: user-1 cost budget
SEPARATION_INSTANCE = {"phi": math.pi / 3, "delta2": 0.1, "delta3": 0.1,
                       "tau": 1.0 / 32.0}


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one numbered check."""

    cid: int
    title: str
    passed: bool
    seconds: float
    details: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.cid:2d}: {verdict}  "
                f"[{self.seconds:7.2f}s]  {self.title} -- {self.details}")

    def to_json_dict(self) -> dict:
        return {"criterion": self.cid, "title": self.title,
                "passed": self.passed, "seconds": round(self.seconds, 3),
                "details": self.details}


def _result(cid, title, t0, passed, details) -> CriterionResult:
    return CriterionResult(cid, title, bool(passed),
                           perf_counter() - t0, details)


def criterion_1() -> CriterionResult:
    """Binary-input mutual information matches h_b(f(1-alpha)) on a grid."""
    t0 = perf_counter()
    alphas = np.linspace(0.0, 1.0, 22)[1:-1]
    phis = np.linspace(0.0, math.pi / 2, 22)[1:-1]
    worst = 0.0
    for alpha in alphas:
        for phi in phis:
            st = CqState([("A", 2)], [1.0 - alpha, alpha],
                         {(0,): gamma_state(phi, 0),
                          (1,): gamma_state(phi, 1)})
            got = conditional_mutual_info(st, EntropyQuery(("A",)),
                                          EntropyQuery((), True))
            want = binary_entropy(fact1_f(1.0 - alpha, phi))
            worst = max(worst, abs(got - want))
    return _result(1, "pure-pair mutual information identity", t0,
                   worst <= 1e-9,
                   f"max |I(A;B) - h_b(f(1-alpha))| = {worst:.3e} "
                   f"over a 20x20 interior grid (tol 1e-9)")


def criterion_2() -> CriterionResult:
    """Capacity scans reproduce all four closed forms at 10 points each."""
    t0 = perf_counter()
    gaps = []
    for d in np.linspace(0.05, 0.45, 10):
        spec = build_ex2(math.pi / 4, float(d), 0.3, 0.25)
        got, _ = user_capacity_cost(spec, 1, None)
        gaps.append(abs(got - (1.0 - binary_entropy(float(d)))))
    taus = np.linspace(0.05, 0.45, 10)
    deltas = np.linspace(0.06, 0.42, 10)
    for i in range(10):
        tau, d = float(taus[i]), float(deltas[i])
        spec = build_ex3(math.pi / 4, d, d, 0.3, tau, tau)
        got, _ = user_capacity_cost(spec, 1 + (i % 2), tau)
        want = binary_entropy(binary_convolve(tau, d)) - binary_entropy(d)
        gaps.append(abs(got - want))
    for tau in np.linspace(0.02, 0.48, 10):
        spec = build_ex2(math.pi / 3, 0.1, 0.1, float(tau))
        got, _ = user_capacity_cost(spec, 0, float(tau))
        gaps.append(abs(got - binary_entropy(fact1_f(float(tau),
                                                     math.pi / 3))))
    for phi in np.linspace(0.15, math.pi / 2 - 0.15, 10):
        spec = build_ex2(float(phi), 0.1, 0.1, 0.5)
        got, _ = user_capacity_cost(spec, 0, None)
        gaps.append(abs(got - binary_entropy((1.0 + math.cos(float(phi)))
                                             / 2.0)))
    worst = max(gaps)
    return _result(2, "single-user capacity closed forms", t0,
                   worst <= 1e-6,
                   f"max formula gap {worst:.3e} over 40 scans (tol 1e-6)")


def criterion_3() -> CriterionResult:
    """Conditioning on the independent bit strictly increases information."""
    t0 = perf_counter()
    rng = np.random.default_rng(314159)
    min_gap = math.inf
    count = 0
    while count < 100:
        px = float(rng.uniform(0.05, 0.95))
        pb = float(rng.uniform(0.05, 0.95))
        phi = float(rng.uniform(0.1, math.pi / 2 - 0.1))
        st = CqState([("X", 2), ("B", 2)],
                     np.outer([1.0 - px, px], [1.0 - pb, pb]).ravel(),
                     {(x, b): gamma_state(phi, (x + b) % 2)
                      for x in (0, 1) for b in (0, 1)})
        h_y_b = entropy(st, EntropyQuery(("B",), True)) \
            - entropy(st, EntropyQuery(("B",)))
        h_y_x = entropy(st, EntropyQuery(("X",), True)) \
            - entropy(st, EntropyQuery(("X",)))
        if min(h_y_b, h_y_x) <= 1e-6:
            continue  # outside the strictness hypotheses; redraw
        qy = EntropyQuery((), True)
        gap = conditional_mutual_info(st, EntropyQuery(("X",)), qy,
                                      EntropyQuery(("B",))) \
            - conditional_mutual_info(st, EntropyQuery(("X",)), qy)
        min_gap = min(min_gap, gap)
        count += 1
    return _result(3, "strictness of conditioning on the hidden bit", t0,
                   min_gap > 1e-9,
                   f"min I(X;Y|B) - I(X;Y) = {min_gap:.3e} over "
                   f"100 draws (must exceed 1e-9)")


def criterion_4() -> CriterionResult:
    """Unstructured scans stay below the coset-certified rate triple.

    Symbol alphabets up to size 4 are covered; the grid denominator
    shrinks with the alphabet so every scan respects the enumeration
    cap (the binary scan runs at the full denominator-32 grid).
    """
    t0 = perf_counter()
    inst = SEPARATION_INSTANCE
    tau = inst["tau"]
    spec = build_ex2(inst["phi"], inst["delta2"], inst["delta3"], tau)
    caps = example_capacities(spec)
    eq1 = condition_eq1(spec, caps)
    hypothesis = caps.c1_free > caps.c1 + max(caps.c2, caps.c3) + 1e-9
    r2, r3 = caps.c2 - 1e-6, caps.c3 - 1e-6
    sups = []
    for sizes, denom in (((2, 2), 32), ((3, 3), 6), ((4, 4), 3)):
        res = max_r1_scan(spec, r2, r3, evaluator="unstructured",
                          u_sizes=sizes, denominator=denom)
        sups.append(res.r1_max)
    scan_ok = all(s <= caps.c1 - 1e-3 for s in sups)
    cfg = Thm1Config(2, (1.0 - tau, tau), (0.5, 0.5), (0.5, 0.5),
                     (0, 1), (0, 1))
    rep = thm1_check(spec, cfg,
                     (caps.c1 - 1e-6, caps.c2 - 1e-6, caps.c3 - 1e-6))
    passed = eq1 and hypothesis and scan_ok and rep.feasible
    best = max(sups)
    return _result(4, "separation of the coset region from the scans", t0,
                   passed,
                   f"scan sup R1 = {best} vs budget-constrained rate "
                   f"{caps.c1:.6f}; coset check feasible={rep.feasible}, "
                   f"sum condition holds={eq1}")


def criterion_5() -> CriterionResult:
    """Logical OR is a deterministic function of the ternary sum."""
    t0 = perf_counter()
    ok = or_recovery_check()
    return _result(5, "OR recovery from the ternary sum", t0, ok,
                   "H(X2 v X3 | ternary sum) = 0 exactly on the "
                   "denominator-16 pmf grid" if ok else
                   "a grid pmf broke the zero-entropy identity")


def criterion_6() -> CriterionResult:
    """Layered checker with trivial cosets equals the direct evaluator."""
    t0 = perf_counter()
    rng = np.random.default_rng(60606)
    agree = 0
    feasible_count = 0
    for _ in range(100):
        phi = float(rng.uniform(0.3, 1.2))
        d2 = float(rng.uniform(0.05, 0.45))
        d3 = float(rng.uniform(0.05, 0.45))
        spec = build_ex2(phi, d2, d3, 0.5)
        p1 = rng.dirichlet((1.0, 1.0))
        if p1[1] > 0.5:
            p1 = p1[::-1].copy()
        # spiky joints and cubed rate fractions keep both verdicts common
        cfg = UnstructuredConfig(p1,
                                 rng.dirichlet(np.full(4, 0.3)).reshape(2, 2),
                                 rng.dirichlet(np.full(4, 0.3)).reshape(2, 2))
        u = rng.random(3) ** 3
        rates = (float(u[0]) * binary_entropy(fact1_f(0.5, phi)) * 1.2,
                 float(u[1]) * (1.0 - binary_entropy(d2)) * 1.2,
                 float(u[2]) * (1.0 - binary_entropy(d3)) * 1.2)
        direct = unstructured_3to1_check(spec, cfg, rates).feasible
        layered = thm3_feasible(spec,
                                thm3_config_from_unstructured(spec, cfg),
                                rates).feasible
        agree += direct == layered
        feasible_count += direct
    passed = agree == 100 and 0 < feasible_count < 100
    return _result(6, "trivial-coset collapse of the layered region", t0,
                   passed,
                   f"{agree}/100 verdicts agree "
                   f"({feasible_count} feasible, {100 - feasible_count} not)")


#: soft-covering check: binary target pmf, from the criterion's own
#: blocklength 10 up to 16, the largest n whose k = 0 row (2^n dual
#: words) fits the exact-transform cap of :func:`soft_covering_tv`
SOFT_COVER_P = (0.8, 0.2)
SOFT_COVER_NS = (10, 12, 14, 16)


def _soft_covering_bound(n: int, k: int, p) -> float:
    """Second-moment bound ½·√((2·Σ pᵢ²)ⁿ / 2ᵏ) on the ensemble-mean TV.

    Valid for a uniformly drawn full-rank k×n binary generator G with a
    uniform dither b; see :func:`criterion_7` for the derivation.
    """
    collision = float(np.sum(np.square(np.asarray(p, dtype=float))))
    return 0.5 * math.sqrt((2.0 * collision) ** n / 2.0 ** k)


def criterion_7() -> CriterionResult:
    """Dithered-coset law obeys the finite-blocklength soft-covering bound.

    For each n in ``SOFT_COVER_NS`` and every coset dimension k = 0..n,
    the exact dither-averaged total variation between the selected
    codeword's law and pⁿ is averaged over 50 full-rank codes (seed 42,
    p = (0.8, 0.2)).  The verdict needs all of:

    (a) at every n, TV does not increase with k (1e-12 slack) and is 0
        at k = n, where the coset is the whole space;
    (b) every row satisfies TV ≤ B(n, k) = ½·√((2·Σ pᵢ²)ⁿ / 2ᵏ);
    (c) at the fixed rates 1/2 and 3/4, TV strictly decreases along the
        n at which the rate is integral.

    Derivation of B.  Let C = rowspace(G) and P(x + C) the pⁿ-mass of a
    coset.  Likelihood encoding inside a uniformly dithered coset
    selects the coset uniformly and then pⁿ conditioned on it, so
    TV = ½·Σ_cosets |P(coset) − 2^(k−n)| = ½·2^(n−k)·E_b|P(b + C) − 2^(k−n)|.
    Write P(b + C) = Σ_a pⁿ(b + aG) over the 2ᵏ messages a.  For a ≠ a'
    the pair (b + aG, b + a'G) is uniform over ordered pairs of distinct
    words, and since 2ⁿ·Σ(pⁿ)² ≥ 1 the two masses are negatively
    correlated.  Hence Var P(b + C) ≤ 2ᵏ·E[pⁿ(b)²] = 2ᵏ·Σ_x pⁿ(x)²/2ⁿ,
    and Cauchy–Schwarz with Jensen over G gives E_G TV ≤ B(n, k).  As
    Σ_x pⁿ(x)² = 2^(−n·H₂(p)) with the collision entropy H₂, the bound
    decays exponentially in n exactly when k/n > 1 − H₂(p) (≈ 0.444
    here).  The Shannon threshold 1 − h(p) (≈ 0.278) is the asymptotic
    one only: "TV < 0.05 at every rate ≥ 1 − h(p) + 0.15" is not
    reachable at any blocklength the exact check covers (TV ≈ 0.20 at
    n = 29, k = 13 over 5 codes), so its gap is reported but does not
    decide the verdict.
    """
    t0 = perf_counter()
    p = SOFT_COVER_P
    tvs = {n: [soft_covering_tv(n, k, 2, p, 42, num_codes=50)
               for k in range(n + 1)]
           for n in SOFT_COVER_NS}
    monotone = all(all(b <= a + 1e-12 for a, b in zip(row, row[1:]))
                   and row[-1] <= 1e-12 for row in tvs.values())
    ratio = max(tv / _soft_covering_bound(n, k, p)
                for n, row in tvs.items() for k, tv in enumerate(row))
    trends = {f"{num}/{den}": [row[n * num // den] for n, row in tvs.items()
                               if n * num % den == 0]
              for num, den in ((1, 2), (3, 4))}
    decays = all(all(b < a for a, b in zip(trend, trend[1:]))
                 for trend in trends.values())
    threshold = (1.0 - binary_entropy(p[1])) + 0.15
    n0 = SOFT_COVER_NS[0]
    gaps = {k: round(tv - 0.05, 4) for k, tv in enumerate(tvs[n0])
            if k / n0 >= threshold}
    rows = "; ".join(f"n={n} {[round(tv, 4) for tv in row]}"
                     for n, row in tvs.items())
    trend_text = ", ".join(f"rate {r} {[round(tv, 4) for tv in trend]}"
                           for r, trend in trends.items())
    detail = (f"TV by rows: {rows}; monotone with 0 at k=n: {monotone}; "
              f"max TV/bound {ratio:.3f} (needs <= 1); decay in n: "
              f"{trend_text} (strictly decreasing={decays}); asymptotic "
              f"target TV < 0.05 at rate >= {threshold:.3f}, not judged: "
              f"gap TV-0.05 at n={n0} {gaps}")
    return _result(7, "soft-covering decay of the dithered-coset law", t0,
                   monotone and ratio <= 1.0 and decays, detail)


def criterion_8() -> CriterionResult:
    """Tilted states stay within the linear trace-norm envelope."""
    t0 = perf_counter()
    rng = np.random.default_rng(88)
    worst_margin = -math.inf
    for eta in (0.05, 0.1, 0.2):
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            d1 = random_unit(rng, int(rng.integers(1, 4)))
            d2 = random_unit(rng, int(rng.integers(1, 4)))
            rho = random_density(rng, dim)
            dist = closeness(rho, tilt_state(rho, d1, d2, eta))
            worst_margin = max(worst_margin, dist - 4.0 * eta)
    return _result(8, "linear envelope of the two-direction tilt", t0,
                   worst_margin <= 0.0,
                   f"max (distance - 4 eta) = {worst_margin:.3e} over "
                   f"150 random states, eta in {{0.05, 0.1, 0.2}}")


def criterion_9() -> CriterionResult:
    """Operator two-sided bound holds on random measurement pairs."""
    t0 = perf_counter()
    rng = np.random.default_rng(99)
    ok = 0
    for i in range(200):
        ok += hayashi_nagaoka_check(
            *random_hn_pair(rng, (2, 4, 8, 16)[i % 4]))
    return _result(9, "pretty-good-measurement operator bound", t0,
                   ok == 200,
                   f"{ok}/200 random (S, T) pairs satisfied the bound "
                   f"(dims 2..16, min-eig tolerance 1e-9)")


#: simulation operating point: every message rate is 1/4, at least 25%
#: below the corresponding single-user decoding threshold at these
#: crossover probabilities
SIM_DELTAS = (0.05, 0.1, 0.1)
SIM_SEED = 2026


def criterion_10(threads: int = 1) -> CriterionResult:
    """Block-error rates fall with blocklength below threshold rates."""
    t0 = perf_counter()
    errs = []
    for n in (12, 16, 20):
        q = n // 4
        cfg = SimConfig(n, (0, 0, 0), (q, q, q), SIM_DELTAS,
                        trials=10_000, rng_seed=SIM_SEED)
        errs.append(run_ex1_sim(cfg, threads=threads).error_rates[0])
    decreasing = errs[0] > errs[1] > errs[2]
    rate_one = SimConfig(16, (0, 0, 0), (0, 16, 0), SIM_DELTAS,
                         trials=400, rng_seed=11)
    e2 = run_ex1_sim(rate_one, threads=threads).error_rates[1]
    passed = decreasing and e2 >= 0.5
    return _result(10, "finite-blocklength error behaviour", t0, passed,
                   f"Rx-1 errors over n=(12,16,20): "
                   f"{[round(e, 4) for e in errs]} "
                   f"(strictly decreasing={decreasing}); rate-1 user-2 "
                   f"error {e2:.3f} (needs >= 0.5)")


def criterion_11() -> CriterionResult:
    """Simulation and scan commands reproduce their outputs byte for byte."""
    from . import cli  # local import: cli imports this module for verify

    t0 = perf_counter()
    sim_flags = ["--n", "8", "--coset-dims", "0,0,0",
                 "--message-dims", "2,2,2", "--delta", "0.05,0.1,0.1",
                 "--trials", "200", "--seed", "7"]
    scan_flags = ["--example", "ex2", "--tau", "0.5", "--r2", "0.2", "0.3",
                  "--r3", "0.1", "--denominator", "4", "--no-refine"]
    codes = []
    payloads: dict[str, list[bytes]] = {"sim.csv": [], "sim.json": [],
                                        "scan.csv": [], "scan.json": []}
    quiet = io.StringIO()  # the files are the object of the check
    with tempfile.TemporaryDirectory() as td, \
            contextlib.redirect_stdout(quiet):
        runs = [("a", "1"), ("b", "1"), ("c", "4")]
        for tag, threads in runs:
            out = str(Path(td) / f"sim_{tag}")
            codes.append(cli.main(["sim", *sim_flags,
                                   "--threads", threads, "--out", out]))
            for name in ("sim.csv", "sim.json"):
                payloads[name].append((Path(out) / name).read_bytes())
        for tag, _ in runs:
            out = str(Path(td) / f"scan_{tag}")
            codes.append(cli.main(["scan", *scan_flags, "--out", out]))
            for name in ("scan.csv", "scan.json"):
                payloads[name].append((Path(out) / name).read_bytes())
    clean = all(c == 0 for c in codes)
    stable = all(len(set(blobs)) == 1 for blobs in payloads.values())
    return _result(11, "byte-identical reruns of sim and scan", t0,
                   clean and stable,
                   f"exit codes {codes}; identical outputs across reruns "
                   f"and sim --threads 4: {stable}")


CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
            5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
            9: criterion_9, 10: criterion_10, 11: criterion_11}


def run_criteria(ids=None, threads: int = 1) -> list[CriterionResult]:
    """Run the requested checks (all eleven by default) in order."""
    ids = sorted(CRITERIA) if ids is None else [int(cid) for cid in ids]
    for cid in ids:
        if cid not in CRITERIA:
            raise DomainError(f"no criterion numbered {cid}")
    if 10 in ids and threads < 1:  # before any criterion runs
        raise DomainError("threads must be at least 1")
    with tolerance_scope():
        return [CRITERIA[cid](threads) if cid == 10 else CRITERIA[cid]()
                for cid in ids]


def format_table(results) -> str:
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
