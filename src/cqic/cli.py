"""Command-line front end: info, example, region, scan, sim, tiltlab, verify.

Every run is a pure function of its flags, input files and seed.
:func:`main` owns the run: it starts the clock, dispatches to the
``cmd_*`` function, and maps errors to exit codes through one table;
each command builds its document and hands it to one writer, which
prints it and writes the outputs and then exactly one ``manifest.json``
(command, full parameter set, seed, tool version, wall-clock, output
paths) next to them.  Repeating an invocation reproduces every output
byte for byte; wall-clock time lives only in the manifest.  Structured
results are JSON, tabular scans and simulations are CSV — nothing
binary.  Angles are radians, or degrees with a ``deg:`` prefix.

Exit codes: 0 success, 2 parse failure (flags or input files), 3
configuration mismatch, 4 budget overflow, 5 verification failure.

Orchestration is single-threaded; ``--threads`` only parallelizes
blocks of simulation trials (results do not depend on it).  The ``CQRL_TOL``
environment variable, a finite number above 0, sets the 1e-9 tolerance
family: :func:`main` reads it once per run and runs the command in that
:func:`~cqic.config.tolerance_scope` (inside a caller's scope it reads
nothing).  Library callers use the scope; the verification battery always
runs on the stock table.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__, verify
from .channels import (ChannelSpec, build_ex1, build_ex2, build_ex3,
                       classical_equivalent, condition_eq1,
                       coset_sufficiency_threshold, example_capacities,
                       gamma_state)
from .config import (ENUMERATION_CAP, _seed, in_tolerance_scope,
                     tolerance_scope)
from .errors import (BudgetExceeded, ConfigMismatch, CqicError, DimOverflow,
                     DomainError, NumericalFailure, ParseError, TooLarge)
from .mcsim import SimConfig, run_ex1_sim
from .regions import (Thm1Config, Thm2Config, Thm3Config, UnstructuredConfig,
                      max_r1_scan, thm1_check, thm2_feasible, thm3_feasible,
                      unstructured_3to1_check)
from .states import CqState, EntropyQuery, conditional_mutual_info, entropy
from .tiltlab import (closeness, closeness_chain, four_user_smoothing_report,
                      four_user_tilt_report, hayashi_nagaoka_check,
                      random_density, random_hn_pair, random_unit,
                      smoothing_residual, tilt_state, tiny_srm)


# ---------------------------------------------------------------------------
# flag parsing helpers

def _angle(text: str) -> float:
    """Radians, or degrees via a ``deg:`` prefix."""
    try:
        if text.startswith("deg:"):
            return math.radians(float(text[4:]))
        return float(text)
    except ValueError as exc:
        raise ParseError(f"bad angle {text!r}: use radians or deg:<degrees>"
                         ) from exc


def _triple(cast):
    def parse(text: str):
        parts = text.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected three comma-separated values, "
                             f"got {text!r}")
        try:
            return tuple(cast(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"bad value in triple {text!r}") from exc
    return parse


def _criteria_list(text: str):
    try:
        ids = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad criteria list {text!r}") from exc
    if not all(i in verify.CRITERIA for i in ids):
        raise ParseError(f"criteria are numbered {min(verify.CRITERIA)}.."
                         f"{max(verify.CRITERIA)}, got {text!r}")
    return ids


def _tolerance_family() -> float | None:
    """The run's one read of ``CQRL_TOL``: None when it is unset."""
    raw = os.environ.get("CQRL_TOL")
    if raw is None:
        return None
    try:
        family = float(raw)
    except ValueError:
        family = math.nan
    if not (math.isfinite(family) and family > 0.0):
        raise ParseError(f"CQRL_TOL must be a finite number above 0, "
                         f"got {raw!r}")
    return family


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _dump_json(obj) -> str:
    return json.dumps(_json_safe(obj), indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue()


def _channel_from_file(path: str) -> ChannelSpec:
    raw = _load_json(path)
    try:
        return ChannelSpec.from_json_dict(raw)
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad channel description in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run outputs

def _write_new(path: Path, text: str) -> None:
    """Write ``text`` into a newly created file at ``path``.

    An existing file is unlinked first instead of truncated: on ext4,
    rewriting a truncated file forces its blocks out on close
    (``auto_da_alloc``), which stalls repeated runs into one directory.
    """
    path.unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _finish(args, doc, csv_text: str | None = None,
            shown: str | None = None) -> int:
    """Print a command's document, write its outputs, then the manifest.

    ``shown`` is printed instead of the document (``verify`` prints its
    table); ``csv_text`` is written as ``<command>.csv`` ahead of
    ``<command>.json``.
    """
    text = _dump_json(doc)
    print(text if shown is None else shown, end="")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for suffix, body in (("csv", csv_text), ("json", text)):
        if body is not None:
            path = outdir / f"{args.command}.{suffix}"
            _write_new(path, body)
            names.append(str(path))
    params = {k: v for k, v in vars(args).items() if not k.startswith("_")}
    manifest = {"command": args.command, "params": params,
                "seed": getattr(args, "seed", None),
                "tool_version": __version__, "started_utc": args._started,
                "wall_clock_s": round(perf_counter() - args._t0, 6),
                "outputs": names}
    _write_new(outdir / "manifest.json", _dump_json(manifest))
    return 0


# ---------------------------------------------------------------------------
# info: entropy / information queries against a channel + input pmf

_REGISTER_ALIASES = {"X": "X1", "A": "X1", "Y": "Y1", "B": "Y1"}
_RECEIVERS = {"Y1": 0, "Y2": 1, "Y3": 2}


def _parse_group(text: str):
    """One comma-joined register group -> (classical names, receiver|None)."""
    names, receiver = [], None
    for raw in text.split(","):
        tok = _REGISTER_ALIASES.get(raw.strip(), raw.strip())
        if not tok:
            raise ParseError(f"empty register token in {text!r}")
        if tok in _RECEIVERS:
            if receiver is not None and receiver != _RECEIVERS[tok]:
                raise ConfigMismatch("two different receivers in one group")
            receiver = _RECEIVERS[tok]
        else:
            names.append(tok)
    return tuple(names), receiver


def _assemble_state(channel: ChannelSpec, table: np.ndarray,
                    receiver: int) -> CqState:
    sizes = channel.input_sizes
    smap = {x: channel.reduced(receiver, x) for x in np.ndindex(*sizes)}
    regs = [(f"X{j + 1}", sizes[j]) for j in range(3)]
    return CqState(regs, table.ravel(), smap)


def _eval_query(channel: ChannelSpec, table: np.ndarray, expr: str) -> float:
    text = expr.replace(" ", "")
    if not (text.startswith(("I(", "H(")) and text.endswith(")")):
        raise ParseError(f"cannot parse query {expr!r}")
    kind, body = text[0], text[1:]
    body = body[1:-1]
    body, _, cond = body.partition("|")
    parts = body.split(";")
    if kind == "I" and len(parts) != 2:
        raise ParseError(f"{expr!r}: I(...) takes exactly two parts")
    if kind == "H" and len(parts) != 1:
        raise ParseError(f"{expr!r}: H(...) takes one part")
    groups = [_parse_group(p) for p in parts]
    if cond:
        groups.append(_parse_group(cond))
    receivers = {r for _, r in groups if r is not None}
    if len(receivers) > 1:
        raise ConfigMismatch(f"{expr!r} mixes outputs of several receivers")
    j = receivers.pop() if receivers else 0
    st = _assemble_state(channel, table, j)
    queries = [EntropyQuery(names, r is not None) for names, r in groups]
    if kind == "H":
        main = queries[0]
        cond_q = queries[1] if len(queries) > 1 else EntropyQuery()
        return entropy(st, main.union(cond_q)) - entropy(st, cond_q)
    cond_q = queries[2] if len(queries) > 2 else None
    return conditional_mutual_info(st, queries[0], queries[1], cond_q)


def _load_pmf_table(path: str, sizes) -> np.ndarray:
    raw = _load_json(path)
    if isinstance(raw, dict):
        if "pmf" not in raw:
            raise ParseError(f"{path}: pmf document needs a 'pmf' key")
        raw = raw["pmf"]
    try:
        table = np.asarray(raw, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: pmf is not a numeric array") from exc
    total = int(np.prod(sizes))
    if table.size != total:
        raise ConfigMismatch(f"pmf has {table.size} entries, channel inputs "
                             f"{tuple(sizes)} need {total}")
    return table.reshape(tuple(sizes))


def cmd_info(args) -> int:
    channel = _channel_from_file(args.channel)
    table = _load_pmf_table(args.pmf, channel.input_sizes)
    quantities = {q: _eval_query(channel, table, q) for q in args.query}
    return _finish(args, {"channel": args.channel, "pmf": args.pmf,
                          "quantities": quantities})


# ---------------------------------------------------------------------------
# example: capacities, sum condition and region verdicts of one instance

VERDICT_SEPARATION = "separation demonstrated"
VERDICT_NO_COSET = "coset sufficiency condition fails"
VERDICT_NONE = "no separation at these parameters"


def _build_example(args) -> ChannelSpec:
    if args.name == "ex1":
        return build_ex1(args.delta1, args.delta2, args.delta3, args.tau)
    if args.name == "ex2":
        return build_ex2(args.phi, args.delta2, args.delta3, args.tau)
    return build_ex3(args.phi, args.delta2, args.delta3, args.tau,
                     args.tau2, args.tau3)


def _proof_thm1_config(spec: ChannelSpec) -> Thm1Config:
    """Cost-tight direct layers over the binary field, identity maps."""
    taus = spec.budget.as_tuple()
    layer = []
    for j in (1, 2):
        costed = spec.costs[j].max() > 0
        t = min(taus[j], 0.5) if costed else 0.5
        layer.append((1.0 - t, t))
    t1 = min(taus[0], 0.5)
    return Thm1Config(2, (1.0 - t1, t1), layer[0], layer[1], (0, 1), (0, 1))


def cmd_example(args) -> int:
    spec = _build_example(args)
    caps = example_capacities(spec)
    eq1 = condition_eq1(spec, caps)
    gap = caps.c1_free - (caps.c1 + max(caps.c2, caps.c3))
    rates = (caps.c1 - 1e-6, caps.c2 - 1e-6, caps.c3 - 1e-6)
    report = thm1_check(spec, _proof_thm1_config(spec), rates)
    doc = {
        "example": args.name,
        "params": {"phi": args.phi, "delta1": args.delta1,
                   "delta2": args.delta2, "delta3": args.delta3,
                   "tau": args.tau, "tau2": args.tau2, "tau3": args.tau3},
        "capacities": {"c1": caps.c1, "c2": caps.c2, "c3": caps.c3,
                       "c1_free": caps.c1_free},
        "eq1": {"lhs": caps.c1 + caps.c2 + caps.c3, "rhs": caps.c1_free,
                "holds": eq1},
        "separation": {"gap": gap, "hypothesis_holds": gap > 0.0},
        "region": {"rates_checked": list(rates),
                   "thm1_feasible": report.feasible,
                   "min_slack": report.min_slack()},
    }
    theta = None
    if args.name == "ex3":
        theta = {
            "printed": coset_sufficiency_threshold(
                args.phi, args.tau, args.tau2, args.tau3),
            "corrected_indices": coset_sufficiency_threshold(
                args.phi, args.tau, args.tau2, args.tau3,
                corrected_indices=True),
        }
        doc["theta"] = theta
    if eq1 and gap > 0.0:
        doc["verdict"] = VERDICT_SEPARATION
    elif theta is not None and caps.c1 + caps.c2 + caps.c3 >= theta["printed"]:
        doc["verdict"] = VERDICT_NO_COSET
    else:
        doc["verdict"] = VERDICT_NONE
    if args.name == "ex1":
        eq = classical_equivalent(spec)
        doc["classical_equivalent"] = (
            {"transitions": [t.tolist() for t in eq.transitions]}
            if hasattr(eq, "transitions") else None)
    return _finish(args, doc)


# ---------------------------------------------------------------------------
# region: evaluate one inner-bound report at explicit rates

def _region_config(theorem: str, raw: dict):
    try:
        if theorem == "thm1":
            return Thm1Config(raw["field_size"], tuple(raw["p_x1"]),
                              tuple(raw["p_u2"]), tuple(raw["p_u3"]),
                              tuple(raw["f2"]), tuple(raw["f3"]))
        if theorem == "unstructured":
            return UnstructuredConfig(np.asarray(raw["p_x1"], float),
                                      np.asarray(raw["p_u2x2"], float),
                                      np.asarray(raw["p_u3x3"], float))
        factors = tuple(np.asarray(f, float) for f in raw["factors"])
        fields = tuple(raw["fields"])
        cls = Thm2Config if theorem == "thm2" else Thm3Config
        return cls(fields, factors)
    except KeyError as exc:
        raise ParseError(f"region config is missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ParseError(f"region config is malformed: {exc}") from exc


def cmd_region(args) -> int:
    channel = _channel_from_file(args.channel)
    cfg = _region_config(args.theorem, _load_json(args.config))
    if args.theorem == "thm1":
        report = thm1_check(channel, cfg, args.rates)
    elif args.theorem == "unstructured":
        report = unstructured_3to1_check(channel, cfg, args.rates)
    elif args.theorem == "thm2":
        report = thm2_feasible(channel, cfg, args.rates,
                               drop_dont_care=args.drop_dont_care)
    else:
        report = thm3_feasible(channel, cfg, args.rates,
                               drop_dont_care=args.drop_dont_care)
    return _finish(args, {"theorem": args.theorem, "rates": list(args.rates),
                          "report": report.to_json_dict()})


# ---------------------------------------------------------------------------
# scan: largest feasible R1 along a list of fixed (R2, R3) rays

def _scan_channel(args) -> ChannelSpec:
    if args.channel is not None:
        return _channel_from_file(args.channel)
    if args.name is None:
        raise ParseError("scan needs either --channel or --example")
    return _build_example(args)


def cmd_scan(args) -> int:
    channel = _scan_channel(args)
    rows = []
    for r2 in args.r2:
        res = max_r1_scan(channel, float(r2), args.r3,
                          evaluator=args.evaluator,
                          u_sizes=(args.u2, args.u3),
                          field_size=args.field_size,
                          denominator=args.denominator,
                          scan_cap=args.cap, refine=not args.no_refine)
        rows.append((float(r2), args.r3, res.r1_max, res.grid_value,
                     res.evaluations))
    header = ("r2", "r3", "r1_max", "grid_value", "evaluations")
    doc = {"evaluator": args.evaluator, "r3": args.r3,
           "denominator": args.denominator,
           "rows": [dict(zip(header, row)) for row in rows]}
    return _finish(args, doc, csv_text=_csv_text(header, rows))


# ---------------------------------------------------------------------------
# sim: Monte-Carlo block-error run

def cmd_sim(args) -> int:
    cfg = SimConfig(args.n, args.coset_dims, args.message_dims, args.delta,
                    trials=args.trials, rng_seed=args.seed,
                    decoder=args.decoder, tau1=args.tau1)
    result = run_ex1_sim(cfg, threads=args.threads)
    doc = {"config": asdict(cfg), "error_counts": list(result.error_counts),
           "error_rates": list(result.error_rates),
           "intervals": [list(iv) for iv in result.intervals],
           "codeword_types": list(result.codeword_types),
           "bias_retries": result.bias_retries}
    return _finish(args, doc, csv_text=_csv_text(result.csv_header(),
                                                 [result.csv_row()]))


# ---------------------------------------------------------------------------
# tiltlab: batch reports for the operator toolkit

def cmd_tiltlab(args) -> int:
    rng = np.random.default_rng(_seed(args.seed))
    if args.cases < 0:
        raise DomainError(f"cases must be non-negative, got {args.cases}")
    tilt_rows, operator_rows = [], []
    for case in range(args.cases):
        eta = float(args.eta[case % len(args.eta)])
        dim = int(rng.integers(2, 5))
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        rho = random_density(rng, dim)
        tilted = tilt_state(rho, random_unit(rng, d1),
                            random_unit(rng, d2), eta)
        dist = closeness(rho, tilted)
        chain, linear = closeness_chain(eta)
        tilt_rows.append({"case": case, "eta": eta, "dim": dim,
                          "d1": d1, "d2": d2, "distance": dist,
                          "chain_bound": chain, "linear_bound": linear,
                          "ok": dist <= linear + 1e-12})
        hdim = (2, 4, 8, 16)[case % 4]
        operator_rows.append({"case": case, "dim": hdim,
                              "ok": hayashi_nagaoka_check(
                                  *random_hn_pair(rng, hdim))})
    rho0 = random_density(rng, 2)
    smoothing_rows = []
    for eta in args.eta:
        for size in args.sizes:
            _, residual = smoothing_residual(rho0, (int(size), 2),
                                             float(eta))
            bound = 3.0 * float(eta) / math.sqrt(int(size))
            smoothing_rows.append({"eta": float(eta), "size": int(size),
                                   "residual": residual, "bound": bound,
                                   "ok": residual <= bound + 1e-12})
    basis = np.zeros(2)
    basis[0] = 1.0
    four_user = [{"eta": float(eta),
                  "tilt": four_user_tilt_report(basis, 2, float(eta)),
                  "smoothing": four_user_smoothing_report(rho0, 2,
                                                          float(eta))}
                 for eta in args.eta]
    phi = math.pi / 4
    _, success = tiny_srm([gamma_state(phi, 0), gamma_state(phi, 1)],
                          (0.5, 0.5))
    doc = {"tilt": tilt_rows, "operator_bound": operator_rows,
           "smoothing": smoothing_rows, "four_user": four_user,
           "srm": {"success": success,
                   "expected": (1.0 + math.sin(phi)) / 2.0},
           "all_within_bounds": (all(r["ok"] for r in tilt_rows)
                                 and all(r["ok"] for r in operator_rows)
                                 and all(r["ok"] for r in smoothing_rows))}
    return _finish(args, doc)


# ---------------------------------------------------------------------------
# verify: the numbered battery, table on stdout

def cmd_verify(args) -> int:
    results = verify.run_criteria(args.criteria, threads=args.threads)
    _finish(args, {"results": [r.to_json_dict() for r in results]},
            shown=verify.format_table(results) + "\n")
    return 0 if all(r.passed for r in results) else 5


# ---------------------------------------------------------------------------
# parser assembly

def _add_example_flags(sub) -> None:
    sub.add_argument("--phi", type=_angle, default=math.pi / 3,
                     help="rotation angle (radians, or deg:<degrees>)")
    sub.add_argument("--delta1", type=float, default=0.1,
                     help="receiver-1 flip probability (first family only)")
    sub.add_argument("--delta2", type=float, default=0.1,
                     help="receiver-2 flip probability")
    sub.add_argument("--delta3", type=float, default=0.1,
                     help="receiver-3 flip probability")
    sub.add_argument("--tau", type=float, default=0.25,
                     help="user-1 Hamming cost budget")
    sub.add_argument("--tau2", type=float, default=0.25,
                     help="user-2 cost budget (all-costed family)")
    sub.add_argument("--tau3", type=float, default=0.25,
                     help="user-3 cost budget (all-costed family)")


def _add_out(sub) -> None:
    sub.add_argument("--out", default=".",
                     help="directory for outputs and manifest.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqic",
        description="Rate regions, coset codes and operator checks for "
                    "three-user classical-quantum interference channels.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="entropy / information queries "
                                     "against a channel and an input pmf")
    p.add_argument("channel", help="channel description (JSON)")
    p.add_argument("pmf", help="joint input pmf (JSON)")
    p.add_argument("--query", action="append", required=True,
                   help="e.g. 'I(X1;Y1)', 'H(Y2|X2)', 'I(X1;Y1|X2,X3)'; "
                        "repeatable")
    _add_out(p)

    p = subs.add_parser("example", help="capacities, sum condition and "
                                        "region verdicts of one instance")
    p.add_argument("name", choices=("ex1", "ex2", "ex3"))
    _add_example_flags(p)
    _add_out(p)

    p = subs.add_parser("region", help="evaluate one inner-bound report "
                                       "at explicit rates")
    p.add_argument("--theorem", required=True,
                   choices=("thm1", "unstructured", "thm2", "thm3"))
    p.add_argument("--channel", required=True,
                   help="channel description (JSON)")
    p.add_argument("--config", required=True,
                   help="input-distribution config (JSON)")
    p.add_argument("--rates", type=_triple(float), required=True,
                   help="rate triple r1,r2,r3")
    p.add_argument("--drop-dont-care", action="store_true",
                   help="drop packing rows that fix no message part")
    _add_out(p)

    p = subs.add_parser("scan", help="largest feasible R1 over a config "
                                     "grid, along fixed (R2, R3) rays")
    p.add_argument("--channel", help="channel description (JSON); "
                                     "alternative to --example")
    p.add_argument("--example", dest="name", choices=("ex1", "ex2", "ex3"),
                   help="build a worked instance instead of reading a file")
    _add_example_flags(p)
    p.add_argument("--r2", type=float, nargs="+", required=True,
                   help="one CSV row per value")
    p.add_argument("--r3", type=float, default=0.0)
    p.add_argument("--evaluator", choices=("unstructured", "thm1"),
                   default="unstructured")
    p.add_argument("--u2", type=int, default=2,
                   help="user-2 auxiliary alphabet size")
    p.add_argument("--u3", type=int, default=2,
                   help="user-3 auxiliary alphabet size")
    p.add_argument("--field-size", type=int, default=2)
    p.add_argument("--denominator", type=int, default=32,
                   help="pmf grid denominator")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                   help="abort (exit 4) if the grid exceeds this")
    p.add_argument("--no-refine", action="store_true",
                   help="skip the local refinement pass")
    _add_out(p)

    p = subs.add_parser("sim", help="Monte-Carlo block-error run of the "
                                    "binary additive channel")
    p.add_argument("--n", type=int, required=True, help="blocklength")
    p.add_argument("--coset-dims", type=_triple(int), required=True,
                   help="inner (dither) generator rows per user, k1,k2,k3")
    p.add_argument("--message-dims", type=_triple(int), required=True,
                   help="outer (message) generator rows per user, l1,l2,l3")
    p.add_argument("--delta", type=_triple(float), required=True,
                   help="crossover probabilities d1,d2,d3")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (stochastic command)")
    p.add_argument("--decoder", choices=("ml_joint", "sum_coset"),
                   default="ml_joint")
    p.add_argument("--tau1", type=float, default=None,
                   help="shape user 1's dither toward this Hamming type")
    p.add_argument("--threads", type=int, default=1,
                   help="workers over blocks of trials; results do not "
                        "depend on it")
    _add_out(p)

    p = subs.add_parser("tiltlab", help="batch reports for the tilting / "
                                        "smoothing operator toolkit")
    p.add_argument("--eta", type=float, nargs="+",
                   default=[0.05, 0.1, 0.2])
    p.add_argument("--cases", type=int, default=20,
                   help="random tilt and operator-bound cases")
    p.add_argument("--sizes", type=int, nargs="+", default=[2, 4, 8, 16],
                   help="averaged-direction counts for smoothing")
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (stochastic command)")
    _add_out(p)

    p = subs.add_parser("verify", help="run the numbered verification "
                                       "battery (exit 5 on any failure)")
    p.add_argument("--criteria", type=_criteria_list, default=None,
                   help="comma-separated subset, e.g. 5,9 (default all)")
    p.add_argument("--threads", type=int, default=1,
                   help="workers over blocks of simulation trials")
    _add_out(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call of a process."""
    return build_parser()


#: error class -> exit code; the first matching row wins
_EXIT_CODES = ((ParseError, 2), ((BudgetExceeded, TooLarge, DimOverflow), 4),
               (NumericalFailure, 5), (CqicError, 3), (OSError, 2))


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with (contextlib.nullcontext() if in_tolerance_scope()
              else tolerance_scope(_tolerance_family())):
            args._t0 = perf_counter()
            args._started = datetime.now(timezone.utc).isoformat()
            # looked up per call, so that the parser, built once, pins no
            # command function
            return int(globals()[f"cmd_{args.command}"](args))
    except SystemExit as exc:
        return 0 if not exc.code else int(exc.code)
    except (CqicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES
                    if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
