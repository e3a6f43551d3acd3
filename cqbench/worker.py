"""One benchmark process: set up a workload, run it closed-loop, check it.

Started by ``run.py`` with a pinned environment; prints one JSON line.

``--mode setup`` stops after set-up and reports its duration (``run.py``
starts several of these to take a median).  ``--mode run`` then issues the
workload's job list one job at a time, checks each output untimed, and
repeats the list until ``--seconds`` have passed.  With ``--trace 1``
rounds alternate between untraced and traced, so each traced round has an
untraced twin just before it to measure the tracing overhead against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracer as tracing
import workloads as wl
from metrics import PER_LAYER

HERE = Path(__file__).resolve().parent

MAX_ROUNDS = 10_000


def _import_cqic(root: Path):
    src = (root / "src").resolve()
    import cqic
    if Path(cqic.__file__).resolve().parent != src / "cqic":
        raise SystemExit(f"cqic imported from {cqic.__file__}, not {src}")
    from cqic import channels, cli, config, mcsim, regions, tiltlab
    return SimpleNamespace(channels=channels, cli=cli, config=config,
                           mcsim=mcsim, regions=regions, tiltlab=tiltlab)


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # numpy builds differ in what they report
        return "unknown"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(),
            "loadavg_1m": os.getloadavg()[0]}


#: time of ``probe_s`` in the fast state of the shared 2-CPU VM that
#: defined the benchmark (its slow state takes about 1.45 times as long)
PROBE_REF_S = 1.3e-3


def probe_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed right now.

    The shared host alternates between a fast and a slow state every few
    seconds, and the share of slow time drifts over minutes.  Every job is
    bracketed by two probes and its latency is scaled by
    ``PROBE_REF_S / mean(probes)``, which reports it at the reference speed;
    the probe runs no cqic code, so a change to the program cannot move it.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    return time.perf_counter() - t


def loc_src(root: Path) -> int:
    return sum(1 for f in sorted((root / "src" / "cqic").rglob("*.py"))
               for line in f.read_text(encoding="utf-8").splitlines()
               if line.strip())


def _run_round(prepared, ctx, reference, tracer, traced):
    latencies, raw, probes, failures, changed = [], [], [], [], 0
    if traced:
        tracer.install()
    try:
        for job, call in prepared:
            before = probe_s()
            tracer.job_id = job.job_id
            tracer.active = traced
            t = time.perf_counter()
            try:
                result = call()
                err = None
            except Exception as exc:  # a failing job is counted, not fatal
                err = exc
            dt = time.perf_counter() - t
            tracer.active = False
            after = probe_s()
            raw.append(dt)
            probes += [before, after]
            latencies.append(dt * 2.0 * PROBE_REF_S / (before + after))
            if err is not None:
                failures.append(f"job {job.job_id} ({job.kind}) raised "
                                f"{type(err).__name__}: {err}")
                continue
            try:
                summary, problems = wl.check(job, result, ctx)
                ref = None if reference is None else reference[str(job.job_id)]
                if ref is not None:
                    problems += wl.compare(summary, ref)
                    changed += wl.canonical(summary) != wl.canonical(ref)
            except Exception as exc:  # a check that cannot run is a failure
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failures.append(f"job {job.job_id} ({job.kind}): "
                                + "; ".join(problems))
    finally:
        stats = tracer.collect() if traced else None
        if traced:
            tracer.uninstall()
    return {"wall_s": sum(latencies), "latencies": latencies,
            "raw_wall_s": sum(raw), "raw_latencies": raw, "probes": probes,
            "failures": failures, "changed": changed, "stats": stats}


def overhead_s(rounds) -> float:
    """Tracing cost of one job list, from paired rounds.

    ``rounds`` alternate untraced and traced.  For every job, take the
    median over (untraced, traced) round pairs of its traced minus its
    untraced latency; the overhead is the sum over jobs.  Pairing the same
    job in adjacent rounds keeps the host's slow drift out of it.
    """
    pairs = [(rounds[i]["latencies"], rounds[i + 1]["latencies"])
             for i in range(0, len(rounds) - 1, 2)]
    per_job = zip(*([t - u for u, t in zip(plain, traced)]
                    for plain, traced in pairs))
    return sum(statistics.median(diffs) for diffs in per_job)


def _layer_metrics(rounds, root: Path) -> dict:
    """Per-layer values per job list: counts from the first traced round,
    self times as the median over traced rounds."""
    traced_rounds = [r for r in rounds if r["stats"] is not None]
    first = traced_rounds[0]["stats"]
    out = {}
    for name, _ in PER_LAYER:
        base, _, part = name.rpartition(".")
        if part == "calls":
            out[name] = first["calls"].get(base, 0)
        elif part == "self_s":
            out[name] = statistics.median(
                r["stats"]["self_s"].get(base, 0.0) for r in traced_rounds)
        else:
            out[name] = first["counts"].get(name, 0)
    attempts = first["counts"].get("gfcoset.draw_attempts", 0)
    out["gfcoset.draw_yield"] = (first["counts"].get("gfcoset.draw_accepted", 0)
                                 / attempts) if attempts else 0.0
    out["trace.overhead_s"] = overhead_s(rounds)
    out["loc.src"] = loc_src(root)
    out["outputs.bytes_changed"] = traced_rounds[0]["changed"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--root", required=True, help="checkout root")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    root = Path(args.root)
    env_at_start = machine()

    M = _import_cqic(root)
    jobs = wl.make_jobs(args.workload, args.seed, smoke=args.smoke)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        ctx = wl.Context(M, workdir)
        prepared = [(job, wl.prepare(job, ctx)) for job in jobs]
        reference = None
        if args.seed == wl.DEFAULT_SEED and not args.smoke:
            with open(HERE / "reference.json", encoding="utf-8") as fh:
                reference = json.load(fh)[args.workload]
        raw_setup_s = time.monotonic() - args.t0
        setup_s = raw_setup_s * PROBE_REF_S / statistics.median(
            probe_s() for _ in range(5))
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0

        tracer = tracing.Tracer()
        rounds = []
        deadline = time.monotonic() + args.seconds
        while len(rounds) < MAX_ROUNDS:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            tracer.record_spans = traced and not any(r["stats"] for r in rounds)
            rounds.append(_run_round(prepared, ctx, reference, tracer, traced))
            both = not args.trace or len(rounds) >= 2
            if both and time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in rounds if r["stats"] is None]
    traced = [r for r in rounds if r["stats"] is not None]
    lat_ms = np.array([x for r in untraced for x in r["latencies"]]) * 1e3
    raw_ms = np.array([x for r in untraced for x in r["raw_latencies"]]) * 1e3
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(len(r["latencies"]) for r in rounds)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "machine": env_at_start, "jobs_per_round": len(jobs),
        "rounds": len(untraced), "traced_rounds": len(traced),
        "round_walls": [r["wall_s"] for r in untraced],
        "probe_ms": [1e3 * float(np.percentile(
            [x for r in rounds for x in r["probes"]], q)) for q in (10, 50, 90)],
        "raw": {"wall_s": statistics.median(r["raw_wall_s"] for r in untraced),
                "job_p50_ms": float(np.percentile(raw_ms, 50)),
                "job_p90_ms": float(np.percentile(raw_ms, 90)),
                "setup_s": raw_setup_s},
        "job_samples": int(lat_ms.size),
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "e2e": {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "job_p50_ms": float(np.percentile(lat_ms, 50)),
            "job_p90_ms": float(np.percentile(lat_ms, 90)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        },
    }
    if traced:
        doc["layers"] = _layer_metrics(rounds, root)
        spans = traced[0]["stats"]["spans"]
        tracing.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}"
                            f".jsonl.gz", spans)
        doc["spans_recorded"] = len(spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
