"""cqic benchmark: one workload, one seed, closed loop, outputs checked.

Usage, from the root of a checkout:

    python3 cqbench/run.py --workload region_engine --seed 1 --seconds 20 --trace 0
    python3 cqbench/run.py --workload all --seed 1 --seconds 20

Each run starts fresh worker processes with a pinned environment: BLAS and
OpenMP limited to one thread, ``CQRL_TOL`` unset, ``PYTHONHASHSEED=0`` and
``PYTHONPATH`` set to this checkout's ``src``.  Set-up is measured in
separate processes around the measuring one and reported as the median; the
measuring process issues one job at a time (one closed-loop caller).

Job and set-up times are scaled to a reference host speed by a probe run
around every job (see ``worker.probe_s``); the unscaled values are printed
too.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The lines before it (``#``)
give the machine, the host speed, sample counts, unscaled timings and
``fail_ratio`` for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402

#: set-up-only processes started before and after the measuring one; with
#: the measuring process, the median is over seven set-ups spread across
#: the run, so a slow or fast spell of the host weighs less
SETUP_PROBES = 3

#: every run must end well inside three minutes
RUN_LIMIT_S = 170.0


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CQRL_TOL", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(root: Path, args, mode: str, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--t0", repr(t0),
           "--root", str(root)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=pinned_env(root), cwd=root,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(root: Path, args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = 1 if args.smoke else SETUP_PROBES

    def setup_only():
        return [_worker(root, args, "setup", deadline) for _ in range(probes)]
    before = setup_only()
    doc = _worker(root, args, "run", deadline)
    setups = before + [{"setup_s": doc["e2e"]["setup_s"],
                        "raw_setup_s": doc["raw"]["setup_s"]}] + setup_only()
    doc["e2e"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    doc["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    doc["setup_samples"] = [s["setup_s"] for s in setups]
    return doc


def report(doc: dict, trace: int) -> dict:
    m = doc["machine"]
    fail_ratio = doc["failed"] / doc["attempted"]
    print(f"# {doc['workload']} seed={doc['seed']} nproc={m['nproc']} "
          f"python={m['python']} numpy={m['numpy']} blas={m['blas']} "
          f"load1m={m['loadavg_1m']:.2f}")
    lo, mid, hi = doc["probe_ms"]
    print(f"# host speed probe: p10 {lo:.3f} ms, p50 {mid:.3f} ms, p90 {hi:.3f} "
          f"ms (reference {PROBE_REF_S * 1e3:.3f} ms); timings below are "
          f"scaled to the reference speed")
    print(f"# {doc['jobs_per_round']} jobs per list, {doc['rounds']} untraced "
          f"rounds, {doc['traced_rounds']} traced rounds")
    e2e = doc["e2e"]
    walls = ", ".join(f"{w:.3f}" for w in doc["round_walls"])
    print(f"#   wall_s      {e2e['wall_s']:.4f} s   (median of {doc['rounds']} "
          f"job lists: {walls})")
    for key in ("job_p50_ms", "job_p90_ms"):
        print(f"#   {key:<11} {e2e[key]:.3f} ms  ({doc['job_samples']} jobs)")
    samples = ", ".join(f"{v:.3f}" for v in doc["setup_samples"])
    print(f"#   setup_s     {e2e['setup_s']:.4f} s   (median of "
          f"{len(doc['setup_samples'])} processes: {samples})")
    print(f"#   peak_rss_mb {e2e['peak_rss_mb']:.1f} MiB")
    raw = doc["raw"]
    print(f"#   unscaled: wall_s {raw['wall_s']:.4f} s, job_p50_ms "
          f"{raw['job_p50_ms']:.3f} ms, job_p90_ms {raw['job_p90_ms']:.3f} ms, "
          f"setup_s {raw['setup_s']:.4f} s")
    print(f"#   fail_ratio  {fail_ratio:.4f}      ({doc['failed']} of "
          f"{doc['attempted']} jobs)")
    for line in doc["failures"]:
        print(f"#   FAIL {line}")
    if trace:
        metrics = {k: {"value": doc["layers"][k], "unit": u}
                   for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    return {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one job per kind, one set-up process (self-tests)")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cqic" / "__init__.py").is_file():
        print("error: run from the root of a cqic checkout (src/cqic missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        line = report(run_one(root, args), args.trace)
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
