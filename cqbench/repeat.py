"""Run the benchmark over several seeds and summarise each metric.

From the root of a checkout:

    python3 cqbench/repeat.py --seeds 1-10 --out cqbench/baseline.json
    python3 cqbench/repeat.py --seeds 1-3 --trace 1 --out cqbench/baseline.json
    python3 cqbench/repeat.py --workloads coset_sim --seeds 1-5

Every run measures ``run_seconds`` from ``BENCHMARK.json``.  For every
workload and metric it reports the median and the quartiles
(``statistics.quantiles(values, n=4)``) of the per-run values, and the
spread: the inter-quartile distance as a share of the median.  ``--out``
merges the summary into a JSON file under ``workloads.<name>.end_to_end``
(``--trace 0``) or ``workloads.<name>.per_layer`` (``--trace 1``), each
with the number of failed jobs over its runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import machine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STATISTICS = ("median and quartiles (statistics.quantiles, n=4) of the "
              "per-run values; spread = (q3 - q1) / median")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)
    with open(Path.cwd() / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    doc = {}
    for workload in args.workloads.split(","):
        values, failed = {}, 0
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
        doc[workload] = {"failed": failed,
                         "metrics": {k: summarise(v) for k, v in values.items()}}
        for name, s in doc[workload]["metrics"].items():
            if args.trace:
                continue
            print(f"  {name:<12} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {s['spread']:.3f}", flush=True)
    if args.out:
        command = " ".join(["python3", "cqbench/repeat.py",
                            *(sys.argv[1:] if argv is None else argv)])
        _merge(Path(args.out), doc, args.trace, seconds, command)
    return 0


def _merge(path: Path, doc: dict, trace: int, seconds: int, command: str):
    section = "per_layer" if trace else "end_to_end"
    base = {}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            base = json.load(fh)
    host = machine()
    del host["loadavg_1m"]
    base.update({"statistics": STATISTICS, "host": host,
                 f"{section}_runs": f"{command} (run_seconds {seconds})"})
    for workload, summary in doc.items():
        base.setdefault("workloads", {}).setdefault(workload, {})[section] = \
            summary
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(base, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
