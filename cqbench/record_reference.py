"""Write reference.json: the output summary of every job at the default seed.

Run from the root of a checkout, at a commit whose outputs are the
reference:

    python3 cqbench/record_reference.py

Each job runs once in the benchmark's pinned environment; a job whose
invariant checks fail stops the recording.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import pinned_env  # noqa: E402


def main() -> int:
    root = Path.cwd()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = pinned_env(root)
        os.execve(sys.executable, [sys.executable, __file__], env)

    import workloads as wl
    from worker import _import_cqic

    M = _import_cqic(root)
    doc = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        ctx = wl.Context(M, Path(tmp))
        for workload in wl.WORKLOADS:
            doc[workload] = {}
            for job in wl.make_jobs(workload, wl.DEFAULT_SEED):
                summary, problems = wl.check(job, wl.prepare(job, ctx)(), ctx)
                if problems:
                    raise SystemExit(f"{workload} job {job.job_id}: {problems}")
                doc[workload][str(job.job_id)] = summary
            print(f"{workload}: {len(doc[workload])} jobs recorded")
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
