"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest cqbench -q

They run every workload at smoke size (one job per kind), untraced and
traced, in the benchmark's own worker processes.
"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.fixture(scope="module")
def smoke_runs():
    out = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (lines[:-1], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_fixes_the_job_list_and_not_the_mix(workload):
    a, b = wl.make_jobs(workload, 5), wl.make_jobs(workload, 5)
    assert wl.describe(a) == wl.describe(b)
    other = wl.make_jobs(workload, 6)
    assert wl.describe(other) != wl.describe(a)
    assert collections.Counter(j.kind for j in other) == \
        collections.Counter(j.kind for j in a)
    assert len(a) >= 100


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(smoke_runs, workload):
    notes, result = smoke_runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(notes)
    for name, unit in END_TO_END:
        assert f"{name} " in text and f" {unit}" in text
    assert "fail_ratio  0.0000" in text


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(smoke_runs, workload):
    _, result = smoke_runs[workload, 1]
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(PER_LAYER)


def _layer(smoke_runs, workload, name):
    return smoke_runs[workload, 1][1]["metrics"][name]["value"]


def test_bypass_workloads_do_no_work_in_bypassed_layers(smoke_runs):
    big_eig = [f"linalg.eig_hermitian.{d}.calls" for d in ("d8", "d16", "d32p")]
    for workload in wl.WORKLOADS:
        if workload != "region_engine":
            assert _layer(smoke_runs, workload, "lp.feasible_point.calls") == 0
        if workload != "operator_lab":
            big = sum(_layer(smoke_runs, workload, n) for n in big_eig)
            # building a channel validates its eight 8x8 output states;
            # the CLI scan builds one per call, the other workloads in set-up
            cli_calls = _layer(smoke_runs, workload, "cli.main.calls")
            assert big == 8 * cli_calls
    assert sum(_layer(smoke_runs, "coset_sim", f"linalg.eig_hermitian.{d}.calls")
               for d in ("d2", "d4", "d8", "d16", "d32p")) == 0
    assert _layer(smoke_runs, "region_engine", "lp.feasible_point.calls") > 0
    assert _layer(smoke_runs, "operator_lab",
                  "linalg.eig_hermitian.d32p.calls") > 0
    assert _layer(smoke_runs, "coset_sim", "mcsim.trials") > 0
    assert _layer(smoke_runs, "closed_form_scan", "cli.bytes_written") > 0


def test_draw_yield_is_a_share_of_observed_draws(smoke_runs):
    assert 0 < _layer(smoke_runs, "coset_sim", "gfcoset.draw_yield") <= 1
    for workload in ("region_engine", "operator_lab"):
        assert _layer(smoke_runs, workload, "gfcoset.draw_yield") == 0


def test_overhead_pairs_each_job_with_its_untraced_twin():
    import worker

    rounds = [{"latencies": [1.0, 2.0]}, {"latencies": [1.5, 2.0]},
              {"latencies": [3.0, 2.0]}, {"latencies": [3.5, 2.5]},
              {"latencies": [9.0, 9.0]}]
    # job 0: median(0.5, 0.5); job 1: median(0.0, 0.5); last round unpaired
    assert worker.overhead_s(rounds) == pytest.approx(0.5 + 0.25)


def test_tracer_restores_every_binding_and_survives_failing_jobs():
    import cqic
    import tracer as tracing
    import worker

    original = cqic.lp.feasible_point
    tr = tracing.Tracer()
    tr.install()
    assert cqic.regions.feasible_point is not original
    assert cqic.regions.feasible_point is cqic.lp.feasible_point
    tr.uninstall()
    assert cqic.lp.feasible_point is original
    assert cqic.regions.feasible_point is cqic.lp.feasible_point
    assert cqic.states.eig_hermitian is cqic.linalg.eig_hermitian
    assert cqic.mcsim.random_nested_code is cqic.gfcoset.random_nested_code

    def boom():
        cqic.lp.feasible_point([[1.0]], [-1.0])
        raise RuntimeError("job failure")

    job = wl.Job(0, "srm", {"phi": 0.5})
    out = worker._run_round([(job, boom)], None, None, tr, traced=True)
    assert len(out["failures"]) == 1 and "job failure" in out["failures"][0]
    assert out["stats"]["calls"]["lp.feasible_point"] == 1
    assert cqic.regions.feasible_point is cqic.lp.feasible_point


def test_reference_covers_the_default_seed():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in wl.WORKLOADS:
        jobs = wl.make_jobs(workload, wl.DEFAULT_SEED)
        assert sorted(reference[workload], key=int) == \
            [str(j.job_id) for j in jobs]


def test_benchmark_json_matches_the_harness():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        dict(END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        dict(PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "cqbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("region_engine", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
