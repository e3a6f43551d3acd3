import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from cqic.channels import build_ex2, example_capacities, gamma_state
from cqic.cli import main
from cqic.config import DEFAULT_TOL, active_tolerances
from cqic.errors import (BudgetExceeded, ConfigMismatch, DimOverflow,
                         DomainError, NumericalFailure, ParseError, TooLarge)
from cqic.mcsim import SimResult
from cqic.regions import Thm1Config, thm2_config_from_thm1
from cqic.states import binary_entropy, fact1_f

PHI = math.pi / 3


def _copied_bit_channel(path):
    doc = {"inputs": [2, 1, 1], "output_dims": [2, 1, 1],
           "states": [{"x": [x, 0, 0],
                       "matrix_re": np.diag([1.0 - x, float(x)])
                       .ravel().tolist(),
                       "matrix_im": [0.0] * 4} for x in (0, 1)],
           "costs": [[0.0, 0.0], [0.0], [0.0]]}
    path.write_text(json.dumps(doc))
    return str(path)


def _rotation_channel(path, phi=1.0):
    rows = []
    for x in (0, 1):
        g = gamma_state(phi, x)
        rows.append({"x": [x, 0, 0], "matrix_re": g.real.ravel().tolist(),
                     "matrix_im": g.imag.ravel().tolist()})
    doc = {"inputs": [2, 1, 1], "output_dims": [2, 1, 1], "states": rows,
           "costs": [[0.0, 1.0], [0.0], [0.0]]}
    path.write_text(json.dumps(doc))
    return str(path)


def _pmf(path, values):
    path.write_text(json.dumps({"pmf": values}))
    return str(path)


def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestInfo:
    def test_copied_bit_is_one_bit(self, tmp_path, capsys):
        ch = _copied_bit_channel(tmp_path / "ch.json")
        pm = _pmf(tmp_path / "p.json", [0.5, 0.5])
        rc, doc = _run_json(capsys, ["info", ch, pm, "--query", "I(X;Y)",
                                     "--query", "H(Y1|X1)",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert doc["quantities"]["I(X;Y)"] == pytest.approx(1.0, abs=1e-12)
        assert doc["quantities"]["H(Y1|X1)"] == pytest.approx(0.0, abs=1e-12)

    def test_rotation_pair_information(self, tmp_path, capsys):
        ch = _rotation_channel(tmp_path / "ch.json", phi=1.0)
        pm = _pmf(tmp_path / "p.json", [0.7, 0.3])
        rc, doc = _run_json(capsys, ["info", ch, pm, "--query", "I(A;B)",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        want = binary_entropy(fact1_f(0.7, 1.0))
        assert doc["quantities"]["I(A;B)"] == pytest.approx(want, abs=1e-12)

    def test_receiver_two_quantities(self, tmp_path, capsys):
        spec = build_ex2(PHI, 0.1, 0.1, 0.5)
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps(spec.to_json_dict()))
        pm = _pmf(tmp_path / "p.json", [[[0.125] * 2] * 2] * 2)
        rc, doc = _run_json(capsys, ["info", str(ch), pm,
                                     "--query", "I(X2;Y2)",
                                     "--query", "H(Y2|X2)",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert doc["quantities"]["I(X2;Y2)"] == pytest.approx(
            1.0 - binary_entropy(0.1), abs=1e-9)
        assert doc["quantities"]["H(Y2|X2)"] == pytest.approx(
            binary_entropy(0.1), abs=1e-9)

    def test_composite_conditioning_group(self, tmp_path, capsys):
        # interferers scramble rx 1 completely until conditioned away
        spec = build_ex2(PHI, 0.1, 0.1, 0.5)
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps(spec.to_json_dict()))
        pm = _pmf(tmp_path / "p.json", [[[0.125] * 2] * 2] * 2)
        rc, doc = _run_json(capsys, ["info", str(ch), pm,
                                     "--query", "I(X1;Y1)",
                                     "--query", "I(X1;Y1|X2,X3)",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert doc["quantities"]["I(X1;Y1)"] == pytest.approx(0.0, abs=1e-9)
        assert doc["quantities"]["I(X1;Y1|X2,X3)"] == pytest.approx(
            binary_entropy(fact1_f(0.5, PHI)), abs=1e-9)

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        pm = _pmf(tmp_path / "p.json", [0.5, 0.5])
        assert main(["info", str(bad), pm, "--query", "H(X1)",
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        pm = _pmf(tmp_path / "p.json", [0.5, 0.5])
        assert main(["info", str(tmp_path / "nope.json"), pm,
                     "--query", "H(X1)", "--out", str(tmp_path / "o")]) == 2

    def test_pmf_shape_mismatch_exits_3(self, tmp_path):
        ch = _copied_bit_channel(tmp_path / "ch.json")
        pm = _pmf(tmp_path / "p.json", [0.5, 0.25, 0.25])
        assert main(["info", ch, pm, "--query", "H(X1)",
                     "--out", str(tmp_path / "o")]) == 3

    def test_query_grammar_errors_exit_2(self, tmp_path):
        ch = _copied_bit_channel(tmp_path / "ch.json")
        pm = _pmf(tmp_path / "p.json", [0.5, 0.5])
        for bad in ("Z(X)", "I(X1)", "H(X1;X2)"):
            assert main(["info", ch, pm, "--query", bad,
                         "--out", str(tmp_path / "o")]) == 2

    def test_unknown_register_exits_3(self, tmp_path):
        ch = _copied_bit_channel(tmp_path / "ch.json")
        pm = _pmf(tmp_path / "p.json", [0.5, 0.5])
        assert main(["info", ch, pm, "--query", "H(X9)",
                     "--out", str(tmp_path / "o")]) == 3

    def test_two_receivers_exit_3(self, tmp_path):
        ch = _copied_bit_channel(tmp_path / "ch.json")
        pm = _pmf(tmp_path / "p.json", [0.5, 0.5])
        assert main(["info", ch, pm, "--query", "I(Y1;Y2)",
                     "--out", str(tmp_path / "o")]) == 3

    def test_inputs_never_mutated(self, tmp_path, capsys):
        ch = _copied_bit_channel(tmp_path / "ch.json")
        pm = _pmf(tmp_path / "p.json", [0.5, 0.5])
        before = (tmp_path / "ch.json").read_bytes(), \
            (tmp_path / "p.json").read_bytes()
        main(["info", ch, pm, "--query", "H(X1)",
              "--out", str(tmp_path / "o")])
        capsys.readouterr()
        after = (tmp_path / "ch.json").read_bytes(), \
            (tmp_path / "p.json").read_bytes()
        assert before == after


class TestExample:
    def test_documented_separation_instance(self, tmp_path, capsys):
        rc, doc = _run_json(capsys, ["example", "ex2", "--tau", "0.03125",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert doc["verdict"] == "separation demonstrated"
        assert doc["eq1"]["holds"] is True
        assert doc["region"]["thm1_feasible"] is True
        caps = doc["capacities"]
        assert caps["c1"] == pytest.approx(
            binary_entropy(fact1_f(1 / 32, PHI)), abs=1e-6)
        assert caps["c1_free"] == pytest.approx(
            binary_entropy((1 + math.cos(PHI)) / 2), abs=1e-6)

    def test_deg_prefix_matches_radians(self, tmp_path, capsys):
        rc1, doc1 = _run_json(capsys, ["example", "ex2", "--phi", "deg:60",
                                       "--tau", "0.1",
                                       "--out", str(tmp_path / "a")])
        rc2, doc2 = _run_json(capsys, ["example", "ex2", "--phi",
                                       repr(math.pi / 3), "--tau", "0.1",
                                       "--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert doc1["capacities"] == doc2["capacities"]

    def test_ex1_emits_classical_equivalent(self, tmp_path, capsys):
        rc, doc = _run_json(capsys, ["example", "ex1", "--delta1", "0.25",
                                     "--delta2", "0.25", "--delta3", "0.25",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        tables = doc["classical_equivalent"]["transitions"]
        assert len(tables) == 3
        arr = np.asarray(tables[0])
        assert arr.shape == (2, 2, 2, 2)
        assert np.allclose(arr.sum(axis=-1), 1.0)

    def test_ex3_reports_both_threshold_readings(self, tmp_path, capsys):
        rc, doc = _run_json(capsys, ["example", "ex3", "--tau", "0.03125",
                                     "--tau2", "0.25", "--tau3", "0.2",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert set(doc["theta"]) == {"printed", "corrected_indices"}
        assert doc["theta"]["printed"] != doc["theta"]["corrected_indices"]

    def test_no_separation_at_loose_budget(self, tmp_path, capsys):
        rc, doc = _run_json(capsys, ["example", "ex2", "--tau", "0.5",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert doc["verdict"] == "no separation at these parameters"
        assert doc["separation"]["gap"] < 0

    def test_domain_error_exits_3(self, tmp_path):
        assert main(["example", "ex2", "--tau", "0.9",
                     "--out", str(tmp_path / "o")]) == 3

    def test_bad_angle_exits_2(self, tmp_path):
        assert main(["example", "ex2", "--phi", "deg:sixty",
                     "--out", str(tmp_path / "o")]) == 2


class TestRegion:
    def _channel_file(self, tmp_path, tau=1 / 32):
        spec = build_ex2(PHI, 0.1, 0.1, tau)
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(spec.to_json_dict()))
        return str(path), spec

    def test_thm1_report(self, tmp_path, capsys):
        ch, spec = self._channel_file(tmp_path)
        caps = example_capacities(spec)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "field_size": 2, "p_x1": [1 - 1 / 32, 1 / 32],
            "p_u2": [0.5, 0.5], "p_u3": [0.5, 0.5],
            "f2": [0, 1], "f3": [0, 1]}))
        rates = f"{caps.c1 - 1e-6},{caps.c2 - 1e-6},{caps.c3 - 1e-6}"
        rc, doc = _run_json(capsys, ["region", "--theorem", "thm1",
                                     "--channel", ch, "--config", str(cfg),
                                     "--rates", rates,
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert doc["report"]["feasible"] is True
        assert doc["report"]["witness"] is not None
        assert (tmp_path / "o" / "region.json").exists()

    def test_unstructured_report(self, tmp_path, capsys):
        ch, _ = self._channel_file(tmp_path, tau=0.5)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p_x1": [0.5, 0.5],
            "p_u2x2": [[0.5, 0.0], [0.0, 0.5]],
            "p_u3x3": [[0.5, 0.0], [0.0, 0.5]]}))
        rc, doc = _run_json(capsys, ["region", "--theorem", "unstructured",
                                     "--channel", ch, "--config", str(cfg),
                                     "--rates", "0.01,0.01,0.01",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert doc["report"]["feasible"] is True

    def test_thm2_with_drop_flag(self, tmp_path, capsys):
        ch, spec = self._channel_file(tmp_path, tau=0.5)
        base = Thm1Config(2, (0.5, 0.5), (0.5, 0.5), (0.5, 0.5),
                          (0, 1), (0, 1))
        t2 = thm2_config_from_thm1(spec, base)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "fields": list(t2.fields),
            "factors": [np.asarray(f).tolist() for f in t2.factors]}))
        rc, doc = _run_json(capsys, ["region", "--theorem", "thm2",
                                     "--channel", ch, "--config", str(cfg),
                                     "--rates", "0.01,0.01,0.01",
                                     "--drop-dont-care",
                                     "--out", str(tmp_path / "o")])
        assert rc == 0
        assert doc["report"]["feasible"] is True

    def test_missing_config_key_exits_2(self, tmp_path):
        ch, _ = self._channel_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field_size": 2}))
        assert main(["region", "--theorem", "thm1", "--channel", ch,
                     "--config", str(cfg), "--rates", "0,0,0",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field,what", [("inputs", "input size"),
                                            ("output_dims", "output dim")])
    def test_non_integral_input_size_exits_3(self, tmp_path, capsys, field,
                                             what):
        spec = build_ex2(PHI, 0.1, 0.1, 1 / 32)
        doc = spec.to_json_dict()
        doc[field][1] = 2.5
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "field_size": 2, "p_x1": [0.5, 0.5], "p_u2": [0.5, 0.5],
            "p_u3": [0.5, 0.5], "f2": [0, 1], "f3": [0, 1]}))
        out = tmp_path / "o"
        assert main(["region", "--theorem", "thm1", "--channel", str(ch),
                     "--config", str(cfg), "--rates", "0,0,0",
                     "--out", str(out)]) == 3
        std = capsys.readouterr()
        assert std.out == ""
        assert std.err.startswith(f"error: {what} must be an integer")
        assert std.err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    def test_nan_rate_exits_3(self, tmp_path):
        ch, _ = self._channel_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "field_size": 2, "p_x1": [0.5, 0.5], "p_u2": [0.5, 0.5],
            "p_u3": [0.5, 0.5], "f2": [0, 1], "f3": [0, 1]}))
        assert main(["region", "--theorem", "thm1", "--channel", ch,
                     "--config", str(cfg), "--rates", "0.1,nan,0.1",
                     "--out", str(tmp_path / "o")]) == 3

    def test_nan_config_mass_exits_3(self, tmp_path):
        # Python's json reads the NaN token
        ch, _ = self._channel_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"field_size": 2, "p_x1": [NaN, 1.0], '
                       '"p_u2": [0.5, 0.5], "p_u3": [0.5, 0.5], '
                       '"f2": [0, 1], "f3": [0, 1]}')
        assert main(["region", "--theorem", "thm1", "--channel", ch,
                     "--config", str(cfg), "--rates", "0,0,0",
                     "--out", str(tmp_path / "o")]) == 3

    def test_empty_factor_exits_3(self, tmp_path, capsys):
        ch, _ = self._channel_file(tmp_path)
        good = np.full((2, 2, 2), 1 / 8).tolist()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fields": [2, 2, 2],
                                   "factors": [[[[]]], good, good]}))
        assert main(["region", "--theorem", "thm2", "--channel", ch,
                     "--config", str(cfg), "--rates", "0,0,0",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("theorem,change", [
        ("thm1", {"f2": [0, 0.5]}),
        ("thm1", {"field_size": 2.9}),
        ("thm1", {"f2": [0, "1"]}),
        ("thm1", {"f2": [0, math.nan]}),
        ("thm2", {"fields": [2.7, 2, 2]}),
    ])
    def test_non_integral_config_value_exits_3(self, tmp_path, capsys,
                                               theorem, change):
        ch, spec = self._channel_file(tmp_path, tau=0.5)
        base = Thm1Config(2, (0.5, 0.5), (0.5, 0.5), (0.5, 0.5),
                          (0, 1), (0, 1))
        if theorem == "thm1":
            doc = dict(base.__dict__)
        else:
            t2 = thm2_config_from_thm1(spec, base)
            doc = {"fields": list(t2.fields),
                   "factors": [np.asarray(f).tolist() for f in t2.factors]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(doc, **change)))  # NaN as a token
        assert main(["region", "--theorem", theorem, "--channel", ch,
                     "--config", str(cfg), "--rates", "0.01,0.01,0.01",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be an integer" in err

    def test_bad_rates_exit_2(self, tmp_path):
        ch, _ = self._channel_file(tmp_path)
        assert main(["region", "--theorem", "thm1", "--channel", ch,
                     "--config", ch, "--rates", "0,0",
                     "--out", str(tmp_path / "o")]) == 2


class TestScan:
    def test_rows_and_rerun_bytes(self, tmp_path, capsys):
        argv = ["scan", "--example", "ex2", "--tau", "0.5",
                "--r2", "0.2", "0.3", "--r3", "0.1",
                "--denominator", "4", "--no-refine"]
        rc1 = main(argv + ["--out", str(tmp_path / "a")])
        rc2 = main(argv + ["--out", str(tmp_path / "b")])
        # the scan is single-threaded and takes no --threads flag
        rc3 = main(argv + ["--threads", "4", "--out", str(tmp_path / "c")])
        capsys.readouterr()
        assert rc1 == rc2 == 0
        assert rc3 == 2
        a = (tmp_path / "a" / "scan.csv").read_bytes()
        b = (tmp_path / "b" / "scan.csv").read_bytes()
        assert a == b
        lines = a.decode().strip().split("\n")
        assert lines[0] == "r2,r3,r1_max,grid_value,evaluations"
        assert len(lines) == 3

    def test_channel_file_equals_example(self, tmp_path, capsys):
        spec = build_ex2(PHI, 0.1, 0.1, 0.5)
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps(spec.to_json_dict()))
        common = ["--r2", "0.2", "--r3", "0.1", "--denominator", "4",
                  "--no-refine"]
        main(["scan", "--channel", str(ch), *common,
              "--out", str(tmp_path / "a")])
        main(["scan", "--example", "ex2", "--tau", "0.5", *common,
              "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert (tmp_path / "a" / "scan.csv").read_bytes() == \
            (tmp_path / "b" / "scan.csv").read_bytes()

    def test_grid_over_cap_exits_4(self, tmp_path):
        assert main(["scan", "--example", "ex2", "--r2", "0.2",
                     "--u2", "4", "--u3", "4", "--denominator", "32",
                     "--out", str(tmp_path / "o")]) == 4
        assert main(["scan", "--example", "ex2", "--r2", "0.2",
                     "--denominator", "4", "--cap", "10",
                     "--out", str(tmp_path / "o")]) == 4

    def test_grid_is_sized_before_it_is_built(self, tmp_path):
        # user 2 alone has C(43, 32) * 2**12 configs: never enumerated
        t0 = time.perf_counter()
        assert main(["scan", "--example", "ex2", "--r2", "0.1",
                     "--u2", "12", "--out", str(tmp_path / "o")]) == 4
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("flags", [("--u2", "0"), ("--u2", "-1"),
                                       ("--u3", "0"),
                                       ("--denominator", "0"),
                                       ("--denominator", "-2")])
    def test_bad_grid_sizes_exit_3(self, tmp_path, flags):
        assert main(["scan", "--example", "ex2", "--r2", "0.1", *flags,
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("r2", ["nan", "inf"])
    def test_non_finite_rate_exits_3(self, tmp_path, r2):
        assert main(["scan", "--example", "ex2", "--r2", r2,
                     "--denominator", "4", "--out", str(tmp_path / "o")]) == 3

    def test_nan_budget_channel_exits_3(self, tmp_path, capsys):
        doc = build_ex2(PHI, 0.1, 0.1, 0.5).to_json_dict()
        doc["budget"][0] = float("nan")  # Python's json writes NaN
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps(doc))
        assert main(["scan", "--channel", str(ch), "--r2", "0.1",
                     "--evaluator", "thm1", "--denominator", "8",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("error: cost budget nan")
        assert not (tmp_path / "o").exists()

    def test_needs_channel_or_example(self, tmp_path):
        assert main(["scan", "--r2", "0.2",
                     "--out", str(tmp_path / "o")]) == 2


class TestSim:
    ARGS = ["sim", "--n", "8", "--coset-dims", "0,0,0",
            "--message-dims", "2,2,2", "--delta", "0.05,0.1,0.1",
            "--trials", "150", "--seed", "7"]

    def test_csv_shape_and_thread_invariance(self, tmp_path, capsys):
        rc1 = main(self.ARGS + ["--out", str(tmp_path / "a")])
        rc2 = main(self.ARGS + ["--threads", "4",
                                "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert rc1 == rc2 == 0
        a = (tmp_path / "a" / "sim.csv").read_bytes()
        assert a == (tmp_path / "b" / "sim.csv").read_bytes()
        lines = a.decode().strip().split("\n")
        assert lines[0] == ",".join(SimResult.csv_header())
        assert len(lines) == 2
        doc = json.loads((tmp_path / "a" / "sim.json").read_text())
        assert doc["config"]["rng_seed"] == 7
        assert len(doc["error_rates"]) == 3

    def test_missing_seed_exits_2(self, tmp_path):
        argv = [a for a in self.ARGS if a not in ("--seed", "7")]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2

    def test_budget_exits_4(self, tmp_path):
        assert main(["sim", "--n", "24", "--coset-dims", "0,0,0",
                     "--message-dims", "2,21,2", "--delta", "0.1,0.1,0.1",
                     "--trials", "10", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 4

    def test_bad_delta_exits_3(self, tmp_path):
        assert main(["sim", "--n", "8", "--coset-dims", "0,0,0",
                     "--message-dims", "2,2,2", "--delta", "0.7,0.1,0.1",
                     "--trials", "10", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 3

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        argv = self.ARGS[:-1] + ["-1", "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: rng_seed")
        assert not (tmp_path / "o" / "manifest.json").exists()


class TestTiltlab:
    def test_report_and_determinism(self, tmp_path, capsys):
        argv = ["tiltlab", "--cases", "6", "--sizes", "2", "4",
                "--seed", "3"]
        rc1 = main(argv + ["--out", str(tmp_path / "a")])
        rc2 = main(argv + ["--out", str(tmp_path / "b")])
        out = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert (tmp_path / "a" / "tiltlab.json").read_bytes() == \
            (tmp_path / "b" / "tiltlab.json").read_bytes()
        doc = json.loads((tmp_path / "a" / "tiltlab.json").read_text())
        assert doc["all_within_bounds"] is True
        assert doc["srm"]["success"] == pytest.approx(
            doc["srm"]["expected"], abs=1e-9)
        assert out  # results echoed to stdout

    def test_missing_seed_exits_2(self, tmp_path):
        assert main(["tiltlab", "--cases", "2",
                     "--out", str(tmp_path / "o")]) == 2

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        assert main(["tiltlab", "--cases", "2", "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: seed")
        assert not (tmp_path / "o" / "manifest.json").exists()

    # a negative count made an empty report and exited 0
    def test_negative_cases_exit_3(self, tmp_path, capsys):
        assert main(["tiltlab", "--cases", "-1", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "error: cases must be non-negative, got -1\n"
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_space_past_the_dim_cap_exits_4(self, tmp_path, capsys):
        # 510 smoothing directions make a 1,026-dim space: refused before
        # any operator is allocated
        tracemalloc.start()
        try:
            code = main(["tiltlab", "--cases", "0", "--sizes", "510",
                         "--seed", "1", "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert capsys.readouterr().err == \
            "error: extended dimension 1026 exceeds 1024\n"
        assert peak < 2**20
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_zero_cases_is_valid(self, tmp_path):
        assert main(["tiltlab", "--cases", "0", "--sizes", "2", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "tiltlab.json").read_text())
        assert doc["tilt"] == [] and doc["operator_bound"] == []


class TestVerify:
    def test_subset_passes(self, tmp_path, capsys):
        rc = main(["verify", "--criteria", "5", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "criterion  5: PASS" in out
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["results"][0]["passed"] is True

    def test_zero_threads_exit_3_before_any_criterion(self, tmp_path,
                                                      capsys, monkeypatch):
        from cqic import verify

        called = []
        monkeypatch.setitem(verify.CRITERIA, 1, lambda: called.append(1))
        assert main(["verify", "--threads", "0",
                     "--out", str(tmp_path)]) == 3
        assert called == []
        assert capsys.readouterr().err == \
            "error: threads must be at least 1\n"
        assert not (tmp_path / "manifest.json").exists()

    def test_bad_criteria_exit_2(self, tmp_path):
        assert main(["verify", "--criteria", "0,5",
                     "--out", str(tmp_path)]) == 2
        assert main(["verify", "--criteria", "five",
                     "--out", str(tmp_path)]) == 2


class TestManifest:
    def test_every_run_writes_one(self, tmp_path, capsys):
        main(["example", "ex2", "--tau", "0.1", "--out", str(tmp_path)])
        capsys.readouterr()
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["command"] == "example"
        assert man["tool_version"]
        assert man["params"]["tau"] == 0.1
        assert man["wall_clock_s"] >= 0.0
        for path in man["outputs"]:
            assert (tmp_path / path.split("/")[-1]).exists()

    @staticmethod
    def _argv(command, tmp_path):
        spec = build_ex2(PHI, 0.1, 0.1, 0.5)
        chan = tmp_path / "ch.json"
        chan.write_text(json.dumps(spec.to_json_dict()))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "field_size": 2, "p_x1": [0.5, 0.5], "p_u2": [0.5, 0.5],
            "p_u3": [0.5, 0.5], "f2": [0, 1], "f3": [0, 1]}))
        return {
            "info": ["info", _rotation_channel(tmp_path / "rot.json"),
                     _pmf(tmp_path / "pmf.json", [[[0.5]], [[0.5]]]),
                     "--query", "I(X1;Y1)"],
            "example": ["example", "ex2", "--tau", "0.1"],
            "region": ["region", "--theorem", "thm1", "--channel", str(chan),
                       "--config", str(cfg), "--rates", "0.01,0.01,0.01"],
            "scan": ["scan", "--example", "ex2", "--r2", "0.1",
                     "--denominator", "4"],
            "sim": TestSim.ARGS,
            "tiltlab": ["tiltlab", "--cases", "2", "--sizes", "2",
                        "--seed", "3"],
            "verify": ["verify", "--criteria", "5"],
        }[command]

    @pytest.mark.parametrize("command, outputs", [
        ("info", ["info.json"]), ("example", ["example.json"]),
        ("region", ["region.json"]), ("scan", ["scan.csv", "scan.json"]),
        ("sim", ["sim.csv", "sim.json"]), ("tiltlab", ["tiltlab.json"]),
        ("verify", ["verify.json"])])
    def test_each_command_lists_its_outputs(self, command, outputs, tmp_path,
                                            capsys):
        out = tmp_path / "o"
        assert main(self._argv(command, tmp_path) + ["--out", str(out)]) == 0
        capsys.readouterr()
        man = json.loads((out / "manifest.json").read_text())
        assert set(man) == {"command", "params", "seed", "tool_version",
                            "started_utc", "wall_clock_s", "outputs"}
        assert man["command"] == man["params"]["command"] == command
        # in write order
        assert man["outputs"] == [str(out / name) for name in outputs]
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(outputs + ["manifest.json"])
        assert not [k for k in man["params"] if k.startswith("_")]

    def test_sim_manifest_records_seed(self, tmp_path, capsys):
        main(TestSim.ARGS + ["--out", str(tmp_path)])
        capsys.readouterr()
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["seed"] == 7
        assert man["params"]["message_dims"] == [2, 2, 2]


class TestToleranceVariable:
    """``CQRL_TOL`` is read once per run and holds for that run only."""

    @staticmethod
    def _spy(monkeypatch, command):
        from cqic import cli

        seen = []
        run = getattr(cli, command)

        def spy(args):
            seen.append(active_tolerances())
            return run(args)

        monkeypatch.setattr(cli, command, spy)
        return seen

    @pytest.mark.parametrize("raw", ["abc", "", "nan", "-1", "0", "inf"])
    def test_malformed_value_exits_2(self, raw, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.setenv("CQRL_TOL", raw)
        seen = self._spy(monkeypatch, "cmd_example")
        assert main(["example", "ex2", "--out", str(tmp_path)]) == 2
        std = capsys.readouterr()
        assert std.out == "" and seen == []
        assert std.err.startswith("error: CQRL_TOL ")
        assert std.err.count("\n") == 1
        assert not (tmp_path / "manifest.json").exists()

    def test_leading_space_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CQRL_TOL", " 1e-3")
        seen = self._spy(monkeypatch, "cmd_example")
        assert main(["example", "ex2", "--out", str(tmp_path)]) == 0
        assert [tol.rate for tol in seen] == [1e-3]
        assert seen[0].eig_floor == DEFAULT_TOL.eig_floor

    def test_override_reaches_a_region_run(self, tmp_path, capsys,
                                           monkeypatch):
        spec = build_ex2(PHI, 0.1, 0.1, 0.5)
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps(spec.to_json_dict()))
        t2 = thm2_config_from_thm1(spec, Thm1Config(
            2, (0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0, 1), (0, 1)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "fields": list(t2.fields),
            "factors": [np.asarray(f).tolist() for f in t2.factors]}))
        argv = ["region", "--theorem", "thm2", "--channel", str(ch),
                "--config", str(cfg), "--rates", "0.01,0.01,0.01"]
        records = {}
        for raw in (None, "1e-3"):
            if raw is not None:
                monkeypatch.setenv("CQRL_TOL", raw)
            rc, doc = _run_json(capsys, argv + ["--out",
                                                str(tmp_path / str(raw))])
            assert rc == 0 and doc["report"]["feasible"] is True
            records[raw] = {r["label"]: r for r in doc["report"]["records"]}
        stock, loose = records[None], records["1e-3"]
        assert stock.keys() == loose.keys()
        assert [r["rhs"] for r in stock.values()] == \
            [r["rhs"] for r in loose.values()]
        # the witness sits the rate tolerance inside the strict rows
        first = "thm2.src.j=1.A={}+K"
        assert stock[first]["lhs"] == pytest.approx(DEFAULT_TOL.rate)
        assert loose[first]["lhs"] == pytest.approx(1e-3)

    def test_no_leak_after_main(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CQRL_TOL", "1e-3")
        seen = self._spy(monkeypatch, "cmd_example")
        assert main(["example", "ex2", "--out", str(tmp_path / "a")]) == 0
        assert main(["example", "ex2", "--tau", "0.9",
                     "--out", str(tmp_path / "b")]) == 3
        assert [tol.rate for tol in seen] == [1e-3, 1e-3]
        assert active_tolerances() is DEFAULT_TOL

    def test_criterion_11_runs_on_the_stock_table(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("CQRL_TOL", "1e-3")
        seen = self._spy(monkeypatch, "cmd_sim")
        assert main(["verify", "--criteria", "11",
                     "--out", str(tmp_path)]) == 0
        assert len(seen) == 3
        assert all(tol is DEFAULT_TOL for tol in seen)
        assert active_tolerances() is DEFAULT_TOL


@pytest.mark.parametrize("exc, code", [
    (ParseError, 2), (BudgetExceeded, 4), (TooLarge, 4), (DimOverflow, 4),
    (NumericalFailure, 5), (DomainError, 3), (ConfigMismatch, 3),
    (OSError, 2)])
def test_errors_map_to_exit_codes(exc, code, tmp_path, capsys, monkeypatch):
    from cqic import cli

    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_example", fail)
    assert main(["example", "ex2", "--out", str(tmp_path)]) == code
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err == "error: boom\n"
    assert not (tmp_path / "manifest.json").exists()


def test_no_subcommand_exits_2():
    assert main([]) == 2


def test_version_flag_exits_0(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_one_parser_per_process_carries_no_state(tmp_path, capsys,
                                                  monkeypatch):
    # main builds its parser once; a subcommand run after the others must
    # write what it writes as the first command of a process
    from cqic import cli

    monkeypatch.chdir(tmp_path)
    chan = _rotation_channel(tmp_path / "rot.json")
    pmf = _pmf(tmp_path / "pmf.json", [[[0.5]], [[0.5]]])
    cases = {
        "info": ["info", chan, pmf, "--query", "I(X1;Y1)"],
        "example": ["example", "ex1", "--tau", "0.2"],
        "scan": ["scan", "--example", "ex2", "--r2", "0.1", "0.2",
                 "--denominator", "4"],
        "sim": TestSim.ARGS,
        "tiltlab": ["tiltlab", "--cases", "2", "--sizes", "2", "--seed", "3"],
        "tiltlab_defaults": ["tiltlab", "--cases", "2", "--seed", "4"],
        "bad_flag": ["scan", "--example", "ex2", "--r2", "x"],
    }

    def run(name):
        out = tmp_path / name
        rc = main(cases[name] + ["--out", str(out)])
        files = {}
        for path in sorted(out.iterdir()) if out.exists() else ():
            doc = path.read_text()
            if path.name == "manifest.json":
                doc = json.loads(doc)
                del doc["wall_clock_s"], doc["started_utc"]
            files[path.name] = doc
        std = capsys.readouterr()
        return rc, std.out, std.err, files

    first = {}
    for name in cases:
        cli._parser.cache_clear()
        first[name] = run(name)
    assert first["bad_flag"][0] == 2
    parser = cli._parser()
    for order in (list(cases), list(reversed(cases))):
        for name in order:
            assert run(name) == first[name], name
    assert cli._parser() is parser
    # nor does it pin the command functions it was built with
    monkeypatch.setattr(cli, "cmd_example", lambda args: 7)
    assert main(cases["example"]) == 7
