"""Byte-identity guard: sha256 of every output file of pinned ``cqic`` runs.

Each case runs one subcommand in-process into its own ``--out``
directory and hashes every file written there except ``manifest.json``
(which carries the wall clock).  ``verify`` is left out because its
outputs carry per-criterion seconds.  Inputs are written into the
working directory and passed by relative path, because ``info`` echoes
its input paths.

After an intended output change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and name every changed
value in the change description.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cqic.channels import build_ex2
from cqic.cli import main
from cqic.regions import (Thm1Config, UnstructuredConfig,
                          thm2_config_from_thm1,
                          thm3_config_from_unstructured)

GOLDEN = Path(__file__).with_name("golden") / "sha256.json"

_TAU = 1 / 32
_THM1 = {"field_size": 2, "p_x1": [1 - _TAU, _TAU], "p_u2": [0.5, 0.5],
         "p_u3": [0.5, 0.5], "f2": [0, 1], "f3": [0, 1]}
_UNSTR = {"p_x1": [1 - _TAU, _TAU],
          "p_u2x2": [[0.25, 0.05], [0.1, 0.6]],
          "p_u3x3": [[0.5, 0.0], [0.1, 0.4]]}
_SCAN_EX2 = ["scan", "--example", "ex2", "--tau", "0.03125",
             "--r2", "0.0", "0.2", "0.531003", "--r3", "0.2",
             "--denominator", "32"]
_REGION = ["region", "--channel", "channel.json", "--config"]

CASES = {
    "info": ["info", "channel.json", "pmf.json", "--query", "I(X1;Y1|X2)",
             "--query", "H(Y1)", "--query", "I(X2;Y2)"],
    "example_ex2": ["example", "ex2", "--phi", "deg:60", "--tau", "0.03125"],
    "example_ex3": ["example", "ex3", "--tau", "0.2", "--tau2", "0.3"],
    "region_thm1": _REGION + ["thm1.json", "--theorem", "thm1",
                              "--rates", "0.159,0.531,0.531"],
    "region_unstructured": _REGION + ["unstr.json",
                                      "--theorem", "unstructured",
                                      "--rates", "0.01,0.2,0.2"],
    "region_thm2": _REGION + ["thm2.json", "--theorem", "thm2",
                              "--rates", "0.159,0.531,0.531"],
    "region_thm3": _REGION + ["thm3.json", "--theorem", "thm3",
                              "--rates", "0.01,0.2,0.2", "--drop-dont-care"],
    "scan_ex2_unstructured": _SCAN_EX2 + ["--evaluator", "unstructured"],
    "scan_ex2_thm1": _SCAN_EX2 + ["--evaluator", "thm1"],
    "scan_ex3_thm1": ["scan", "--example", "ex3", "--tau", "0.4",
                      "--tau2", "0.4", "--tau3", "0.4",
                      "--evaluator", "thm1", "--denominator", "3",
                      "--r2", "0.0", "0.05", "--r3", "0.02"],
    "sim": ["sim", "--n", "16", "--coset-dims", "0,0,0",
            "--message-dims", "4,4,4", "--delta", "0.05,0.1,0.1",
            "--trials", "200", "--seed", "2026"],
    "tiltlab": ["tiltlab", "--cases", "20", "--seed", "7"],
}


def write_inputs(workdir: Path) -> None:
    """Channel, pmf and the four region configs, as JSON in ``workdir``."""
    spec = build_ex2(math.pi / 3, 0.1, 0.1, _TAU)
    t2 = thm2_config_from_thm1(spec, Thm1Config(
        _THM1["field_size"], tuple(_THM1["p_x1"]), tuple(_THM1["p_u2"]),
        tuple(_THM1["p_u3"]), tuple(_THM1["f2"]), tuple(_THM1["f3"])))
    t3 = thm3_config_from_unstructured(spec, UnstructuredConfig(
        np.array(_UNSTR["p_x1"]), np.array(_UNSTR["p_u2x2"]),
        np.array(_UNSTR["p_u3x3"])))
    docs = {
        "channel.json": spec.to_json_dict(),
        "pmf.json": {"pmf": [[[0.125] * 2] * 2] * 2},
        "thm1.json": _THM1,
        "unstr.json": _UNSTR,
        "thm2.json": {"fields": list(t2.fields),
                      "factors": [np.asarray(f).tolist() for f in t2.factors]},
        "thm3.json": {"fields": list(t3.fields),
                      "factors": [np.asarray(f).tolist() for f in t3.factors]},
    }
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc))


def run_case(name: str) -> dict:
    """Run one case from the working directory; {file name: sha256}."""
    out = Path("out") / name
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(CASES[name] + ["--out", str(out)])
    assert rc == 0, f"{name} exited {rc}"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hashes(name, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert run_case(name) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            hashes = {name: run_case(name) for name in CASES}
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} cases to {GOLDEN}", file=sys.stderr)
