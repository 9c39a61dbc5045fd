"""Smoke test of the spine benchmark: every workload at ``--tiny`` scale,
traced and untraced, checked against ``BENCHMARK.json``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/spine`` — it is not
part of tier-1 (``testpaths`` is ``tests``).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_names_and_units():
    names = [w["name"] for w in SPEC["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_matches_spec(workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, metric["name"]
