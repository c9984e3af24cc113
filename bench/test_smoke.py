"""Smoke test of the benchmark itself at tiny sizes (about a minute).

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from reference import ConstantReference, TableReference  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = bench.Workload("tiny-constant", "smoke test", rho=1.0, beta=0.0, cycles=300)
TINY_TABLE = replace(bench.WORKLOADS["table-ramp"], name="tiny-table", cycles=30)


class WrongB(ConstantReference):
    """The true busy-period CDF shifted up by 0.05."""

    def B(self, t):
        return np.minimum(super().B(t) + 0.05, 1.0)


def quiet(_line):
    pass


def test_table_reference_matches_closed_form():
    """The Volterra reference, fed a flat table, reproduces the closed forms."""
    table = TableReference(1.0, 1.0, ((0.0, 0.0), (1.0, 0.0)), horizon=10.0)
    exact = ConstantReference(1.0, 1.0, 0.0)
    t = np.linspace(0.0, 10.0, 1001)
    for curve, tol in (("G", 1e-14), ("B", 1e-9), ("Z", 1e-9)):
        assert np.max(np.abs(getattr(table, curve)(t) - getattr(exact, curve)(t))) < tol


def test_ks_statistic_handles_the_atom_at_zero():
    ref = ConstantReference(1.0, 1.0, 0.0)
    sample = np.array([0.0] * 37 + [1.0] * 63)
    d = bench.ks_statistic(sample, ref.B)
    assert math.isclose(d, max(abs(0.37 - ref.atom), abs(1.0 - ref.B(1.0)), abs(0.37 - ref.B(1.0))))


def test_clean_run_counts_no_failure():
    res = bench.run(TINY, seed=3, seconds=0, trace=False, out=quiet)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= bench.MIN_ITERATIONS * 5  # eval x3, simulate, verify
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_wrong_reference_curve_is_a_failed_operation():
    lines = []
    res = bench.run(TINY, seed=3, seconds=0, trace=False, ref=WrongB(1.0, 1.0, 0.0),
                    out=lines.append)
    assert not res["correct"]
    assert res["failed"] >= bench.MIN_ITERATIONS * 3  # every eval call
    assert any(line.startswith("FAILED child 0 eval: B off its reference") for line in lines)
    assert res["metrics"]["b_sup_err"]["value"] > 0.04


def test_trace_reports_every_layer_metric():
    lines = []
    res = bench.run(TINY_TABLE, seed=1, seconds=0, trace=True, out=lines.append)
    assert res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = res["metrics"]
    assert m["kernel.riccati_service_cdf.calls"]["value"] > 0
    assert m["simulate.run_cycles.cycles"]["value"] == 2 * TINY_TABLE.cycles
    assert any(line.startswith("dominant module: ") for line in lines)
    units = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    assert all(m[k]["unit"] == units[k] for k in m)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-constant",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
