"""Smoke tests: the scripts under scripts/ run end to end without a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cross_validate_runs():
    # exit 1 is expected: the paper's floor checks FAIL at interior beta
    proc = run_script("cross_validate.py", "--cycles", "2000")
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "failing checks" in proc.stdout


def test_sweep_constant_beta_writes_one_csv_per_beta(tmp_path):
    proc = run_script("sweep_constant_beta.py", "--n-beta", "3", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert len(list(tmp_path.glob("curves_beta_*.csv"))) == 3


def test_profile_commands_prints_one_json_line_per_call():
    proc = run_script("profile_commands.py", "--workload", "table-ramp", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    calls = [json.loads(line) for line in proc.stdout.splitlines()]
    # the warm-up round -1 prints too; each eval entry repeats for a quarter second
    entries = [(c["round"], c["command"]) for c in calls]
    assert [e for i, e in enumerate(entries) if entries[i - 1:i] != [e]] == [
        (rnd, name) for rnd in (-1, 0) for name in ("eval", "simulate", "eval", "verify")]
    for c in calls:
        assert c["wall_s"] > 0 and c["minflt"] >= 0
        # verify exits 1: the paper's floor envelope FAILs for the ramp's series curves
        assert c["exit"] == {"eval": 0, "simulate": 0, "verify": 1}[c["command"]]
        assert (c["out_sha256"] is None) == (c["command"] == "verify")
        # each command builds its own law; eval and simulate read B and Z (the eval rows, the
        # KS lines) and verify the series checks, each from one walk of one block
        assert c["series_points"] == 4096, c
        assert 0 <= c["series_s"] <= c["wall_s"], c
        # verify times each of its checks, the same ones for a table as for a constant
        assert ("checks_s" in c) == (c["command"] == "verify")
        # eval and simulate time their CSV writer, which is part of their wall time
        assert ("write_s" in c) == (c["command"] != "verify")
        if "write_s" in c:
            assert 0 < c["write_s"] <= c["wall_s"], c
        # simulate and verify time the Monte Carlo run and its KS distances
        assert ("mc_s" in c) == ("ks_s" in c) == (c["command"] != "eval")
        if "mc_s" in c:
            assert 0 < c["mc_s"] <= c["wall_s"] and 0 < c["ks_s"] <= c["wall_s"], c
        if c["command"] == "verify":
            assert {"check_series_transform", "check_busy_tail", "check_mean_identities",
                    "check_bound_ordering", "check_transform_consistency",
                    "check_riccati_residual", "check_monte_carlo"} == set(c["checks_s"]), c
            assert all(sec > 0 for sec in c["checks_s"].values()), c
