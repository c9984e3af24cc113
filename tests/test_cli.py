import io
import math
import sys

import numpy as np
import pytest

from mginf import closed_form as cf
from mginf.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAIL, main, write_csv
from mginf.params import validate_queue_params

P11 = validate_queue_params(1.0, 1.0)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- eval ------------------------------------------------------------------

def test_eval_header_and_row_count(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code, _, _ = run(["eval", "--lambda", "1", "--rho", "1", "--beta", "0",
                      "--t-max", "2", "--step", "0.5", "--out", str(out)], capsys)
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,G,B,Z,p00,p10,indicator,bp_floor,cycle_floor,cycle_ceiling"
    assert len(lines) == 1 + 5  # t = 0, 0.5, 1, 1.5, 2


def test_eval_values_match_closed_form(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    run(["eval", "--lambda", "1", "--rho", "1", "--beta", "0",
         "--t-max", "2", "--step", "1", "--out", str(out)], capsys)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    t1 = rows[1]
    assert t1[0] == 1.0
    assert t1[1] == pytest.approx(0.6126998367802821, abs=1e-14)
    assert t1[2] == pytest.approx(0.5624457524882361, abs=1e-14)
    assert t1[3] == pytest.approx(0.3077993724446536, abs=1e-14)
    assert t1[4] == pytest.approx(0.600423599106272, abs=1e-14)
    assert t1[5] == pytest.approx(t1[4] * t1[1], abs=1e-14)
    assert t1[6] == 0.0
    env = cf.envelope_bounds(P11, 1.0)
    assert t1[7] == pytest.approx(env.bp_floor, abs=1e-14)
    assert t1[8] == pytest.approx(env.cycle_floor, abs=1e-14)
    assert t1[9] == pytest.approx(env.cycle_ceiling, abs=1e-14)


def test_eval_stdout_default(capsys):
    code = main(["eval", "--lambda", "1", "--rho", "1", "--beta", "0",
                 "--t-max", "1", "--step", "0.5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("t,G,B,Z,")
    assert out.count("\n") == 4


def test_eval_beta_file(tmp_path, capsys):
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0.0,0.0\n1.0,0.2\n")
    out = tmp_path / "curves.csv"
    code, _, _ = run(["eval", "--lambda", "1", "--rho", "1",
                      "--beta-file", str(table), "--t-max", "2", "--step", "0.5",
                      "--out", str(out)], capsys)
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (5, 10)
    # indicator column reproduces the ramp, clamped beyond the last knot
    assert rows[:, 6] == pytest.approx([0.0, 0.1, 0.2, 0.2, 0.2], abs=1e-12)
    assert np.all(np.diff(rows[:, 1]) >= 0)


def test_eval_beta_out_of_range_cites_bound(capsys):
    code, _, err = run(["eval", "--lambda", "1", "--rho", "1", "--beta", "0.9"],
                       capsys)
    assert code == EXIT_INVALID
    assert "0.581977" in err


def test_eval_bad_horizon(capsys):
    code, _, _ = run(["eval", "--lambda", "1", "--rho", "1", "--beta", "0",
                      "--t-max", "0"], capsys)
    assert code == EXIT_INVALID


def test_eval_requires_exactly_one_beta_source(tmp_path, capsys):
    code, _, err = run(["eval", "--lambda", "1", "--rho", "1"], capsys)
    assert code == EXIT_INVALID
    assert "beta" in err


def test_eval_unwritable_output(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, _ = run(["eval", "--lambda", "1", "--rho", "1", "--beta", "0",
                      "--t-max", "1", "--step", "0.5", "--out", str(target)],
                     capsys)
    assert code == EXIT_IO


# ---- simulate --------------------------------------------------------------

def test_simulate_deterministic_and_sane(tmp_path, capsys):
    argv = ["simulate", "--lambda", "1", "--rho", "1", "--beta", "0",
            "--cycles", "400", "--seed", "7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, sum1, _ = run(argv + ["--out", str(out1)], capsys)
    code2, sum2, _ = run(argv + ["--out", str(out2)], capsys)
    assert code1 == code2 == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert sum1 == sum2
    rows = np.loadtxt(out1, delimiter=",", skiprows=1)
    assert rows.shape == (400, 3)
    assert rows[:, 2] == pytest.approx(rows[:, 0] + rows[:, 1], abs=1e-15)
    for key in ("mean_busy", "mean_idle", "mean_cycle",
                "ks_busy", "ks_cycle", "ks_idle"):
        assert key in sum1


def test_simulate_seed_changes_output(tmp_path, capsys):
    base = ["simulate", "--lambda", "1", "--rho", "1", "--beta", "0",
            "--cycles", "50"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(base + ["--seed", "1", "--out", str(a)], capsys)
    run(base + ["--seed", "2", "--out", str(b)], capsys)
    assert a.read_bytes() != b.read_bytes()


def test_simulate_degenerate_beta_all_zero_busy(tmp_path, capsys):
    out = tmp_path / "deg.csv"
    code, _, _ = run(["simulate", "--lambda", "1", "--rho", "1", "--beta", "-1",
                      "--cycles", "300", "--seed", "0", "--out", str(out)], capsys)
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(rows[:, 0] == 0.0)


def test_simulate_rejects_zero_cycles(capsys):
    code, _, _ = run(["simulate", "--lambda", "1", "--rho", "1", "--beta", "0",
                      "--cycles", "0"], capsys)
    assert code == EXIT_INVALID


# ---- verify ----------------------------------------------------------------

FLOOR_CHECKS = ("busy period above exponential floor", "busy cycle above floor")


def parse_report(text):
    out = {}
    for line in text.splitlines():
        status, rest = line.split(" ", 1)
        name, _, detail = rest.rpartition(": ")
        out[name.strip()] = status
    return out


def test_verify_endpoint_all_pass(capsys):
    code, out, _ = run(["verify", "--lambda", "1", "--rho", str(math.log(2)),
                        "--beta", "1", "--cycles", "20000", "--seed", "1"], capsys)
    report = parse_report(out)
    assert code == EXIT_OK
    assert all(s in ("PASS", "SKIP") for s in report.values())
    assert sum(s == "PASS" for s in report.values()) >= 10


def test_verify_interior_beta_fails_only_floor_checks(capsys):
    code, out, _ = run(["verify", "--lambda", "1", "--rho", "1",
                        "--beta", "0", "--cycles", "20000", "--seed", "1"], capsys)
    report = parse_report(out)
    assert code == EXIT_VERIFY_FAIL
    failed = {n for n, s in report.items() if s == "FAIL"}
    assert failed == set(FLOOR_CHECKS)


def test_verify_tabulated_beta_skips_closed_form(tmp_path, capsys):
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0.0,0.0\n1.0,0.2\n")
    code, out, _ = run(["verify", "--lambda", "1", "--rho", "1",
                        "--beta-file", str(table), "--cycles", "5000",
                        "--seed", "3"], capsys)
    report = parse_report(out)
    assert report["series vs closed form"] == "SKIP"
    assert report["busy period transform: vs analytic exponential mixture"] == "SKIP"
    assert report["busy period transform: kernel form vs nested quadrature"] == "PASS"
    assert report["service CDF solves the Riccati ODE"] == "PASS"
    assert report["zero-busy fraction matches atom"] == "PASS"
    # interior running-average beta, so the floor envelope fails here too
    assert report["envelope bounds on series curves"] == "FAIL"


def test_verify_envelope_detail_names_the_grid_size(tmp_path, capsys):
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0.0,0.0\n1.0,0.2\n")
    _, out, _ = run(["verify", "--lambda", "1", "--rho", "1", "--beta-file", str(table),
                     "--t-max", "2", "--step", "0.005", "--cycles", "10"], capsys)
    line = next(x for x in out.splitlines() if "envelope bounds on series curves" in x)
    assert line.endswith(": 401-point grid")


@pytest.mark.parametrize("beta_args", [["--beta", "0"], ["--beta-file", "ramp"]])
def test_verify_solves_busy_period_series_once(beta_args, tmp_path, monkeypatch, capsys):
    from mginf.transforms import busy_period_cdf_series as solve
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0.0,0.0\n1.0,0.2\n")
    if beta_args[0] == "--beta-file":
        beta_args = ["--beta-file", str(table)]
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("mginf") and getattr(module, "busy_period_cdf_series", None) is solve:
            monkeypatch.setattr(module, "busy_period_cdf_series",
                                lambda *a, **k: calls.append(a) or solve(*a, **k))
    run(["verify", "--lambda", "1", "--rho", "1", *beta_args,
         "--cycles", "200", "--seed", "1"], capsys)
    assert len(calls) == 1


@pytest.mark.parametrize("lam", ["0.01", "1", "100"])
def test_verify_transform_checks_pass_at_every_time_scale(lam, capsys):
    _, out, _ = run(["verify", "--lambda", lam, "--rho", "1", "--beta", "0",
                     "--cycles", "200", "--seed", "1"], capsys)
    report = parse_report(out)
    assert report["busy period transform: kernel form vs nested quadrature"] == "PASS"
    assert report["busy period transform: vs analytic exponential mixture"] == "PASS"


# ---- heavy traffic ------------------------------------------------------------

def test_eval_heavy_traffic_rows_are_finite(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code, _, _ = run(["eval", "--lambda", "1", "--rho", "5", "--beta", "0",
                      "--step", "0.5", "--out", str(out)], capsys)
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[-1, 0] > 1000  # far past d t = 709.78, where expm1(d t) overflows
    assert np.all(np.isfinite(rows))


def test_verify_heavy_traffic_has_no_nan_detail(capsys):
    _, out, _ = run(["verify", "--lambda", "1", "--rho", "5", "--beta", "0",
                     "--cycles", "2000", "--seed", "1"], capsys)
    assert "nan" not in out
    report = parse_report(out)
    assert report["busy cycle: series vs closed form"] == "PASS"
    assert report["busy cycle mean = analytic target"] == "PASS"


def test_verify_heavy_traffic_degenerate_endpoint_ends_cleanly(capsys):
    code, out, err = run(["verify", "--lambda", "1", "--rho", "5", "--beta", "-1",
                          "--cycles", "2000", "--seed", "1"], capsys)
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL)
    assert "nan" not in out and err == ""


@pytest.mark.parametrize("rho", ["1", "5"])
def test_verify_degenerate_endpoint_runs_every_check(rho, capsys):
    # beta = -lambda is an ordinary kernel law: every check runs and passes
    code, out, err = run(["verify", "--lambda", "1", "--rho", rho, "--beta", "-1",
                          "--cycles", "20000", "--seed", "1"], capsys)
    report = parse_report(out)
    assert code == EXIT_OK, out
    assert set(report.values()) == {"PASS"} and len(report) == 16
    assert err == ""


@pytest.mark.parametrize("rho", ["1", "3", "5"])
@pytest.mark.parametrize("ratio", [0.0, -1.0])
def test_verify_is_invariant_under_time_scaling(rho, ratio, capsys):
    # (lambda, beta, t) -> (c lambda, c beta, t/c) at fixed rho leaves the model
    # unchanged, so verify must print the same checks with the same statuses;
    # at beta = 0 that includes the paper-floor FAILs, which need t far past 50 at c = 0.01
    lines = {}
    for c in (0.01, 1.0, 100.0):
        _, out, _ = run(["verify", "--lambda", repr(c), "--rho", rho, "--beta", repr(ratio * c),
                         "--cycles", "2000", "--seed", "1"], capsys)
        lines[c] = [line.partition(": ")[0] for line in out.splitlines()]
    assert lines[0.01] == lines[1.0] == lines[100.0]
    assert len(lines[1.0]) == 16


# ---- CSV output ----------------------------------------------------------------

def test_write_csv_matches_savetxt():
    a = np.array([[-0.0, 5e-324, 1e300], [np.nan, 0.1, -np.inf], [1.0, -2.5e-17, 3.0]])
    ours, ref = io.StringIO(), io.StringIO()
    write_csv(ours, "a,b,c", a.T)
    np.savetxt(ref, a, fmt="%.17g", delimiter=",", comments="", header="a,b,c")
    assert ours.getvalue() == ref.getvalue()


# ---- tabulated beta through the service law --------------------------------

def test_eval_flat_table_reproduces_closed_form(tmp_path, capsys):
    table = tmp_path / "flat.csv"
    table.write_text("t,beta\n0,0.3\n1,0.3\n")
    out = tmp_path / "curves.csv"
    code, _, _ = run(["eval", "--lambda", "1", "--rho", "1", "--beta-file", str(table),
                      "--t-max", "5", "--step", "0.05", "--out", str(out)], capsys)
    assert code == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    ts = rows[:, 0]
    assert np.max(np.abs(rows[:, 1] - cf.service_cdf(P11, 0.3, ts))) < 1e-12
    assert np.max(np.abs(rows[:, 4] - cf.empty_probability(P11, 0.3, ts))) < 1e-12


def test_eval_table_with_large_beta_picks_a_fine_enough_grid(tmp_path, capsys):
    # max |beta| = 1.6 needs h <= 0.01 / 2.6, below the beta-blind default 0.005
    table = tmp_path / "spike.csv"
    table.write_text("t,beta\n0,0\n0.5,0\n0.75,1.6\n1,0\n")
    out = tmp_path / "curves.csv"
    code, _, err = run(["eval", "--lambda", "1", "--rho", "1", "--beta-file", str(table),
                        "--out", str(out)], capsys)
    assert code == EXIT_OK, err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert (rows[1, 0] - rows[0, 0]) * (1.0 + 1.6) <= 0.01 * (1 + 1e-9)
    b = rows[rows[:, 0] <= 1.0, 2]
    assert np.all((b >= 0.0) & (b <= 1.0))


def test_table_ending_at_degenerate_endpoint_is_the_degenerate_law(tmp_path, capsys):
    # lambda + beta(inf) = 0: the kernel integral diverges, so G == B == p00 == 1
    table = tmp_path / "deg.csv"
    table.write_text("t,beta\n0,0\n1,-1\n")
    out = tmp_path / "curves.csv"
    code, _, err = run(["eval", "--lambda", "1", "--rho", "1", "--beta-file", str(table),
                        "--t-max", "5", "--step", "0.05", "--out", str(out)], capsys)
    assert code == EXIT_OK, err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(rows[:, 1] == 1.0) and np.all(rows[:, 4] == 1.0)
    assert np.max(np.abs(rows[:, 2] - 1.0)) <= 1e-15
    code, report, _ = run(["verify", "--lambda", "1", "--rho", "1", "--beta-file", str(table),
                           "--cycles", "20000", "--seed", "1"], capsys)
    assert code == EXIT_OK, report
    assert parse_report(report)["zero-busy fraction matches atom"] == "PASS"


# ---- bad input ends in exit 2, never a traceback ---------------------------

@pytest.mark.parametrize("table,extra", [
    ("t,beta\n0,abc\n", []),            # non-numeric cell
    ("t,beta\n0,0\n1\n", []),           # short row
    ("t,beta\n0,0\n1,0.1\n1,0.2\n", []),  # knots that do not increase
    ("t,beta\n0,0\n1,0.2\n", ["--seed", "-1"]),
    ("t,beta\n0,0\n1,0.2\n", ["--cycles", "0"]),
    ("t,beta\n0,-1\n0.2,1.6\n0.4,-1\n1,0\n", []),  # admissible average, G would fall
    ("t,beta\n0,0\n1,0.2\n", ["--t-max", "nan"]),
    ("t,beta\n0,0\n1,0.2\n", ["--t-max", "inf"]),
    ("t,beta\n0,0\n1,0.2\n", ["--step", "nan"]),
    ("t,beta\n0,0\n1,0.2\n", ["--step", "inf"]),
    ("t,beta\n0,0\n1,-1.5\n", ["--t-max", "1"]),  # admissible on [0, 1], lambda + beta(inf) < 0
])
def test_verify_bad_input_exits_invalid(table, extra, tmp_path, capsys):
    path = tmp_path / "beta.csv"
    path.write_text(table)
    code, _, err = run(["verify", "--lambda", "1", "--rho", "1",
                        "--beta-file", str(path), *extra], capsys)
    assert code == EXIT_INVALID
    assert err.startswith("error: ") and "Traceback" not in err
