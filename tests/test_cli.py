import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mginf import cli, closed_form as cf, transforms
from mginf.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAIL, main, write_csv
from mginf.params import validate_queue_params
from mginf.transforms import MAX_GRID_POINTS

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


def test_simulate_one_cycle_exits_invalid_before_writing(tmp_path, capsys):
    # one cycle has no standard error: rejected before a draw, so no partial --out
    out = tmp_path / "s.csv"
    code, _, err = run(["simulate", "--lambda", "1", "--rho", "1", "--beta", "0",
                        "--cycles", "1", "--out", str(out)], capsys)
    assert code == EXIT_INVALID
    assert err.startswith("error: ") and "--cycles >= 2" in err
    assert not out.exists()


@pytest.mark.parametrize("command,extra,reason", [
    # about e^40 = 2.4e17 customers per cycle: rejected before any draw
    ("simulate", [], "customers"),
    # every check before the Monte Carlo one evaluates G far out in its tail
    # (p00 there is e^-40 + (1 - e^-40) e^-t, no cancellation); then the same guard
    ("verify", ["--t-max", "1", "--step", "0.1"], "customers"),
])
def test_rho_40_exits_invalid_never_hangs(command, extra, reason, tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run([command, "--lambda", "1", "--rho", "40", "--beta", "0",
                        "--cycles", "2", "--out", str(out), *extra], capsys)
    assert code == EXIT_INVALID
    assert err.startswith("error: ") and reason in err
    assert not out.exists()


def test_rho_40_flat_table_to_40_evaluates_like_its_constant(tmp_path, capsys):
    # the body mass is the reverse Simpson sum of the kernel over [0, 40], within 2e-16 of
    # 1 - e^-40 (the forward sum fell 4e-14 short), so G(0) = 1 - 1/I is -2.2e-16, inside
    # the certificate's 8 ulps, where it was -4e-14 and the table was rejected
    table = tmp_path / "flat.csv"
    table.write_text("t,beta\n0,0\n40,0\n")
    out = tmp_path / "e.csv"
    code, _, err = run(["eval", "--lambda", "1", "--rho", "40", "--beta-file", str(table),
                        "--t-max", "1", "--step", "0.001", "--out", str(out)], capsys)
    assert code == EXIT_OK, err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (1001, 10)
    assert abs(rows[0, 1]) <= 8 * np.spacing(1.0)  # G(0)
    assert np.max(np.abs(rows[:, 1] - cf.service_cdf(validate_queue_params(1.0, 40.0), 0.0,
                                                     rows[:, 0]))) <= 1e-14


@pytest.mark.parametrize("end", ["1", "40"])
def test_rho_40_flat_table_writes_no_negative_curve(end, tmp_path, capsys):
    # B is below e^-20 here, where the trapezoid grid alone was off by 4.3e-5: its B column
    # went down to -8.3e-8 and its Z column to -3.1e-8.  The extrapolated grid is off by
    # 4.3e-9, and both curves are clipped to [0, 1]
    table = tmp_path / "flat.csv"
    table.write_text(f"t,beta\n0,0\n{end},0\n")
    out = tmp_path / "e.csv"
    code, _, err = run(["eval", "--lambda", "1", "--rho", "40", "--beta-file", str(table),
                        "--t-max", "1", "--step", "0.001", "--out", str(out)], capsys)
    assert code == EXIT_OK, err
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all((rows[:, 2:4] >= 0.0) & (rows[:, 2:4] <= 1.0))


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
    assert all(s == "PASS" for s in report.values())
    assert sum(s == "PASS" for s in report.values()) >= 10


def test_verify_interior_beta_fails_only_floor_checks(capsys):
    code, out, _ = run(["verify", "--lambda", "1", "--rho", "1",
                        "--beta", "0", "--cycles", "20000", "--seed", "1"], capsys)
    report = parse_report(out)
    assert code == EXIT_VERIFY_FAIL
    failed = {n for n, s in report.items() if s == "FAIL"}
    assert failed == set(FLOOR_CHECKS)


def test_verify_one_cycle_has_no_correlation(capsys):
    # one cycle has no sample covariance: the independence check reads r = 0, with no warning
    code, out, err = run(["verify", "--lambda", "1", "--rho", "1",
                          "--beta", "0", "--cycles", "1", "--seed", "1"], capsys)
    assert code == EXIT_VERIFY_FAIL and err == ""
    assert "PASS busy/idle independence: |r| = 0.00000 < 3.00000" in out.splitlines()
    assert set(parse_report(out).items()) >= {(n, "PASS") for n in (
        "KS(busy period)", "KS(busy cycle)", "KS(idle period)", "zero-busy fraction matches atom")}


def test_verify_tabulated_beta_runs_the_checks_of_a_constant(tmp_path, capsys):
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0.0,0.0\n1.0,0.2\n")
    code, out, _ = run(["verify", "--lambda", "1", "--rho", "1",
                        "--beta-file", str(table), "--cycles", "5000",
                        "--seed", "3"], capsys)
    report = parse_report(out)
    assert "SKIP" not in out
    for name in ("busy period: series vs transform", "busy cycle: series vs transform",
                 "busy period tail meets its grid", "service mean = analytic target",
                 "busy period mean = analytic target", "busy cycle mean = analytic target",
                 "busy cycle below exponential ceiling",
                 "busy period transform: kernel form vs nested quadrature",
                 "service CDF solves the Riccati ODE", "zero-busy fraction matches atom"):
        assert report[name] == "PASS", out
    # interior running-average beta, so the floors fail here too, on one line, and only they
    assert code == EXIT_VERIFY_FAIL
    assert {n for n, v in report.items() if v == "FAIL"} == {"envelope bounds on series curves"}


def test_verify_walks_the_ramp_in_one_block(tmp_path, capsys, monkeypatch):
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0.0,0.0\n1.0,0.2\n")
    walked = []
    solve = transforms.busy_period_cdf_series

    def counted(law):
        grid = solve(law)
        walked.append(grid.values.size)
        return grid

    monkeypatch.setattr(transforms, "busy_period_cdf_series", counted)
    code, _, _ = run(["verify", "--lambda", "1", "--rho", "1", "--beta-file", str(table),
                      "--t-max", "2", "--step", "0.005", "--cycles", "10"], capsys)
    # one block of the walk, which meets the tail there; --t-max sets only eval's rows
    assert code == EXIT_VERIFY_FAIL and walked == [4096]


@pytest.mark.parametrize("rho", [1e-3, 0.1, 0.5])
def test_ramp_verify_ks_passes_at_small_rho(rho, tmp_path, capsys):
    # B and Z past the series grid are its exponential tail; clamped to the grid's last
    # value they put KS(busy cycle) at 0.988 (rho = 1e-3) and 0.32 (rho = 0.1)
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0,0\n1,0.2\n")
    _, out, _ = run(["verify", "--lambda", "1", "--rho", repr(rho), "--beta-file", str(table),
                     "--cycles", "100000", "--seed", "1"], capsys)
    report = parse_report(out)
    for name in ("KS(busy period)", "KS(busy cycle)", "KS(idle period)"):
        assert report[name] == "PASS", out


@pytest.mark.parametrize("rho,cycles", [(8.0, 2000), (10.0, 200)])
def test_heavy_traffic_verify_series_passes(rho, cycles, capsys):
    # the series grid is one block that meets the exact tail; walked to 12 mean busy
    # periods it was 2.3e-3 off at rho = 8 (7.15M points) and too large at rho = 10
    code, out, err = run(["verify", "--lambda", "1", "--rho", repr(rho), "--beta", "0",
                          "--cycles", str(cycles)], capsys)
    report = parse_report(out)
    assert report["busy period: series vs transform"] == "PASS", out
    assert report["busy cycle: series vs transform"] == "PASS", out
    # exit 1 only for the paper's floors, false at interior beta
    assert code == EXIT_VERIFY_FAIL, err
    assert {n for n, v in report.items() if v == "FAIL"} == set(FLOOR_CHECKS), out


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
    assert report["busy period: series vs transform"] == "PASS"
    assert report["busy cycle: series vs transform"] == "PASS"


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
    assert report["busy period: series vs transform"] == "PASS"
    assert report["busy cycle: series vs transform"] == "PASS"
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


def savetxt_text(a: np.ndarray, header: str) -> str:
    ref = io.StringIO()
    np.savetxt(ref, a, fmt="%.17g", delimiter=",", comments="", header=header)
    return ref.getvalue()


def write_csv_text(a: np.ndarray, header: str) -> str:
    ours = io.StringIO()
    write_csv(ours, header, a.T)
    return ours.getvalue()


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 10)),
                  elements=st.floats() | st.floats(-1e18, 1e18)))
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_savetxt_on_any_doubles(a):
    # both signs, +-0, subnormals, nan, +-inf and values inside and outside the exact window
    assert write_csv_text(a, "h") == savetxt_text(a, "h")


def test_write_csv_exact_at_powers_of_ten_ties_and_random_exponents():
    rng = np.random.default_rng(2024)
    powers = 10.0 ** np.arange(-8, 18)
    near = np.concatenate([np.nextafter(powers, np.inf), powers, np.nextafter(powers, -np.inf)])
    odd = rng.integers(1, 2**53, 20_000) | 1
    dyadic = odd / 2.0 ** rng.integers(1, 80, odd.size)  # about 2% are 18-digit ties
    u = rng.random(20_000) * 10.0 ** rng.integers(-8, 18, 20_000)
    places = rng.integers(0, 20, u.size).tolist()
    decimals = np.array([round(x, d) for x, d in zip(u.tolist(), places)])
    sign = rng.choice([-1.0, 1.0], 1_000_000)
    spread = sign * rng.random(sign.size) * 10.0 ** rng.uniform(-9, 19, sign.size)
    for values, ncols in ((np.concatenate([near, -near]), 1), (dyadic, 4), (decimals, 5),
                          (spread, 8)):
        a = values.reshape(-1, ncols)
        assert write_csv_text(a, "h") == savetxt_text(a, "h")


def test_chunk_tables_hold_each_chunks_digits_and_trailing_zeros():
    text = [f"{i:04d}" for i in range(10**4)]
    assert cli._CHUNK_TEXT.view("S4").astype(str).tolist() == text
    zeros = [len(t) - len(t.rstrip("0")) for t in text]
    assert cli._CHUNK_ZEROS.tolist() == zeros
    # chunk j of N's 16 digits after the first ends its significant digits at 4 (j - 1) + 4 - zeros
    for j in range(1, 5):
        assert cli._SIGNIFICANT[j - 1].tolist() == [
            4 * j - z if i else 0 for i, z in enumerate(zeros)]


def test_a_csv_block_holds_under_140_bytes_a_value():
    # a full block of 17-digit fields of every exponent and both signs; the block's arrays
    # stay mapped from one block to the next only while they are small next to glibc's heap
    # trim threshold (twice the largest block freed so far)
    rng = np.random.default_rng(7)
    n = cli.CSV_BLOCK_VALUES // 10 * 10
    v = rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.integers(-6, 17, n)
    cli._format_block(v, 10)  # first-call costs
    tracemalloc.start()
    try:
        cli._format_block(v, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 0.48 MB (118 bytes a value) for 4090 values; 1.34 MB (163 bytes a value) for
    # 8190 values before the 4-digit tables
    assert peak <= 140 * n <= 1_000_000


@pytest.mark.parametrize("argv", [
    ["eval", "--lambda", "1", "--rho", "3", "--beta", "0", "--t-max", "20"],
    ["simulate", "--lambda", "1", "--rho", "1", "--beta-file", "ramp", "--cycles", "5000"],
])
def test_cli_csv_bytes_match_savetxt_of_their_values(argv, tmp_path, capsys):
    # %.17g round-trips, so reading the file back and re-printing it with
    # np.savetxt is an independent route to the same bytes
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0,0\n1,0.2\n")
    out = tmp_path / "out.csv"
    argv = [str(table) if arg == "ramp" else arg for arg in argv]
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == EXIT_OK, err
    text = out.read_text()
    header = text.partition("\n")[0]
    assert text == savetxt_text(np.loadtxt(out, delimiter=",", skiprows=1), header)


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


def test_one_row_table_is_the_constant_it_equals(tmp_path, capsys):
    # a table whose only knot is (0, c) is beta = c: every command, verify's bound ordering
    # included, writes the same bytes for it as for --beta c
    table = tmp_path / "one.csv"
    table.write_text("t,beta\n0,0.3\n")
    common = ["--lambda", "1", "--rho", "1", "--cycles", "2000", "--seed", "4"]
    outputs = []
    for beta in (["--beta", "0.3"], ["--beta-file", str(table)]):
        files = []
        for command in ("eval", "simulate"):
            out = tmp_path / f"{command}.csv"
            code, stdout, err = run([command, *common, *beta, "--out", str(out)], capsys)
            assert code == EXIT_OK, err
            files += [stdout, out.read_bytes()]
        code, report, _ = run(["verify", *common, *beta], capsys)
        assert code == EXIT_VERIFY_FAIL  # the paper floors, at interior beta
        outputs.append((files, report))
    assert outputs[0] == outputs[1]
    assert parse_report(outputs[1][1])["busy period: series vs transform"] == "PASS"


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
    ("t,beta\n0,0\n1,-1.5\n", ["--t-max", "1"]),  # beta(inf) < -lambda: the kernel would grow
    ("t,beta\n0,0\n1,0.2\n", ["--rho", "709.8"]),  # e^rho overflows
    # running average 1.3 > 0.581977 at t = 2: rejected whatever the output horizon
    ("t,beta\n0,0\n1,0.1\n2,5\n", ["--t-max", "1"]),
    ("t,beta\n0,0\n1,0.1\n2,5\n", ["--t-max", "5"]),
    # about e^50 customers a cycle
    ("t,beta\n0,0\n1,0.2\n", ["--rho", "50"]),
    # grids beyond MAX_GRID_POINTS: the series grid's lead J = t_knot/h, then its first
    # block 4J, then the kernel grid
    ("t,beta\n0,0\n1,0.2\n", ["--step", "1e-8"]),
    ("t,beta\n0,0\n1,0.2\n", ["--step", "1e-7"]),
    ("t,beta\n0,-1\n1e300,0\n", []),
])
def test_verify_bad_input_exits_invalid(table, extra, tmp_path, capsys):
    # simulate too, and before it draws a cycle or writes a line of --out
    path = tmp_path / "beta.csv"
    path.write_text(table)
    out = tmp_path / "out.csv"
    for command in ("verify", "simulate"):
        code, _, err = run([command, "--lambda", "1", "--rho", "1", "--beta-file", str(path),
                            "--cycles", "100", "--out", str(out), *extra], capsys)
        assert code == EXIT_INVALID
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--rho", "50", "--beta", "0"],                     # 1.2e25 rows
    ["--rho", "1", "--beta", "0", "--t-max", "1e12"],   # 2e14 rows
    ["--rho", "1", "--beta-file", "far"],               # kernel grid of 2e303 cells
])
def test_eval_oversized_grid_exits_invalid(argv, tmp_path, capsys):
    table = tmp_path / "far.csv"
    table.write_text("t,beta\n0,-1\n1e300,0\n")
    argv = [str(table) if arg == "far" else arg for arg in argv]
    code, _, err = run(["eval", "--lambda", "1", *argv], capsys)
    assert code == EXIT_INVALID
    assert err.startswith("error: ") and str(MAX_GRID_POINTS) in err


@pytest.mark.parametrize("extra", [["--t-max", "1e12"], ["--t-max", "1e7", "--step", "1"]])
def test_t_max_sets_only_eval_rows(extra, tmp_path, capsys):
    # the series grid ends where it meets its tail whatever --t-max is; walked to --t-max
    # at the default step it was 2e14 and 2e9 points, beyond MAX_GRID_POINTS
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0,0\n1,0.2\n")
    common = ["--lambda", "1", "--rho", "1", "--beta-file", str(table)]
    code, out, _ = run(["verify", *common, "--cycles", "1000", *extra], capsys)
    assert code == EXIT_VERIFY_FAIL  # the envelope check FAILs by design for the ramp
    assert out == run(["verify", *common, "--cycles", "1000"], capsys)[1]
    code, _, err = run(["simulate", *common, "--cycles", "100",
                        "--out", str(tmp_path / "s.csv"), *extra], capsys)
    assert code == EXIT_OK, err


def test_constant_beta_simulate_builds_no_time_grid(tmp_path, capsys):
    # the horizon sizes eval's rows and the series grid only; neither runs here
    code, _, err = run(["simulate", "--lambda", "1", "--rho", "1", "--beta", "0",
                        "--t-max", "1e12", "--cycles", "100", "--out", str(tmp_path / "s.csv")],
                       capsys)
    assert code == EXIT_OK, err


def test_non_utf8_table_exits_invalid(tmp_path, capsys):
    path = tmp_path / "beta.csv"
    path.write_bytes(b"t,beta\n0,\xff\xfe\n")
    code, _, err = run(["eval", "--lambda", "1", "--rho", "1", "--beta-file", str(path)], capsys)
    assert code == EXIT_INVALID
    assert err.startswith("error: ") and "UTF-8" in err


# ---- the parser: one command and nine options, in any order ----------------

@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_help_exits_0_and_names_every_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(command in out for command in ("eval", "simulate", "verify"))


@pytest.mark.parametrize("command", [[], ["plot"]])
def test_a_missing_or_unknown_command_exits_2_without_a_traceback(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--lambda", "1", "--rho", "1", "--beta", "0"])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_INVALID
    assert err.splitlines()[-1].startswith("mginf: error: ") and "command" in err.splitlines()[-1]
    assert "Traceback" not in err


@pytest.mark.parametrize("command, extra", [
    ("eval", ["--t-max", "3", "--step", "0.25"]),
    ("simulate", ["--cycles", "300", "--seed", "4"]),
    ("verify", ["--cycles", "300", "--seed", "4"]),
])
def test_options_before_the_command_parse_as_after_it(command, extra, tmp_path, capsys):
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0,0\n1,0.2\n")
    options = ["--lambda", "1", "--rho", "1", "--beta-file", str(table), *extra]
    after = run([command, *options], capsys)
    assert run([*options, command], capsys) == after
    assert run([*options[:2], command, *options[2:]], capsys) == after


def test_simulate_prints_the_ks_values_of_verify(tmp_path, capsys):
    table = tmp_path / "ramp.csv"
    table.write_text("t,beta\n0,0\n1,0.2\n")
    options = ["--lambda", "1", "--rho", "1", "--beta-file", str(table),
               "--cycles", "2000", "--seed", "5"]
    _, summary, _ = run(["simulate", *options, "--out", str(tmp_path / "s.csv")], capsys)
    _, report, _ = run(["verify", *options], capsys)
    printed = dict(line.split() for line in summary.splitlines() if line.startswith("ks_"))
    for key, name in (("ks_busy", "KS(busy period)"), ("ks_cycle", "KS(busy cycle)"),
                      ("ks_idle", "KS(idle period)")):
        line = next(x for x in report.splitlines() if f" {name}: " in x)
        assert line.split(": ")[1].split(" <")[0] == f"{float(printed[key]):.4f}"


# ---- any input: an exit code, never a traceback ----------------------------

BAD_FLOATS = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])


def mostly(good, bad=BAD_FLOATS):
    return st.integers(0, 7).flatmap(lambda k: bad if k == 0 else good)


@st.composite
def cli_argv(draw, work):
    """Mostly valid runs on grids of at most about 50k points with at most 5000 cycles.

    Values follow "=", so argparse reads "-inf" as a value, not as an option.
    """
    lam = draw(mostly(st.floats(0.5, 2.0)))
    rho = draw(mostly(st.floats(0.2, 3.0), BAD_FLOATS | st.sampled_from([40.0, 709.8, 1e6])))
    argv = [draw(st.sampled_from(["eval", "simulate", "verify"])), f"--lambda={lam!r}",
            f"--rho={rho!r}", f"--cycles={draw(st.integers(-1, 5000))}",
            f"--seed={draw(st.integers(-1, 2**64))}", f"--out={work / 'out.csv'}"]
    lo, hi = -1.0, 1.0  # beta in units of the admissible range, a little beyond it too
    if 0 < lam < math.inf and 0 < rho < 700:
        lo, hi = -lam, lam / math.expm1(rho)
    beta = mostly(st.floats(-0.2, 1.2).map(lambda u: lo + u * (hi - lo))).map(repr)
    source = draw(st.sampled_from(["beta", "beta", "table", "table", "text", "both", "none"]))
    if source in ("beta", "both"):
        argv.append(f"--beta={draw(beta)}")
    if source in ("table", "text", "both"):
        rows, t = [f"0,{draw(beta)}"], 0.0
        for dt in draw(st.lists(st.floats(0.05, 2.0), max_size=3)):
            t += dt
            rows.append(f"{t!r},{draw(beta)}")
        text = "t,beta\n" + "\n".join(rows) + "\n"
        if source == "text":
            text = draw(st.text("0123456789.,-e\nnab", max_size=30))
        (work / "beta.csv").write_text(text)
        argv.append(f"--beta-file={work / 'beta.csv'}")
    for flag, good in (("--t-max", st.floats(0.1, 20.0)), ("--step", st.floats(0.002, 0.5))):
        value = draw(st.none() | mostly(good))
        if value is not None:
            argv.append(f"{flag}={value!r}")
    return argv


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_main_ends_in_an_exit_code(tmp_path_factory, data):
    argv = data.draw(cli_argv(tmp_path_factory.mktemp("fuzz")))
    assert main(argv) in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_INVALID, EXIT_IO)
