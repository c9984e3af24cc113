"""Golden digests: the bytes `eval`, `simulate` and `verify` write at the benchmark's three points.

The points are those of bench/run.py (lambda = 1; rho, beta and cycle count
per workload; eval on 12 mean busy periods at step 0.005), with seed 5.  A
digest changes only when some output byte does: a change that claims to keep
the arithmetic must leave all twelve unchanged.  The simulate stdout holds the
sample moments and the three KS distances at 17 significant digits, where the
verify lines print KS to 4 decimals.
"""

import hashlib
import math

import pytest

from mginf.cli import main

SEED = 5

# workload: (rho, --beta or the ramp table's rows, cycles,
#            sha256 of the eval CSV, the simulate CSV, the simulate stdout and the verify stdout)
POINTS = {
    "mc-constant": (1.0, 0.0, 100_000, (
        "2fc548e0227348da8fbbb73196652bab9cb41d8ff77cb4f327192d034593478c",
        "82e474036513c90d4765dc99ad887728fab8ff7cbf93065a44b386e31deee0a5",
        "ce097ab7623cdd4f631bd624e51fe5276772931faaa8e8ce95f384799db3825d",
        "cb581fa5d75ad48bdb951f1981b9bcbb6f07e8b0d95c0cb98055b9a7ab708ce1")),
    "table-ramp": (1.0, ((0.0, 0.0), (1.0, 0.2)), 1000, (
        "85561c7b84ad7956cc2aeb44de0627638a61c43ed4b6b8bc014b393d8489c29f",
        "ddd160b674f42fcfbc3e267c18edad0b6665d8f347d4612c476280781dc85740",
        "b3a297bf3e8ca81e4d0d9d20f867fa6e26bcf2bd6c62cac3d23a0b7eab8f2ac3",
        "d3bb8a6ffbc35b360fcd29e625e8ed93cedb8fe28596c8af6e791aab8ae8b7e2")),
    "heavy-series": (3.0, 0.0, 20_000, (
        "49fd692f9865ef86030d75daec2f02600399fe4aff6349da9e6efc47553cef7c",
        "c095b3aa07d0bf0dc47cc501d03832976fee27b128710fcb6c74433f3a77e1b4",
        "bb6f7982252e3a7b1f00c3b8f33f30bc7066716e4ee88625f161c6b9ddd28ca2",
        "0b0f31e43b781d1956eb2879e37d9ce94653ef5824f4a8d188abb04d79ade5d0")),
}


def command_digests(tmp_path, capsys, rho, beta, cycles):
    """sha256 of the eval CSV, the simulate CSV, the simulate stdout and the verify stdout."""
    common = ["--lambda", "1.0", "--rho", repr(rho)]
    if isinstance(beta, float):
        common += ["--beta", repr(beta)]
    else:
        table = tmp_path / "beta.csv"
        table.write_text("t,beta\n" + "".join(f"{t!r},{b!r}\n" for t, b in beta))
        common += ["--beta-file", str(table)]
    mc = ["--cycles", str(cycles), "--seed", str(SEED)]
    t_max = 12.0 * math.expm1(rho)
    assert main(["eval", *common, "--t-max", repr(t_max), "--step", "0.005",
                 "--out", str(tmp_path / "eval.csv")]) == 0
    capsys.readouterr()
    assert main(["simulate", *common, *mc, "--out", str(tmp_path / "simulate.csv")]) == 0
    simulate_out = capsys.readouterr().out.encode()
    main(["verify", *common, *mc])  # exit 1: the paper's floor checks FAIL at interior beta
    verify_out = capsys.readouterr().out.encode()
    return tuple(hashlib.sha256(data).hexdigest() for data in (
        (tmp_path / "eval.csv").read_bytes(), (tmp_path / "simulate.csv").read_bytes(),
        simulate_out, verify_out))


@pytest.mark.parametrize("workload", sorted(POINTS))
def test_command_output_bytes_are_unchanged(tmp_path, capsys, workload):
    rho, beta, cycles, want = POINTS[workload]
    assert command_digests(tmp_path, capsys, rho, beta, cycles) == want
