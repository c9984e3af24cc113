"""Golden digests: the bytes `eval`, `simulate` and `verify` write at the benchmark's three points.

The points are those of bench/run.py (lambda = 1; rho, beta and cycle count
per workload; eval on 12 mean busy periods at step 0.005), with seed 5.  A
digest changes only when some output byte does: a change that claims to keep
the arithmetic must leave all nine unchanged.
"""

import hashlib
import math

import pytest

from mginf.cli import main

SEED = 5

# workload: (rho, --beta or the ramp table's rows, cycles,
#            sha256 of the eval CSV, the simulate CSV and the verify stdout)
POINTS = {
    "mc-constant": (1.0, 0.0, 100_000, (
        "2fc548e0227348da8fbbb73196652bab9cb41d8ff77cb4f327192d034593478c",
        "82e474036513c90d4765dc99ad887728fab8ff7cbf93065a44b386e31deee0a5",
        "1f4c91965a4c5331121019f13b3e5d00f26336ffdab69f6df1d36e9a382c5a03")),
    "table-ramp": (1.0, ((0.0, 0.0), (1.0, 0.2)), 1000, (
        "5ec79cce7b9466492bc41e18519f10bbf524823748c141a9e805688979a6048e",
        "ddd160b674f42fcfbc3e267c18edad0b6665d8f347d4612c476280781dc85740",
        "5bc20400dcfe29a92000aa8863cf4011f4af2f768eaad49a268d1f14d6dc95a4")),
    "heavy-series": (3.0, 0.0, 20_000, (
        "49fd692f9865ef86030d75daec2f02600399fe4aff6349da9e6efc47553cef7c",
        "c095b3aa07d0bf0dc47cc501d03832976fee27b128710fcb6c74433f3a77e1b4",
        "44dd34db08f2ef21c78e834b5662a95f96e634dd6bd834c4d1b748ecc573575b")),
}


def command_digests(tmp_path, capsys, rho, beta, cycles):
    """sha256 of the eval CSV, the simulate CSV and the verify stdout at one point."""
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
    assert main(["simulate", *common, *mc, "--out", str(tmp_path / "simulate.csv")]) == 0
    capsys.readouterr()
    main(["verify", *common, *mc])  # exit 1: the paper's floor checks FAIL at interior beta
    verify_out = capsys.readouterr().out.encode()
    return tuple(hashlib.sha256(data).hexdigest() for data in (
        (tmp_path / "eval.csv").read_bytes(), (tmp_path / "simulate.csv").read_bytes(), verify_out))


@pytest.mark.parametrize("workload", sorted(POINTS))
def test_command_output_bytes_are_unchanged(tmp_path, capsys, workload):
    rho, beta, cycles, want = POINTS[workload]
    assert command_digests(tmp_path, capsys, rho, beta, cycles) == want
