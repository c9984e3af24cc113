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
        "a722e1015b86ab57ce0a10b3518be52c24630e6bd49dcc70b2fa394d86bb7bc0",
        "82e474036513c90d4765dc99ad887728fab8ff7cbf93065a44b386e31deee0a5",
        "e2dcf828d56ab9393b7a4f0065763f0277cd75dd105c27cc561d0eb45a8d43c6")),
    "table-ramp": (1.0, ((0.0, 0.0), (1.0, 0.2)), 1000, (
        "3f711bd9e8aa1dc0a554006c488d40380a5161de558bb44f3148f4fda57d0cac",
        "ddd160b674f42fcfbc3e267c18edad0b6665d8f347d4612c476280781dc85740",
        "421d809ded02caccffa425f1b2e3a6622eeb2ef180190e0a115a69052f089b9b")),
    "heavy-series": (3.0, 0.0, 20_000, (
        "c9b5d4dccbcb14cee7768c35bb0cb67c4550699d679534281405e562cd469eb4",
        "c095b3aa07d0bf0dc47cc501d03832976fee27b128710fcb6c74433f3a77e1b4",
        "a08a353406930f4132f273b621bdd7b05243815cfa14e8964d31c61bdc9e75f2")),
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
