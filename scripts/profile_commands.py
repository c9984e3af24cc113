#!/usr/bin/env python3
"""Wall time and minor page faults of each command call at one benchmark point.

Calls `mginf.cli.main` in-process for `eval`, `simulate`, `eval`, `verify`,
the order of bench/child.py, at the --workload's point of bench/run.py
(lambda = 1; eval on 12 mean busy periods at step 0.005).  As in the
benchmark child, each `eval` entry repeats until its calls have taken
EVAL_SECONDS, each `--out` CSV is read back and hashed after its call, and
bench/child.py's `calibrate()` loop runs twice before the first entry and
once after each entry.  All of that matters to the page-fault
count: glibc raises its mmap threshold to the size of the largest block
freed so far (up to 32 MB), so after the CSV's bytes are freed the arrays of
later calls come from the heap instead of fresh mappings, and it returns the
heap's free top to the kernel once that exceeds twice the threshold.  A
warm-up round, round -1, runs first: its calls are the benchmark child's
(first-call costs such as numpy's lazily imported modules and the heap's
first growth included), and those of rounds 0 to --rounds - 1 are warm.
Each call prints one JSON line: the round, the
command, its exit code, wall time, `ru_minflt` delta (minor page faults:
pages the process touched for the first time, or got back from the kernel
afresh after freeing them), the sha256 of its CSV, `series_points`, the
busy-period grid points solved in that call (0 if none), and `series_s`, the
wall seconds spent solving them; both are taken by a wrapper on
`mginf.transforms.busy_period_cdf_series`, which `ServiceLaw.series` looks up
on the module at call time, as in bench/child.py.  Each `verify`
line also holds `checks_s`, the wall seconds of each `verify.check_*`
function in that call (wrapped on the module, which `verify_point` looks them
up on at call time).  Every law runs the same checks, `check_bound_ordering`
among them.  `check_series_transform` reads the grids first, so its seconds
hold the solve's.  Each `eval` and `simulate` line holds `write_s`, the
wall seconds of `mginf.cli.write_csv`, the exact CSV writer (wrapped the same
way).  Each `simulate` and `verify` line holds `mc_s`, the wall seconds of
`run_cycles`, and `ks_s`, those of `cycle_ks`; both modules import the two
names from `mginf.simulate`, so the wrappers go on `mginf.cli` and
`mginf.verify`, where the commands look them up at call time.  Command stdout
is discarded; CSVs go to a temporary directory.

Example:
    PYTHONPATH=src python3 scripts/profile_commands.py --workload table-ramp --seed 5 --rounds 3
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import resource
import tempfile
import time
from pathlib import Path

from mginf import cli, transforms, verify
from mginf.cli import main as mginf_main

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"

EVAL_SECONDS = 0.25  # bench/run.py's EVAL_MIN_S

# rho, --beta or the table's (t, beta) rows, cycles: the points of bench/run.py
WORKLOADS = {
    "mc-constant": (1.0, 0.0, 100_000),
    "table-ramp": (1.0, ((0.0, 0.0), (1.0, 0.2)), 1000),
    "heavy-series": (3.0, 0.0, 20_000),
}


def command_argvs(workload: str, seed: int, work: Path) -> list[tuple[str, list[str]]]:
    rho, beta, cycles = WORKLOADS[workload]
    common = ["--lambda", "1.0", "--rho", repr(rho)]
    if isinstance(beta, float):
        common += ["--beta", repr(beta)]
    else:
        table = work / "beta.csv"
        table.write_text("t,beta\n" + "".join(f"{t!r},{b!r}\n" for t, b in beta))
        common += ["--beta-file", str(table)]
    mc = ["--cycles", str(cycles), "--seed", str(seed)]
    ev = ["eval", *common, "--t-max", repr(12.0 * math.expm1(rho)), "--step", "0.005",
          "--out", str(work / "eval.csv")]
    sim = ["simulate", *common, *mc, "--out", str(work / "simulate.csv")]
    return [("eval", ev), ("simulate", sim), ("eval", ev), ("verify", ["verify", *common, *mc])]


SOLVED = []  # (grid points, wall seconds) of each busy-period solve since the last timed call


def time_series() -> None:
    """Wrap the busy-period grid solve so each call records its points and wall time."""
    solve = transforms.busy_period_cdf_series

    def timed(law):
        start = time.perf_counter()
        b = solve(law)
        SOLVED.append((b.values.size, time.perf_counter() - start))
        return b

    transforms.busy_period_cdf_series = timed


def timed_into(seconds: dict, key: str, fn):
    """fn, wrapped so that each call adds its wall time to seconds[key]."""
    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - start
    return wrapped


CHECK_SECONDS = {}  # wall seconds of each verify.check_* function since the last timed call


def time_checks() -> None:
    """Wrap each verify.check_* function so each call adds its wall time to CHECK_SECONDS."""
    for name in [n for n in vars(verify) if n.startswith("check_")]:
        setattr(verify, name, timed_into(CHECK_SECONDS, name, getattr(verify, name)))


WRITE_SECONDS = {}  # wall seconds of the CSV writer ("write_s") since the last timed call


MC_SECONDS = {}  # wall seconds of run_cycles ("mc_s") and cycle_ks ("ks_s") since the last timed call


def time_monte_carlo() -> None:
    """Wrap run_cycles and cycle_ks on cli and verify so each call adds its wall time to MC_SECONDS."""
    for module in (cli, verify):
        module.run_cycles = timed_into(MC_SECONDS, "mc_s", module.run_cycles)
        module.cycle_ks = timed_into(MC_SECONDS, "ks_s", module.cycle_ks)


def timed_call(argv: list[str]) -> dict:
    """Exit code, wall seconds, minor faults, CSV digest, series points and seconds of one call.

    A `verify` call also reports `checks_s`, an `eval` or `simulate` call `write_s`, and a
    `simulate` or `verify` call `mc_s` and `ks_s`.
    """
    SOLVED.clear()
    CHECK_SECONDS.clear()
    WRITE_SECONDS.clear()
    MC_SECONDS.clear()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = mginf_main(argv)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    digest = None
    if "--out" in argv:
        digest = hashlib.sha256(Path(argv[argv.index("--out") + 1]).read_bytes()).hexdigest()
    result = {"exit": code, "wall_s": round(wall, 6), "minflt": faults, "out_sha256": digest,
              "series_points": sum(n for n, _ in SOLVED),
              "series_s": round(sum(sec for _, sec in SOLVED), 6)}
    if argv[0] == "verify":
        result["checks_s"] = {name: round(sec, 6) for name, sec in CHECK_SECONDS.items()}
    else:
        result["write_s"] = round(WRITE_SECONDS.get("write_s", 0.0), 6)
    if argv[0] != "eval":
        result.update({key: round(MC_SECONDS.get(key, 0.0), 6) for key in ("mc_s", "ks_s")})
    return result


def child_calibrate():
    """bench/child.py's calibration loop, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.calibrate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()
    time_series()
    time_checks()
    cli.write_csv = timed_into(WRITE_SECONDS, "write_s", cli.write_csv)
    time_monte_carlo()
    calibrate = child_calibrate()
    calibrate()  # first-call costs, then the child's first timed loop
    calibrate()
    with tempfile.TemporaryDirectory() as tmp:
        calls = command_argvs(args.workload, args.seed, Path(tmp))
        for rnd in range(-1, args.rounds):  # round -1 is the warm-up
            for name, argv in calls:
                spent = 0.0
                while True:
                    result = timed_call(argv)
                    spent += result["wall_s"]
                    print(json.dumps({"round": rnd, "command": name, **result}))
                    if name != "eval" or spent >= EVAL_SECONDS:
                        break
                calibrate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
