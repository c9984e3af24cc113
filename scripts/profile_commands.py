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

Each call prints one JSON line: the round, the command, its exit code, wall
time, `ru_minflt` delta (minor page faults: pages the process touched for the
first time, or got back from the kernel afresh after freeing them), the
sha256 of its CSV, and the wall seconds of the stages in STAGES.  Each stage
is a function that the commands look up on its module at call time, so one
wrapper per row of the table times it: `series_s` is the busy-period grid
solve (with `series_points`, the grid points it solved, 0 if none),
`write_s` the CSV writer (`eval` and `simulate`), `mc_s` and `ks_s` the
Monte Carlo run and its KS distances (`simulate` and `verify`), and
`checks_s` each `verify.check_*` function (`verify`).  Every law runs the
same checks; `check_series_transform` reads the grids first, so its seconds
hold the solve's.  Command stdout is discarded; CSVs go to a temporary
directory.

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


# (module, function, key): each call of module.function adds its wall seconds to SPENT[key].
# cli and verify import run_cycles and cycle_ks from mginf.simulate, so both get a row.
STAGES = [
    (transforms, "busy_period_cdf_series", "series_s"),
    (cli, "write_csv", "write_s"),
    *((module, name, key) for module in (cli, verify)
      for name, key in (("run_cycles", "mc_s"), ("cycle_ks", "ks_s"))),
    *((verify, name, name) for name in vars(verify) if name.startswith("check_")),
]

SPENT = {}  # wall seconds of each stage key, and series_points, since the last timed call


def timed(fn, key: str):
    """fn, wrapped so that each call adds its wall seconds to SPENT[key]."""
    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        SPENT[key] = SPENT.get(key, 0.0) + time.perf_counter() - start
        if key == "series_s":  # and the grid points of the busy-period solve
            SPENT["series_points"] = SPENT.get("series_points", 0) + out.values.size
        return out
    return wrapped


def timed_call(argv: list[str]) -> dict:
    """Exit code, wall seconds, minor faults, CSV digest and stage seconds of one call.

    Every call reports `series_points` and `series_s`, an `eval` or `simulate` call
    `write_s`, a `simulate` or `verify` call `mc_s` and `ks_s`, a `verify` call `checks_s`.
    """
    SPENT.clear()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = mginf_main(argv)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    digest = None
    if "--out" in argv:
        digest = hashlib.sha256(Path(argv[argv.index("--out") + 1]).read_bytes()).hexdigest()
    seconds = {key: round(SPENT.get(key, 0.0), 6) for key in ("series_s", "write_s", "mc_s", "ks_s")}
    result = {"exit": code, "wall_s": round(wall, 6), "minflt": faults, "out_sha256": digest,
              "series_points": SPENT.get("series_points", 0), "series_s": seconds["series_s"]}
    if argv[0] == "verify":
        result["checks_s"] = {key: round(sec, 6) for key, sec in SPENT.items()
                              if key.startswith("check_")}
    else:
        result["write_s"] = seconds["write_s"]
    if argv[0] != "eval":
        result.update(mc_s=seconds["mc_s"], ks_s=seconds["ks_s"])
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
    for module, name, key in STAGES:
        setattr(module, name, timed(getattr(module, name), key))
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
