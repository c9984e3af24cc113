#!/usr/bin/env python3
"""Wall time and minor page faults of each command call at one benchmark point.

Runs the benchmark child's own entries: bench/run.py's `commands_for` at the
--workload's point (`eval`, `simulate`, `eval`, `verify`, `eval`), each call
made by bench/child.py's `call`, which captures the command's stdout and
stderr and reads its `--out` CSV back and hashes it.  As in the child, an
entry repeats while its call exits 0 until its calls have taken the entry's
`min_seconds` (a quarter second for `eval`, one call otherwise), and the
child's `calibrate()` loop runs twice before the first entry and once after
each entry.  All of that matters to the page-fault count: glibc raises its
mmap threshold to the size of the largest block freed so far (up to 32 MB),
so after the CSV's bytes are freed the arrays of later calls come from the
heap instead of fresh mappings, and it returns the heap's free top to the
kernel once that exceeds twice the threshold.  A warm-up round, round -1,
runs first: its calls are the benchmark child's (first-call costs such as
numpy's lazily imported modules and the heap's first growth included), and
those of rounds 0 to --rounds - 1 are warm.

Each call prints one JSON line: the round, the command, its exit code, wall
time, `ru_minflt` delta over the whole `call` (minor page faults: pages the
process touched for the first time, or got back from the kernel afresh after
freeing them; the read-back of the CSV included), the sha256 of its CSV, and
the wall seconds of the stages in STAGES.  Each stage is a function that the
commands look up on its module at call time, so one wrapper per row of the
table times it: `series_s` is the busy-period grid
solve (with `series_points`, the grid points it solved, 0 if none),
`write_s` the CSV writer (`eval` and `simulate`), `mc_s` and `ks_s` the
Monte Carlo run and its KS distances (`simulate` and `verify`), and
`checks_s` each `verify.check_*` function (`verify`).  Every law runs the
same checks; `check_series_transform` reads the grids first, so its seconds
hold the solve's.  A call that raises prints its traceback to stderr and
exit null; CSVs go to a temporary directory.

Example:
    PYTHONPATH=src python3 scripts/profile_commands.py --workload table-ramp --seed 5 --rounds 3
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from mginf import cli, transforms, verify

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import child  # noqa: E402  (bench/child.py: call, calibrate, MAX_CALLS)
import run as bench  # noqa: E402  (bench/run.py: WORKLOADS, commands_for)

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
    """Exit code, wall seconds, minor faults, CSV digest and stage seconds of one `child.call`.

    Every call reports `series_points` and `series_s`, an `eval` or `simulate` call
    `write_s`, a `simulate` or `verify` call `mc_s` and `ks_s`, a `verify` call `checks_s`.
    """
    SPENT.clear()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call = child.call(cli.main, argv)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if call["error"]:
        sys.stderr.write(call["error"])
    seconds = {key: round(SPENT.get(key, 0.0), 6) for key in ("series_s", "write_s", "mc_s", "ks_s")}
    result = {"exit": call["exit"], "wall_s": round(call["wall_s"], 6), "minflt": faults,
              "out_sha256": call["out_sha256"], "series_points": SPENT.get("series_points", 0),
              "series_s": seconds["series_s"]}
    if argv[0] == "verify":
        result["checks_s"] = {key: round(sec, 6) for key, sec in SPENT.items()
                              if key.startswith("check_")}
    else:
        result["write_s"] = seconds["write_s"]
    if argv[0] != "eval":
        result.update(mc_s=seconds["mc_s"], ks_s=seconds["ks_s"])
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()
    for module, name, key in STAGES:
        setattr(module, name, timed(getattr(module, name), key))
    child.calibrate()  # first-call costs, then the child's first timed loop
    child.calibrate()
    with tempfile.TemporaryDirectory() as tmp:
        entries = bench.commands_for(bench.WORKLOADS[args.workload], args.seed, Path(tmp),
                                     trace=False)
        for rnd in range(-1, args.rounds):  # round -1 is the warm-up
            for name, argv, min_seconds in entries:
                calls, spent = 0, 0.0
                while True:  # bench/child.py's rule for repeating an entry
                    result = timed_call(argv)
                    calls, spent = calls + 1, spent + result["wall_s"]
                    print(json.dumps({"round": rnd, "command": name, **result}))
                    if result["exit"] != 0 or calls >= child.MAX_CALLS or spent >= min_seconds:
                        break
                child.calibrate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
