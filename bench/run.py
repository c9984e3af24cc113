#!/usr/bin/env python3
"""Benchmark of `mginf eval|simulate|verify` at three parameter points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each child is one fresh single-threaded interpreter (bench/child.py,
BLAS/OpenMP threads pinned to 1) that imports `mginf` and calls
`mginf.cli.main` in-process for `eval`, `simulate`, `eval`, `verify`, `eval`
(eval is short, so its calls are spread over the child).  Children repeat
until --seconds of measuring are spent, and at least three times; their
`import mginf` times are the set-up samples.  Each command call is one
operation; it fails on an unexpected exit code, a failed output check, or
output that differs from an earlier call with the same seed.  Inputs:
lambda = 1, the workload's rho and beta (a tabulated beta is written to a
temporary CSV), and --seed for `simulate` and `verify`.

--trace 0 reports the end-to-end metrics: medians over calls, with times
scaled to a machine on which the children's fixed calibration loop takes
CALIB_REF_S.  On a shared 2-core virtual machine the speed of every command
drifted together by up to a third within minutes; the scaling cancels such
common drift.  The raw wall-time medians are in the run record.
--trace 1 runs an untraced and a traced child (one call per command each)
and reports the per-layer metrics from the traced one (unscaled) plus the
tracing overhead.

The last line of stdout is the JSON result; the lines before it are a run
record and a human-readable report.  Exit code 2 when the package source is
not present.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import ConstantReference, TableReference, exp_cdf

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

LAM = 1.0
STEP = 0.005             # eval grid step: the program's default at lambda = 1
MIN_ITERATIONS = 3       # untraced children per run: medians of at least three
EVAL_MIN_S = 0.25        # eval is short: each eval entry repeats for >= 0.25 s
RUN_DEADLINE_S = 170.0   # a run must end within 180 s
KS_ALPHA = 1e-6          # false-alarm rate of each stochastic check
Z_CRIT = 4.89            # two-sided normal quantile at KS_ALPHA
CURVE_TOL = 1e-9         # eval curves that have an exact reference
SERIES_TOL = 1e-3        # eval B/Z on the tabulated path (verify's series gate)
CALIB_REF_S = 0.100      # calibration loop time that reported seconds refer to

# Single-threaded children with the same dict layouts in every one.
CHILD_ENV = {"PYTHONHASHSEED": "0", **{name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}}

EVAL_HEADER = "t,G,B,Z,p00,p10,indicator,bp_floor,cycle_floor,cycle_ceiling"
SIM_HEADER = "busy,idle,cycle"

# The paper's floor envelopes are false for interior beta (README, "Known
# failing check"); verify must keep printing FAIL for these.
FLOOR_CHECKS_CONSTANT = ("busy period above exponential floor", "busy cycle above floor")
FLOOR_CHECKS_TABLE = ("envelope bounds on series curves",)
# Monte Carlo checks whose printed gate is calibrated for 1e5 cycles; the
# benchmark judges their printed statistics at its own critical values.
MC_CHECKS = ("KS(busy period)", "KS(busy cycle)", "KS(idle period)",
             "zero-busy fraction matches atom", "busy/idle independence")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rho: float
    cycles: int
    beta: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    @property
    def t_max(self) -> float:
        """12 mean busy periods: the program's default eval horizon."""
        return 12.0 * math.expm1(self.rho) / LAM


WORKLOADS = {w.name: w for w in (
    Workload("mc-constant",
             "rho=1 beta=0, 1e5 cycles: per-cycle simulator setup (RNG substream) "
             "dominates; the series is cheap, so a solver change should not move it",
             rho=1.0, beta=0.0, cycles=100_000),
    Workload("table-ramp",
             "rho=1 ramp table (0,0),(1,0.2), 1000 cycles: the only tabulated path; "
             "scalar kernel CDF calls from the bisection sampler dominate",
             rho=1.0, knots=((0.0, 0.0), (1.0, 0.2)), cycles=1000),
    Workload("heavy-series",
             "rho=3 beta=0, 2e4 cycles: FFT convolution series on a 45.8k grid, "
             "about 20 draws per cycle, and the 45.8k-row eval CSV",
             rho=3.0, beta=0.0, cycles=20_000),
)}


def reference_for(w: Workload):
    if w.beta is not None:
        return ConstantReference(LAM, w.rho, w.beta)
    # past the eval horizon, so the KS checks see the reference where samples fall
    return TableReference(LAM, w.rho, w.knots, horizon=1.5 * w.t_max)


# ---------------------------------------------------------------- children

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts children in one work directory under one deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work, self.deadline, self.env = work, deadline, child_env()
        self.count = 0

    def _run(self, args: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        return subprocess.run(args, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)

    def child(self, commands, trace: bool = False) -> dict:
        self.count += 1
        tag = self.work / f"c{self.count}"
        spec = {"commands": commands, "trace": trace,
                "result": f"{tag}.json", "grids": f"{tag}.grids.npz",
                "spans": f"{tag}.spans.npz"}
        Path(f"{tag}.spec.json").write_text(json.dumps(spec))
        proc = self._run([sys.executable, str(BENCH_DIR / "child.py"), f"{tag}.spec.json"])
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child failed (exit {proc.returncode}):\n{proc.stderr}")
        out = json.loads(Path(spec["result"]).read_text())
        if not Path(out["mginf_file"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"mginf imported from {out['mginf_file']}, not from {SRC}")
        out["spec"] = spec
        return out

    def importtime(self) -> dict[str, float]:
        """Cumulative `python -X importtime` seconds of selected modules."""
        proc = self._run([sys.executable, "-X", "importtime", "-c", "import mginf"])
        if proc.returncode != 0:
            raise RuntimeError(f"import mginf failed:\n{proc.stderr}")
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        return {key: cum.get(mod, 0.0) for key, mod in (
            ("setup.import.mginf_s", "mginf"),
            ("setup.import.scipy_signal_s", "scipy.signal"),
            ("setup.import.scipy_integrate_s", "scipy.integrate"))}


def commands_for(w: Workload, seed: int, work: Path, trace: bool) -> list:
    """[name, argv, min_seconds] entries, in the order a child runs them.

    Untraced children call eval again after simulate and after verify, so its
    samples span the child instead of one burst of machine load.
    """
    common = ["--lambda", repr(LAM), "--rho", repr(w.rho)]
    if w.beta is not None:
        common += ["--beta", repr(w.beta)]
    else:
        table = work / "beta.csv"
        table.write_text("t,beta\n" + "".join(f"{t!r},{b!r}\n" for t, b in w.knots))
        common += ["--beta-file", str(table)]
    mc = ["--cycles", str(w.cycles), "--seed", str(seed)]
    ev = ["eval", ["eval", *common, "--t-max", repr(w.t_max), "--step", repr(STEP),
                   "--out", str(work / "eval.csv")], 0.0]
    sim = ["simulate", ["simulate", *common, *mc, "--out", str(work / "simulate.csv")], 0.0]
    ver = ["verify", ["verify", *common, *mc], 0.0]
    if trace:
        return [ev, sim, ver]
    ev[2] = EVAL_MIN_S
    return [ev, sim, ev, ver, ev]


# ------------------------------------------------------------------ checks

def ks_critical(n: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz bound: P(KS > x) <= 2 exp(-2 n x^2)."""
    return math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """sup |Fn - F| for a CDF on [0, inf) that may have an atom at 0."""
    xs, counts = np.unique(sample, return_counts=True)
    after = np.cumsum(counts) / sample.size
    before = after - counts / sample.size
    f = np.asarray(cdf(xs), dtype=float)
    f_left = np.where(xs > 0.0, f, 0.0)
    return float(max(np.max(np.abs(after - f)), np.max(np.abs(before - f_left))))


def read_csv(path: Path, header: str, ncols: int) -> tuple[np.ndarray | None, list[str]]:
    lines = (path.read_text() if path.exists() else "").split("\n")
    if lines[0] != header:
        return None, [f"{path.name}: header {lines[0][:80]!r} != {header!r}"]
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 2 else np.empty((0, ncols))
    if data.shape[1] != ncols:
        return None, [f"{path.name}: {data.shape[1]} columns, expected {ncols}"]
    return data, []


def check_eval(w: Workload, ref, path: Path) -> list[str]:
    data, errors = read_csv(path, EVAL_HEADER, 10)
    if data is None:
        return errors
    n = int(round(w.t_max / STEP)) + 1
    if data.shape[0] != n:
        return [f"{data.shape[0]} rows, expected {n}"]
    t = data[:, 0]
    if np.max(np.abs(t - np.arange(n) * STEP)) > 1e-9:
        errors.append("t column is not the requested grid")
    tol_bz = CURVE_TOL if w.beta is not None else SERIES_TOL
    for col, name, tol in ((1, "G", CURVE_TOL), (2, "B", tol_bz), (3, "Z", tol_bz)):
        err = float(np.max(np.abs(data[:, col] - getattr(ref, name)(t))))
        if not err <= tol:
            errors.append(f"{name} off its reference by {err:.3e} > {tol:g}")
    return errors


def check_simulate(w: Workload, ref, cmd: dict, path: Path, seed: int) -> list[str]:
    data, errors = read_csv(path, SIM_HEADER, 3)
    if data is None:
        return errors
    if data.shape[0] != w.cycles:
        return [f"{data.shape[0]} rows, expected {w.cycles}"]
    busy, idle, cycle = data.T
    if not (np.all(np.isfinite(data)) and np.all(data >= 0.0)):
        errors.append("non-finite or negative sample")
    if np.max(np.abs(cycle - (busy + idle))) > 1e-12 * max(1.0, float(np.max(cycle))):
        errors.append("cycle != busy + idle")
    crit = ks_critical(w.cycles)
    for name, sample, cdf in (("busy", busy, ref.B), ("cycle", cycle, ref.Z),
                              ("idle", idle, exp_cdf(LAM))):
        d = ks_statistic(sample, cdf)
        if not d <= crit:
            errors.append(f"KS({name}) {d:.4f} > critical {crit:.4f}")
    summary = cmd["stdout"].split()
    if summary[:4] != ["cycles", str(w.cycles), "seed", str(seed)]:
        errors.append(f"summary starts {' '.join(summary[:4])!r}")
    return errors


_FLOAT = re.compile(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?")
_CHECK_LINE = re.compile(r"^(PASS|FAIL|SKIP) (.*?): (.*)$")


def mc_check_ok(name: str, detail: str, n: int) -> bool:
    """Judge a printed Monte Carlo statistic at the benchmark's critical values."""
    nums = [float(x) for x in _FLOAT.findall(detail)]
    if name.startswith("KS(") and nums:
        return nums[0] <= ks_critical(n)
    if name == "zero-busy fraction matches atom" and len(nums) == 3:
        frac, atom, tol3 = nums  # tol3 is three standard errors
        return abs(frac - atom) <= Z_CRIT * max(tol3, 1e-12) / 3.0
    if name == "busy/idle independence" and len(nums) == 2:
        return abs(nums[0]) <= Z_CRIT / math.sqrt(n)
    return False


def check_verify(w: Workload, cmd: dict) -> tuple[list[str], dict[str, int]]:
    """Errors and status counts of verify's report; exit 1 expected iff a FAIL printed."""
    errors, statuses = [], {"PASS": 0, "FAIL": 0, "SKIP": 0}
    floors = FLOOR_CHECKS_CONSTANT if w.beta is not None else FLOOR_CHECKS_TABLE
    seen = {}
    for line in cmd["stdout"].splitlines():
        m = _CHECK_LINE.match(line)
        if m is None:
            errors.append(f"unparsed line {line[:80]!r}")
            continue
        status, name, detail = m.groups()
        statuses[status] += 1
        seen[name] = status
        if name in floors:
            if status != "FAIL":
                errors.append(f"documented false floor {name!r} printed {status}")
        elif name in MC_CHECKS:
            if not mc_check_ok(name, detail, w.cycles):
                errors.append(f"{name}: {detail} beyond the benchmark's critical value")
        elif status == "FAIL":
            errors.append(f"deterministic check failed: {name}: {detail}")
    errors += [f"check {name!r} missing" for name in floors + MC_CHECKS if name not in seen]
    return errors, statuses


def series_errors(ref, grids_path: Path, horizon: float) -> tuple[float | None, float | None]:
    """Sup distance of every captured B / Z series grid to the reference."""
    worst = {"B": None, "Z": None}
    with np.load(grids_path) as grids:
        for key in grids.files:
            if key.endswith("_step"):
                continue
            curve = key.split("_")[0]
            values = grids[key]
            t = np.arange(values.size) * float(grids[f"{key}_step"])
            keep = t <= horizon
            err = float(np.max(np.abs(values[keep] - getattr(ref, curve)(t[keep]))))
            worst[curve] = err if worst[curve] is None else max(worst[curve], err)
    return worst["B"], worst["Z"]


def check_iteration(w: Workload, ref, res: dict, seed: int) -> dict:
    """Errors of every command call in one child, plus what the child measured.

    The output checks read the files the last call left; every call of a
    command must write the same bytes, so they cover the earlier calls too.
    """
    cmds, work = res["commands"], Path(res["spec"]["grids"]).parent
    verify_errors, statuses = check_verify(w, cmds["verify"][-1])
    b_err, z_err = series_errors(ref, Path(res["spec"]["grids"]), getattr(ref, "horizon", math.inf))
    if b_err is None or z_err is None:
        verify_errors.append("no B/Z series grid observed")
    content = {"eval": check_eval(w, ref, work / "eval.csv"),
               "simulate": check_simulate(w, ref, cmds["simulate"][-1], work / "simulate.csv", seed),
               "verify": verify_errors}
    expected_exit = {"eval": 0, "simulate": 0, "verify": 1 if statuses["FAIL"] else 0}
    ops = []
    for name, calls in cmds.items():
        for c in calls:
            if c["error"] is not None:
                errs = [f"raised:\n{c['error']}"]
            elif c["exit"] != expected_exit[name]:
                errs = [f"exit {c['exit']}, expected {expected_exit[name]}: {c['stderr'][-300:]}"]
            else:
                errs = list(content[name])
            if c["out_sha256"] != calls[0]["out_sha256"]:
                errs.append("output differs from the first call's")
            ops.append([name, errs])
    sim = work / "simulate.csv"
    return {"ops": ops, "statuses": statuses, "b_err": b_err, "z_err": z_err,
            "sim_sha256": cmds["simulate"][0]["out_sha256"],
            "wall": {n: [c["wall_s"] for c in calls] for n, calls in cmds.items()},
            "import_s": res["import_s"], "calib_s": res["calib_s"],
            "rss_mb": res["peak_rss_kb"] / 1024.0,
            "eval_rows": n_rows(work / "eval.csv"), "eval_bytes": n_bytes(work / "eval.csv"),
            "sim_rows": n_rows(sim), "sim_bytes": n_bytes(sim),
            "verify_fail_lines": [line for line in cmds["verify"][-1]["stdout"].splitlines()
                                  if line.startswith("FAIL")]}


def n_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1 if path.exists() else 0


def n_bytes(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


# ------------------------------------------------------------------- trace

MODULES = ("cli", "params", "kernel", "closed_form", "transforms", "simulate", "verify")


def layer_metrics(spans_path: Path, it: dict) -> dict[str, float]:
    """Per-layer metrics from one traced child's spans."""
    with np.load(spans_path) as s:
        names = [str(x) for x in s["names"]]
        nid, parent = s["name_id"], s["parent"]
        dur = s["end"] - s["start"]
        amount = s["amount"]
    covered = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    self_t = dur - covered
    ids = {name: i for i, name in enumerate(names)}

    def sel(name):
        return nid == ids[name] if name in ids else np.zeros(nid.size, dtype=bool)

    def total(name, arr):
        return float(arr[sel(name)].sum())

    m = {}
    m["kernel.riccati_service_cdf.calls"] = float(sel("kernel.riccati_service_cdf").sum())
    m["kernel.riccati_service_cdf.points"] = total("kernel.riccati_service_cdf", amount)
    m["kernel.riccati_service_cdf.self_s"] = total("kernel.riccati_service_cdf", self_t)
    m["kernel.build_kernel.s"] = total("kernel.build_kernel", dur)
    m["closed_form.service_quantile.calls"] = float(sel("closed_form.service_quantile").sum())
    m["closed_form.service_quantile.self_s"] = total("closed_form.service_quantile", self_t)
    rc = sel("simulate.run_cycles")
    cycles = float(amount[rc].sum())
    m["simulate.run_cycles.cycles"] = cycles
    m["simulate.run_cycles.self_s"] = float(self_t[rc].sum())
    m["simulate.run_cycles.us_per_cycle"] = 1e6 * float(dur[rc].sum()) / cycles if cycles else 0.0
    draw = sel("closed_form.service_quantile") | sel("simulate.kernel_service_sampler.draw")
    in_rc = np.zeros(nid.size, dtype=bool)
    in_rc[parent >= 0] = rc[parent[parent >= 0]]
    m["simulate.run_cycles.draws_per_cycle"] = float((draw & in_rc).sum()) / cycles if cycles else 0.0
    m["simulate.kernel_service_sampler.s"] = total("simulate.kernel_service_sampler", dur)
    m["simulate.ks_distance.self_s"] = total("simulate.ks_distance", self_t)
    bp = sel("transforms.busy_period_cdf_series")
    m["transforms.busy_period_cdf_series.calls"] = float(bp.sum())
    m["transforms.busy_period_cdf_series.grid_points"] = float(amount[bp].max()) if bp.any() else 0.0
    terms = sel("transforms.series_truncation_order")
    m["transforms.busy_period_cdf_series.series_terms"] = float(amount[terms].max()) if terms.any() else 0.0
    m["transforms.grid_convolve.calls"] = float(sel("transforms.grid_convolve").sum())
    m["transforms.grid_convolve.self_s"] = total("transforms.grid_convolve", self_t)
    m["transforms.busy_period_laplace_general.s"] = total("transforms.busy_period_laplace_general", dur)
    m["transforms.busy_period_laplace_from_service.s"] = total("transforms.busy_period_laplace_from_service", dur)
    m["cli.cmd_eval.self_s"] = total("cli.cmd_eval", self_t)
    m["cli.cmd_simulate.self_s"] = total("cli.cmd_simulate", self_t)
    m["params.validate_beta.s"] = total("params.validate_beta", dur)
    m["verify.verify_point.s"] = total("verify.verify_point", dur)
    for mod in MODULES:
        in_mod = np.array([name.startswith(mod + ".") for name in names], dtype=bool)
        m[f"module.{mod}.self_s"] = float(self_t[in_mod[nid]].sum())
    m["cli.eval.rows"], m["cli.eval.bytes"] = float(it["eval_rows"]), float(it["eval_bytes"])
    m["cli.simulate.rows"], m["cli.simulate.bytes"] = float(it["sim_rows"]), float(it["sim_bytes"])
    for status in ("pass", "fail", "skip"):
        m[f"verify.checks.{status}"] = float(it["statuses"][status.upper()])
    return m


# --------------------------------------------------------------------- run

def run_record(w: Workload, seed: int, seconds: int, trace: bool, versions: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name, "why": w.why, "seed": seed, "seconds": seconds, "trace": trace,
        "params": {"lambda": LAM, "rho": w.rho, "beta": w.beta, "knots": w.knots,
                   "cycles": w.cycles, "eval_t_max": w.t_max, "eval_step": STEP},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], **versions,
        "git_sha": sha, "src_sha256": digest.hexdigest(), "child_env": CHILD_ENV,
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, ref=None,
        out=print) -> dict:
    """Measure one workload; returns the result object printed last."""
    start = time.monotonic()
    ref = reference_for(w) if ref is None else ref
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / ".work") as tmp:
        runner = Runner(Path(tmp), start + RUN_DEADLINE_S)
        commands = commands_for(w, seed, Path(tmp), trace=False)
        traced_commands = commands_for(w, seed, Path(tmp), trace=True)
        iterations, traced, importtimes, versions = [], [], [], {}
        t0 = time.monotonic()
        while True:
            res = runner.child(commands)
            versions = {"numpy": res["numpy"], "scipy": res["scipy"]}
            iterations.append(check_iteration(w, ref, res, seed))
            if trace:
                importtimes.append(runner.importtime())
                tres = runner.child(traced_commands, trace=True)
                it = check_iteration(w, ref, tres, seed)
                iterations.append(it)
                lm = layer_metrics(Path(tres["spec"]["spans"]), it)
                # untraced: the same single call of each command as the traced child
                untraced = sum(calls[0] for calls in iterations[-2]["wall"].values())
                traced_wall = sum(calls[0] for calls in it["wall"].values())
                lm.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced_wall,
                           "trace.overhead_s": traced_wall - untraced})
                if tres.get("untraced_names"):
                    out("not traced (absent): " + ", ".join(tres["untraced_names"]))
                traced.append(lm)
            done = len(traced) if trace else len(iterations)
            elapsed = time.monotonic() - t0
            # stop once the next child would end more than half a child past --seconds
            if done >= (1 if trace else MIN_ITERATIONS) and elapsed * (done + 0.5) / done > seconds:
                break

    # seeded determinism: every simulate call with this seed writes the same bytes
    first = iterations[0]["sim_sha256"]
    for it in iterations[1:]:
        if it["sim_sha256"] != first:
            for name, errs in it["ops"]:
                if name == "simulate":
                    errs.append("simulate CSV differs from the first child's with this seed")
    attempted = sum(len(it["ops"]) for it in iterations)
    failed = sum(1 for it in iterations for _, errs in it["ops"] if errs)

    calib = statistics.median(c for it in iterations for c in it["calib_s"])
    scale = CALIB_REF_S / calib
    raw = {n: statistics.median(x for it in iterations for x in it["wall"][n])
           for n in ("eval", "simulate", "verify")}
    raw["setup"] = statistics.median(it["import_s"] for it in iterations)
    record = run_record(w, seed, seconds, trace, versions)
    record.update({"children": len(iterations), "attempted": attempted, "failed": failed,
                   "simulate_sha256": first,
                   "verify_fail_lines": iterations[0]["verify_fail_lines"],
                   "calib_median_s": calib, "calib_ref_s": CALIB_REF_S,
                   "raw_median_s": raw,
                   "wall_s": [it["wall"] for it in iterations],
                   "import_s": [it["import_s"] for it in iterations],
                   "calib_s": [it["calib_s"] for it in iterations]})
    out("run-record " + json.dumps(record))
    for i, it in enumerate(iterations):
        for name, errs in it["ops"]:
            for e in errs:
                out(f"FAILED child {i} {name}: {e}")
    out(f"calibration loop median {calib:.4f} s (reference {CALIB_REF_S} s): "
        f"times are reported x{scale:.3f}, raw medians {json.dumps(raw)}")
    out("verify printed (known false floors expected): "
        + " | ".join(iterations[0]["verify_fail_lines"]))

    if trace:
        metrics = {k: statistics.median(lm[k] for lm in traced) for k in traced[0]}
        for k in importtimes[0]:
            metrics[k] = statistics.median(s[k] for s in importtimes)
        mods = {mod: metrics[f"module.{mod}.self_s"] for mod in MODULES}
        dominant = max(mods, key=mods.get)
        share = mods[dominant] / metrics["trace.traced_wall_s"]
        out("module self time (s): " + ", ".join(f"{k} {v:.3f}" for k, v in
                                                  sorted(mods.items(), key=lambda kv: -kv[1])))
        out(f"dominant module: {dominant} ({share:.0%} of traced wall time); "
            f"tracing overhead {metrics['trace.overhead_s']:.3f} s")
        values = {k: (v, LAYER_UNITS.get(k, "s")) for k, v in metrics.items()}
    else:
        med = {n: v * scale for n, v in raw.items()}
        b_errs = [it["b_err"] for it in iterations if it["b_err"] is not None]
        z_errs = [it["z_err"] for it in iterations if it["z_err"] is not None]
        values = {
            "setup_s": (med["setup"], "s"),
            "eval_s": (med["eval"], "s"),
            "simulate_s": (med["simulate"], "s"),
            "verify_s": (med["verify"], "s"),
            "mc_cycles_per_s": (w.cycles / med["simulate"], "1/s"),
            "peak_rss_mb": (statistics.median(it["rss_mb"] for it in iterations), "MB"),
            # 1.0 (the largest distance two CDFs can have) when no grid was seen
            "b_sup_err": (max(b_errs) if b_errs else 1.0, "1"),
            "z_sup_err": (max(z_errs) if z_errs else 1.0, "1"),
            "ok_op_share": ((attempted - failed) / attempted, "1"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


LAYER_UNITS = {
    "kernel.riccati_service_cdf.calls": "count", "kernel.riccati_service_cdf.points": "count",
    "closed_form.service_quantile.calls": "count", "simulate.run_cycles.cycles": "count",
    "simulate.run_cycles.us_per_cycle": "us", "simulate.run_cycles.draws_per_cycle": "1/cycle",
    "transforms.busy_period_cdf_series.calls": "count",
    "transforms.busy_period_cdf_series.grid_points": "count",
    "transforms.busy_period_cdf_series.series_terms": "count",
    "transforms.grid_convolve.calls": "count",
    "cli.eval.rows": "count", "cli.eval.bytes": "bytes",
    "cli.simulate.rows": "count", "cli.simulate.bytes": "bytes",
    "verify.checks.pass": "count", "verify.checks.fail": "count", "verify.checks.skip": "count",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mginf" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'mginf'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
