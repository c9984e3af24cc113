"""One benchmark child: a fresh interpreter that runs the commands in-process.

    python3 bench/child.py SPEC.json

SPEC (written by bench/run.py) lists the commands and where to write
results.  The child times `import mginf`, then calls `mginf.cli.main(argv)`
for each entry of the command list in order, repeating an entry until its
calls have taken `min_seconds` in total.  Each call is timed, its
stdout/stderr captured and its `--out` file hashed.  With "trace" set the
package's public functions are first wrapped in spans (bench/hooks.py).  A fixed calibration loop runs before the first entry and
after each one, so that the parent can tell how fast the machine ran during
the child.  Only the standard library is imported before `import mginf` is
timed.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

MAX_CALLS = 100


def call(main_fn, argv: list[str]) -> dict:
    """One timed `mginf.cli.main(argv)` call with its output captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code, error = None, None
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = main_fn(argv)
    except Exception:  # a traceback is a failed operation, not a crash
        error = traceback.format_exc()
    except SystemExit as exc:  # argparse rejects bad arguments this way
        exit_code = exc.code
    wall = time.perf_counter() - t
    result = {"exit": exit_code, "error": error, "wall_s": wall,
              "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out_sha256": None}
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        with contextlib.suppress(OSError), open(out, "rb") as fh:
            result["out_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return result


def calibrate() -> float:
    """Seconds for a fixed mix of the work the commands do: scalar numpy calls
    from a Python loop, FFTs and float formatting."""
    import numpy as np

    t = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=1))
    for _ in range(50_000):
        float(np.exp(-rng.random()))
    a = np.linspace(0.0, 1.0, 1 << 13)
    for _ in range(60):
        np.fft.irfft(np.fft.rfft(a, 1 << 14) ** 2)
    for _ in range(3):
        ",".join(f"{x:.17g}" for x in a)
    return time.perf_counter() - t


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import mginf
    import_s = time.perf_counter() - t0
    import mginf.cli
    import numpy
    import scipy

    out = {"import_s": import_s, "mginf_file": mginf.__file__,
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    from hooks import SeriesCapture, Tracer, install_tracer, patch

    capture = SeriesCapture()
    patch("transforms", "busy_period_cdf_series", capture.wrapper("B"))
    patch("transforms", "busy_cycle_cdf_series", capture.wrapper("Z"))
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        out["untraced_names"] = install_tracer(tracer)
    main_fn = mginf.cli.main  # the wrapped one when tracing
    calibrate()  # first-call costs
    calib = [calibrate()]
    commands = {}
    for name, argv, min_seconds in spec["commands"]:
        calls = [call(main_fn, argv)]
        while (calls[-1]["exit"] == 0 and len(calls) < MAX_CALLS
               and sum(c["wall_s"] for c in calls) < min_seconds):
            calls.append(call(main_fn, argv))
        commands.setdefault(name, []).extend(calls)
        calib.append(calibrate())
    out["commands"] = commands
    out["calib_s"] = calib
    grids = {}
    for key, found in capture.grids.items():
        for i, (step, values) in enumerate(found):
            grids[f"{key}_{i}"] = values
            grids[f"{key}_{i}_step"] = numpy.array(step)
    numpy.savez(spec["grids"], **grids)
    if tracer is not None:
        tracer.save(spec["spans"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
