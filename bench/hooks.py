"""Instrumentation applied to `mginf` from outside the package.

The package's modules bind each other's functions with `from .x import y`, so
a function is reachable under several module namespaces (for example
`simulate.service_quantile` is `closed_form.service_quantile`).  `patch`
swaps a wrapper into every `mginf.*` namespace that binds the original, and
must run before the code that looks the name up (`kernel_service_sampler`
imports `riccati_service_cdf` when it is called, so patching before the
commands run is enough).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def patch(module: str, attr: str, make_wrapper) -> bool:
    """Replace `mginf.<module>.<attr>` everywhere it is bound; False if absent."""
    mod = sys.modules.get(f"mginf.{module}")
    orig = getattr(mod, attr, None) if mod is not None else None
    if orig is None:
        return False
    wrapper = make_wrapper(orig)
    for name, m in list(sys.modules.items()):
        if m is None or not (name == "mginf" or name.startswith("mginf.")):
            continue
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapper)
    return True


class SeriesCapture:
    """Keeps a copy of every B / Z grid the series routes return."""

    def __init__(self):
        self.grids: dict[str, list[tuple[float, object]]] = {"B": [], "Z": []}

    def wrapper(self, key: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.grids[key].append((float(result.step), result.values.copy()))
                return result
            return wrapped
        return make


class Tracer:
    """In-memory spans (name, parent, start, end, amount) in flat arrays.

    `amount` is a per-call work count (points evaluated, cycles run, ...)
    computed after the span has closed, so it is not timed.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, amount=None, wrap_result=None):
        """Decorator factory: record one span per call of the wrapped function."""
        nid = self._id(name)
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(self._stack[-1])
                self.amount.append(0.0)
                self.end.append(0.0)
                self._stack.append(idx)
                self.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[idx] = clock()
                    self._stack.pop()
                if amount is not None:
                    self.amount[idx] = amount(args, kwargs, result)
                if wrap_result is not None:
                    result = wrap_result(result)
                return result
            return wrapped
        return make

    def save(self, path) -> None:
        np.savez(path,
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 amount=np.frombuffer(self.amount, dtype=np.float64),
                 names=np.array(self.names))


def _size(args, kwargs, result):
    return float(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _cycles(args, kwargs, result):
    return float(args[2] if len(args) > 2 else kwargs["n_cycles"])


# (module, function, amount) for every public function a traced run wraps.
TRACED = [
    ("cli", "main", None),
    ("cli", "cmd_eval", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_verify", None),
    ("params", "validate_beta", None),
    ("kernel", "build_kernel", None),
    ("kernel", "riccati_service_cdf", _size),
    ("closed_form", "service_quantile", None),
    ("simulate", "run_cycles", _cycles),
    ("simulate", "ks_distance", None),
    ("transforms", "busy_period_cdf_series", lambda a, k, r: float(len(r.values))),
    ("transforms", "busy_cycle_cdf_series", None),
    ("transforms", "grid_convolve", None),
    ("transforms", "series_truncation_order", lambda a, k, r: float(r)),
    ("transforms", "busy_period_laplace_general", None),
    ("transforms", "busy_period_laplace_from_service", None),
    ("verify", "verify_point", None),
    ("verify", "series_curves", None),
    ("verify", "check_series_vs_closed_form", None),
    ("verify", "check_transform_consistency", None),
    ("verify", "check_mean_identities", None),
    ("verify", "check_bound_ordering", None),
    ("verify", "check_riccati_residual", None),
    ("verify", "check_monte_carlo", None),
]

# The tabulated sampler is a closure built by this factory; each draw it
# makes is recorded as its own span.
SAMPLER_FACTORY = ("simulate", "kernel_service_sampler")
SAMPLER_DRAW = "simulate.kernel_service_sampler.draw"


def install_tracer(tracer: Tracer) -> list[str]:
    """Wrap every function in TRACED; returns the names not found."""
    missing = []
    for module, attr, amount in TRACED:
        if not patch(module, attr, tracer.span(f"{module}.{attr}", amount=amount)):
            missing.append(f"{module}.{attr}")
    draw = tracer.span(SAMPLER_DRAW)
    module, attr = SAMPLER_FACTORY
    if not patch(module, attr, tracer.span(f"{module}.{attr}", wrap_result=draw)):
        missing.append(f"{module}.{attr}")
    return missing
