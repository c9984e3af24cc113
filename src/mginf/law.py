"""One service law per (lambda, rho, beta): the only place that picks a route.

A constant beta, including the degenerate endpoint beta = -lambda, is
evaluated in closed form; the closed forms already give the exact laws there
(G == 1, B == 1, Z = 1 - e^{-lambda t}, quantile 0, atom 1).  A tabulated
beta goes through one exponential-kernel context.  The busy-period and
busy-cycle grids are solved once per law, on first use.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from . import closed_form as cf
from . import transforms
from .errors import DegenerateDistribution
from .kernel import build_kernel, riccati_service_atom, riccati_service_cdf, riccati_service_quantile
from .params import QueueParams, ValidatedBeta
from .transforms import GridFunction, GridSpec, default_grid


class ServiceLaw:
    """Service CDF G, its quantile and atom, p00, beta(t), and the laws B and Z.

    `cdf`, `p00`, `indicator`, `busy_cdf`, `cycle_cdf` and `idle_cdf` are
    vectorised over t; `quantile`, the inverse of `cdf` (exactly 0 inside the
    atom), is vectorised over u in [0, 1).  `busy_cdf` and `cycle_cdf` are the
    closed forms when beta is constant and linear interpolation of the series
    grids otherwise; with `idle_cdf` they are the reference curves of the
    Monte Carlo checks.
    `beta` is the constant, or None when no closed form exists; `kernel` is
    None only at the degenerate endpoint, where the service law has no
    continuous part.
    """

    def __init__(self, params: QueueParams, vbeta: ValidatedBeta, grid: GridSpec | None = None):
        self.params, self.vbeta = params, vbeta
        self.grid = default_grid(params, vbeta.spec) if grid is None else grid
        self.beta = beta = vbeta.spec.constant
        if beta is None:
            self.kernel = build_kernel(params, vbeta)
            self.atom = riccati_service_atom(self.kernel)
            self.cdf = partial(riccati_service_cdf, self.kernel)
            self.quantile = partial(riccati_service_quantile, self.kernel)
            self.p00 = self._kernel_p00
            self.indicator = vbeta.spec.value
            self.busy_cdf = lambda t: np.interp(t, self.series[0].times, self.series[0].values)
            self.cycle_cdf = lambda t: np.interp(t, self.series[1].times, self.series[1].values)
        else:
            self.atom = cf.service_atom(params, beta)
            # all mass at the origin (beta = -lambda): no continuous part, no kernel
            self.kernel = build_kernel(params, vbeta) if self.atom < 1.0 else None
            self.cdf = partial(cf.service_cdf, params, beta)
            self.quantile = partial(cf.service_quantile, params, beta)
            self.p00 = partial(cf.empty_probability, params, beta)
            self.indicator = self._closed_form_indicator
            self.busy_cdf = partial(cf.busy_period_cdf, params, beta)
            self.cycle_cdf = partial(cf.busy_cycle_cdf, params, beta)

    @cached_property
    def series(self) -> tuple[GridFunction, GridFunction]:
        """(B, Z) on the law's grid by the direct Volterra grid solve, solved once.

        Without a kernel (beta = -lambda) the exact laws are sampled instead.
        """
        if self.kernel is None:
            ts = np.arange(int(round(self.grid.t_max / self.grid.step)) + 1) * self.grid.step
            return (GridFunction(self.grid.step, self.busy_cdf(ts), kind="cdf"),
                    GridFunction(self.grid.step, self.cycle_cdf(ts), kind="cdf"))
        # looked up on the module at call time, so a wrapper put there sees every solve
        b = transforms.busy_period_cdf_series(self.kernel, self.grid)
        return b, transforms.busy_cycle_cdf_series(self.params, b)

    def idle_cdf(self, t):
        """1 - e^{-lambda t}: the idle period is Exponential(lambda) for every beta."""
        return -np.expm1(-self.params.lam * np.asarray(t, dtype=float))

    def _kernel_p00(self, t):
        """p00(t) = 1 - (1 - e^{-rho}) F(t) / I, F the kernel prefix integral."""
        ctx = self.kernel
        return 1.0 - (1.0 - self.params.exp_neg_rho) * ctx.prefix_integral(t) / ctx.total_integral

    def _closed_form_indicator(self, t):
        """g/(1-G) - lambda G from the analytic density; beta itself where G has none."""
        try:
            return np.broadcast_to(cf.monotony_indicator(self.params, self.beta, t), np.shape(t))
        except DegenerateDistribution:
            return self.vbeta.spec.value(t)
