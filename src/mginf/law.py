"""One service law per (lambda, rho, beta): the only place that picks a route.

Every admissible beta, constant, tabulated or the degenerate endpoint
beta = -lambda, goes through one normalised kernel context: G, its atom and
quantile, and p00 all come from it.  Only the busy-period and busy-cycle laws
choose: the closed forms when beta is constant, the series grids otherwise.
The grids are solved once per law, on first use.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from . import closed_form as cf
from . import transforms
from .kernel import build_kernel, riccati_service_cdf, riccati_service_quantile
from .params import QueueParams, ValidatedBeta
from .transforms import GridFunction, GridSpec, default_grid


class ServiceLaw:
    """Service CDF G, its quantile and atom, p00, beta(t), and the laws B and Z.

    `cdf`, `p00`, `indicator`, `busy_cdf`, `cycle_cdf` and `idle_cdf` are
    vectorised over t; `quantile`, the inverse of `cdf` (exactly 0 inside the
    atom), is vectorised over u in [0, 1).  `cdf`, `quantile`, `atom` and
    `p00` read the kernel context `kernel` for every beta; at the degenerate
    endpoint it gives G == 1, atom 1, quantile 0 and p00 == 1.  `indicator`
    is beta(t) itself.  `busy_cdf` and `cycle_cdf` are the closed forms when
    beta is constant and linear interpolation of the series grids otherwise;
    with `idle_cdf` they are the reference curves of the Monte Carlo checks.
    `beta` is the constant, or None when no closed form exists.
    """

    def __init__(self, params: QueueParams, vbeta: ValidatedBeta, grid: GridSpec | None = None):
        self.params, self.vbeta = params, vbeta
        self.grid = default_grid(params, vbeta.spec) if grid is None else grid
        self.beta = beta = vbeta.spec.constant
        self.kernel = build_kernel(params, vbeta)
        self.atom = self.kernel.atom
        self.cdf = partial(riccati_service_cdf, self.kernel)
        self.quantile = partial(riccati_service_quantile, self.kernel)
        self.indicator = vbeta.spec.value
        if beta is None:
            self.busy_cdf = lambda t: np.interp(t, self.series[0].times, self.series[0].values)
            self.cycle_cdf = lambda t: np.interp(t, self.series[1].times, self.series[1].values)
        else:
            self.busy_cdf = partial(cf.busy_period_cdf, params, beta)
            self.cycle_cdf = partial(cf.busy_cycle_cdf, params, beta)

    @cached_property
    def series(self) -> tuple[GridFunction, GridFunction]:
        """(B, Z) on the law's grid by the direct Volterra grid solve, solved once."""
        # looked up on the module at call time, so a wrapper put there sees every solve
        b = transforms.busy_period_cdf_series(self.kernel, self.grid)
        return b, transforms.busy_cycle_cdf_series(self.params, b)

    def idle_cdf(self, t):
        """1 - e^{-lambda t}: the idle period is Exponential(lambda) for every beta."""
        return -np.expm1(-self.params.lam * np.asarray(t, dtype=float))

    def p00(self, t):
        """p00(t) = 1 - (1 - e^{-rho}) Phi(t), Phi the kernel's prefix mass."""
        return 1.0 - (1.0 - self.params.exp_neg_rho) * self.kernel.prefix_mass(t)
