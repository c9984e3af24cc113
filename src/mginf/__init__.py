"""M|G|inf busy-period and busy-cycle distributions for the Riccati service family."""

from .params import (
    BetaSpec, QueueParams, beta_bounds, load_beta_table, running_average_beta, validate_beta,
    validate_queue_params,
)
from .closed_form import (
    busy_cycle_cdf, busy_period_cdf, busy_start_empty_probability, cycle_survival,
    empty_probability, envelope_bounds, monotony_indicator, service_atom, service_cdf,
    service_quantile,
)
from .transforms import (
    GridFunction, busy_cycle_cdf_series, busy_cycle_laplace, busy_period_cdf_series,
    busy_period_laplace_from_service, busy_period_laplace_general, default_step,
)
from .simulate import CycleSamples, cycle_ks, cycle_summary, ks_distance, run_cycles
from .law import ServiceLaw
from .verify import verify_point

__all__ = [name for name in dir() if not name.startswith("_")]
