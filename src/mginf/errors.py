"""Exception hierarchy shared by all mginf modules."""


class MginfError(Exception):
    """Base class for all mginf errors."""


class NonPositiveParameter(MginfError):
    pass


class NegativeParameter(MginfError):
    pass


class NonFiniteParameter(MginfError):
    pass


class BetaOutOfRange(MginfError):
    pass


class EmptyTable(MginfError):
    pass


class InvalidTable(MginfError, ValueError):
    """A beta table row or knot sequence that cannot define beta(t)."""


class NonPositiveTime(MginfError):
    pass


class NegativeTime(MginfError):
    pass


class ProbabilityOutOfRange(MginfError):
    pass


class DegenerateDistribution(MginfError):
    pass


class DivergentKernelIntegral(MginfError):
    pass


class NegativeS(MginfError):
    pass


class QuadratureFailure(MginfError):
    pass


class StepTooCoarse(MginfError):
    pass


class GridTooLarge(MginfError):
    """A time grid of more than MAX_GRID_POINTS points."""


class SimulationTooLarge(MginfError):
    """A Monte Carlo run whose expected work exceeds MAX_CUSTOMERS."""


class EmptySample(MginfError):
    pass
