"""Exception types raised by the solver pipeline."""


class SolverError(Exception):
    """Base class for all solver-specific failures."""


class Unsolvable(SolverError):
    """The prescribed moments admit no nonnegative representing measure."""


class ConvergenceFailure(SolverError):
    """Measure synthesis could not reach the requested residual target."""
