"""Exception types raised by the solver pipeline."""


class SolverError(Exception):
    """Base class for all solver-specific failures."""


class Unsolvable(SolverError):
    """The prescribed moments admit no nonnegative representing measure."""


class NotPSD(SolverError):
    """Trigonometric moment data failed the positive-semidefiniteness check."""


class RootFindingFailure(SolverError):
    """Simultaneous polynomial root iteration did not converge."""


class NNLSStall(SolverError):
    """The nonnegative least-squares active-set iteration hit its cycle guard."""


class ConvergenceFailure(SolverError):
    """Measure synthesis could not reach the requested residual target."""
