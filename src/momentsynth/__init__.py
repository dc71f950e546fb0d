"""Truncated complex moment problems: solvability and atomic measure synthesis."""

from .errors import ConvergenceFailure, SolverError, Unsolvable
from .lattice import MomentSpec
from .measures import AtomicMeasure
from .synthesis import functional_representation, synthesize
from .verify import (
    Report,
    SolverConfig,
    Verdict,
    measure_moments,
    random_instance,
    report,
    solvability,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "ConvergenceFailure",
    "MomentSpec",
    "Report",
    "SolverConfig",
    "SolverError",
    "Unsolvable",
    "Verdict",
    "functional_representation",
    "measure_moments",
    "random_instance",
    "report",
    "solvability",
    "synthesize",
]
