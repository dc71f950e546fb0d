"""Truncated complex moment problems: solvability and atomic measure synthesis."""

from .errors import (
    ConvergenceFailure,
    NNLSStall,
    NotPSD,
    RootFindingFailure,
    SolverError,
    Unsolvable,
)
from .lattice import EmbeddedSpec, MomentSpec, band, box, embed, shift
from .measures import AtomicMeasure
from .synthesis import SolverConfig, synthesize
from .verify import (
    Report,
    Verdict,
    functional_representation,
    measure_moments,
    random_instance,
    report,
    solvability,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "ConvergenceFailure",
    "EmbeddedSpec",
    "MomentSpec",
    "NNLSStall",
    "NotPSD",
    "Report",
    "RootFindingFailure",
    "SolverConfig",
    "SolverError",
    "Unsolvable",
    "Verdict",
    "band",
    "box",
    "embed",
    "functional_representation",
    "measure_moments",
    "random_instance",
    "report",
    "shift",
    "solvability",
    "synthesize",
]
