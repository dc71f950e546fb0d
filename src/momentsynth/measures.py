"""Finitely-atomic nonnegative measures on complex n-space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import _integer


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Weighted point masses; the solver's output format.

    `atoms` is a (count, n) complex array, `weights` a matching nonnegative
    vector; both may be empty (the zero measure).  `scale` is informational:
    measures synthesized by this package put every atom coordinate on the
    circle of that radius.
    """

    n: int
    atoms: np.ndarray
    weights: np.ndarray
    scale: float = 0.0

    def __post_init__(self) -> None:
        n = _integer(self.n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        atoms = np.asarray(self.atoms, dtype=complex).reshape(-1, n)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("one weight per atom required")
        if weights.size and float(weights.min()) < 0.0:
            raise ValueError("weights must be nonnegative")
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(weights)):
            raise ValueError("atoms and weights must be finite")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scale", float(self.scale))

    @classmethod
    def empty(cls, n: int) -> "AtomicMeasure":
        return cls(n, np.zeros((0, n), dtype=complex), np.zeros(0), 0.0)

    def __len__(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def support_radius(self) -> float:
        if not len(self):
            return 0.0
        return float(np.max(np.abs(self.atoms)))
