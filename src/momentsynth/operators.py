"""Construction of the commuting matrix tuple that realizes the moments.

For an embedded spec with mass s0 > 0 the construction vectors are
explicit: with a = sqrt(s0), a*e0 for the zero index and
e_j + (s_j/a)*e0 for the j-th box index.  Placed side by side they form
the matrix L^T, which is the identity except for row 0, (a, s_j/a, ...);
its inverse is the identity except for row 0, (1/a, -s_j/s0, ...).  So
the map taking the vectors to an orthonormal basis is known in closed
form, and nothing is factored or inverted numerically.  Coordinate shifts
act on the family as a commuting tuple of matrices.  This module builds
those matrices in an orthonormal basis, scales them into a strict joint
contraction, and evaluates mixed forward/adjoint power products against
the cyclic vector.

The inner product is linear in the first slot and conjugate-linear in the
second throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import EmbeddedSpec, MultiIndex, SignedIndex, band, box, shift

_EPS = float(np.finfo(float).eps)

# Floor for the norm bound so the contraction scale stays positive even on
# degenerate tuples.
_NORM_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """Commuting matrices in orthonormal coordinates, plus their scaling.

    `matrices` act as coordinate shifts on the construction vectors of
    `espec`, the embedded spec they were built from; the contraction used
    downstream is matrices[j] / scale.  `cyclic` is the coordinate vector
    whose self inner product equals the prescribed mass.
    """

    espec: EmbeddedSpec
    matrices: tuple[np.ndarray, ...]
    cyclic: np.ndarray
    norm_bound: float
    scale: float

    def __post_init__(self) -> None:
        mats = []
        for m in self.matrices:
            m = np.asarray(m, dtype=complex)
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "matrices", tuple(mats))
        vec = np.asarray(self.cyclic, dtype=complex)
        vec.setflags(write=False)
        object.__setattr__(self, "cyclic", vec)

    @property
    def n(self) -> int:
        return self.espec.n

    @property
    def degree(self) -> int:
        return self.espec.degree

    @property
    def mass(self) -> float:
        """The prescribed mass s0, checked real and positive by build_tuple."""
        return self.espec.mass.real

    def contraction(self, coord: int) -> np.ndarray:
        """The scaled matrix for coordinate `coord` (numbered from 1)."""
        return self.matrices[coord - 1] / self.scale


def build_tuple(espec: EmbeddedSpec, margin: float = 1.1) -> OperatorTuple:
    """Build the commuting shift tuple of an embedded spec.

    In the basis of construction vectors, coordinate j sends a basis
    vector to the one with the j-th exponent incremented (when that stays
    inside the box) and to zero otherwise.  Conjugating by L^T, the
    matrix of construction vectors, moves this to orthonormal
    coordinates: with the inner product linear in the first slot, the
    coordinate isometry is alpha -> L^T alpha (a transpose, not the
    adjoint map).

    The scale is margin * sqrt(n) * max over coordinates of the Frobenius
    norm, nudged up a few ulps so the squared contraction norms sum to
    strictly less than 1/margin**2 in floating point as well.

    Raises ValueError when the mass s0 is not real positive.
    """
    if margin <= 1.0:
        raise ValueError("margin must exceed 1")
    s0 = espec.mass
    if abs(s0.imag) > 1e-12 * max(1.0, abs(s0)):
        raise ValueError(f"mass must be real, got {s0}")
    mass = s0.real
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    n, degree = espec.n, espec.degree
    p = len(espec.box)
    a = np.sqrt(mass)
    tail = espec.values[1:]
    Lt = np.eye(p, dtype=complex)
    Lt[0, 0] = a
    Lt[0, 1:] = tail / a
    Lt_inv = np.eye(p, dtype=complex)
    Lt_inv[0, 0] = 1.0 / a
    Lt_inv[0, 1:] = -tail / mass

    matrices = []
    for coord in range(1, n + 1):
        raw = np.zeros((p, p))
        for k in band(n, degree, coord):
            raw[espec.position[shift(k, coord)], espec.position[k]] = 1.0
        matrices.append(Lt @ raw @ Lt_inv)

    cyclic = Lt[:, 0].copy()
    norm_bound = max(float(np.linalg.norm(m)) for m in matrices)
    scale = margin * np.sqrt(n) * max(norm_bound, _NORM_FLOOR)
    scale *= 1.0 + 4.0 * _EPS
    return OperatorTuple(espec, tuple(matrices), cyclic, norm_bound, float(scale))


def _split_signs(k: SignedIndex) -> tuple[MultiIndex, MultiIndex]:
    plus = tuple(max(e, 0) for e in k)
    minus = tuple(max(-e, 0) for e in k)
    return plus, minus


def _apply_monomial(ops: OperatorTuple, k: MultiIndex, vec: np.ndarray) -> np.ndarray:
    out = vec
    for coord, power in enumerate(k, start=1):
        B = ops.contraction(coord)
        for _ in range(power):
            out = B @ out
    return out


def apply_power(ops: OperatorTuple, k: SignedIndex) -> complex:
    """Evaluate a signed power product of the contractions at the cyclic vector.

    Negative entries apply adjoint powers.  The value is the inner product
    of the forward-power image against the adjoint-power image, which is
    order independent because the matrices commute.
    """
    if len(k) != ops.n:
        raise ValueError(f"index length {len(k)} does not match dimension {ops.n}")
    plus, minus = _split_signs(tuple(int(e) for e in k))
    forward = _apply_monomial(ops, plus, ops.cyclic)
    backward = _apply_monomial(ops, minus, ops.cyclic)
    return complex(np.vdot(backward, forward))


def _box_vectors(ops: OperatorTuple, degree: int) -> dict[MultiIndex, np.ndarray]:
    """Images of the cyclic vector under all box power products.

    Lexicographic order guarantees each index's predecessor (first positive
    entry decremented) was already computed, so one matrix-vector product
    per index suffices.
    """
    vecs: dict[MultiIndex, np.ndarray] = {}
    for k in box(ops.n, degree):
        if all(e == 0 for e in k):
            vecs[k] = ops.cyclic
            continue
        coord = next(i for i, e in enumerate(k) if e > 0) + 1
        pred = k[:coord - 1] + (k[coord - 1] - 1,) + k[coord:]
        vecs[k] = ops.contraction(coord) @ vecs[pred]
    return vecs


def moment_identity(ops: OperatorTuple, espec: EmbeddedSpec) -> float:
    """Largest deviation of scale**|k| * power values from the box moments.

    Exact in exact arithmetic; the returned float is pure roundoff and is
    expected to stay below 1e-10 times the moment magnitude.
    """
    vecs = _box_vectors(ops, espec.degree)
    worst = 0.0
    for k in espec.box:
        value = ops.scale ** sum(k) * np.vdot(ops.cyclic, vecs[k])
        worst = max(worst, abs(value - espec.value_of(k)))
    return worst
