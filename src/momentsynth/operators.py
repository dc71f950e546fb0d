"""The paper's commuting shift tuple and its contraction scale.

For an embedded spec with mass s0 > 0 the construction vectors are
explicit: with a = sqrt(s0), a*e0 for the zero index and
e_j + (s_j/a)*e0 for the j-th box index.  Placed side by side they form
the matrix L^T, which is the identity except for row 0, (a, s_j/a, ...);
its inverse is the identity except for row 0, (1/a, -s_j/s0, ...).  So
the map taking the vectors to an orthonormal basis is known in closed
form, and nothing is factored or inverted numerically.  Coordinate shifts
act on the family as a commuting tuple of matrices; in the lexicographic
order of the embedded box, coordinate j's shift is the identity moved down
by the stride (degree+1)**(n-j), cut off where the j-th exponent would
leave the box.  `build_tuple` builds those matrices in an orthonormal
basis; the solver reads only `contraction_scale`, their scale.

The inner product is linear in the first slot and conjugate-linear in the
second throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import EmbeddedSpec

_EPS = float(np.finfo(float).eps)

# Floor for the norm bound so the contraction scale stays positive even on
# degenerate tuples.
_NORM_FLOOR = 1e-12

# The "safe constant" of the contraction scale: the squared contraction
# norms sum to less than 1/MARGIN**2.
MARGIN = 1.1


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


def build_tuple(espec: EmbeddedSpec) -> OperatorTuple:
    """Build the commuting shift tuple of an embedded spec.

    In the basis of construction vectors, coordinate j sends a basis
    vector to the one with the j-th exponent incremented (when that stays
    inside the box) and to zero otherwise: a stride shift of the box order
    (module docstring).  Conjugating by L^T, the matrix of construction
    vectors, moves this to orthonormal
    coordinates: with the inner product linear in the first slot, the
    coordinate isometry is alpha -> L^T alpha (a transpose, not the
    adjoint map).

    The norm bound and the scale are `contraction_scale`'s.

    Raises ValueError when the mass s0 is not real positive.
    """
    s0 = espec.mass
    if abs(s0.imag) > 1e-12 * max(1.0, abs(s0)):
        raise ValueError(f"mass must be real, got {s0}")
    mass = s0.real
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    n, degree = espec.n, espec.degree
    p = len(espec.values)
    a = np.sqrt(mass)
    tail = espec.values[1:]
    Lt = np.eye(p, dtype=complex)
    Lt[0, 0] = a
    Lt[0, 1:] = tail / a
    Lt_inv = np.eye(p, dtype=complex)
    Lt_inv[0, 0] = 1.0 / a
    Lt_inv[0, 1:] = -tail / mass

    matrices = []
    for j in range(n):
        stride = (degree + 1) ** (n - 1 - j)
        raw = np.eye(p, k=-stride)
        # columns as (earlier exponents, j-th exponent, later exponents): a
        # column whose j-th exponent is the degree has no successor
        raw.reshape(p, -1, degree + 1, stride)[:, :, degree] = 0.0
        matrices.append(Lt @ raw @ Lt_inv)

    cyclic = Lt[:, 0].copy()
    norms, scale = contraction_scale(espec.values.reshape((degree + 1,) * n))
    return OperatorTuple(espec, tuple(matrices), cyclic, float(norms.max()), scale)


def contraction_scale(values: np.ndarray) -> tuple[np.ndarray, float]:
    """The Frobenius norm of each matrix of the shift tuple, and its scale.

    `values` holds s_k at each k of the box {0..d}**n, shape (d+1,)*n, the
    mass (real, positive) at the origin.  The nonzero rows of matrix j are
    row 0, with entry (s_(e_j)/a)(1/a) at 0 and s_(q+e_j)/a (0 off the box)
    plus (s_(e_j)/a)(-s_q/s0) at q != 0; row e_j, row 0 of L^-T; and a 1 in
    each other row whose j-th exponent is positive, d (d+1)**(n-1) - 1 of
    them.  Formed from the quotients the dense entries hold, they overflow
    where the dense matrices would, in O(p) rather than O(p**2) memory.
    The scale is MARGIN * sqrt(n) * the largest norm (at least
    _NORM_FLOOR), nudged up a few ulps so the squared contraction norms sum
    to strictly less than 1/MARGIN**2 in floating point as well.
    """
    n, degree = values.ndim, values.shape[0] - 1
    mass = values.flat[0].real
    a = np.sqrt(mass)
    over_a = values / a
    inverse = -values / mass
    inverse.flat[0] = 1.0 / a
    ones = np.ones(degree * (degree + 1) ** (n - 1) - 1)
    norms = np.empty(n)
    for j in range(n):
        lead = (slice(None),) * j
        top = np.zeros_like(over_a)
        top[lead + (slice(0, degree),)] = over_a[lead + (slice(1, None),)]
        top.flat[0] = 0.0
        top += over_a[(0,) * j + (1,) + (0,) * (n - 1 - j)] * inverse
        norms[j] = np.linalg.norm(np.concatenate([ones, inverse.ravel(), top.ravel()]))
    scale = MARGIN * np.sqrt(n) * max(float(norms.max()), _NORM_FLOOR)
    return norms, float(scale * (1.0 + 4.0 * _EPS))
