"""The construction's Fourier table and Toeplitz positivity checks.

The scaled shift tuple is a strict joint contraction, so its mixed
forward/adjoint power values against the cyclic vector form a positive
definite function on the integer lattice: the Fourier coefficients of a
measure on the torus of radius `scale` with the prescribed moments.  At a
prescribed k the value is s_k / scale**|k|, all the solver reads of them;
`fourier_table` fills the whole table from its closed form in the
moments, for the tests of the construction, without applying a single
matrix, as one array in the layout of numpy's FFT
(index k at k mod (2R+1) along each axis, R the table radius): one
`numpy.fft.fftn` of it as it stands gives the weights of its
(2R+1)**n product-grid quadrature.  `psd_check` tests Toeplitz
sections of the table for positive semidefiniteness with one LAPACK
Cholesky factorization, and `min_eigenvalue` reads their smallest
eigenvalue off one LAPACK eigenvalue call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperatorTuple


@dataclass(frozen=True, eq=False)
class FourierTable:
    """Hermitian-symmetric Fourier coefficients over a symmetric index box.

    `coeffs` is read-only, of shape (2*radius+1,)*n in numpy's FFT layout:
    coeffs[k] is entry k, negative entries included.  Entry 0 is the total
    mass (real, nonnegative); entry -k is always the conjugate of entry k.
    `scale` records the contraction scale so callers can move between
    Fourier and original moment magnitudes.
    """

    n: int
    radius: int
    scale: float
    coeffs: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.coeffs[(0,) * self.n].real)


def fourier_table(ops: OperatorTuple, radius: int) -> FourierTable:
    """Tabulate the contraction's power values over a symmetric index box.

    The value at k is c_k = s_(k+) * conj(s_(k-)) / (s0 * scale**|k|_1),
    where k+ = max(k, 0) and k- = max(-k, 0) entry by entry, s_0 is the
    mass and s_j = 0 when j leaves the box.  This holds because the
    forward power j of the tuple maps the cyclic vector to the orthonormal
    image of construction vector j inside the box and to 0 outside it, and
    because k+ and k- have disjoint supports.  The canonical half (first
    nonzero entry positive) is kept from the closed form and the other half
    is its conjugate.
    """
    if radius < ops.degree:
        raise ValueError(f"table radius {radius} below box degree {ops.degree}")
    espec, mass, n = ops.espec, ops.mass, ops.n
    # s_j / scale**|j| per box index, with the real mass at the zero index;
    # dividing each factor separately keeps the product of two large
    # moments from overflowing
    scaled = espec.values / ops.scale ** espec.box.sum(axis=1)
    scaled[0] = mass
    reduced = np.zeros((radius + 1,) * n, dtype=complex)
    reduced[(slice(0, ops.degree + 1),) * n] = scaled.reshape((ops.degree + 1,) * n)
    # a and b hold s_(k+) and s_(k-) for k over [-radius, radius]**n in
    # lexicographic order (centred), where -k sits at the mirrored position
    size = 2 * radius + 1
    signed = np.arange(size) - radius
    a = b = reduced
    for axis in range(n):
        a, b = a.take(np.maximum(signed, 0), axis), b.take(np.maximum(-signed, 0), axis)
    # a * conj(b) / mass one operation at a time, as Python's complex
    # scalars do it: numpy's complex division multiplies by a reciprocal
    re = a.real * b.real - a.imag * -b.imag
    im = a.real * -b.imag + a.imag * b.real
    centred = np.empty(a.shape, dtype=complex)
    centred.real = (re + im * 0.0) / mass
    centred.imag = (im - re * 0.0) / mass
    flat = centred.reshape(-1)
    half = flat.size // 2
    flat[:half] = flat[:half:-1].conj()
    flat[half] = mass
    # FFT layout: position i of an axis holds the centred position i + radius
    coeffs = centred
    for axis in range(n):
        coeffs = coeffs.take((np.arange(size) + radius) % size, axis)
    coeffs.setflags(write=False)
    return FourierTable(n, radius, ops.scale, coeffs)


def psd_check(M: np.ndarray, tol: float) -> tuple[bool, float]:
    """Cholesky test of M + tol*I in one LAPACK factorization (`potrf`).

    The verdict is True exactly when the factorization completes; the
    witness is then the smallest squared diagonal entry of the factor.
    When it breaks down the verdict is False and the witness is the
    smallest eigenvalue of M + tol*I, computed on that branch only.  The
    witness feeds error messages and decides nothing.
    """
    M = np.asarray(M, dtype=complex)
    size = M.shape[0]
    if M.shape != (size, size):
        raise ValueError("matrix must be square")
    if not size:
        return True, 0.0
    scale = max(1.0, float(np.max(np.abs(M))))
    if float(np.max(np.abs(M - M.conj().T))) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    W = M + tol * np.eye(size)
    try:
        factor = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        return False, float(np.linalg.eigvalsh(W)[0])
    return True, float(np.min(factor.diagonal().real) ** 2)


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, 0.0 for an empty one.

    One LAPACK call (numpy's eigvalsh); the result is within a few units
    of roundoff times the matrix norm of the true value, on either side.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(M)[0])
