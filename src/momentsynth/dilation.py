"""Fourier data of the solution measure and Toeplitz positivity checks.

The scaled shift tuple is a strict joint contraction, so its mixed
forward/adjoint power values against the cyclic vector form a positive
definite function on the integer lattice.  Those values are the Fourier
coefficients of every measure this package synthesizes.  They have a
closed form in the prescribed moments, so the table is filled without
applying a single matrix.  The checks here certify positive semidefinite
Toeplitz sections of the table without calling an eigensolver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import SignedIndex, box
from .operators import OperatorTuple


def _is_canonical(k: SignedIndex) -> bool:
    for e in k:
        if e > 0:
            return True
        if e < 0:
            return False
    return True  # the zero index


def _negate(k: SignedIndex) -> SignedIndex:
    return tuple(-e for e in k)


@dataclass(frozen=True, eq=False)
class FourierTable:
    """Hermitian-symmetric map from signed indices to Fourier coefficients.

    Entry 0 is the total mass (real, nonnegative); entry -k is always the
    conjugate of entry k.  `scale` records the contraction scale so callers
    can move between Fourier and original moment magnitudes.
    """

    n: int
    radius: int
    scale: float
    entries: dict[SignedIndex, complex]

    def value(self, k) -> complex:
        k = tuple(int(e) for e in k)
        if len(k) != self.n:
            raise ValueError(f"index length {len(k)} does not match dimension {self.n}")
        if max(abs(e) for e in k) > self.radius:
            raise ValueError(f"index {k} outside table radius {self.radius}")
        return self.entries[k]

    @property
    def mass(self) -> float:
        return self.entries[(0,) * self.n].real


def fourier_table(ops: OperatorTuple, radius: int) -> FourierTable:
    """Tabulate the contraction's power values over a symmetric index box.

    The value at k is c_k = s_(k+) * conj(s_(k-)) / (s0 * scale**|k|_1),
    where k+ = max(k, 0) and k- = max(-k, 0) entry by entry, s_0 is the
    mass and s_j = 0 when j leaves the box.  This holds because the
    forward power j of the tuple maps the cyclic vector to the orthonormal
    image of construction vector j inside the box and to 0 outside it, and
    because k+ and k- have disjoint supports.  Only the canonical half
    (first nonzero entry positive, plus zero) is evaluated; the other half
    is filled by conjugation.
    """
    if radius < ops.degree:
        raise ValueError(f"table radius {radius} below box degree {ops.degree}")
    espec, mass = ops.espec, ops.mass
    # s_j / scale**|j| per box index, with the real mass at the zero index;
    # dividing each factor separately keeps the product of two large
    # moments from overflowing
    powers = np.array([sum(k) for k in espec.box])
    scaled = espec.values / ops.scale ** powers
    scaled[0] = mass
    reduced = dict(zip(espec.box, map(complex, scaled)))
    zero = (0,) * ops.n
    entries: dict[SignedIndex, complex] = {zero: complex(mass)}
    for k in itertools.product(range(-radius, radius + 1), repeat=ops.n):
        if k == zero or not _is_canonical(k):
            continue
        plus = tuple(max(e, 0) for e in k)
        minus = tuple(max(-e, 0) for e in k)
        value = reduced.get(plus, 0j) * reduced.get(minus, 0j).conjugate() / mass
        entries[k] = value
        entries[_negate(k)] = value.conjugate()
    return FourierTable(ops.n, radius, ops.scale, entries)


def pd_section(table: FourierTable, radius: int) -> np.ndarray:
    """Toeplitz-style section M[p, q] = c_(p-q) over the box of `radius`.

    Differences of box indices stay within sup-norm `radius`, so the table
    must extend at least that far.  Hermitian by table symmetry.
    """
    if radius > table.radius:
        raise ValueError(f"section radius {radius} exceeds table radius {table.radius}")
    idx = box(table.n, radius)
    size = len(idx)
    M = np.empty((size, size), dtype=complex)
    for a, p in enumerate(idx):
        for b, q in enumerate(idx):
            M[a, b] = table.entries[tuple(pe - qe for pe, qe in zip(p, q))]
    return M


def psd_check(M: np.ndarray, tol: float) -> tuple[bool, float]:
    """Pivoted Cholesky test of M + tol*I, with the decisive pivot as witness.

    Returns (True, smallest pivot) when the factorization completes with
    positive pivots, else (False, the first nonpositive pivot).  Diagonal
    pivoting keeps the test meaningful for semidefinite input.
    """
    M = np.asarray(M, dtype=complex)
    size = M.shape[0]
    if M.shape != (size, size):
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(M))) if size else 0.0)
    if size and float(np.max(np.abs(M - M.conj().T))) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    W = M + tol * np.eye(size)
    smallest = float("inf") if size else 0.0
    for i in range(size):
        rel = int(np.argmax(W.diagonal().real[i:]))
        j = i + rel
        if j != i:
            W[[i, j], :] = W[[j, i], :]
            W[:, [i, j]] = W[:, [j, i]]
        pivot = W[i, i].real
        if pivot <= 0.0:
            return False, float(pivot)
        smallest = min(smallest, float(pivot))
        root = np.sqrt(pivot)
        col = W[i + 1:, i] / root
        W[i + 1:, i + 1:] -= np.outer(col, col.conj())
        W[i + 1:, i] = col
    return True, smallest


def min_eigenvalue(M: np.ndarray, resolution: float = 1e-12) -> float:
    """Smallest eigenvalue estimate by bisection on the Cholesky test.

    Deterministic and eigensolver-free.  The returned value is certified
    from below: M minus it times the identity still passes psd_check, and
    the true minimum lies within `resolution` above it.
    """
    M = np.asarray(M, dtype=complex)
    size = M.shape[0]
    if size == 0:
        return 0.0
    diag = M.diagonal().real
    radii = np.sum(np.abs(M), axis=1) - np.abs(M.diagonal())
    lo = float(np.min(diag - radii))
    hi = float(np.min(diag))
    span = max(1.0, hi - lo)
    lo -= 1e-3 * span
    hi += max(resolution, 1e-15 * span)
    while not psd_check(M - lo * np.eye(size), 0.0)[0]:
        lo -= span
        span *= 2.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if psd_check(M - mid * np.eye(size), 0.0)[0]:
            lo = mid
        else:
            hi = mid
    return lo
