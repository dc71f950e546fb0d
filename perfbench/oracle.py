"""Independent check of the residual contract.

Moments are recomputed here with numpy alone, never with
`momentsynth.report` or `momentsynth.measure_moments`, so a defect in the
program's verifier cannot certify its own answers.  Solver answers are
checked in extended precision: atoms sit on a torus of radius r, so a
double-precision moment of degree d carries an error near eps * r**d times
the mass, which at n=1, d=12 (r about 4.3) is as large as the contract
itself.  A wrong answer must never be recorded as a timing: any violation
raises.
"""

from __future__ import annotations

import numpy as np

# Unit roundoff of a double: relative residuals below it read as exact.
ROUNDOFF = 2.0 ** -53


class ContractViolation(Exception):
    """A returned measure or a verify exit code contradicts the contract."""


def contract_tol(n: int) -> float:
    """The README's residual tolerance: 1e-8 for one variable, 1e-6 beyond."""
    return 1e-8 if n == 1 else 1e-6


def moments(atoms: np.ndarray, weights: np.ndarray, indices, dtype=np.clongdouble,
            chunk: int = 32) -> np.ndarray:
    """sum_i w_i prod_j z_ij**k_j for every index k, computed in `dtype`."""
    z = np.asarray(atoms, dtype=complex).astype(dtype)
    w = np.asarray(weights, dtype=float).astype(np.real(np.zeros(1, dtype)).dtype)
    k = np.asarray(indices, dtype=np.int64).reshape(-1, z.shape[1])
    out = np.zeros(len(k), dtype=dtype)
    if w.size == 0:
        return out
    for lo in range(0, len(k), chunk):
        block = k[lo:lo + chunk]
        mono = np.ones((len(block), z.shape[0]), dtype=dtype)
        for j in range(z.shape[1]):
            mono *= np.power(z[None, :, j], block[:, j, None])
        out[lo:lo + chunk] = mono @ w
    return out


def relative_residual(spec, atoms: np.ndarray, weights: np.ndarray, dtype=np.clongdouble) -> float:
    """max |moment - prescribed| / max(1, max |prescribed|)."""
    values = np.asarray(spec.values, dtype=complex)
    got = moments(np.asarray(atoms).reshape(-1, spec.n), weights, spec.indices, dtype)
    return float(np.max(np.abs(got - values.astype(dtype))) / max(1.0, float(np.max(np.abs(values)))))


def check_solution(label: str, spec, measure) -> float:
    """Relative residual of a solver answer; raises ContractViolation if it fails."""
    weights = np.asarray(measure.weights, dtype=float)
    atoms = np.asarray(measure.atoms, dtype=complex)
    if measure.n != spec.n:
        raise ContractViolation(f"{label}: measure has n={measure.n}, spec n={spec.n}")
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(atoms))):
        raise ContractViolation(f"{label}: non-finite atom or weight")
    if weights.size and float(weights.min()) < 0.0:
        raise ContractViolation(f"{label}: negative weight {weights.min():.3e}")
    rel = relative_residual(spec, atoms, weights)
    if not rel <= contract_tol(spec.n):
        raise ContractViolation(
            f"{label}: relative residual {rel:.3e} above contract {contract_tol(spec.n):.0e}"
        )
    return rel


def digits(rel: float) -> float:
    """Correct digits of a relative residual, capped at double precision."""
    return float(-np.log10(max(rel, ROUNDOFF)))
