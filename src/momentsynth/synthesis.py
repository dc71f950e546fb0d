"""Atomic measure synthesis: a matrix pencil, or atoms on a torus.

Given a solvable instance, this module constructs an explicit
finitely-atomic nonnegative measure whose monomial moments reproduce the
prescribed values, its atoms within a recorded support radius.

One variable with exponents exactly 0..d, d >= 1, is tried first by
`_pencil`: when the data are the moments of m atoms with 2m <= d, their
Hankel matrix has rank m and a matrix pencil gives those m atoms, at any
modulus, read on the data's own disc.
Every other answer has its atoms on one torus.

One stage, `lattice_quadrature`, answers any number of variables: the
spec's own trigonometric polynomial, its coefficients s_k divided by
r**|k|, is at least a floor at every node of a rank-1 lattice that
separates the frequencies of spec u -spec, for the least such r; its node
values, one length-N FFT per degree away, are the weights of atoms
r e^(i theta) on those nodes, and they reproduce every prescribed moment
exactly in exact arithmetic.

Up to two variables a spec that fills its exponent box gets one older
attempt first, on two closed forms of the paper's construction: the
contraction scale of its shift tuple, which sets the torus radius r, and
its Fourier data s_k / r**|k|.  One complex variable admits an exact route:
the Toeplitz section of that data splits into a Vandermonde part (atoms
from the roots of a null-vector polynomial) plus a multiple of the
identity (mass spread over equispaced atoms), and a miss goes to the
lattice stage.  Two variables use nonnegative least squares on the
product grid of GRID candidate angles per variable, and on a miss one
least-squares refit of the weights at those angles (`refine`); both fit
only the prescribed moments, the only ones the acceptance check reads, so
an answer has at most 2*|spec| - 1 atoms.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable
from typing import NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .dilation import min_eigenvalue, psd_check
from .errors import ConvergenceFailure, Unsolvable
from .lattice import MomentSpec, MultiIndex
from .measures import AtomicMeasure
from .operators import contraction_scale
from .verify import (Report, SolverConfig, _exp_text, answer_refusal, report, solvability,
                     torus_refusal)


# candidate angles per variable of the two-variable grid fit
GRID = 64


# ---------------------------------------------------------------------------
# shared trigonometric helpers
# ---------------------------------------------------------------------------


def _trig_moments(angles: np.ndarray, weights: np.ndarray, karr: np.ndarray) -> np.ndarray:
    """Sum of w_i * exp(i k . theta_i) for every row k of karr."""
    if angles.shape[0] == 0:
        return np.zeros(karr.shape[0], dtype=complex)
    phases = karr.astype(float) @ angles.T
    return np.exp(1j * phases) @ weights


def _unit_measure(angles: np.ndarray, weights: np.ndarray, n: int) -> AtomicMeasure:
    angles = np.asarray(angles, dtype=float).reshape(-1, n)
    return AtomicMeasure(n, np.exp(1j * angles), weights, scale=1.0)


# ---------------------------------------------------------------------------
# one complex variable: Toeplitz splitting into atoms plus uniform mass
# ---------------------------------------------------------------------------


def _merge_angles(angles: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """Collapse near-coincident circle angles (circular clustering)."""
    if angles.size == 0:
        return angles
    wrapped = np.sort(np.mod(angles, 2.0 * np.pi))
    groups = [[wrapped[0]]]
    for a in wrapped[1:]:
        if a - groups[-1][-1] <= tol:
            groups[-1].append(a)
        else:
            groups.append([a])
    merged = [float(np.mean(g)) for g in groups]
    # the wrap-around pair may also coincide
    if len(merged) > 1 and (merged[0] + 2.0 * np.pi) - merged[-1] <= tol:
        first = merged.pop(0)
        merged[-1] = float(np.mean([merged[-1], first + 2.0 * np.pi])) % (2.0 * np.pi)
    return np.array(merged)


def _equispaced_offset(atom_angles: np.ndarray, m: int) -> float:
    """Phase for m+1 equispaced atoms, kept far from the atomic angles.

    The distance from an angle to the equispaced set only depends on its
    residue modulo the set's period, so the best offset is the midpoint of
    the largest residue gap.  Without atomic angles the offset defaults to
    half the period.
    """
    period = 2.0 * np.pi / (m + 1)
    if atom_angles.size == 0:
        return 0.5 * period
    res = np.sort(np.mod(atom_angles, period))
    gaps = np.diff(res, append=res[0] + period)
    best = int(np.argmax(gaps))
    return float(np.mod(res[best] + 0.5 * gaps[best], period))


def _fit_circle_weights(angles: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Real least-squares weights matching sum_i w_i e^{ik theta_i} to targets."""
    orders = np.arange(len(targets))[:, None]
    V = np.exp(1j * orders * angles[None, :])
    A = np.vstack([V.real, V.imag])
    b = np.concatenate([targets.real, targets.imag])
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    return w


def cf_atoms_1d(coeffs, tol: float) -> AtomicMeasure:
    """Decompose one-variable Fourier data c_0..c_m into circle atoms.

    The Toeplitz section T[p, q] = c_(p-q) must be positive semidefinite
    within `tol` (ConvergenceFailure otherwise).  Subtracting the smallest
    eigenvalue leaves a singular section whose null-vector polynomial has
    the atomic angles among the conjugates of its roots (numpy's polyroots,
    the eigenvalues of the companion matrix); weights come from a real
    least-squares Vandermonde fit.  The subtracted mass returns as m+1
    equispaced atoms, which reproduce frequencies up to m exactly and are
    phase-shifted away from the atomic angles.  Weights at most 1e-12 of
    the mass are dropped.

    Atoms land on the unit circle; the caller applies any radius.
    """
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    m = len(c) - 1
    if m < 0:
        raise ValueError("at least the zeroth coefficient is required")
    if abs(c[0].imag) > 1e-12 * max(1.0, abs(c[0])):
        raise ValueError(f"zeroth coefficient must be real, got {c[0]}")
    mass = c[0].real
    if mass < 0.0:
        raise ValueError(f"zeroth coefficient must be nonnegative, got {mass}")

    full = np.concatenate([c[:0:-1].conj(), c])
    T = np.empty((m + 1, m + 1), dtype=complex)
    for p in range(m + 1):
        T[p, :] = full[m + p::-1][: m + 1]
    ok, witness = psd_check(T, tol)
    if not ok:
        raise ConvergenceFailure(
            f"Toeplitz section fails positivity, smallest eigenvalue {witness:.3e}")

    prune = 1e-12 * mass
    if mass <= prune:
        return AtomicMeasure.empty(1)

    uniform = max(min_eigenvalue(T), 0.0)
    T_atomic = T - uniform * np.eye(m + 1)

    atom_angles = np.zeros(0)
    if np.linalg.norm(T_atomic) > 1e-13 * max(np.linalg.norm(T), 1e-300):
        shift = 1e-14 * max(T.trace().real, 1e-300)
        v = np.zeros(m + 1, dtype=complex)
        v[0] = 1.0
        system = T_atomic + shift * np.eye(m + 1)
        for _ in range(3):
            v = np.linalg.solve(system, v)
            v /= np.linalg.norm(v)
        # drop negligible top coefficients, and bottom ones, whose roots sit
        # at the origin and carry no angle
        live = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))
        roots = polyroots(v[live[0]:live[-1] + 1])
        if roots.size:
            atom_angles = _merge_angles(np.mod(-np.angle(roots), 2.0 * np.pi))

    targets = c.copy()
    targets[0] = mass - uniform
    weights = np.zeros(0)
    if atom_angles.size:
        weights = _fit_circle_weights(atom_angles, targets)
        if weights.size and float(weights.min()) < 0.0:
            if float(weights.min()) < -1e-10 * max(1.0, mass):
                raise ConvergenceFailure(
                    f"significantly negative atomic weight {weights.min():.3e}"
                )
            keep = weights > 0.0
            atom_angles = atom_angles[keep]
            if atom_angles.size:
                weights = np.maximum(_fit_circle_weights(atom_angles, targets), 0.0)
            else:
                weights = np.zeros(0)
        keep = weights > prune
        atom_angles, weights = atom_angles[keep], weights[keep]

    if uniform > prune:
        offset = _equispaced_offset(atom_angles, m)
        extra = offset + np.arange(m + 1) * (2.0 * np.pi / (m + 1))
        atom_angles = np.concatenate([atom_angles, extra])
        weights = np.concatenate([weights, np.full(m + 1, uniform / (m + 1))])

    return _unit_measure(atom_angles, weights, 1)


# ---------------------------------------------------------------------------
# several variables: candidate grid, nonnegative least squares, weight refit
# ---------------------------------------------------------------------------


def _lawson_hanson(
    column: Callable[[int], np.ndarray],
    gradient: Callable[[np.ndarray], np.ndarray],
    cols: int,
    b: np.ndarray,
    amax: float,
) -> np.ndarray:
    """Nonnegative least squares: min ||A x - b|| over x >= 0.

    The design A is never formed: `column(j)` returns its column j,
    `gradient(r)` returns A.T @ r, `cols` is its column count and `amax`
    bounds its entries' magnitude (max |A|, which sets the rounding floor).

    The active-set method of Lawson and Hanson, *Solving Least Squares
    Problems* (SIAM 1995), ch. 23.  The free column with the largest entry
    of the gradient A.T @ r enters the passive set, unless it is numerically
    dependent on the passive columns or its least-squares weight would start
    nonpositive; then the next largest is tried.  While the least-squares
    solution on the passive set has a nonpositive weight, x moves toward it
    until the first weight reaches zero, and the columns at zero leave.  The
    loop stops at m passive columns or when no free gradient entry lies
    above the gradient's rounding level, and raises ConvergenceFailure after
    max(10 * cols, 1000) steps.

    The passive columns keep a thin QR factorization A_P = Q R and the
    inverse of R.  An entering column adds one Gram-Schmidt column to Q,
    orthogonalized twice, and one column to R^-1, so a step costs one
    `gradient` call plus O(m^2) work; a column is built only when it is
    tried for entry.  Only a leaving column refactors, by the same appends
    over the remaining passive columns: no LAPACK factorization runs, whose
    code no other two-variable stage loads.
    """
    m = len(b)
    eps = np.finfo(float).eps
    # rounding level of a gradient entry: an m-term sum of entries up to
    # max|A| against a residual no larger than b
    floor = m * eps * amax * float(np.linalg.norm(b))
    x = np.zeros(cols)
    passive: list[int] = []
    Q = np.empty((m, m))
    Rinv = np.zeros((m, m))
    qb = np.empty(m)  # Q.T @ b
    z = np.zeros(0)  # least-squares weights on the passive columns

    def project_out(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
        """a less its projection on Q[:, :p], orthogonalized twice, and the
        coefficients of that projection: the new column of R above rho."""
        c = Q[:, :p].T @ a
        v = a - Q[:, :p] @ c
        again = Q[:, :p].T @ v
        return v - Q[:, :p] @ again, c + again

    def append(p: int, v: np.ndarray, c: np.ndarray, rho: float) -> None:
        Q[:, p] = v / rho
        qb[p] = Q[:, p] @ b
        Rinv[:p, p] = -(Rinv[:p, :p] @ c) / rho
        Rinv[p, p] = 1.0 / rho

    for _ in range(max(10 * cols, 1000)):
        p = len(passive)
        if p and float(z.min()) <= 0.0:
            # step from x toward z until the first passive weight reaches zero
            xp = x[passive]
            out = np.flatnonzero(z <= 0.0)
            ratios = xp[out] / (xp[out] - z[out])
            first = int(np.argmin(ratios))
            xp += ratios[first] * (z - xp)
            xp[out[first]] = 0.0
            x[passive] = xp
            passive = [k for k, value in zip(passive, xp) if value > 0.0]
            for i, k in enumerate(passive):
                v, c = project_out(column(k), i)
                append(i, v, c, float(np.linalg.norm(v)))
            p = len(passive)
            z = Rinv[:p, :p] @ qb[:p]
            continue
        x[:] = 0.0
        x[passive] = z
        if p == m:
            return x
        # x solves least squares on the passive columns, so the residual is
        # b less its projection on their span
        w = gradient(b - Q[:, :p] @ qb[:p])
        w[passive] = -np.inf
        while True:
            j = int(np.argmax(w))
            if not w[j] > floor:
                return x
            w[j] = -np.inf
            a = column(j)
            v, c = project_out(a, p)
            rho = float(np.linalg.norm(v))
            if rho <= 100.0 * eps * float(np.linalg.norm(a)):
                continue  # dependent on the passive columns
            if float(v @ b) <= 0.0:
                continue  # its weight, v.b / rho**2, would start nonpositive
            append(p, v, c, rho)
            passive.append(j)
            break
        z = Rinv[:p + 1, :p + 1] @ qb[:p + 1]
    raise ConvergenceFailure(
        f"nonnegative least squares did not finish in {max(10 * cols, 1000)} steps")


def _clamped_least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution of A w = b, its negative entries set to 0.

    When that solution is nonnegative it also solves min ||A w - b|| over
    w >= 0 (Lawson and Hanson, ch. 23), the fit `refine` asks for; it was
    nonnegative on every refit of the corpus of tools/corpus.py, the
    contract sweep and the benchmark workloads.  Where it is not, the clamp
    still leaves weights of a measure.
    """
    return np.maximum(np.linalg.lstsq(A, b, rcond=None)[0], 0.0)


def _stacked(values: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """Real rows for every exponent, then imaginary rows for the nonzero ones
    (the zero exponent's target, the mass, is real); `nonzero` masks those."""
    return np.concatenate([values.real, values.imag[nonzero]])


def grid_nnls(exponents: np.ndarray, targets: np.ndarray, grid: int) -> AtomicMeasure:
    """Coarse torus measure from nonnegative least squares over a grid.

    The candidates are the full product grid of `grid` equispaced angles
    per dimension, so the design matrix has grid**n columns; synthesis
    calls this for two variables only.  The rows are the unit-torus
    moments `targets` at the rows k of the integer array `exponents`, the
    zero exponent first with the mass as its target (synthesis passes the
    prescribed exponents and s_k / r**|k|).  The fit stops at no more atoms
    than it has real rows, 2*len(exponents) - 1.  Weights at most 1e-12 of
    the mass are dropped.

    The fit is `_lawson_hanson`, and the design is never built.  Column g
    holds Re and Im of e^(2 pi i k.g / grid) over the exponents k, so a
    column is one lookup in the roots of unity, and the gradient A.T @ r is
    Re sum_k e^(2 pi i k.g / grid) (r_re[k] - i r_im[k]): a separable
    transform of those coefficients on the small box that holds the
    exponents, one matrix product per coordinate with a grid x span factor
    (F0 @ C @ F1.T for two variables).  Every entry has magnitude at most
    1, and grid point 0 has the entry cos 0 = 1, so max|A| is 1.
    """
    if grid < 1:
        raise ValueError("grid must be at least 1")
    karr = np.asarray(exponents)
    n = karr.shape[1]
    prune = 1e-12 * targets[0].real
    nonzero = np.any(karr, axis=1)
    if float(np.max(np.abs(targets))) <= prune:
        return AtomicMeasure.empty(n)
    points = np.indices((grid,) * n).reshape(n, -1).T
    # exact roots of unity: the phase k.g of grid point g only matters mod grid
    roots = np.exp(2j * np.pi * np.arange(grid) / grid)
    low = karr.min(axis=0)
    span = tuple(karr.max(axis=0) - low + 1)
    # per coordinate, the transposed factor e^(2 pi i k g / grid): span x grid
    factors = [roots[np.outer(np.arange(lo, lo + size), np.arange(grid)) % grid]
               for lo, size in zip(low, span)]
    where = tuple((karr - low).T)
    where_imag = tuple((karr[nonzero] - low).T)
    real_rows = len(karr)

    def column(j: int) -> np.ndarray:
        return _stacked(roots[(karr @ points[j]) % grid], nonzero)

    def gradient(r: np.ndarray) -> np.ndarray:
        # the coefficient of exponent k is r_re[k] - i r_im[k]
        box = np.zeros(span, dtype=complex)
        box.real[where] = r[:real_rows]
        box.imag[where_imag] = -r[real_rows:]
        # contract the leading exponent axis and append its grid axis; after
        # n steps the axes are the grid's, in order
        for factor in factors:
            box = box.reshape(len(factor), -1).T @ factor
        return box.real.ravel()

    weights = _lawson_hanson(column, gradient, grid**n, _stacked(targets, nonzero), 1.0)
    keep = weights > prune
    return _unit_measure(2.0 * np.pi * points[keep] / grid, weights[keep], n)


def refine(
    measure: AtomicMeasure,
    exponents: np.ndarray,
    targets: np.ndarray,
    radius: float,
    tol: float,
) -> AtomicMeasure:
    """Refit the weights of a grid fit that missed, at its own angles.

    The residual is taken against the unit-torus moments `targets` at the
    rows k of `exponents`, as `grid_nnls` reads them (synthesis passes the
    prescribed exponents, the only moments its acceptance check reads),
    each weighted by radius**|k| so it tracks the original moment
    magnitudes.  The target is `tol` times max(1, largest weighted entry).
    Returns the input untouched when it already meets the target.
    Otherwise the weights are refitted once by `_clamped_least_squares` at
    the same angles; the refit is kept only when it does not raise the
    squared residual, and returned when it meets the target.  Otherwise
    ConvergenceFailure is raised.
    """
    karr = np.asarray(exponents)
    n = karr.shape[1]
    nonzero = np.any(karr, axis=1)
    factors = radius ** np.abs(karr).sum(axis=1)
    target = tol * max(1.0, float(np.max(factors * np.abs(targets))))
    angles = np.angle(measure.atoms).reshape(-1, n)

    def gap(w: np.ndarray) -> np.ndarray:
        return factors * (_trig_moments(angles, w, karr) - targets)

    current = gap(measure.weights)
    if float(np.max(np.abs(current))) <= target:
        return measure
    # the weights enter linearly, so least squares solves for them at fixed
    # angles; its clamp could raise the cost
    design = _stacked(np.exp(1j * (karr.astype(float) @ angles.T)) * factors[:, None], nonzero)
    refit = _clamped_least_squares(design, _stacked(factors * targets, nonzero))
    refitted = gap(refit)
    r, r_refit = _stacked(current, nonzero), _stacked(refitted, nonzero)
    if float(r_refit @ r_refit) <= float(r @ r):
        current = refitted
        if float(np.max(np.abs(current))) <= target:
            return _unit_measure(angles, refit, n)
    raise ConvergenceFailure(
        f"refinement stalled at residual {float(np.max(np.abs(current))):.3e}"
        f" (target {target:.3e})"
    )


# ---------------------------------------------------------------------------
# any number of variables: one FFT on a rank-1 lattice
# ---------------------------------------------------------------------------

# the lattice stage's node values are at least this share of the mass
NODE_FLOOR = 1e-3
# frequencies whose keys screen every Korobov candidate before the full test
_PROBE = 64
# entries of one block of a key matrix (4 MB of int64)
_KEY_ENTRIES = 1 << 19
# fractions of its bracket at which each step of the radius search tries a
# shift, all at once, and the least number of steps (32**3 times narrower)
_STEPS = np.arange(1, 33) / 32.0
_STEP_ROUNDS = 3


def _injective(freqs: np.ndarray, bases: np.ndarray, size: int) -> np.ndarray:
    """For each a in `bases`, whether k -> k.z mod size is injective on the
    rows k of `freqs`, z = (1, a, a**2, ...) mod size the Korobov vector of a.

    The keys form one row per candidate; a sorted row with no two equal
    neighbours has distinct keys.
    """
    powers = np.ones((len(bases), freqs.shape[1]), dtype=np.int64)
    for c in range(1, freqs.shape[1]):
        powers[:, c] = powers[:, c - 1] * bases % size
    keys = powers @ freqs.T % size
    keys.sort(axis=1)
    return np.all(keys[:, 1:] != keys[:, :-1], axis=1)


def _rank1_lattice(freqs: np.ndarray) -> tuple[int, np.ndarray]:
    """Node count N and Korobov vector z = (1, a, ..., a**(n-1)) mod N of
    the first lattice on which k -> k.z mod N is injective over the rows of
    `freqs`.  N counts up from len(freqs); for each N the candidates
    0 < a < N (a = 1 alone for one variable or N = 1) are tested in blocks,
    8 first and 8 times more in each next block, up to _KEY_ENTRIES keys:
    first on the keys of the first _PROBE frequencies, then on all.

    The search ends.  One variable takes z = 1 at N = 2d + 1 at the latest,
    d the largest |k|.  Beyond one, take the least prime N above every 2 d_c,
    d_c the largest |k_c|, and above (n - 1) m (m - 1) / 2 + 1, m = len(freqs).
    A difference of two frequencies is nonzero mod N, so its product with z
    is a nonzero polynomial in a of degree at most n - 1 mod N: it has at
    most n - 1 roots, so at most (n - 1) m (m - 1) / 2 of the N - 1
    candidates fail.
    """
    count, n = freqs.shape
    # a probe of fewer than half the frequencies saves more than it costs
    probe = freqs[:_PROBE] if count > 2 * _PROBE else freqs
    widest = max(1, _KEY_ENTRIES // count)
    for size in itertools.count(count):
        bases = np.arange(1, 2 if n == 1 or size == 1 else size, dtype=np.int64)
        first, width = 0, 8
        while first < len(bases):
            block = bases[first:first + width]
            block = block[_injective(probe, block, size)]
            if len(probe) < count and block.size:
                block = block[_injective(freqs, block, size)]
            if block.size:
                a = int(block[0])
                return size, np.array([pow(a, c, size) for c in range(n)], dtype=np.int64)
            first, width = first + width, min(8 * width, widest)


class _Disc(NamedTuple):
    """A spec on its own disc (`_own_disc`): t_lo, then for the nonzero
    moments after the mass their exponents as rows, their degrees |k|,
    log(|s_k| / s0) and arg s_k."""

    t_lo: float
    exponents: np.ndarray
    degrees: np.ndarray
    log_ratios: np.ndarray
    phases: np.ndarray

    def unit(self, t: float) -> np.ndarray:
        """s_k / (s0 e^(|k| t)) at those moments, taken in logs."""
        return np.exp(self.log_ratios - self.degrees * t + 1j * self.phases)


def _own_disc(spec: MomentSpec) -> _Disc:
    """The front end of every solve.  z -> z / e^t maps s_k to
    s_k / e^(|k| t), and the data over the mass have no modulus above 1 from
    t = t_lo = max_k log(|s_k| / s0) / |k| on (-inf when no moment after the
    mass is nonzero).  `synthesize` computes it once, past the gate, and the
    pencil, the lattice screen and the lattice stage read it."""
    values = np.asarray(spec.values[1:], dtype=complex)
    moduli = np.abs(values)
    live = moduli > 0.0
    exponents = spec.exponents[1:][live]
    degrees = exponents.sum(axis=1)
    log_ratios = np.log(moduli[live]) - math.log(spec.mass.real)
    t_lo = float((log_ratios / degrees).max()) if degrees.size else -math.inf
    return _Disc(t_lo, exponents, degrees, log_ratios, np.angle(values[live]))


def lattice_quadrature(spec: MomentSpec, disc: _Disc) -> tuple[AtomicMeasure, float]:
    """Exact answer on the nodes of a rank-1 lattice: its atoms on the unit
    torus with their weights, and the log-radius t of the torus it lives on.

    P = spec u -spec holds |P| = 2*|spec| - 1 frequencies.  `_rank1_lattice`
    gives N and z with k -> k.z mod N injective on P, so the N nodes
    theta_g = 2 pi (g z mod N) / N separate its frequencies (Kaemmerer,
    SIAM J. Numer. Anal. 51, 2013).  With r = e^t, the trigonometric
    polynomial P_t(theta) = s0 + 2 Re sum_(k != 0) s_k e^(-t|k|) e^(-ik.theta)
    has node values whose N-th parts, as weights of the atoms r e^(i theta_g),
    have moment r^|k| s_k e^(-t|k|) = s_k at every prescribed k, exactly in
    exact arithmetic.

    t is the least shift, found to a few parts in 10^5 of its bracket and to
    0.1 / (top degree), at which every node value is at least NODE_FLOOR * s0,
    so all N weights are positive.  No answer has a shift below t_lo of
    `disc`, the spec's `_own_disc`: the mean of a nonnegative P_t over
    the nodes is s0, which bounds each of its coefficients.  The closed
    form 2 sum |s_k| e^(-t|k|) <= (1 - NODE_FLOOR) s0 makes P_t at least
    the floor everywhere, and it holds from t_lo + log(2m / (1 - NODE_FLOOR))
    on, m the count of nonzero s_k, where each of the m terms is at most
    2 s0 e^(t_lo - t); that shift caps the search.  The search runs on
    P_t / s0, so no mass at either end of the double range overflows a
    node value: its node values less 1 are polynomials in e^-(t - t_lo)
    with coefficients no larger than 1, the disc's unit(t_lo), which an
    N x (distinct degrees) node matrix, one length-N FFT per degree, gives
    at many shifts in one matrix product; at t, times s0 / N, they are the
    weights, so they are the values the search found positive.  All of it runs in logs, so a large
    radius overflows nothing; the caller screens e^t before taking any
    power of it.  Without a nonzero moment besides the mass, t is 0 and
    every weight is s0 / N.
    """
    n = spec.n
    karr = spec.exponents[1:]
    size, z = _rank1_lattice(np.concatenate([np.zeros((1, n), dtype=np.int64), karr, -karr]))
    s0 = spec.mass.real
    t, weights = 0.0, np.full(size, s0 / size)
    if len(disc.degrees):
        distinct, row = np.unique(disc.degrees, return_inverse=True)
        parts = np.zeros((len(distinct), size), dtype=complex)
        parts[row, (disc.exponents @ z) % size] = disc.unit(disc.t_lo)
        nodes = 2.0 * np.fft.fft(parts, axis=1).real.T  # node values less 1
        orders = distinct[:, None]

        def tails(shifts: np.ndarray) -> np.ndarray:
            return nodes @ np.exp(orders * (disc.t_lo - shifts))

        # each step tries _STEPS of the bracket at once and keeps the part
        # that ends at the first shift whose node values clear the floor;
        # past _STEP_ROUNDS steps the search goes on until the bracket is
        # at most 0.1 / top wide, so r**top is within e**0.1 of its least
        below, t = disc.t_lo, disc.t_lo + math.log(2.0 * len(disc.degrees) / (1.0 - NODE_FLOOR))
        top = int(karr.sum(axis=1).max())
        rounds = max(_STEP_ROUNDS, math.ceil(math.log(10.0 * top * (t - below), len(_STEPS))))
        for _ in range(rounds):
            shifts = below + (t - below) * _STEPS
            clear = tails(shifts).min(axis=0) >= NODE_FLOOR - 1.0
            clear[-1] = True  # the top of the bracket, whatever its rounding
            first = int(np.argmax(clear))
            below, t = (float(shifts[first - 1]) if first else below), float(shifts[first])
        weights = s0 * ((1.0 + tails(np.array([t]))[:, 0]) / size)
    angles = (2.0 * np.pi / size) * (np.outer(np.arange(size, dtype=np.int64), z) % size)
    return _unit_measure(angles, weights, n), t


# ---------------------------------------------------------------------------
# one variable, low rank: the matrix pencil
# ---------------------------------------------------------------------------

# singular values of the Hankel matrix above this share of the largest count
# towards its rank
PENCIL_RANK = 1e-10
# a pencil weight is read as real when its imaginary part is within this
# share of the mass
PENCIL_IMAG = 1e-9


def _pencil(spec: MomentSpec, disc: _Disc) -> tuple[int, AtomicMeasure | str] | None:
    """Few atoms from low-rank one-variable data: Prony's method as a matrix
    pencil (Hua and Sarkar, IEEE Trans. ASSP 38, 1990).

    Takes a one-variable spec whose exponents are exactly 0..d, d >= 1
    (the caller's check), and its `_own_disc`.  When s_k are the moments
    of m atoms z_a with 2m <= d, the Hankel matrix H[i, j] = s_(i+j) of
    shape (d - L + 1) x (L + 1), L = d // 2, has rank m, and its row space
    is spanned by the rows (1, z_a, ..., z_a**L).  So with V the first m
    right singular vectors as columns, V[1:] = V[:-1] C for a matrix C
    whose eigenvalues are the z_a.  The weights are the least-squares fit
    of the Vandermonde matrix z_a**k, k = 0..d, to s.

    The pencil reads the data on their own disc at t = max(0, t_lo): the
    disc's s_k / (s0 e^(k t)), the moments of the weights over s0 at the
    atoms z_a / e^t, none above 1 in modulus.  It multiplies the weights
    back by s0 and the atoms by e^t, which is 1 exactly at t = 0.  So the
    rank rule and the weight fit read every moment, whatever the scale.

    Returns None when the rank m (the singular values above PENCIL_RANK
    of the largest) is not within 1..L.  Otherwise it returns m and the
    measure on those atoms, `scale` their largest modulus, or the reason
    there is none: a weight that is not real within PENCIL_IMAG of the mass
    and positive, or an overflow (atoms beyond a double among them), NaN
    or LAPACK failure.  The caller decides acceptance.
    """
    d = len(spec.indices) - 1
    t = max(0.0, disc.t_lo)
    half, m = d // 2, 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            unit = np.zeros(d + 1, dtype=complex)
            unit[0] = 1.0
            unit[disc.exponents[:, 0]] = disc.unit(t)
            hankel = unit[np.add.outer(np.arange(d - half + 1), np.arange(half + 1))]
            _, singular, vh = np.linalg.svd(hankel)
            m = int(np.count_nonzero(singular > PENCIL_RANK * singular[0]))
            if not 1 <= m <= half:
                return None
            basis = vh[:m].T
            atoms = np.linalg.eigvals(np.linalg.pinv(basis[:-1]) @ basis[1:])
            vandermonde = np.vander(atoms, d + 1, increasing=True).T
            weights = np.linalg.lstsq(vandermonde, unit, rcond=None)[0] * spec.mass.real
            atoms = atoms * np.exp(t)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # before the rank is known nothing was attempted
        return (m, str(exc)) if m else None
    if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
        return m, "an atom or a weight is not finite"
    imaginary = float(np.max(np.abs(weights.imag)))
    if imaginary > PENCIL_IMAG * spec.mass.real:
        return m, f"a weight is not real (imaginary part {imaginary:.3e})"
    if not np.all(weights.real > 0.0):
        return m, f"a weight is not positive ({weights.real.min():.3e})"
    return m, AtomicMeasure(1, atoms, weights.real, scale=float(np.max(np.abs(atoms))))


# ---------------------------------------------------------------------------
# end-to-end synthesis
# ---------------------------------------------------------------------------


def _prescale_factor(spec: MomentSpec) -> float:
    """Dilation factor that tames the moment magnitudes: the largest
    |s_k|**(1/|k|), clipped to [1e-3, 1e3]."""
    best = max((abs(v) ** (1.0 / sum(k)) for k, v in zip(spec.indices, spec.values)
                if any(k) and v), default=0.0)
    return float(np.clip(best, 1e-3, 1e3)) if best else 1.0


def synthesize(spec: MomentSpec, config: SolverConfig | None = None) -> AtomicMeasure:
    """Solve a truncated moment problem by an explicit atomic measure.

    Gates on solvability (Unsolvable otherwise; the zero spec returns the
    zero measure).  Only a spec that fills its exponent box, every exponent
    of {0..D}**n with D = max(1, largest exponent), reaches the pencil and
    the older stage; every other spec goes straight to the lattice stage,
    since zero-filling it would prescribe moments nobody asked for.  Past
    the gate `_own_disc` is computed once; the pencil, the lattice screen
    and the lattice stage read t_lo and s_k / (s0 e^(|k| t)) from it.  One
    variable tries `_pencil` first; its answer is accepted by the answer
    rule below, and a rank miss is no attempt.  Up to two variables one
    attempt of the older stage comes next, on the moments pre-scaled by 1
    for one variable and by the magnitude-taming factor for two: the torus
    radius r is the contraction scale of the paper's shift tuple of the
    pre-scaled moments (`operators.contraction_scale`) times that factor,
    the targets are the Fourier data s_k / r**|k|, and the Toeplitz split
    (one variable) or grid nonnegative least squares at GRID points followed
    on a miss by one weight refit (two; see `refine`) fits them.  A refit
    that returns its input untouched (its double-precision residual met the
    target) ends the attempt without checking the same atoms again.  The
    benchmark's smoke test (perfbench/test_smoke.py) requires these stages
    to run; every other answer comes from `lattice_quadrature`, the only
    stage beyond two variables.  No solve builds the shift tuple, its
    Fourier table or the box embedding.

    Both rules of acceptance live in `verify.py`.  Each candidate is
    measured once by `report`, and the answer rule (`answer_refusal`)
    decides from that report alone.  The torus screen (`torus_refusal`)
    refuses a torus before any candidate on it is built or measured: the
    older stage then runs no stage, its attempt recorded as "radius", and
    the lattice answer is never measured.  Before any lattice node is
    built the screen takes the lattice's bracket: every lattice log-radius
    t exceeds the disc's t_lo, and the screen's level does not increase
    below t = 0 nor decrease above it (there each term of its maximum has
    slope top - |k| >= 0), so a refusal at max(t_lo, 0) refuses every
    lattice radius, recorded as "lattice screen, radius above e**t_lo".  Any
    overflow, NaN or LAPACK failure in the older attempt, its radius
    included, ends the attempt with that error as its reason.  Otherwise
    the raised ConvergenceFailure lists every attempt in order, the
    pencil's as "pencil, m atoms", each with its reason.  Nothing else is raised.

    The returned measure's moments match the spec within the config's
    `allowance(spec)`.
    """
    cfg = config if config is not None else SolverConfig()
    verdict = solvability(spec)
    if verdict.is_zero:
        return AtomicMeasure.empty(spec.n)
    if verdict.is_unsolvable:
        raise Unsolvable(verdict.reason)

    n = spec.n
    disc = _own_disc(spec)
    tol = cfg.resolved_tol(n)
    allowance = cfg.allowance(spec)
    magnitudes = np.abs(np.asarray(spec.values))
    degrees = spec.exponents.sum(axis=1).astype(float)

    def finish(unit: AtomicMeasure, atom_radius: float) -> tuple[AtomicMeasure, Report]:
        """The unit measure on the torus of atom_radius, and its report."""
        atoms = atom_radius * np.exp(1j * np.angle(unit.atoms))
        candidate = AtomicMeasure(n, atoms, unit.weights, scale=atom_radius)
        return candidate, report(spec, candidate)

    attempts: list[tuple[str, str]] = []  # (attempt, reason)
    # whether the spec fills its exponent box {0..D}**n, D = max(1, largest
    # exponent): only such a spec reaches the pencil and the older attempt
    side = max(1, int(spec.exponents.max())) + 1
    full = len(spec.indices) == side**n
    pencil = _pencil(spec, disc) if n == 1 and full else None
    if pencil is not None:
        m, candidate = pencil
        if isinstance(candidate, str):
            reason = candidate
        else:
            reason = answer_refusal(report(spec, candidate), allowance)
            if reason is None:
                return candidate
        attempts.append((f"pencil, {m} atoms", reason))
    if n <= 2 and full:
        factor, stage = 1.0, "split" if n == 1 else "grid"
        try:
            # an overflow, a NaN or a LAPACK failure anywhere in the attempt ends it
            with np.errstate(over="raise", invalid="raise"):
                if n == 2:
                    factor = _prescale_factor(spec)
                karr = spec.exponents
                # the mass is real up to the solvability gate's rounding
                scaled = np.array((spec.mass.real,) + spec.values[1:]) / factor**degrees
                box = np.empty((side,) * n, dtype=complex)
                box[tuple(karr.T)] = scaled
                scale = contraction_scale(box)[1]
                atom_radius = scale * factor
                reason = torus_refusal(magnitudes, degrees, allowance, math.log(atom_radius))
                if reason is not None:
                    stage = "radius"
                else:
                    # the construction's Fourier data at the prescribed k,
                    # s_k / atom_radius**|k|
                    targets = scaled / scale**degrees
                    if n == 1:
                        unit = cf_atoms_1d(targets[np.argsort(karr[:, 0])],
                                           tol=1e-8 * max(1.0, spec.mass.real))
                    else:
                        unit = grid_nnls(karr, targets, GRID)
                    candidate, result = finish(unit, atom_radius)
                    if result.max_residual > allowance and n == 2:
                        refined = refine(unit, karr, targets, atom_radius, tol)
                        if refined is unit:
                            # refine's own double-precision check passed; the
                            # same atoms would fail the same check again
                            reason = ("refine's double-precision residual met the target;"
                                      f" the extended-precision check did not"
                                      f" ({result.max_residual:.3e})")
                        else:
                            candidate, result = finish(refined, atom_radius)
                    if reason is None:
                        reason = answer_refusal(result, allowance)
                        if reason is None:
                            return candidate
        except (ConvergenceFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
            reason = str(exc)
        attempts.append((f"prescale {factor:.6g}, {stage}", reason))

    reason = torus_refusal(magnitudes, degrees, allowance, max(disc.t_lo, 0.0))
    if reason is not None:
        attempts.append((f"lattice screen, radius above {_exp_text(disc.t_lo)}", reason))
    else:
        unit, log_radius = lattice_quadrature(spec, disc)
        reason = torus_refusal(magnitudes, degrees, allowance, log_radius)
        if reason is None:
            candidate, result = finish(unit, math.exp(log_radius))
            reason = answer_refusal(result, allowance)
            if reason is None:
                return candidate
        attempts.append((f"lattice, {len(unit)} nodes", reason))
    raise ConvergenceFailure(
        "synthesis could not reach the residual target: "
        + "; ".join(f"({attempt}) {reason}" for attempt, reason in attempts)
    )


def functional_representation(
    indices: Iterable[MultiIndex], values: Iterable[complex], config: SolverConfig | None = None
) -> AtomicMeasure:
    """Represent a linear functional on a monomial span by a measure (the
    paper's corollary).

    The functional is given by its values on the monomials of the index
    set; the returned measure integrates every polynomial in that span to
    the functional's value, by linearity of both sides.  Requires a
    positive value at the constant monomial (or an identically zero
    functional, represented by the zero measure).
    """
    pairs = list(zip(indices, values))
    if not pairs:
        raise ValueError("the index set must contain the zero multi-index")
    n = len(tuple(pairs[0][0]))
    return synthesize(MomentSpec.from_items(n, pairs), config)
