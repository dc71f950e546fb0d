"""Atomic measure synthesis on a torus.

Given a solvable instance, this module constructs an explicit
finitely-atomic nonnegative measure whose atoms sit on one torus and whose
monomial moments reproduce the prescribed values.

One stage, `lattice_quadrature`, answers any number of variables: the
spec's own trigonometric polynomial, its coefficients s_k divided by
r**|k|, is at least a floor at every node of a rank-1 lattice that
separates the frequencies of spec u -spec, for the least such r; its node
values, one length-N FFT per degree away, are the weights of atoms
r e^(i theta) on those nodes, and they reproduce every prescribed moment
exactly in exact arithmetic.

Up to two variables one older attempt runs first, on the Fourier table of
the paper's construction.  One complex variable admits an exact route: the
Toeplitz section of the Fourier data splits into a Vandermonde part (atoms
from the roots of a null-vector polynomial) plus a multiple of the identity
(mass spread over equispaced atoms), and a miss goes to the lattice stage.
Two variables use nonnegative least squares on the product grid of GRID
candidate angles per variable, refined on a miss by damped Gauss-Newton on
angles and weights; both fit only the prescribed moments, the only ones
the acceptance check reads, so an answer has at most 2*|spec| - 1 atoms.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .dilation import FourierTable, fourier_table, min_eigenvalue, psd_check
from .errors import ConvergenceFailure, Unsolvable
from .lattice import EmbeddedSpec, MomentSpec, MultiIndex, embed
from .measures import AtomicMeasure
from .operators import build_tuple
from .verify import report, solvability


# candidate angles per variable of the two-variable grid fit
GRID = 64

_LOG_LONG_EPS = math.log(float(np.finfo(np.longdouble).eps))
_LOG_DOUBLE_MAX = math.log(float(np.finfo(float).max))


@dataclass(frozen=True)
class SolverConfig:
    """The one choice a caller makes; everything else in the pipeline is fixed.

    `tol` is the residual target, relative to max(1, largest prescribed
    magnitude); None resolves to 1e-8 for one variable and 1e-6 otherwise.
    A different `tol` can yield a different, equally valid measure;
    nothing canonicalizes the output.
    """

    tol: float | None = None

    def __post_init__(self) -> None:
        # the chained comparison is false for nan as well
        if self.tol is not None and not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

    def resolved_tol(self, n: int) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-8 if n == 1 else 1e-6

    def allowance(self, spec: MomentSpec) -> float:
        """The largest residual an answer to `spec` may have: the resolved
        tol times max(1, largest prescribed magnitude)."""
        return self.resolved_tol(spec.n) * max(1.0, float(np.max(np.abs(spec.values))))


# ---------------------------------------------------------------------------
# shared trigonometric helpers
# ---------------------------------------------------------------------------


def _half_box(n: int, radius: int) -> np.ndarray:
    """Canonical half of the symmetric index box, zero included: its C-order rows from zero on."""
    signed = np.indices((2 * radius + 1,) * n).reshape(n, -1).T - radius
    return signed[len(signed) // 2:]


def _trig_moments(angles: np.ndarray, weights: np.ndarray, karr: np.ndarray) -> np.ndarray:
    """Sum of w_i * exp(i k . theta_i) for every row k of karr."""
    if angles.shape[0] == 0:
        return np.zeros(karr.shape[0], dtype=complex)
    phases = karr.astype(float) @ angles.T
    return np.exp(1j * phases) @ weights


def _table_targets(table: FourierTable, karr: np.ndarray) -> np.ndarray:
    return table.coeffs[tuple(karr.T)]


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


def cf_atoms_1d(
    coeffs,
    tol: float,
    weight_prune: float | None = None,
) -> AtomicMeasure:
    """Decompose one-variable Fourier data c_0..c_m into circle atoms.

    The Toeplitz section T[p, q] = c_(p-q) must be positive semidefinite
    within `tol` (ConvergenceFailure otherwise).  Subtracting the smallest
    eigenvalue leaves a singular section whose null-vector polynomial has
    the atomic angles among the conjugates of its roots (numpy's polyroots,
    the eigenvalues of the companion matrix); weights come from a real
    least-squares Vandermonde fit.  The subtracted mass returns as m+1
    equispaced atoms, which reproduce frequencies up to m exactly and are
    phase-shifted away from the atomic angles.

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

    prune = weight_prune if weight_prune is not None else 1e-12 * max(1.0, mass)
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
# several variables: candidate grid, nonnegative least squares, refinement
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


def _rows(table: FourierTable, indices: Sequence[MultiIndex] | None) -> np.ndarray:
    """Exponents a least-squares stage fits: `indices`, or the canonical half box."""
    if indices is None:
        return _half_box(table.n, table.radius)
    return np.array(indices, dtype=int).reshape(len(indices), table.n)


def _stacked(values: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """Real rows for every exponent, then imaginary rows for the nonzero ones
    (the zero exponent's target, the mass, is real); `nonzero` masks those."""
    return np.concatenate([values.real, values.imag[nonzero]])


def grid_nnls(
    table: FourierTable,
    grid: int,
    *,
    indices: Sequence[MultiIndex] | None = None,
    weight_prune: float | None = None,
) -> AtomicMeasure:
    """Coarse torus measure from nonnegative least squares over a grid.

    The candidates are the full product grid of `grid` equispaced angles
    per dimension, so the design matrix has grid**n columns; synthesis
    calls this for two variables only.  The rows are the table entries at
    `indices` (synthesis passes the prescribed exponents, whose entries are
    s_k / radius**|k|), or at the whole canonical half box when None.  The
    fit stops at no more atoms than it has real rows, 2*len(indices) - 1
    when the zero exponent is among them.  Weights below the prune
    threshold are dropped.

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
    n = table.n
    prune = weight_prune if weight_prune is not None else 1e-12 * max(1.0, table.mass)
    karr = _rows(table, indices)
    nonzero = np.any(karr, axis=1)
    targets = _table_targets(table, karr)
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


REFINE_ITERS = 200
DAMPING_CAP = 1e12
# refine fails at once when its rounding level exceeds its target this many times
PRECISION_HEADROOM = 1e3


def refine(
    measure: AtomicMeasure,
    table: FourierTable,
    tol: float,
    *,
    indices: Sequence[MultiIndex] | None = None,
    weight_base: float | None = None,
) -> AtomicMeasure:
    """Jointly polish atom angles and weights by damped Gauss-Newton.

    Minimizes the squared residual against the Fourier table at `indices`
    (synthesis passes a two-variable grid fit that missed, never a
    one-variable split, and the prescribed exponents, the only moments its
    acceptance check reads), or over the whole canonical half box when
    None, each frequency weighted by weight_base**|k| so the objective
    tracks the original moment magnitudes.  The target is `tol` times
    max(1, largest weighted entry).  Weights are clamped nonnegative after
    every step and atoms stuck at zero weight for three accepted steps are
    removed.  Returns the input untouched when it already meets the target;
    raises ConvergenceFailure after REFINE_ITERS iterations or a stall.

    Before its first solve it raises ConvergenceFailure when the target is
    out of reach of double precision: the weighted moment sums carry a
    rounding error of about eps * ||weights||_2 * max weight, and a target
    more than PRECISION_HEADROOM times below that cannot be met.  This is
    safe because no refinement that succeeded on the benchmark workloads or
    the corpus of tools/corpus.py started above 10 times its target.
    """
    n = table.n
    base = weight_base if weight_base is not None else table.scale

    karr = _rows(table, indices)
    nonzero = np.any(karr, axis=1)
    kfloat = karr.astype(float)
    factors = base ** np.abs(karr).sum(axis=1)
    targets = _table_targets(table, karr)
    scale = max(1.0, float(np.max(factors * np.abs(targets))))

    angles = np.angle(measure.atoms).reshape(-1, n).copy()
    weights = measure.weights.copy()

    def gap(a: np.ndarray, w: np.ndarray) -> np.ndarray:
        return factors * (_trig_moments(a, w, karr) - targets)

    def max_resid(g: np.ndarray) -> float:
        return float(np.max(np.abs(g))) if g.size else 0.0

    def weighted_design(a: np.ndarray) -> np.ndarray:
        return _stacked(np.exp(1j * (kfloat @ a.T)) * factors[:, None], nonzero)

    current = gap(angles, weights)
    if max_resid(current) <= tol * scale:
        return measure
    if len(weights) == 0:
        raise ConvergenceFailure("no atoms to refine and residual above target")
    # summing w_i e^(ik.theta_i) in double leaves about eps*||w|| of rounding,
    # which the top frequency's weight magnifies; no step can go below that
    noise = np.finfo(float).eps * float(np.linalg.norm(weights)) * float(np.max(factors))
    if noise > PRECISION_HEADROOM * tol * scale:
        raise ConvergenceFailure(
            f"refinement cannot resolve target {tol * scale:.3e}: rounding level {noise:.3e}"
        )

    b = _stacked(factors * targets, nonzero)
    r = _stacked(current, nonzero)
    cost = float(r @ r)
    damping = 1e-3
    streak = np.zeros(len(weights), dtype=int)

    for _ in range(REFINE_ITERS):
        # exact weight block first: weights enter linearly, so their least
        # squares solves for them at fixed angles; the refit is kept only
        # when it does not raise the cost, which its clamp could
        refit = _clamped_least_squares(weighted_design(angles), b)
        r_refit = _stacked(gap(angles, refit), nonzero)
        cost_refit = float(r_refit @ r_refit)
        if cost_refit <= cost:
            weights, r, cost = refit, r_refit, cost_refit

        streak = np.where(weights == 0.0, streak + 1, 0)
        if np.any(streak >= 3):
            keep = streak < 3
            weights, angles, streak = weights[keep], angles[keep], streak[keep]
            r = _stacked(gap(angles, weights), nonzero)
            cost = float(r @ r)
        if len(weights) == 0:
            break
        if max_resid(gap(angles, weights)) <= tol * scale:
            return _unit_measure(angles, weights, n)

        count = len(weights)
        phases = kfloat @ angles.T
        E = np.exp(1j * phases) * factors[:, None]
        cols = [E]
        for j in range(n):
            cols.append(E * (1j * kfloat[:, j:j + 1]) * weights[None, :])
        Jc = np.hstack(cols)
        J = _stacked(Jc, nonzero)
        H = J.T @ J
        g = J.T @ r
        diag = np.diag(H).copy()
        diag[diag <= 0.0] = 1.0

        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(H + damping * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                w_try = np.maximum(weights + step[:count], 0.0)
                a_try = angles + step[count:].reshape(n, count).T
                r_try = _stacked(gap(a_try, w_try), nonzero)
                cost_try = float(r_try @ r_try)
                if cost_try < cost:
                    weights, angles, r, cost = w_try, a_try, r_try, cost_try
                    damping = max(damping * 0.3, 1e-12)
                    accepted = True
                    break
            if damping >= DAMPING_CAP:
                break  # a further try would solve this same system again
            damping = min(damping * 10.0, DAMPING_CAP)
        if not accepted:
            break
        if max_resid(gap(angles, weights)) <= tol * scale:
            return _unit_measure(angles, weights, n)

    raise ConvergenceFailure(
        f"refinement stalled at residual {max_resid(gap(angles, weights)):.3e}"
        f" (target {tol * scale:.3e})"
    )


# ---------------------------------------------------------------------------
# any number of variables: one FFT on a rank-1 lattice
# ---------------------------------------------------------------------------

# the lattice stage's node values are at least this share of the mass
NODE_FLOOR = 1e-3
# node counts below this multiple of |P| are searched for a Korobov
# lattice; past them the product lattice is taken
SEARCH_SPAN = 2
# frequencies whose keys screen every Korobov candidate before the full test
_PROBE = 64
# entries of one block of a key matrix (4 MB of int64)
_KEY_ENTRIES = 1 << 19
# fractions of its bracket at which each step of the radius search tries a
# shift, all at once, and the number of steps: they narrow the bracket
# 32**3 times
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
    """Node count N and generating vector z of a lattice on which
    k -> k.z mod N is injective over the rows of `freqs`.

    N counts up from len(freqs), and for each N the Korobov vectors
    z = (1, a, ..., a**(n-1)) mod N, 0 < a < N, are tested in blocks of
    candidates, 8 first and 8 times more in each next block, up to
    _KEY_ENTRIES keys: first on the keys of the first _PROBE frequencies,
    which turn most candidates down, then on all.  The first a that passes
    wins.  From SEARCH_SPAN * len(freqs) on (beyond one variable, which
    has one candidate per N), or once N reaches its size, the product
    lattice z_c = prod over c' < c of (2 d_c' + 1) is taken, d_c the
    largest |k_c|: balanced mixed-radix digits are unique, so it is
    injective, and it has the (2 d_c + 1) product grid as its nodes.
    """
    count, n = freqs.shape
    extent = np.abs(freqs).max(axis=0).tolist()
    product = math.prod(2 * d + 1 for d in extent)
    # a probe of fewer than half the frequencies saves more than it costs
    probe = freqs[:_PROBE] if count > 2 * _PROBE else freqs
    widest = max(1, _KEY_ENTRIES // count)
    for size in range(count, product if n == 1 else min(SEARCH_SPAN * count, product)):
        bases = np.arange(1, 2 if n == 1 else size, dtype=np.int64)
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
    return product, np.cumprod([1] + [2 * d + 1 for d in extent[:-1]]).astype(np.int64)


def lattice_quadrature(spec: MomentSpec) -> tuple[AtomicMeasure, float]:
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

    t is the least shift, found to a few parts in 10^5 of its bracket, at
    which every node value is at least NODE_FLOOR * s0, so all N weights
    are positive.  No answer has a shift below
    t_lo = max_k log(|s_k| / s0) / |k|: the mean of a nonnegative P_t over
    the nodes is s0, which bounds each of its coefficients.  The closed
    form 2 sum |s_k| e^(-t|k|) <= (1 - NODE_FLOOR) s0 makes P_t at least
    the floor everywhere, and it holds from t_lo + log(2m / (1 - NODE_FLOOR))
    on, m the count of nonzero s_k, where each of the m terms is at most
    2 s0 e^(t_lo - t); that shift caps the search.  The search runs on
    P_t / s0, so no mass at either end of the double range overflows a
    node value: its node values less 1 are polynomials in e^-(t - t_lo)
    with coefficients no larger than 1, which an N x (top degree) node
    matrix, one length-N FFT per degree, gives at many shifts in one matrix
    product; at t, times s0 / N, they are the weights, so they are the
    values the search found positive.  All of it runs in logs, so a large
    radius overflows nothing; the caller screens e^t before taking any
    power of it.  Without a nonzero moment besides the mass, t is 0 and
    every weight is s0 / N.
    """
    n = spec.n
    karr = np.array(spec.indices[1:], dtype=np.int64).reshape(-1, n)
    size, z = _rank1_lattice(np.concatenate([np.zeros((1, n), dtype=np.int64), karr, -karr]))
    s0 = spec.mass.real
    values = np.asarray(spec.values[1:], dtype=complex)
    live = values != 0
    t, weights = 0.0, np.full(size, s0 / size)
    if live.any():
        values, degrees = values[live], karr[live].sum(axis=1)
        # log(|s_k| / s0): the search runs on P_t / s0, whose mass is 1
        log_ratios = np.log(np.abs(values)) - math.log(s0)
        low = float(np.max(log_ratios / degrees))
        parts = np.zeros((int(degrees.max()), size), dtype=complex)
        parts[degrees - 1, (karr[live] @ z) % size] = np.exp(
            log_ratios - low * degrees + 1j * np.angle(values))
        nodes = 2.0 * np.fft.fft(parts, axis=1).real.T  # node values less 1
        orders = np.arange(1, len(parts) + 1)[:, None]

        def tails(shifts: np.ndarray) -> np.ndarray:
            return nodes @ np.exp(orders * (low - shifts))

        # each step tries _STEPS of the bracket at once and keeps the part
        # that ends at the first shift whose node values clear the floor
        below, t = low, low + math.log(2.0 * len(values) / (1.0 - NODE_FLOOR))
        for _ in range(_STEP_ROUNDS):
            shifts = below + (t - below) * _STEPS
            clear = tails(shifts).min(axis=0) >= NODE_FLOOR - 1.0
            clear[-1] = True  # the top of the bracket, whatever its rounding
            first = int(np.argmax(clear))
            below, t = (float(shifts[first - 1]) if first else below), float(shifts[first])
        weights = s0 * ((1.0 + tails(np.array([t]))[:, 0]) / size)
    angles = (2.0 * np.pi / size) * (np.outer(np.arange(size, dtype=np.int64), z) % size)
    return _unit_measure(angles, weights, n), t


# ---------------------------------------------------------------------------
# end-to-end synthesis
# ---------------------------------------------------------------------------


def _prescale_factor(espec: EmbeddedSpec) -> float:
    """Dilation factor that tames the moment magnitudes: the largest
    |s_k|**(1/|k|), clipped to [1e-3, 1e3]."""
    best = 0.0
    for total, v in zip(espec.box.sum(axis=1).tolist(), np.asarray(espec.values)):
        if total and abs(v) > 0.0:
            best = max(best, float(abs(v)) ** (1.0 / total))
    if best == 0.0:
        return 1.0
    return float(np.clip(best, 1e-3, 1e3))


def _rescaled(espec: EmbeddedSpec, factor: float) -> EmbeddedSpec:
    powers = espec.box.sum(axis=1).astype(float)
    values = np.asarray(espec.values) / factor ** powers
    return EmbeddedSpec(espec.n, espec.degree, values)


def _log_rounding_level(log_weight: float, log_radius: float, top: int) -> float:
    """Natural log of u * W * max(1, r)**top, W = exp(log_weight),
    r = exp(log_radius) and u the `np.longdouble` epsilon: the unit
    rounding level of the extended-precision sums that measure a measure of
    total weight W on the torus of radius r at degree `top`.  Taken in
    logs, where no power can overflow."""
    return _LOG_LONG_EPS + log_weight + top * max(0.0, log_radius)


def _log_weight_floor(
    magnitudes: np.ndarray, degrees: np.ndarray, allowance: float, log_radius: float
) -> float:
    """Natural log of the least total weight W of a measure on the torus of
    radius exp(log_radius) whose moments come within `allowance` of
    prescribed moments of these magnitudes and total degrees.

    Such a moment has modulus at most W * radius**|k|, so
    W >= (|s_k| - allowance) / radius**|k| at every k; the bound is the
    largest of these, and -inf when no |s_k| exceeds the allowance.  Each
    |s_k| is first shrunk by 1e-12 of itself, more than the rounding of its
    modulus and of a residual, which would otherwise dominate the
    difference when |s_k| is within rounding of the allowance.
    """
    excess = (1.0 - 1e-12) * magnitudes - allowance
    live = excess > 0.0
    if not live.any():
        return -math.inf
    return float(np.max(np.log(excess[live]) - degrees[live] * log_radius))


def _exp_text(log_value: float) -> str:
    """exp(log_value) in `.3e` notation, also beyond the range of a double."""
    if not math.isfinite(log_value):
        return f"{math.exp(log_value):.3e}"
    exponent = math.floor(log_value / math.log(10.0))
    mantissa = f"{math.exp(log_value - exponent * math.log(10.0)):.3f}"
    if mantissa == "10.000":
        mantissa, exponent = "1.000", exponent + 1
    return f"{mantissa}e{exponent:+03d}"


def synthesize(spec: MomentSpec, config: SolverConfig | None = None) -> AtomicMeasure:
    """Solve a truncated moment problem by an explicit atomic measure.

    Gates on solvability (Unsolvable otherwise; the zero spec returns the
    zero measure).  Up to two variables one attempt of the older stage
    comes first, on the paper's construction: the commuting contraction
    tuple of the moments pre-scaled by 1 for one variable and by the
    magnitude-taming factor for two, its Fourier table, then the Toeplitz
    split (one variable) or grid nonnegative least squares at GRID points
    refined on a miss (two; see `refine`).  A refinement that returns its
    input untouched (its double-precision residual met the target) ends
    the attempt without checking the same atoms again.  The benchmark's
    smoke test (perfbench/test_smoke.py) requires these stages to run;
    every other answer comes from `lattice_quadrature`, the only stage
    beyond two variables, which never builds the tuple or the table.

    A candidate is returned when its residual meets the target, unless the
    target lies below u * W * max(1, r)**|k|, the rounding level of the
    `np.longdouble` sums that measure it at the top degree |k| (W its total
    weight, r the torus radius, u the long double epsilon).  The same rule
    screens each torus before any candidate on it is built or measured: an
    answer on the torus of radius r that meets the allowance a at every
    prescribed k weighs W >= max_k (|s_k| - a) / r**|k|, so when that bound
    puts the rounding level above 2a (the 2 covers the rounding of the
    computed weight sum and residuals) no candidate can be accepted.  The
    older stage then runs no table and no stage, and its attempt is
    recorded as "radius"; the lattice answer is never measured.  Any
    overflow, NaN or LAPACK failure in the older attempt, its construction
    included, ends the attempt with that error as its reason.  Otherwise
    the raised ConvergenceFailure lists both attempts in order, each with
    its reason; it and Unsolvable are the only exceptions raised.

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
    tol = cfg.resolved_tol(n)
    allowance = cfg.allowance(spec)
    magnitudes = np.abs(np.asarray(spec.values))
    degrees = np.array([sum(k) for k in spec.indices], dtype=float)
    top = int(degrees.max())
    log_allowance = math.log(allowance)

    def refusal(log_radius: float) -> str | None:
        """Why no answer on the torus of radius exp(log_radius) can be
        accepted, or None when one can."""
        if log_radius > _LOG_DOUBLE_MAX:
            return f"radius {_exp_text(log_radius)} is beyond the range of a double"
        floor = _log_rounding_level(
            _log_weight_floor(magnitudes, degrees, allowance, log_radius), log_radius, top)
        if not floor > math.log(2.0) + log_allowance:
            return None
        return (f"moment sums on radius {_exp_text(log_radius)} round at {_exp_text(floor)}"
                f" or more, above the residual target {allowance:.3e}")

    def finish(unit: AtomicMeasure, atom_radius: float) -> tuple[AtomicMeasure, float]:
        """The unit measure on the torus of atom_radius, and its residual."""
        atoms = atom_radius * np.exp(1j * np.angle(unit.atoms))
        candidate = AtomicMeasure(n, atoms, unit.weights, scale=atom_radius)
        return candidate, report(spec, candidate).max_residual

    def rejection(candidate: AtomicMeasure, residual: float, log_radius: float) -> str | None:
        """Why the candidate on the torus of radius exp(log_radius) is
        refused, or None when it is accepted."""
        if residual > allowance:
            return "synthesized measure misses the residual target"
        weight = candidate.total_mass
        level = _log_rounding_level(math.log(weight) if weight > 0.0 else -math.inf,
                                    log_radius, top)
        if level > log_allowance:
            return f"its moment sums round at {_exp_text(level)}, above the residual target"
        return None

    attempts: list[tuple[str, str]] = []  # (attempt, reason)
    if n <= 2:
        factor, stage = 1.0, "split" if n == 1 else "grid"
        try:
            # an overflow, a NaN or a LAPACK failure anywhere in the attempt ends it
            with np.errstate(over="raise", invalid="raise"):
                espec = embed(spec)
                if n == 2:
                    factor = _prescale_factor(espec)
                ops = build_tuple(_rescaled(espec, factor))
                atom_radius = ops.scale * factor
                log_radius = math.log(atom_radius)
                reason = refusal(log_radius)
                if reason is not None:
                    stage = "radius"
                else:
                    table = fourier_table(ops, ops.degree)
                    prune = 1e-12 * spec.mass.real
                    if n == 1:
                        line = table.coeffs[:ops.degree + 1]
                        unit = cf_atoms_1d(line, tol=1e-8 * max(1.0, table.mass),
                                           weight_prune=prune)
                    else:
                        unit = grid_nnls(table, GRID, indices=spec.indices, weight_prune=prune)
                    candidate, residual = finish(unit, atom_radius)
                    if residual > allowance and n == 2:
                        refined = refine(unit, table, tol, indices=spec.indices,
                                         weight_base=atom_radius)
                        if refined is unit:
                            # refine's own double-precision check passed; the
                            # same atoms would fail the same check again
                            reason = ("refine's double-precision residual met the target;"
                                      f" the extended-precision check did not ({residual:.3e})")
                        else:
                            candidate, residual = finish(refined, atom_radius)
                    if reason is None:
                        reason = rejection(candidate, residual, log_radius)
                        if reason is None:
                            return candidate
        except (ConvergenceFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
            reason = str(exc)
        attempts.append((f"prescale {factor:.6g}, {stage}", reason))

    unit, log_radius = lattice_quadrature(spec)
    reason = refusal(log_radius)
    if reason is None:
        candidate, residual = finish(unit, math.exp(log_radius))
        reason = rejection(candidate, residual, log_radius)
        if reason is None:
            return candidate
    attempts.append((f"lattice, {len(unit)} nodes", reason))
    raise ConvergenceFailure(
        "synthesis could not reach the residual target: "
        + "; ".join(f"({attempt}) {reason}" for attempt, reason in attempts)
    )
