"""Atomic measure synthesis on the scaled torus.

Given the Fourier table of a solvable instance, this module constructs an
explicit finitely-atomic nonnegative measure whose atoms sit on the torus
of radius equal to the contraction scale (times any moment pre-scaling)
and whose monomial moments reproduce the prescribed values.

One complex variable admits an exact route: the Toeplitz section of the
Fourier data splits into a Vandermonde part (atoms from the roots of a
null-vector polynomial) plus a multiple of the identity (mass spread over
equispaced atoms).  Two variables use nonnegative least squares on a
product grid of candidate angles followed by a damped Gauss-Newton
refinement of angles and weights.  Every dimension has an exact fallback:
the Fourier table is positive definite and vanishes beyond its radius R,
so one FFT gives nonnegative weights on the (2R+1)**n product grid that
reproduce the whole table.

scipy supplies only the nonnegative least squares of the two-variable grid
and of the refinement, and is imported the first time one of them runs, so
importing the package loads numpy alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyroots

from .dilation import FourierTable, _is_canonical, fourier_table, min_eigenvalue, psd_check
from .errors import ConvergenceFailure, NNLSStall, NotPSD, SolverError, Unsolvable
from .lattice import EmbeddedSpec, MomentSpec, embed
from .measures import AtomicMeasure
from .operators import build_tuple
from .verify import report, solvability


@dataclass(frozen=True)
class SolverConfig:
    """The choices a caller makes; everything else in the pipeline is fixed.

    `tol` is the residual target, relative to max(1, largest prescribed
    magnitude); None resolves to 1e-8 for one variable and 1e-6 otherwise.
    `grid` is the number of candidate angles per dimension for the two
    variable least-squares stage, `margin` the contraction scale margin, and
    `box_degree` embeds the spec into a larger exponent box than the minimal
    one.  Different settings yield different, equally valid measures;
    nothing canonicalizes the output.
    """

    tol: float | None = None
    grid: int = 64
    margin: float = 1.1
    box_degree: int | None = None

    def __post_init__(self) -> None:
        if self.tol is not None and self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.grid < 1:
            raise ValueError("grid must be at least 1")
        if self.margin <= 1.0:
            raise ValueError("margin must exceed 1")
        if self.box_degree is not None and self.box_degree < 1:
            raise ValueError("box_degree must be at least 1")

    def resolved_tol(self, n: int) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-8 if n == 1 else 1e-6


def solve_zero(spec: MomentSpec) -> AtomicMeasure:
    """The zero measure, valid exactly when every prescribed value is zero."""
    if not spec.is_zero():
        raise ValueError("spec prescribes a nonzero value; the zero measure does not solve it")
    return AtomicMeasure.empty(spec.n)


# ---------------------------------------------------------------------------
# shared trigonometric helpers
# ---------------------------------------------------------------------------


def _half_box(n: int, radius: int) -> np.ndarray:
    """Canonical half of the symmetric index box (zero included), as an array."""
    kept = [
        k
        for k in itertools.product(range(-radius, radius + 1), repeat=n)
        if _is_canonical(k)
    ]
    return np.array(kept, dtype=int).reshape(len(kept), n)


def _trig_moments(angles: np.ndarray, weights: np.ndarray, karr: np.ndarray) -> np.ndarray:
    """Sum of w_i * exp(i k . theta_i) for every row k of karr."""
    if angles.shape[0] == 0:
        return np.zeros(karr.shape[0], dtype=complex)
    phases = karr.astype(float) @ angles.T
    return np.exp(1j * phases) @ weights


def _table_targets(table: FourierTable, karr: np.ndarray) -> np.ndarray:
    return np.array([table.entries[tuple(k)] for k in karr], dtype=complex)


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
    within `tol` (NotPSD otherwise).  Subtracting the smallest eigenvalue
    leaves a singular section whose null-vector polynomial has the atomic
    angles among the conjugates of its roots (numpy's polyroots, the
    eigenvalues of the companion matrix); weights come from a real
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
        raise NotPSD(f"Toeplitz section fails positivity, pivot {witness:.3e}")

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


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    # deferred: scipy.optimize would be most of the package's import time
    from scipy.optimize import nnls

    try:
        w, _ = nnls(A, b, maxiter=max(10 * A.shape[1], 1000))
    except RuntimeError as exc:
        raise NNLSStall(str(exc)) from exc
    return w


def _design(karr: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Real design matrix: one row per frequency component (imaginary rows
    are dropped for frequencies whose target is forced real)."""
    phases = karr.astype(float) @ angles.T
    E = np.exp(1j * phases)
    rows = []
    for h, k in enumerate(karr):
        rows.append(E[h].real)
        if np.any(k):
            rows.append(E[h].imag)
    return np.array(rows)


def _stack_targets(karr: np.ndarray, targets: np.ndarray) -> np.ndarray:
    out = []
    for h, k in enumerate(karr):
        out.append(targets[h].real)
        if np.any(k):
            out.append(targets[h].imag)
    return np.array(out)


def grid_nnls(
    table: FourierTable,
    grid: int,
    *,
    weight_prune: float | None = None,
) -> AtomicMeasure:
    """Coarse torus measure from nonnegative least squares over a grid.

    The candidates are the full product grid of `grid` equispaced angles
    per dimension, so the design matrix has grid**n columns; synthesis
    calls this for two variables only.  Weights below the prune threshold
    are dropped.
    """
    if grid < 1:
        raise ValueError("grid must be at least 1")
    n = table.n
    prune = weight_prune if weight_prune is not None else 1e-12 * max(1.0, table.mass)
    karr = _half_box(n, table.radius)
    targets = _table_targets(table, karr)
    if float(np.max(np.abs(targets))) <= prune:
        return AtomicMeasure.empty(n)
    line = 2.0 * np.pi * np.arange(grid) / grid
    angles = np.array(list(itertools.product(line, repeat=n)))
    weights = _nnls(_design(karr, angles), _stack_targets(karr, targets))
    keep = weights > prune
    return _unit_measure(angles[keep], weights[keep], n)


def grid_quadrature(table: FourierTable, *, weight_prune: float | None = None) -> AtomicMeasure:
    """Exact torus measure on the (2R+1)**n product grid, R the table radius.

    The table is positive definite on the whole lattice and zero beyond its
    radius, so sum_k c_k e^(-ik.theta) is a nonnegative trigonometric
    polynomial.  Its samples at theta = 2 pi g / (2R+1), divided by
    (2R+1)**n, are atom weights whose moments reproduce every table entry:
    no two frequencies within the radius alias on that grid.  One FFT
    (numpy's fftn, whose kernel is e^(-ik.theta)) computes them all.
    Weights below the prune threshold (rounding can leave some slightly
    negative) are dropped.
    """
    n, size = table.n, 2 * table.radius + 1
    prune = weight_prune if weight_prune is not None else 1e-12 * max(1.0, table.mass)
    coeffs = np.zeros((size,) * n, dtype=complex)
    # negative indices wrap around, which is the periodic layout fftn expects
    coeffs[tuple(np.array(list(table.entries)).T)] = list(table.entries.values())
    weights = np.fft.fftn(coeffs).real.reshape(-1) / size**n
    angles = (2.0 * np.pi / size) * np.indices((size,) * n).reshape(n, -1).T
    keep = weights > prune
    return _unit_measure(angles[keep], weights[keep], n)


REFINE_ITERS = 200
DAMPING_CAP = 1e12
# refine fails at once when its rounding level exceeds its target this many times
PRECISION_HEADROOM = 1e3


def refine(
    measure: AtomicMeasure,
    table: FourierTable,
    tol: float,
    *,
    weight_base: float | None = None,
) -> AtomicMeasure:
    """Jointly polish atom angles and weights by damped Gauss-Newton.

    Minimizes the squared residual against the Fourier table over the
    canonical half box, each frequency weighted by weight_base**|k| so the
    objective tracks the original moment magnitudes.  The target is `tol`
    times max(1, largest weighted entry).  Weights are clamped nonnegative
    after every step and atoms stuck at zero weight for three accepted
    steps are removed.  Returns the input untouched when it already meets
    the target; raises ConvergenceFailure after REFINE_ITERS iterations or
    a stall otherwise.

    Before its first solve it raises ConvergenceFailure when the target is
    out of reach of double precision: the weighted moment sums carry a
    rounding error of about eps * ||weights||_2 * max weight, and a target
    more than PRECISION_HEADROOM times below that cannot be met.  This is
    safe because no refinement that succeeded on the benchmark workloads or
    the corpus of tools/corpus.py started above 10 times its target.
    """
    n = table.n
    base = weight_base if weight_base is not None else table.scale

    karr = _half_box(n, table.radius)
    kfloat = karr.astype(float)
    factors = base ** np.abs(karr).sum(axis=1)
    targets = _table_targets(table, karr)
    scale = max(1.0, float(np.max(factors * np.abs(targets))))
    imag_keep = np.any(karr, axis=1)

    def stacked(values: np.ndarray) -> np.ndarray:
        return np.concatenate([values.real, values.imag[imag_keep]])

    angles = np.angle(measure.atoms).reshape(-1, n).copy()
    weights = measure.weights.copy()

    def gap(a: np.ndarray, w: np.ndarray) -> np.ndarray:
        return factors * (_trig_moments(a, w, karr) - targets)

    def max_resid(g: np.ndarray) -> float:
        return float(np.max(np.abs(g))) if g.size else 0.0

    def weighted_design(a: np.ndarray) -> np.ndarray:
        E = np.exp(1j * (kfloat @ a.T)) * factors[:, None]
        return np.vstack([E.real, E.imag[imag_keep]])

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

    b = stacked(factors * targets)
    r = stacked(current)
    cost = float(r @ r)
    damping = 1e-3
    streak = np.zeros(len(weights), dtype=int)

    for _ in range(REFINE_ITERS):
        # exact weight block first (weights enter linearly, so the
        # constrained fit never increases the cost and zeroes out atoms
        # made redundant by clustering)
        refit = _nnls(weighted_design(angles), b)
        r_refit = stacked(gap(angles, refit))
        cost_refit = float(r_refit @ r_refit)
        if cost_refit <= cost:
            weights, r, cost = refit, r_refit, cost_refit

        streak = np.where(weights == 0.0, streak + 1, 0)
        if np.any(streak >= 3):
            keep = streak < 3
            weights, angles, streak = weights[keep], angles[keep], streak[keep]
            r = stacked(gap(angles, weights))
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
        J = np.vstack([Jc.real, Jc.imag[imag_keep]])
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
                r_try = stacked(gap(a_try, w_try))
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
# end-to-end synthesis
# ---------------------------------------------------------------------------


def _prescale_factor(espec: EmbeddedSpec, mass_relative: bool = False) -> float:
    """Dilation factor that tames the moment magnitudes.

    The mass-relative variant balances each moment against sqrt(mass),
    which keeps the synthesized torus radius small enough that monomial
    sums do not cancel catastrophically when the mass is tiny.
    """
    ref = float(np.sqrt(espec.mass.real)) if mass_relative else 1.0
    best = 0.0
    for k, v in zip(espec.box, np.asarray(espec.values)):
        total = sum(k)
        if total and abs(v) > 0.0:
            best = max(best, float(abs(v) / ref) ** (1.0 / total))
    if best == 0.0:
        return 1.0
    return float(np.clip(best, 1e-3, 1e3))


def _rescaled(espec: EmbeddedSpec, factor: float) -> EmbeddedSpec:
    powers = np.array([sum(k) for k in espec.box], dtype=float)
    values = np.asarray(espec.values) / factor ** powers
    return EmbeddedSpec(espec.n, espec.degree, espec.box, values)


def synthesize(spec: MomentSpec, config: SolverConfig | None = None) -> AtomicMeasure:
    """Solve a truncated moment problem by an explicit atomic measure.

    Gates on solvability (Unsolvable otherwise; the zero spec returns the
    zero measure), builds the commuting contraction tuple and its Fourier
    table, then synthesizes torus atoms.  The moments are pre-scaled in
    turn by 1 and by a magnitude-taming factor (unscaled first for one
    variable, scaled first beyond), then by a mass-relative factor.  Each
    pre-scaling tries, in order: the Toeplitz split for one variable or
    grid nonnegative least squares at `grid` points for two, then the FFT
    quadrature of the table (the only stage beyond two variables).  For
    n <= 2 a stage that misses the target is refined; beyond, the
    quadrature has (2R+1)**n atoms, too many for dense Gauss-Newton, and a
    miss moves on at once; a refinement whose target lies below its own
    rounding level fails at once too (see `refine`).  The first candidate
    whose residual meets the target is returned.  Otherwise the raised
    ConvergenceFailure lists every attempt in order, as its pre-scale
    factor, stage and reason.

    The returned measure's moments match the spec within
    tol * max(1, largest prescribed magnitude).
    """
    cfg = config if config is not None else SolverConfig()
    verdict = solvability(spec)
    if verdict.is_zero:
        return solve_zero(spec)
    if verdict.is_unsolvable:
        raise Unsolvable(verdict.reason)

    n = spec.n
    tol = cfg.resolved_tol(n)
    espec = embed(spec, cfg.box_degree)
    scale = max(1.0, float(np.max(np.abs(espec.values))))
    prune = 1e-12 * spec.mass.real

    # later rungs are fallbacks: poorly scaled data can sit at the edge of
    # double precision in one parametrization and be comfortable in another
    plain, magnitude = 1.0, _prescale_factor(espec)
    preferred = [plain, magnitude] if n == 1 else [magnitude, plain]
    factors = dict.fromkeys(preferred + [_prescale_factor(espec, mass_relative=True)])

    def finish(unit: AtomicMeasure, atom_radius: float) -> AtomicMeasure | None:
        atoms = atom_radius * np.exp(1j * np.angle(unit.atoms))
        candidate = AtomicMeasure(n, atoms, unit.weights, scale=atom_radius)
        if report(spec, candidate).max_residual <= tol * scale:
            return candidate
        return None

    attempts: list[tuple[float, str, str]] = []  # (pre-scale factor, stage, reason)
    for factor in factors:
        ops = build_tuple(_rescaled(espec, factor), margin=cfg.margin)
        table = fourier_table(ops, ops.degree)
        atom_radius = ops.scale * factor
        # n <= 2 runs its older stage before the quadrature: the benchmark's
        # smoke test (perfbench/test_smoke.py) requires that stage to run
        for stage in {1: ["split"], 2: ["grid"]}.get(n, []) + ["quadrature"]:
            try:
                if stage == "split":
                    line = [table.value((j,)) for j in range(ops.degree + 1)]
                    unit = cf_atoms_1d(line, tol=1e-8 * max(1.0, table.mass), weight_prune=prune)
                elif stage == "grid":
                    unit = grid_nnls(table, cfg.grid, weight_prune=prune)
                else:
                    unit = grid_quadrature(table, weight_prune=prune)
                done = finish(unit, atom_radius)
                if done is None and n <= 2:
                    unit = refine(unit, table, tol, weight_base=atom_radius)
                    done = finish(unit, atom_radius)
            except SolverError as exc:
                attempts.append((factor, stage, str(exc)))
                continue
            if done is not None:
                return done
            attempts.append((factor, stage, "synthesized measure misses the residual target"))
    raise ConvergenceFailure(
        "synthesis could not reach the residual target: "
        + "; ".join(f"(prescale {f:.6g}, {stage}) {reason}" for f, stage, reason in attempts)
    )
