"""Acceptance, which imports nothing from the solver: the solvability gate, the
residual contract, moment sums and their rounding level, reports, the two
rules that refuse a torus or an answer, test instances."""

from __future__ import annotations

import contextvars
import math
import os
import queue
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import MAX_EXPONENT, MomentSpec, MultiIndex, box, exponent_rows
from .measures import AtomicMeasure


@dataclass(frozen=True)
class Verdict:
    """Outcome of the solvability gate.

    kind is one of "solvable", "zero", "unsolvable".
    """

    kind: str
    reason: str | None = None

    @property
    def is_solvable(self) -> bool:
        return self.kind == "solvable"

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_unsolvable(self) -> bool:
        return self.kind == "unsolvable"


def solvability(spec: MomentSpec) -> Verdict:
    """Decide whether the spec admits a nonnegative representing measure.

    A positive real mass is sufficient; the all-zero spec is represented
    by the zero measure; everything else is unsolvable because the mass of
    a nonnegative measure is real and nonnegative, and zero mass forces
    every moment to vanish.
    """
    if spec.is_zero():
        return Verdict("zero")
    s0 = spec.mass
    # an imaginary part within 1e-12 * max(1, |s0|) is read as rounding
    if abs(s0.imag) > 1e-12 * max(1.0, spec.magnitudes[0]):
        return Verdict("unsolvable", reason=f"mass {s0} is not real")
    if s0.real <= 0.0:
        if s0.real == 0.0:
            return Verdict(
                "unsolvable",
                reason="zero mass with a nonzero moment prescribed",
            )
        return Verdict("unsolvable", reason=f"mass {s0.real} is negative")
    return Verdict("solvable")


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
        return self.resolved_tol(spec.n) * max(1.0, float(np.max(spec.magnitudes)))


# the type of the moment sums, and the log of its unit roundoff: the long
# double, 80-bit on x86-64 Linux, plain double under MSVC and on macOS arm64
_SUM = np.clongdouble
_LOG_SUM_EPS = math.log(float(np.finfo(_SUM).eps))
# entries in each per-block work array of measure_moments (2 MB in _SUM)
_BLOCK_ENTRIES = MAX_EXPONENT + 1


def _log_rounding_level(log_weight: float, log_radius: float, top: int) -> float:
    """Natural log of u * W * max(1, r)**top, W = exp(log_weight),
    r = exp(log_radius) and u the unit roundoff of `_SUM`: the rounding
    level of the long-double sums by which `measure_moments` takes the
    degree-`top` moments of the given double atoms of a measure of total
    weight W on the torus of radius r.  It does not bound the double
    rounding of those atoms' coordinates, which degree `top` multiplies by
    `top`: only the residual measures that.  Taken in logs, where no power
    can overflow."""
    return _LOG_SUM_EPS + log_weight + top * max(0.0, log_radius)


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        return os.cpu_count() or 1


def measure_moments(
    measure: AtomicMeasure, indices: Sequence[MultiIndex] | np.ndarray
) -> tuple[complex, ...]:
    """Monomial moments of an atomic measure at a spec's `exponents`, or at
    any indices that `lattice.exponent_rows` accepts (ValueError otherwise).

    The sums run in extended precision (`_SUM`) and each moment
    is rounded once to complex: in double precision a degree-d moment of
    atoms of modulus r carries an error near eps * r**d times the mass,
    which on the solver's tori is as large as the 1e-8 contract by d=12.
    The atoms are taken in blocks so that memory stays bounded, and each
    block is cast to `_SUM` as it is read.  In a block the powers of
    each coordinate are running products, one `np.multiply.accumulate`
    over a table 1, z, z, ... of coordinate-major atoms.  Each distinct
    exponent of all but the last coordinate (a head) is coded as one
    integer and gives one row of weight times head powers; the powers of
    the last coordinate enter through one matrix product.

    The blocks' products run in a thread pool with one worker per CPU in
    the process's affinity mask (`os.cpu_count()` where there is no mask),
    and no more workers than blocks; so a call that fits one block, or a
    process on one CPU, runs in the calling thread and starts no thread.
    Workers take blocks in turn from the pool's queue, at most two blocks
    per worker ahead of the sum.  The calling thread allocates every work
    array, one scratch buffer per worker and one product buffer per block
    in flight, and the workers only write into them: memory that a worker
    thread allocates and frees stays in that thread's malloc arena.
    The calling thread adds the products in block order, so every moment
    takes the same operands in the same order as in one serial loop over
    the blocks, whatever the worker count, and the results are
    bit-identical to that loop's.
    """
    n = measure.n
    exps = exponent_rows(indices, n)
    if not len(exps) or not len(measure):
        return (0j,) * len(exps)
    top = exps.max(axis=0)
    # Row of each index: its head, numbered one coordinate at a time so
    # that the code stays below len(indices) * (top + 1); one code over all
    # n - 1 coordinates could overflow.  n = 1 has one empty head.
    row, first = np.zeros(len(exps), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for j in range(n - 1):
        code = np.ravel_multi_index((row, exps[:, j]), (len(exps), top[j] + 1))
        _, first, row = np.unique(code, return_index=True, return_inverse=True)
    heads = exps[first, :-1].T
    count = len(first)
    rows = int(top.max()) + 1  # of the largest power table
    width = min(len(measure), max(1, _BLOCK_ENTRIES // (count + rows)))
    starts = range(0, len(measure), width)
    workers = min(_cpus(), len(starts))
    acc = np.zeros((count, top[-1] + 1), dtype=_SUM)
    # products of the blocks in flight; block b writes slot b % len(parts)
    parts = np.empty((min(2 * workers, len(starts)),) + acc.shape, dtype=_SUM)
    # Each worker's scratch holds its lead rows, its gathered head rows and
    # a power table.  One allocation holds them all: freed, it goes back to
    # the system whole, where separate buffers can leave holes in the heap.
    size = (2 * count + rows) * width
    work = np.empty(workers * size, dtype=_SUM)
    scratch = queue.SimpleQueue()
    for i in range(workers):
        scratch.put(work[i * size:(i + 1) * size])

    def block(b: int) -> None:
        # Flat buffers give C-contiguous views of the block's width, which
        # np.take and np.dot fill in place: every write below goes into them.
        buffer = scratch.get()
        try:
            z = measure.atoms[starts[b]:starts[b] + width]
            w = measure.weights[starts[b]:starts[b] + width]
            m = len(w)
            lead = buffer[:count * m].reshape(count, m)
            taken = buffer[count * width:count * (width + m)].reshape(count, m)
            table = buffer[2 * count * width:]
            lead[:] = w
            for j in range(n):
                powers = table[:(top[j] + 1) * m].reshape(top[j] + 1, m)
                powers[0] = 1
                powers[1:2] = z[:, j]  # one cast, then copies
                powers[2:] = powers[1:2]
                np.multiply.accumulate(powers, axis=0, out=powers)
                if j < n - 1:
                    # mode="raise" would check the indices through a copy
                    np.take(powers, heads[j], axis=0, out=taken, mode="clip")
                    lead *= taken
            np.dot(lead, powers.T, out=parts[b % len(parts)])
        finally:
            scratch.put(buffer)

    if workers == 1:
        for b in range(len(starts)):
            block(b)
            acc += parts[b % len(parts)]
    else:
        # imported here, so that importing the package loads no executor
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            pending = deque()
            try:
                # block b reuses the slot of block b - len(parts), so it is
                # queued only once that block's product has been added
                for b in range(len(starts) + len(parts)):
                    if b >= len(parts):
                        pending.popleft().result()
                        acc += parts[b % len(parts)]
                    if b < len(starts):
                        # in a copy of the caller's context, where its
                        # np.errstate holds
                        run = contextvars.copy_context().run
                        pending.append(pool.submit(run, block, b))
            finally:
                for future in pending:
                    future.cancel()
    # a moment beyond a double reads as inf, as `report` documents
    with np.errstate(over="ignore"):
        moments = acc[row, exps[:, -1]].astype(complex)
    return tuple(moments.tolist())


@dataclass(frozen=True)
class Report:
    """Residuals of a candidate measure against a spec, plus summary stats."""

    indices: tuple[MultiIndex, ...]
    residuals: tuple[float, ...]
    max_residual: float
    total_mass: float
    support_radius: float
    atom_count: int
    config: SolverConfig | None = None


def report(spec: MomentSpec, measure: AtomicMeasure, config: SolverConfig | None = None) -> Report:
    """Per-index residuals |moment - s_k|, bit for bit Python's abs() by
    `np.hypot`, and inf beyond a double even where abs() would raise."""
    moments = measure_moments(measure, spec.exponents)
    with np.errstate(over="ignore"):
        gaps = np.subtract(moments, spec.moments)
        residuals = tuple(np.hypot(gaps.real, gaps.imag).tolist())
    return Report(
        indices=spec.indices,
        residuals=residuals,
        max_residual=max(residuals),
        total_mass=measure.total_mass,
        support_radius=measure.support_radius,
        atom_count=len(measure),
        config=config,
    )


# the log of the largest double: a larger radius is refused outright
_LOG_DOUBLE_MAX = math.log(float(np.finfo(float).max))


def _log_weight_floor(magnitudes: np.ndarray, degrees: np.ndarray, allowance: float,
                      log_radius: float) -> float:
    """Natural log of the least total weight W of a measure on the torus of
    radius exp(log_radius) whose moments come within `allowance` of
    prescribed moments of these magnitudes and total degrees: such a moment
    has modulus at most W * radius**|k|, so W >= (|s_k| - allowance) /
    radius**|k| at every k, and the bound is -inf when no |s_k| exceeds the
    allowance.  Each |s_k| is first shrunk by 1e-12 of itself, more than the
    rounding of its modulus and of a residual, which would otherwise
    dominate the difference when |s_k| is within rounding of the allowance."""
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


def torus_refusal(magnitudes: np.ndarray, degrees: np.ndarray, allowance: float,
                  log_radius: float) -> str | None:
    """The torus screen: why no answer to moments of these magnitudes |s_k|
    and total degrees |k| on the torus of radius exp(log_radius) can pass
    `answer_refusal`, or None when one may.  The radius is beyond a double,
    or the least weight of an answer within the allowance a there
    (`_log_weight_floor`) puts the rounding level of its sums at the top
    degree above 2a; the 2 covers the rounding of the computed weight sum
    and residuals.  It compares logs, so no radius overflows it."""
    if log_radius > _LOG_DOUBLE_MAX:
        return f"radius {_exp_text(log_radius)} is beyond the range of a double"
    floor = _log_rounding_level(_log_weight_floor(magnitudes, degrees, allowance, log_radius),
                                log_radius, int(degrees.max()))
    if not floor > math.log(2.0) + math.log(allowance):
        return None
    return (f"moment sums on radius {_exp_text(log_radius)} round at {_exp_text(floor)}"
            f" or more, above the residual target {allowance:.3e}")


def answer_refusal(result: Report, allowance: float) -> str | None:
    """The answer rule: why the answer that `result` reports on is refused,
    or None when it is accepted: its residual is above the allowance, or
    the allowance lies below u * W * max(1, r)**top, the rounding level of
    its sums at the top degree of the reported indices (`_log_rounding_level`,
    W its total weight and r its support radius), where a residual measures
    nothing."""
    if result.max_residual > allowance:
        return "synthesized measure misses the residual target"
    weight = result.total_mass
    top = max(sum(k) for k in result.indices)
    level = _log_rounding_level(math.log(weight) if weight > 0.0 else -math.inf,
                                math.log(max(1.0, result.support_radius)), top)
    if level > math.log(allowance):
        return f"its moment sums round at {_exp_text(level)}, above the residual target"
    return None


def random_instance(
    n: int,
    degree: int,
    natoms: int,
    seed: int,
    radius: float = 1.0,
) -> tuple[MomentSpec, AtomicMeasure]:
    """Seeded ground-truth instance: a random measure and its exact moments.

    Atoms are uniform in the polydisc of the given radius, weights uniform
    in (0, 1].  The returned spec prescribes the measure's moments over the
    full box, so the measure is a known solution of the spec.
    """
    indices = box(n, degree)  # checks n and degree before any draw
    if natoms < 1:
        raise ValueError("at least one atom required")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    moduli = radius * np.sqrt(rng.random((natoms, n)))
    angles = 2.0 * np.pi * rng.random((natoms, n))
    atoms = moduli * np.exp(1j * angles)
    weights = 1.0 - rng.random(natoms)
    measure = AtomicMeasure(n, atoms, weights, scale=radius)
    values = measure_moments(measure, indices)
    return MomentSpec(n, indices, values), measure

