"""Seeded inputs of the three benchmark workloads.

Every workload is a list of operations built from the `--seed` argument;
the program only ever sees the generated `MomentSpec`s and documents.

* `univariate` loads the Toeplitz path of one variable (`cf_atoms_1d` and
  the bisection in `dilation.min_eigenvalue`), and through its failing
  degrees the whole fallback ladder.
* `multivariate` loads `grid_nnls` and `refine`; `min_eigenvalue` never
  runs there.
* `verify` loads document parsing and `verify.measure_moments` through the
  calls `momentsynth verify` makes; no synthesis runs.

The seed draws the many cheap specs.  The few expensive ones, which take
most of a pass, are a fixed list: their solve time varies widely across
instance seeds (about 0.14 s or 4-5 s for n=2 d=5), so drawing them would
make a pass time measure the draw instead of the code.  The fixed n=2 d=5
list holds one instance of each mode.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import momentsynth
from momentsynth.documents import measure_to_doc, problem_to_doc

# Degrees up to 10 solve today, within the contract with a wide margin.
# Seven degrees with seven instances each, 61 ops in all, put the median op
# of a pass in the middle of the d=8 group, the median atom count in the
# middle of d=7, and the p90 op (op_tail_s) in the middle of the two ops
# just below the five slowest, d=22 and "only (0),(40)", which take about
# the same time.  At the pair's top edge it would follow the slowest of
# its samples from run to run.
# Degrees 16 and up run the whole fallback ladder and fail.  Degrees 11-15
# are left out: there the program accepts some answers whose true residual
# exceeds the contract (see README.md), and a wrong answer ends the run.
UNIVARIATE_SOLVED_DEGREES = (4, 5, 6, 7, 8, 9, 10)
UNIVARIATE_SOLVED_INSTANCES = 7
# The ladder specs dominate the pass time, so like the expensive
# multivariate specs they are fixed: instance seed 3, as in the ROADMAP
# baseline.
UNIVARIATE_LADDER_DEGREES = tuple(range(16, 33, 2))
UNIVARIATE_LADDER_SEED = 3
ATOMS = 4

# (n, d, instances).  Per-instance times are steady within each group; the
# n=2 d=3 group is large enough to hold the median op of a pass.
MULTIVARIATE_SEEDED = ((3, 1, 3), (2, 2, 5), (2, 3, 14), (4, 1, 3), (2, 4, 5))
# (n, d, atoms, instance seed), ordered by solve time:
# - n=2 d=4 with one atom, seed 8, needs one short `refine` after the grid;
# - n=2 d=5 seeds 3 to 7 solve on the first stage (about 0.14 s) and
#   hold the p90 op; seed 0 takes the grid-doubling rungs (about 4 s);
# - n=3 d=2 seed 3 is the ROADMAP baseline, mostly `refine`.
# The ROADMAP spec s(1,0)=1e10, s(0,3)=-3e12i is not here: it crashes with
# `NotPositiveDefinite`, and a workload must hold no failing operation.
MULTIVARIATE_FIXED = (
    (2, 4, 1, 8),
    (2, 5, ATOMS, 3),
    (2, 5, ATOMS, 4),
    (2, 5, ATOMS, 5),
    (2, 5, ATOMS, 6),
    (2, 5, ATOMS, 7),
    (3, 2, ATOMS, 3),
    (2, 5, ATOMS, 0),
)

# (n, box degree, atoms, expected exit codes): solver-sized measures, then
# large ground truths with up to 441 prescribed indices.  Exit 0 is the
# ground truth itself; exit 4 is a copy with one weight moved by 1e-3 of
# the mass, far above any allowance.  The p75 op of a pass falls between
# the two n=2 d=20 pairs with 5,000 atoms, which take the same time.
VERIFY_PAIRS = (
    (1, 8, 10, (0, 4)),
    (2, 3, 25, (0, 4)),
    (2, 5, 60, (0, 4)),
    (3, 2, 125, (0, 4)),
    (1, 40, 100, (0, 4)),
    (1, 200, 2000, (0,)),
    (2, 20, 5000, (0,)),
    (2, 20, 5000, (4,)),
    (3, 6, 10000, (0, 4)),
    (2, 20, 20000, (0,)),
)


@dataclass(frozen=True)
class SolveOp:
    label: str
    spec: momentsynth.MomentSpec
    smoke: bool = False


@dataclass(frozen=True)
class VerifyOp:
    label: str
    problem: Path
    measure: Path
    spec: momentsynth.MomentSpec
    atoms: int
    expect: int  # exit code of `momentsynth verify` known by construction
    smoke: bool = False


def _instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def named_univariate() -> list[SolveOp]:
    """The n=1 specs of the ROADMAP baseline table that are not random."""
    items = [
        ("only (0),(40)", [((0,), 1.0), ((40,), 0.5)]),
        ("only (0),(20)", [((0,), 1.0), ((20,), 0.5)]),
        ("mass 1e-12, s1=1, s2=i", [((0,), 1e-12), ((1,), 1.0), ((2,), 1j)]),
    ]
    return [SolveOp(label, momentsynth.MomentSpec.from_items(1, pairs)) for label, pairs in items]


def univariate(seed: int) -> list[SolveOp]:
    per_degree = UNIVARIATE_SOLVED_INSTANCES
    seeds = iter(_instance_seeds(seed, per_degree * len(UNIVARIATE_SOLVED_DEGREES)))
    ops = []
    for d in UNIVARIATE_SOLVED_DEGREES:
        for i in range(per_degree):
            s = next(seeds)
            spec, _ = momentsynth.random_instance(1, d, ATOMS, s)
            ops.append(SolveOp(f"n=1 d={d} seed={s}", spec, smoke=(d == 4 and i == 0)))
    for d in UNIVARIATE_LADDER_DEGREES:
        spec, _ = momentsynth.random_instance(1, d, ATOMS, UNIVARIATE_LADDER_SEED)
        ops.append(SolveOp(f"n=1 d={d} seed={UNIVARIATE_LADDER_SEED}", spec))
    return ops + named_univariate()


def multivariate(seed: int) -> list[SolveOp]:
    seeds = iter(_instance_seeds(seed, sum(count for _, _, count in MULTIVARIATE_SEEDED)))
    ops = []
    for n, d, count in MULTIVARIATE_SEEDED:
        for s in itertools.islice(seeds, count):
            spec, _ = momentsynth.random_instance(n, d, ATOMS, s)
            ops.append(SolveOp(f"n={n} d={d} seed={s}", spec))
    for n, d, m, s in MULTIVARIATE_FIXED:
        spec, _ = momentsynth.random_instance(n, d, m, s)
        ops.append(SolveOp(f"n={n} d={d} atoms={m} seed={s}", spec, smoke=(m == 1)))
    return ops


def _perturbed(measure: momentsynth.AtomicMeasure) -> momentsynth.AtomicMeasure:
    weights = measure.weights.copy()
    weights[0] += 1e-3 * measure.total_mass
    return momentsynth.AtomicMeasure(measure.n, measure.atoms, weights, measure.scale)


def _write(path: Path, doc: dict) -> None:
    # Compact JSON: the indented form the program writes takes the pure-Python
    # encoder, which would make writing the inputs most of set-up.
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def verify(seed: int, workdir: Path, smoke: bool) -> list[VerifyOp]:
    """Problem/measure document pairs written under `workdir`."""
    pairs = VERIFY_PAIRS[:1] if smoke else VERIFY_PAIRS
    ops = []
    for index, ((n, d, m, codes), s) in enumerate(zip(pairs, _instance_seeds(seed, len(pairs)))):
        spec, measure = momentsynth.random_instance(n, d, m, s)
        problem = workdir / f"{index}.problem.json"
        _write(problem, problem_to_doc(spec))
        for expect in codes:
            path = workdir / f"{index}.{expect}.measure.json"
            _write(path, measure_to_doc(_perturbed(measure) if expect else measure))
            label = f"n={n} d={d} atoms={m} seed={s}" + (" perturbed" if expect else "")
            ops.append(VerifyOp(label, problem, path, spec, m, expect, smoke=(index == 0)))
    return ops


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list:
    """The workload's operations; with `smoke`, only its sub-second slice."""
    if workload == "univariate":
        ops = univariate(seed)
    elif workload == "multivariate":
        ops = multivariate(seed)
    elif workload == "verify":
        ops = verify(seed, workdir, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [op for op in ops if op.smoke] if smoke else ops
