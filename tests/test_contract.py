"""Property test of the residual contract in one to eight variables.

Every drawn spec is either solved within `SolverConfig().allowance(spec)`,
checked by direct extended-precision power sums, or refused with a
documented failure: `Unsolvable` exactly when the mass is not positive and
real, `ConvergenceFailure` with a reason otherwise.  No other exception may
escape, and the CLI's exit code follows the same outcome.

Each spec is a pure function of its seed (`draw_spec`), so a test id such as
`[seed17]` replays the same draw whether the file runs alone or in the full
suite.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import bounded, extended_residual
from momentsynth.cli import main
from momentsynth.documents import problem_to_doc, write_doc
from momentsynth.errors import ConvergenceFailure, Unsolvable
from momentsynth.lattice import MomentSpec, box
from momentsynth.synthesis import SolverConfig, synthesize

# only a spec of up to two variables that fills its exponent box of
# p = (d+1)**n entries reaches the older attempt, where two things still
# grow with the box: the split's (d+1) x (d+1) Toeplitz section at one
# variable, and the grid fit's m x m QR factors, m = 2p - 1, at two; the
# sweep's specs are drawn under this cap, so it stays
MAX_BOX = 256

PATTERNS = ("subset", "total", "single", "full")
# five parts positive to one part each of the masses that are not
MASSES = ("positive",) * 5 + ("negative", "zero", "complex")


def _polar(rng, low, high):
    """A complex value of modulus 10**e, e in [low, high], at a random phase."""
    return complex(10.0 ** bounded(rng, low, high) * np.exp(2j * math.pi * rng.random()))


def _mass(rng):
    kind = MASSES[rng.integers(len(MASSES))]
    if kind == "zero":
        return 0j
    if kind == "complex":
        return _polar(rng, -12.0, 3.0)
    size = 10.0 ** bounded(rng, -12.0, 3.0)
    return complex(size if kind == "positive" else -size)


def draw_spec(seed):
    """The spec of one seed: n = 1..8 variables on a box of degree d,
    (d+1)**n <= MAX_BOX; a random subset of the box, total degree <= d, a
    single moment beside the mass, or the full box; the mass over 15
    decades (or not positive and real), every other value over 24."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    top = max(d for d in range(1, MAX_BOX) if (d + 1) ** n <= MAX_BOX)
    degree = int(rng.integers(1, top + 1))
    full = box(n, degree)
    pattern = PATTERNS[rng.integers(len(PATTERNS))]
    if pattern == "subset":
        keep = rng.random(len(full) - 1) < 0.5
        indices = [full[0]] + [k for k, kept in zip(full[1:], keep) if kept]
    elif pattern == "total":
        indices = [k for k in full if sum(k) <= degree]
    elif pattern == "single":
        indices = [full[0], full[1 + rng.integers(len(full) - 1)]]
    else:
        indices = list(full)
    values = [_mass(rng)] + [_polar(rng, -12.0, 12.0) for _ in indices[1:]]
    return MomentSpec(n, tuple(indices), tuple(values))


def _outcome(spec) -> int:
    """The CLI exit code of the library's outcome, after checking it."""
    mass = spec.mass
    # an imaginary part within 1e-12 * max(1, |s0|) is read as rounding
    real = abs(mass.imag) <= 1e-12 * max(1.0, abs(mass))
    solvable = spec.is_zero() or (real and mass.real > 0.0)
    try:
        measure = synthesize(spec)
    except Unsolvable:
        assert not solvable
        return 2
    except ConvergenceFailure as exc:
        assert solvable and str(exc)
        return 3
    assert solvable
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)
    return 0


SWEEP = {f"seed{seed}": draw_spec(seed) for seed in range(400)}
# atoms of modulus 2257 whose degree-6 moment sums round at 2.4e-5 in
# extended precision: their residual, read as 2.7e-7, is 1.7e-6 exactly
SWEEP["n7-radius-2257"] = MomentSpec(
    7, ((0,) * 7, (1, 1, 1, 1, 1, 0, 1)),
    (1.6621302500819474e-06, 1.6621302500819474e-06 + 4.057094263576609e-17j))
# the unscaled torus has radius 1.6e12, where max(1, r)**26 is beyond a
# double: the rounding level must not raise OverflowError
SWEEP["n1-moment-26-of-1e12"] = MomentSpec(1, ((0,), (26,)), (1, 1e12))


# the decimal exponents of the least subnormal and the largest double
FULL_RANGE = (-323.5, 308.2)


def draw_full_range_spec(seed):
    """The spec of one seed over the whole double range: n = 1..4 variables,
    1..4 distinct nonzero exponents in {0..3}**n, the mass and every |s_k|
    at 10**e for e uniform on FULL_RANGE, every phase uniform."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    exponents = box(n, 3)[1:]
    count = min(int(rng.integers(1, 5)), len(exponents))
    chosen = sorted(rng.choice(len(exponents), size=count, replace=False))
    values = [complex(10.0 ** rng.uniform(*FULL_RANGE))] + [
        complex(10.0 ** rng.uniform(*FULL_RANGE) * np.exp(2j * math.pi * rng.random()))
        for _ in chosen]
    return MomentSpec(n, ((0,) * n,) + tuple(exponents[i] for i in chosen), tuple(values))


@pytest.mark.parametrize("spec", list(SWEEP.values()), ids=list(SWEEP))
def test_answer_within_contract_or_documented_failure(spec):
    _outcome(spec)


@pytest.mark.parametrize("seed", range(200), ids="full{}".format)
def test_full_range_answer_within_contract_or_documented_failure(seed):
    _outcome(draw_full_range_spec(seed))


@pytest.mark.parametrize("seed", range(400, 404), ids="seed{}".format)
def test_cli_exit_code_follows_the_outcome(seed):
    spec = draw_spec(seed)
    expected = _outcome(spec)
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "problem.json"
        write_doc(problem, problem_to_doc(spec))
        assert main(["solve", str(problem), str(Path(tmp) / "solution.json")]) == expected
