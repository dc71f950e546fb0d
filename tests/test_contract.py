"""Property test of the residual contract in one to eight variables.

Every drawn spec is either solved within `SolverConfig().allowance(spec)`,
checked by direct extended-precision power sums, or refused with a
documented failure: `Unsolvable` exactly when the mass is not positive and
real, `ConvergenceFailure` with a reason otherwise.  No other exception may
escape, and the CLI's exit code follows the same outcome.
"""

import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import extended_residual
from momentsynth.cli import main
from momentsynth.documents import problem_to_doc, write_doc
from momentsynth.errors import ConvergenceFailure, Unsolvable
from momentsynth.lattice import MomentSpec, box
from momentsynth.synthesis import SolverConfig, synthesize

# build_tuple holds a dense p x p matrix per variable over the exponent box
# of p = (d+1)**n entries, so the box is capped for memory and time
MAX_BOX = 256


def _magnitude(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


def _polar(size, phase):
    return size * complex(math.cos(phase), math.sin(phase))


_PHASE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _mass(draw):
    kind = draw(st.sampled_from(["positive"] * 5 + ["negative", "zero", "complex"]))
    size = draw(_magnitude(-12.0, 3.0))
    if kind == "positive":
        return complex(size)
    if kind == "negative":
        return complex(-size)
    if kind == "zero":
        return 0j
    return _polar(size, draw(_PHASE))


@st.composite
def specs(draw):
    """A spec in n = 1..8 variables on a box of degree d, (d+1)**n <= MAX_BOX:
    a random subset of the box, total degree <= d, a single moment beside
    the mass, or the full box; the mass over 15 decades (or not positive and
    real), every other value over 24."""
    n = draw(st.integers(1, 8))
    top = max(d for d in range(1, MAX_BOX) if (d + 1) ** n <= MAX_BOX)
    degree = draw(st.integers(1, top))
    full = box(n, degree)
    pattern = draw(st.sampled_from(["subset", "total", "single", "full"]))
    if pattern == "subset":
        keep = draw(st.lists(st.booleans(), min_size=len(full) - 1, max_size=len(full) - 1))
        indices = [full[0]] + [k for k, kept in zip(full[1:], keep) if kept]
    elif pattern == "total":
        indices = [k for k in full if sum(k) <= degree]
    elif pattern == "single":
        indices = [full[0], draw(st.sampled_from(full[1:]))]
    else:
        indices = list(full)
    values = [draw(_mass())] + [
        _polar(draw(_magnitude(-12.0, 12.0)), draw(_PHASE))
        for _ in indices[1:]
    ]
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


@settings(max_examples=120)
@given(specs())
# atoms of modulus 2257 whose degree-6 moment sums round at 2.4e-5 in
# extended precision: their residual, read as 2.7e-7, is 1.7e-6 exactly
@example(MomentSpec(7, ((0,) * 7, (1, 1, 1, 1, 1, 0, 1)),
                    (1.6621302500819474e-06, 1.6621302500819474e-06 + 4.057094263576609e-17j)))
# the unscaled torus has radius 1.6e12, where max(1, r)**26 is beyond a
# double: the rounding level must not raise OverflowError
@example(MomentSpec(1, ((0,), (26,)), (1, 1e12)))
def test_answer_within_contract_or_documented_failure(spec):
    _outcome(spec)


@settings(max_examples=4)
@given(specs())
def test_cli_exit_code_follows_the_outcome(spec):
    expected = _outcome(spec)
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "problem.json"
        write_doc(problem, problem_to_doc(spec))
        assert main(["solve", str(problem), str(Path(tmp) / "solution.json")]) == expected
