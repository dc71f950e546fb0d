import ast
import concurrent.futures
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import momentsynth
import momentsynth.synthesis as synthesis
import momentsynth.verify as verify
from momentsynth.errors import Unsolvable
from momentsynth.lattice import MomentSpec, box
from momentsynth.measures import AtomicMeasure
from momentsynth.synthesis import functional_representation, synthesize
from momentsynth.verify import (
    Report,
    answer_refusal,
    measure_moments,
    random_instance,
    report,
    solvability,
)


def test_solvable_with_positive_mass():
    verdict = solvability(MomentSpec(1, ((0,), (1,)), (1, 7j)))
    assert verdict.is_solvable


def test_zero_case():
    verdict = solvability(MomentSpec(2, ((0, 0), (2, 1)), (0, 0)))
    assert verdict.is_zero


def test_unsolvable_zero_mass_nonzero_tail():
    verdict = solvability(MomentSpec(1, ((0,), (1,)), (0, 1)))
    assert verdict.is_unsolvable
    assert verdict.reason


def test_unsolvable_imaginary_mass():
    assert solvability(MomentSpec(1, ((0,),), (1j,))).is_unsolvable


def test_unsolvable_negative_mass():
    assert solvability(MomentSpec(1, ((0,),), (-1,))).is_unsolvable


def test_mass_imaginary_tolerance():
    spec = MomentSpec(1, ((0,),), (1 + 1e-14j,))
    assert solvability(spec).is_solvable


def test_moments_of_empty_measure():
    empty = AtomicMeasure.empty(2)
    assert measure_moments(empty, box(2, 1)) == (0j, 0j, 0j, 0j)


def test_moments_single_atom():
    measure = AtomicMeasure(2, np.array([[2.0, 1j]]), np.array([3.0]))
    (value,) = measure_moments(measure, [(1, 2)])
    assert value == pytest.approx(-6.0)


def test_moments_linearity(rng):
    a = AtomicMeasure(1, rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1)), rng.random(2))
    b = AtomicMeasure(1, rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1)), rng.random(3))
    union = AtomicMeasure(1, np.vstack([a.atoms, b.atoms]), np.concatenate([a.weights, b.weights]))
    k = box(1, 3)
    got = np.array(measure_moments(union, k))
    expect = np.array(measure_moments(a, k)) + np.array(measure_moments(b, k))
    assert np.allclose(got, expect)


@pytest.mark.parametrize("n, count, top", [
    (1, 5000, 40), (3, 3000, 40), (1, 200, 1600), (1, 40, 5000),
], ids=["1-5000", "3-3000", "degree-1600", "degree-5000"])
def test_moments_match_direct_sums(rng, n, count, top):
    # unordered, gapped exponents over enough atoms to span several blocks
    atoms = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    measure = AtomicMeasure(n, 1.1 * atoms / np.abs(atoms), rng.random(count))
    indices = [tuple(int(e) for e in k) for k in rng.integers(0, top, size=(12, n))]
    z = measure.atoms.astype(np.clongdouble)
    for k, got in zip(indices, measure_moments(measure, indices)):
        mono = np.prod([z[:, j] ** e for j, e in enumerate(k)], axis=0)
        expect = complex(mono @ measure.weights.astype(np.longdouble))
        assert abs(got - expect) <= 1e-15 * measure.total_mass * 1.1 ** sum(k)


def test_moments_dimension_mismatch():
    with pytest.raises(ValueError):
        measure_moments(AtomicMeasure.empty(2), [(1,)])


@pytest.mark.parametrize("measure", [
    AtomicMeasure(1, np.array([[2.0]]), np.array([1.0])),
    AtomicMeasure.empty(1),
])
def test_moments_reject_negative_exponent(measure):
    # a negative exponent must not index the powers from their far end
    with pytest.raises(ValueError, match="negative exponent"):
        measure_moments(measure, [(0,), (3,), (-1,)])


@pytest.mark.parametrize("measure", [
    AtomicMeasure(1, np.array([[0.5]]), np.array([1.0])),
    AtomicMeasure.empty(1),
])
def test_moments_reject_exponent_beyond_an_array_index(measure):
    with pytest.raises(ValueError, match=f"^exponent {10**20} exceeds the limit 65535$"):
        measure_moments(measure, [(0,), (3,), (10**20,)])


@pytest.mark.parametrize("measure", [
    AtomicMeasure(1, np.array([[0.5]]), np.array([1.0])),
    AtomicMeasure.empty(1),
])
def test_moments_reject_exponent_beyond_the_block(measure):
    # one atom's power table must fit a block of _BLOCK_ENTRIES entries
    assert len(measure_moments(measure, [(0,), (65535,)])) == 2
    with pytest.raises(ValueError, match="exponent 65536 exceeds the limit 65535"):
        measure_moments(measure, [(0,), (3,), (65536,)])


def test_report_hands_the_moment_sums_the_spec_exponents(monkeypatch):
    # the spec's own array, checked once when the spec was built
    spec, truth = random_instance(2, 3, 4, seed=1)
    seen, sums = [], verify.measure_moments
    monkeypatch.setattr(verify, "measure_moments",
                        lambda measure, indices: seen.append(indices) or sums(measure, indices))
    report(spec, truth)
    assert len(seen) == 1 and seen[0] is spec.exponents


def _exact_moments(measure, indices):
    """Moments of the stored doubles in exact rational arithmetic, as (re, im)."""
    top = [max(k[j] for k in indices) for j in range(measure.n)]
    sums = [[Fraction(0), Fraction(0)] for _ in indices]
    for z, w in zip(measure.atoms.tolist(), measure.weights.tolist()):
        powers = []
        for zj, t in zip(z, top):
            a, b = Fraction(zj.real), Fraction(zj.imag)
            column = [(Fraction(1), Fraction(0))]
            for _ in range(t):
                re, im = column[-1]
                column.append((re * a - im * b, re * b + im * a))
            powers.append(column)
        for total, k in zip(sums, indices):
            re, im = Fraction(w), Fraction(0)
            for column, e in zip(powers, k):
                c, d = column[e]
                re, im = re * c - im * d, re * d + im * c
            total[0] += re
            total[1] += im
    return sums


@pytest.mark.parametrize("n, indices, radius", [
    (1, box(1, 40), 0.5),
    (1, box(1, 40), 30.0),
    (2, box(2, 6), 1.7),
    (2, ((0, 0), (40, 0), (0, 40), (17, 23), (3, 1)), 1.2),
    (3, box(3, 3), 0.5),
    (3, ((0, 0, 0), (10, 0, 5), (2, 9, 1), (7, 7, 7)), 30.0),
    (4, box(4, 2), 2.0),
    (4, ((0, 0, 0, 0), (10, 10, 10, 10), (40, 0, 0, 0), (0, 1, 0, 39)), 30.0),
])
def test_moments_match_exact_rational_sums(rng, n, indices, radius):
    """|computed - exact| <= 2^-53 |exact| + (|k| + A + 2) u sum_a w_a |z_a^k|.

    The first term is the final rounding to double, the second the
    extended-precision products and sums; u is the epsilon of
    `np.longdouble`, so the bound holds also where that type is plain
    double.  One atom has zero weight.
    """
    count = 5
    moduli = radius * np.sqrt(rng.random((count, n)))
    atoms = moduli * np.exp(2j * np.pi * rng.random((count, n)))
    weights = rng.random(count)
    weights[2] = 0.0
    measure = AtomicMeasure(n, atoms, weights)
    u = float(np.finfo(np.longdouble).eps)
    exact = _exact_moments(measure, indices)
    for k, got, (re, im) in zip(indices, measure_moments(measure, indices), exact):
        err = abs(complex(float(Fraction(got.real) - re), float(Fraction(got.imag) - im)))
        size = float(sum(w * np.prod(np.abs(z) ** np.array(k)) for z, w in zip(atoms, weights)))
        bound = 2.0**-53 * abs(complex(float(re), float(im))) + (sum(k) + count + 2) * u * size
        assert err <= bound, (k, err, bound)


def test_moments_with_heads_too_many_for_one_integer_code():
    # 601 heads over 7 coordinates with exponents up to 600: numbering all
    # seven at once would need 601**7 > 2**63 codes
    angles = np.array([[0.1 * (j + 1) + a for j in range(8)] for a in (0.0, 0.7)])
    measure = AtomicMeasure(8, np.exp(1j * angles), np.array([0.25, 0.75]))
    indices = [(e,) * 8 for e in range(601)] + [(600, 0, 0, 0, 0, 0, 0, 1)]
    z = measure.atoms.astype(np.clongdouble)
    u = float(np.finfo(np.longdouble).eps)
    for k, got in zip(indices, measure_moments(measure, indices)):
        mono = np.prod([z[:, j] ** e for j, e in enumerate(k)], axis=0)
        expect = complex(mono @ measure.weights.astype(np.longdouble))
        assert abs(got - expect) <= 2.0**-52 + 4 * sum(k) * u


def _serial_moments(measure, indices):
    """measure_moments as one serial loop over the atom blocks: the reference
    that the threaded blocks must match bit for bit."""
    n = measure.n
    exps = np.array(indices, dtype=np.intp).reshape(-1, n)
    top = exps.max(axis=0)
    row, first = np.zeros(len(exps), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for j in range(n - 1):
        code = np.ravel_multi_index((row, exps[:, j]), (len(exps), top[j] + 1))
        _, first, row = np.unique(code, return_index=True, return_inverse=True)
    heads = exps[first, :-1].T
    count = len(first)
    width = max(1, verify._BLOCK_ENTRIES // (count + int(top.max()) + 1))
    acc = np.zeros((count, top[-1] + 1), dtype=np.clongdouble)
    atoms = measure.atoms.T.astype(np.clongdouble)
    weights = measure.weights.astype(np.clongdouble)
    for lo in range(0, len(measure), width):
        z = atoms[:, lo:lo + width]
        lead = np.empty((count, z.shape[1]), dtype=np.clongdouble)
        lead[:] = weights[lo:lo + width]
        for j in range(n):
            powers = np.empty((top[j] + 1, z.shape[1]), dtype=np.clongdouble)
            powers[0] = 1
            powers[1:] = z[j]
            np.multiply.accumulate(powers, axis=0, out=powers)
            if j < n - 1:
                lead *= powers[heads[j]]
        acc += np.dot(lead, powers.T)
    with np.errstate(over="ignore"):
        moments = acc[row, exps[:, -1]].astype(complex)
    return tuple(moments.tolist())


def _random_measure(rng, n, count, radius):
    moduli = radius * np.sqrt(rng.random((count, n)))
    atoms = moduli * np.exp(2j * np.pi * rng.random((count, n)))
    return AtomicMeasure(n, atoms, rng.random(count))


def _block_width(indices):
    """Atoms in one block of measure_moments for these exponents."""
    heads = {tuple(k[:-1]) for k in indices}
    return max(1, verify._BLOCK_ENTRIES // (len(heads) + max(map(max, indices)) + 1))


@pytest.mark.parametrize("seed", range(50), ids=lambda s: f"seed{s}")
def test_threaded_blocks_match_one_serial_loop(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    # 1 to 4 workers, whatever this machine's CPU count
    workers = int(rng.integers(1, 5))
    monkeypatch.setattr(verify, "_cpus", lambda: workers)
    n = 1 + seed % 4
    degree = int(rng.integers(1, (60, 10, 5, 3)[n - 1] + 1))
    indices = sorted({(0,) * n} | {tuple(map(int, k)) for k in rng.integers(0, degree + 1, size=(20, n))})
    blocks = (1, 2, 3, int(rng.integers(4, 21)))[seed // 4 % 4]
    width = _block_width(indices)
    count = int(rng.integers((blocks - 1) * width + 1, blocks * width + 1))
    measure = _random_measure(rng, n, count, float(rng.uniform(0.1, 10.0)))
    expect = _serial_moments(measure, indices)
    assert measure_moments(measure, indices) == expect


@pytest.mark.parametrize("blocks", [2, 3])
def test_threaded_blocks_match_one_serial_loop_with_eight_variables(blocks, monkeypatch):
    # the shape of test_moments_with_heads_too_many_for_one_integer_code
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    indices = [(e,) * 8 for e in range(601)] + [(600, 0, 0, 0, 0, 0, 0, 1)]
    width = _block_width(indices)
    rng = np.random.default_rng(blocks)
    measure = AtomicMeasure(
        8, np.exp(2j * np.pi * rng.random(((blocks - 1) * width + 1, 8))),
        rng.random((blocks - 1) * width + 1),
    )
    expect = _serial_moments(measure, indices)
    assert measure_moments(measure, indices) == expect


def test_moments_from_more_threads_than_cores(monkeypatch):
    # four callers with two workers each: twelve threads
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    rng = np.random.default_rng(7)
    cases = []
    for n, degree in ((1, 40), (2, 8), (3, 4), (2, 12)):
        indices = box(n, degree)
        cases.append((_random_measure(rng, n, 4 * _block_width(indices), 1.5), indices))
    expect = [_serial_moments(measure, indices) for measure, indices in cases]
    got = [None] * len(cases)

    def run(i):
        got[i] = measure_moments(*cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expect


def test_block_error_reaches_the_caller_and_stops_every_thread(monkeypatch):
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    indices = box(2, 6)
    measure = _random_measure(np.random.default_rng(3), 2, 5 * _block_width(indices), 1.0)
    dot, calls, lock = np.dot, [], threading.Lock()

    def failing_dot(*args, **kwargs):
        with lock:
            calls.append(None)
            second = len(calls) == 2
        if second:
            raise FloatingPointError("second block")
        return dot(*args, **kwargs)

    before = threading.active_count()
    monkeypatch.setattr(verify.np, "dot", failing_dot)
    with pytest.raises(FloatingPointError, match="second block"):
        measure_moments(measure, indices)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_blocks_keep_the_callers_floating_point_errstate(cpus, monkeypatch):
    # 14 blocks of 3 atoms whose 20,000th powers overflow even `clongdouble`
    monkeypatch.setattr(verify, "_cpus", lambda: cpus)
    measure = AtomicMeasure(1, np.full((40, 1), 1e300 + 0j), np.ones(40))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        measure_moments(measure, [(0,), (20000,)])


def test_one_block_calls_start_no_thread(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a one-block call started a thread")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    spec, measure = random_instance(2, 5, 60, 0)
    assert measure_moments(measure, spec.indices) == _serial_moments(measure, spec.indices)
    spec, _ = random_instance(1, 6, 4, 0)
    synthesize(spec)


def test_report_zero_case():
    spec = MomentSpec(1, ((0,), (1,)), (0, 0))
    rep = report(spec, AtomicMeasure.empty(1))
    assert rep.max_residual == 0.0
    assert rep.total_mass == 0.0
    assert rep.support_radius == 0.0
    assert rep.atom_count == 0


def test_report_residual_beyond_a_double_is_inf():
    # finite parts whose modulus overflows: Python's abs() would raise
    spec = MomentSpec(1, ((0,), (1,)), (1, 0))
    measure = AtomicMeasure(1, np.array([[1.5e308 + 1.5e308j]]), np.array([1.0]))
    rep = report(spec, measure)
    assert rep.residuals == (0.0, np.inf)
    assert rep.max_residual == np.inf


def _abs_residuals(spec, measure):
    """Python's abs() of each moment's gap, one index at a time, with inf
    where abs() overflows on finite parts; as float.hex, so that the list
    compares bit for bit and any NaN equals any NaN."""
    residuals = []
    for m, v in zip(measure_moments(measure, spec.indices), spec.values):
        try:
            residuals.append(abs(complex(m) - v))
        except OverflowError:
            residuals.append(np.inf)
    return [r.hex() for r in residuals]


@pytest.mark.parametrize("decades", [0, 300], ids=["unit", "wide"])
@pytest.mark.parametrize("seed", range(10), ids=lambda s: f"seed{s}")
def test_report_residuals_are_python_abs_bit_for_bit(seed, decades):
    # np.abs(z) differs from abs(z) in the last bit on about a third of
    # standard-normal draws, so most of these specs would catch it
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    indices = box(n, int(rng.integers(1, 4)))
    measure = _random_measure(rng, n, int(rng.integers(1, 6)), 1.0)
    size = len(indices)
    scales = 10.0 ** rng.uniform(-decades, decades, size)
    values = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scales
    spec = MomentSpec(n, indices, tuple(values.tolist()))
    assert [r.hex() for r in report(spec, measure).residuals] == _abs_residuals(spec, measure)


@pytest.mark.parametrize("atoms, exponent, value, quiet, last", [
    # finite parts whose modulus overflows: Python's abs() raises
    ([1.5e308 + 1.5e308j], 1, 0, {}, "inf"),
    # the moment 1e400 is beyond a double
    ([1e200], 2, 1j, {}, "inf"),
    # inf - inf in the extended-precision sums, which overflow on the way
    ([1e300, -1e300], 17, 0.5j, {"over": "ignore", "invalid": "ignore"}, "nan"),
], ids=["finite-parts", "beyond-a-double", "nan"])
def test_report_edge_residuals_are_python_abs(atoms, exponent, value, quiet, last):
    spec = MomentSpec(1, ((0,), (exponent,)), (1, value))
    measure = AtomicMeasure(1, np.array(atoms)[:, None], np.ones(len(atoms)))
    with np.errstate(**quiet):
        residuals = [r.hex() for r in report(spec, measure).residuals]
        assert residuals == _abs_residuals(spec, measure)
    assert residuals[-1] == last


def test_report_fields_consistent(rng):
    spec, truth = random_instance(2, 1, 3, seed=2)
    rep = report(spec, truth)
    assert rep.max_residual == max(rep.residuals)
    assert rep.atom_count == 3
    assert rep.total_mass == pytest.approx(truth.weights.sum())
    assert all(np.isfinite(r) for r in rep.residuals)


def test_random_instance_is_ground_truth():
    spec, truth = random_instance(2, 2, 3, seed=9)
    assert solvability(spec).is_solvable
    scale = max(1.0, max(abs(v) for v in spec.values))
    assert report(spec, truth).max_residual <= 1e-14 * scale


def test_random_instance_deterministic():
    a_spec, a_measure = random_instance(2, 2, 3, seed=31)
    b_spec, b_measure = random_instance(2, 2, 3, seed=31)
    assert a_spec.values == b_spec.values
    assert np.array_equal(a_measure.atoms, b_measure.atoms)
    assert np.array_equal(a_measure.weights, b_measure.weights)


def test_random_instance_respects_radius():
    _, truth = random_instance(2, 1, 50, seed=1, radius=0.25)
    assert np.max(np.abs(truth.atoms)) <= 0.25


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(1, 1, 0, seed=0)
    with pytest.raises(ValueError):
        random_instance(1, 1, 1, seed=0, radius=0.0)


def test_functional_point_evaluation():
    w = (0.3 + 0.4j, -0.2 + 0.1j)
    indices = box(2, 1)
    values = [w[0] ** k[0] * w[1] ** k[1] for k in indices]
    measure = functional_representation(indices, values)
    got = measure_moments(measure, indices)
    assert np.allclose(got, values, atol=1e-6)


def test_functional_requires_positive_constant():
    with pytest.raises(Unsolvable):
        functional_representation([(0,), (1,)], [0, 1])


def test_functional_zero_functional():
    measure = functional_representation([(0,), (1,)], [0, 0])
    assert len(measure) == 0


def test_functional_linearity_on_span():
    # integral of a polynomial equals the functional value combination
    indices = box(1, 2)
    values = [1.0, 0.5, 0.25 + 0.1j]
    measure = functional_representation(indices, values)
    coeffs = [2.0, -1.0, 3.0]
    integral = sum(
        c * m for c, m in zip(coeffs, measure_moments(measure, indices))
    )
    expect = sum(c * v for c, v in zip(coeffs, values))
    assert integral == pytest.approx(expect, abs=1e-7 * sum(map(abs, coeffs)))


def module_tree(module):
    with open(module.__file__, encoding="utf-8") as source:
        return ast.parse(source.read())


def test_acceptance_imports_nothing_from_the_solver():
    # verify.py owns the residual contract, the type of the moment sums and
    # their rounding level; the solver imports them, never the other way
    tree = module_tree(verify)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if "synthesis" in name}
    # of the package, only the modules of the problem and the measure
    assert {name for name in imported if name.startswith(".")} <= {".errors", ".lattice", ".measures"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "TYPE_CHECKING" not in names
    assert synthesis.SolverConfig is verify.SolverConfig is momentsynth.SolverConfig
    assert momentsynth.functional_representation is synthesis.functional_representation
    assert not hasattr(verify, "functional_representation")
    # the solver defines none of them nor the rules of acceptance, imports
    # neither the rounding level nor the weight floor, and names no long
    # double; it imports `report` by name, so that each call can be traced
    solver = module_tree(synthesis)
    defined = {node.name for node in ast.walk(solver)
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not defined & {"SolverConfig", "_log_rounding_level", "_log_weight_floor",
                          "_exp_text", "torus_refusal", "answer_refusal"}
    taken = {alias.asname or alias.name for node in ast.walk(solver)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not taken & {"_log_rounding_level", "_log_weight_floor"}
    assert {"report", "torus_refusal", "answer_refusal"} <= taken
    assert synthesis.report is verify.report
    attributes = {node.attr for node in ast.walk(solver) if isinstance(node, ast.Attribute)}
    assert not attributes & {"longdouble", "clongdouble"}


ALLOWANCE, TOP = 1e-8, 10


def reported(residual, weight, radius, top=TOP):
    """A report of one answer with this residual, total weight and support
    radius, on the exponents 0 and top."""
    return Report(indices=((0,), (top,)), residuals=(residual, residual),
                  max_residual=residual, total_mass=weight, support_radius=radius,
                  atom_count=1)


def edge_weight(radius):
    """The total weight at which u * W * max(1, radius)**TOP, the rounding
    level of the moment sums, equals ALLOWANCE."""
    return ALLOWANCE / (math.exp(verify._LOG_SUM_EPS) * max(1.0, radius) ** TOP)


def test_answer_rule_refuses_a_residual_above_the_allowance():
    assert answer_refusal(reported(ALLOWANCE, 1.0, 1.0), ALLOWANCE) is None
    assert (answer_refusal(reported(2.0 * ALLOWANCE, 1.0, 1.0), ALLOWANCE)
            == "synthesized measure misses the residual target")


@pytest.mark.parametrize("radius", [3.0, 1.0, 0.5, 0.0])
def test_answer_rule_refuses_sums_that_round_above_the_allowance(radius):
    # within the allowance, an answer is refused just above the rounding
    # level and accepted just below it; a support radius below 1, the empty
    # measure's 0 included, reads as 1
    above = answer_refusal(reported(ALLOWANCE, edge_weight(radius) * (1.0 + 1e-9), radius),
                           ALLOWANCE)
    assert above == "its moment sums round at 1.000e-08, above the residual target"
    weight = edge_weight(radius) * (1.0 - 1e-9)
    assert answer_refusal(reported(ALLOWANCE, weight, radius), ALLOWANCE) is None
    # the level grows with the top degree only beyond the unit torus
    higher = reported(ALLOWANCE, weight, radius, top=TOP + 1)
    assert (answer_refusal(higher, ALLOWANCE) is None) == (radius <= 1.0)


def test_answer_rule_accepts_a_weightless_answer():
    assert answer_refusal(reported(0.0, 0.0, 0.0), ALLOWANCE) is None
