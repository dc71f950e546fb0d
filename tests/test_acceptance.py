"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import moment_deviation, pd_section, random_box_spec
from momentsynth.cli import main
from momentsynth.dilation import fourier_table, psd_check
from momentsynth.errors import Unsolvable
from momentsynth.lattice import MomentSpec, embed
from momentsynth.measures import AtomicMeasure
from momentsynth.operators import build_tuple
from momentsynth.synthesis import SolverConfig, synthesize
from momentsynth.verify import random_instance, report, solvability


def _line(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _instances(count=100, seed=20240801):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        spec = random_box_spec(rng)
        out.append((spec, embed(spec)))
    return out


@pytest.fixture(scope="module")
def instances():
    return _instances()


@pytest.fixture(scope="module")
def tuples(instances):
    return [(spec, es, build_tuple(es)) for spec, es in instances]


def test_criterion_1_solvability_gate():
    start = time.perf_counter()
    ok = True
    ok &= solvability(MomentSpec(2, ((0, 0), (1, 1)), (1, 5 - 2j))).is_solvable
    zero_spec = MomentSpec(2, ((0, 0), (1, 1)), (0, 0))
    ok &= solvability(zero_spec).is_zero
    zero_measure = synthesize(zero_spec)
    ok &= len(zero_measure) == 0
    ok &= report(zero_spec, zero_measure).max_residual == 0.0
    ok &= solvability(MomentSpec(1, ((0,), (1,)), (0, 1))).is_unsolvable
    ok &= solvability(MomentSpec(1, ((0,),), (1 + 1e-3j,))).is_unsolvable
    try:
        synthesize(MomentSpec(1, ((0,), (1,)), (0, 1)))
        ok = False
    except Unsolvable:
        pass
    elapsed = time.perf_counter() - start
    _line(f"criterion 1: solvability gate table ({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_moment_identity():
    # construction included in the timing: the whole chain must run at
    # desk scale
    start = time.perf_counter()
    worst = 0.0
    for spec, es in _instances():
        ops = build_tuple(es)
        scale = max(1.0, max(abs(v) for v in spec.values))
        worst = max(worst, moment_deviation(ops, es) / scale)
    elapsed = time.perf_counter() - start
    _line(
        f"criterion 2: moment identity on 100 specs, worst {worst:.2e} <= 1e-10 "
        f"({elapsed:.2f}s < 5s)",
        worst <= 1e-10 and elapsed < 5.0,
    )


def test_criterion_3_commutation(tuples):
    worst = 0.0
    for _, _, ops in tuples:
        bound = max(np.linalg.norm(m) for m in ops.matrices) ** 2
        for i, j in itertools.combinations(range(ops.n), 2):
            comm = ops.matrices[i] @ ops.matrices[j] - ops.matrices[j] @ ops.matrices[i]
            worst = max(worst, np.linalg.norm(comm) / bound)
    _line(f"criterion 3: commutators, worst {worst:.2e} <= 1e-12", worst <= 1e-12)


def test_criterion_4_contraction_condition(tuples):
    worst = 0.0
    for _, _, ops in tuples:
        total = sum((np.linalg.norm(m) / ops.scale) ** 2 for m in ops.matrices)
        worst = max(worst, total)
    _line(
        f"criterion 4: contraction sums, worst {worst:.12f} <= 1/1.21",
        worst <= 1.0 / 1.21,
    )


def test_criterion_5_bochner_positivity(tuples):
    ok = True
    for spec, es, ops in tuples:
        table = fourier_table(ops, es.degree + 1)
        section = pd_section(table, es.degree + 1)
        passed, _ = psd_check(section, 1e-8 * spec.mass.real)
        ok &= passed
    _line("criterion 5: positive sections at radius degree+1 on 100 specs", ok)


def test_criterion_6_synthesis_one_variable():
    rng = np.random.default_rng(606)
    ok = True
    worst_time = 0.0
    for seed in range(25):
        degree = int(rng.integers(1, 4))
        natoms = int(rng.integers(1, 5))
        spec, _ = random_instance(1, degree, natoms, seed=seed)
        scale = max(1.0, max(abs(v) for v in spec.values))
        start = time.perf_counter()
        measure = synthesize(spec)
        worst_time = max(worst_time, time.perf_counter() - start)
        ok &= report(spec, measure).max_residual <= 1e-8 * scale
    _line(
        f"criterion 6: 25 one-variable oracles within 1e-8, slowest {worst_time:.2f}s < 1s",
        ok and worst_time < 1.0,
    )


def test_criterion_7_synthesis_two_variables():
    rng = np.random.default_rng(707)
    ok = True
    worst_time = 0.0
    for seed in range(10):
        degree = int(rng.integers(1, 3))
        natoms = int(rng.integers(1, 4))
        spec, _ = random_instance(2, degree, natoms, seed=100 + seed)
        scale = max(1.0, max(abs(v) for v in spec.values))
        start = time.perf_counter()
        measure = synthesize(spec)
        worst_time = max(worst_time, time.perf_counter() - start)
        ok &= report(spec, measure).max_residual <= 1e-6 * scale
    _line(
        f"criterion 7: 10 two-variable oracles within 1e-6, slowest {worst_time:.2f}s < 30s",
        ok and worst_time < 30.0,
    )


def test_criterion_8_compact_support():
    ok = True
    # two torus answers, then a pencil answer of three atoms
    for n, degree, seed, torus in ((1, 2, 41, True), (2, 2, 42, True), (1, 8, 43, False)):
        spec, _ = random_instance(n, degree, 3, seed=seed)
        measure = synthesize(spec)
        ok &= len(measure) > 0
        moduli = np.abs(measure.atoms)
        # scale is the support radius: every atom within it
        ok &= float(np.max(moduli)) <= measure.scale * (1.0 + 1e-12)
        if torus:
            gap = np.abs(moduli - measure.scale) / measure.scale
            ok &= float(np.max(gap)) <= 1e-12
        else:
            ok &= len(measure) == 3 and measure.scale == float(np.max(moduli))
    _line("criterion 8: every synthesized atom lies within the support radius `scale`,"
          " and torus answers on it", ok)


def test_criterion_9_dilation_covariance():
    ok = True
    for n, seed, tol in ((1, 51, 1e-8), (2, 52, 1e-6)):
        spec, _ = random_instance(n, 2, 3, seed=seed)
        scale = max(1.0, max(abs(v) for v in spec.values))
        for factor in (0.5, 2.0):
            scaled = MomentSpec(
                n,
                spec.indices,
                tuple(v * factor ** sum(k) for k, v in zip(spec.indices, spec.values)),
            )
            solved = synthesize(scaled)
            pulled = AtomicMeasure(
                n, solved.atoms / factor, solved.weights, scale=solved.scale / factor
            )
            ok &= report(spec, pulled).max_residual <= tol * scale
    _line("criterion 9: dilation covariance at factors 0.5 and 2", ok)


def test_criterion_10_cli_determinism(tmp_path):
    ok = True
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        problem = base / "prob.json"
        ok &= main(["random", str(problem), "--n", "2", "--d", "2", "--atoms", "3", "--seed", "13"]) == 0
        solution = base / "sol.json"
        ok &= main(["solve", str(problem), str(solution)]) == 0
        ok &= main(["verify", str(problem), str(solution)]) == 0
        ok &= main(["verify", str(problem), str(base / "prob.measure.json")]) == 0
    for name in ("prob.json", "prob.measure.json", "sol.json", "sol.report"):
        ok &= (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    ok &= main(["solve", str(broken), str(tmp_path / "x.json")]) == 1
    unsolvable = tmp_path / "unsolvable.json"
    unsolvable.write_text(
        '{"n":1,"moments":[{"k":[0],"re":0.0,"im":0.0},{"k":[1],"re":1.0,"im":0.0}]}',
        encoding="utf-8",
    )
    ok &= main(["solve", str(unsolvable), str(tmp_path / "y.json")]) == 2
    _line("criterion 10: CLI pipeline byte-stable and exit codes honored", ok)
