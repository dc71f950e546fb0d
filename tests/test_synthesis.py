import itertools

import numpy as np
import pytest

from conftest import random_box_spec
from momentsynth.dilation import FourierTable
from momentsynth.errors import ConvergenceFailure, NotPSD, Unsolvable
from momentsynth.lattice import MomentSpec, box
from momentsynth.measures import AtomicMeasure
from momentsynth.synthesis import (
    SolverConfig,
    cf_atoms_1d,
    grid_nnls,
    refine,
    solve_zero,
    synthesize,
)
from momentsynth.verify import measure_moments, random_instance, report


def circle_table(n, radius, angles, weights, uniform=0.0):
    """Fourier table of a known unit-torus measure (independent of the
    operator pipeline), plus an optional uniform component at frequency 0."""
    angles = np.asarray(angles, dtype=float).reshape(-1, n)
    weights = np.asarray(weights, dtype=float)
    entries = {}
    for k in itertools.product(range(-radius, radius + 1), repeat=n):
        karr = np.asarray(k, dtype=float)
        value = complex(np.sum(weights * np.exp(1j * (angles @ karr))))
        if not any(k):
            value = complex(value.real + uniform)
        entries[k] = value
    return FourierTable(n, radius, 1.0, entries)


def table_residual(measure, table):
    angles = np.angle(measure.atoms)
    worst = 0.0
    for k, target in table.entries.items():
        karr = np.asarray(k, dtype=float)
        got = complex(np.sum(measure.weights * np.exp(1j * (angles @ karr))))
        worst = max(worst, abs(got - target))
    return worst


# ---------------------------------------------------------------------------
# zero measure
# ---------------------------------------------------------------------------


def test_solve_zero_returns_empty():
    spec = MomentSpec(2, ((0, 0), (1, 1)), (0, 0))
    measure = solve_zero(spec)
    assert len(measure) == 0
    assert measure_moments(measure, spec.indices) == (0j, 0j)
    assert report(spec, measure).max_residual == 0.0


def test_solve_zero_rejects_nonzero():
    with pytest.raises(ValueError):
        solve_zero(MomentSpec(1, ((0,),), (1,)))


# ---------------------------------------------------------------------------
# one-variable decomposition
# ---------------------------------------------------------------------------


def test_cf_pure_uniform():
    measure = cf_atoms_1d([1.0, 0.0], tol=1e-8)
    angles = np.sort(np.mod(np.angle(measure.atoms.ravel()), 2 * np.pi))
    assert len(measure) == 2
    assert np.allclose(measure.weights, [0.5, 0.5])
    assert angles[1] - angles[0] == pytest.approx(np.pi, abs=1e-12)
    first_moment = np.sum(measure.weights * measure.atoms.ravel())
    assert abs(first_moment) <= 1e-12


def test_cf_single_atom_recovery():
    w0, theta0 = 0.7, 1.1
    coeffs = [w0 * np.exp(1j * k * theta0) for k in range(3)]
    measure = cf_atoms_1d(coeffs, tol=1e-8)
    assert len(measure) == 1
    assert np.angle(measure.atoms[0, 0]) == pytest.approx(theta0, abs=1e-10)
    assert measure.weights[0] == pytest.approx(w0, abs=1e-10)


def test_cf_zero_mass():
    assert len(cf_atoms_1d([0.0], tol=1e-8)) == 0


def test_cf_rejects_non_psd():
    with pytest.raises(NotPSD):
        cf_atoms_1d([1.0, 2.0], tol=1e-10)


def test_cf_mixed_atomic_and_uniform(rng):
    for _ in range(10):
        m = int(rng.integers(1, 5))
        count = int(rng.integers(1, m + 1))
        angles = rng.uniform(0, 2 * np.pi, size=count)
        weights = rng.uniform(0.1, 1.0, size=count)
        uniform = float(rng.uniform(0.0, 0.5))
        coeffs = [
            complex(np.sum(weights * np.exp(1j * k * angles))) + (uniform if k == 0 else 0.0)
            for k in range(m + 1)
        ]
        measure = cf_atoms_1d(coeffs, tol=1e-8 * max(1.0, coeffs[0].real))
        got = [
            complex(np.sum(measure.weights * measure.atoms.ravel() ** k))
            for k in range(m + 1)
        ]
        assert np.allclose(got, coeffs, atol=1e-8)
        assert len(measure) <= 2 * m + 1
        assert measure.weights.min() >= 0.0


# ---------------------------------------------------------------------------
# grid nonnegative least squares
# ---------------------------------------------------------------------------


def test_grid_nnls_exact_recovery_on_grid():
    grid = 8
    line = 2 * np.pi * np.arange(grid) / grid
    angles = np.array([[line[1], line[3]], [line[5], line[0]]])
    weights = np.array([0.6, 0.9])
    table = circle_table(2, 2, angles, weights)
    measure = grid_nnls(table, grid)
    assert table_residual(measure, table) <= 1e-10


def test_grid_nnls_zero_table():
    table = circle_table(1, 2, np.zeros((0, 1)), np.zeros(0))
    assert len(grid_nnls(table, 8)) == 0


def test_grid_nnls_doubling_does_not_hurt(rng):
    angles = rng.uniform(0, 2 * np.pi, size=(3, 1))
    weights = rng.uniform(0.2, 1.0, size=3)
    table = circle_table(1, 3, angles, weights)
    res_small = table_residual(grid_nnls(table, 8), table)
    res_big = table_residual(grid_nnls(table, 16), table)
    assert res_big <= res_small + 1e-9


def test_grid_nnls_three_variables_greedy(rng):
    # the random-candidate stage is coarse by design; refinement carries it
    # to the usual contract
    angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
    weights = np.array([0.5, 0.8])
    table = circle_table(3, 1, angles, weights)
    coarse = grid_nnls(table, 128, seed=1)
    assert len(coarse) > 0
    assert coarse.weights.min() >= 0.0
    fine = refine(coarse, table, SolverConfig(tol=1e-8))
    scale = max(1.0, max(abs(c) for c in table.entries.values()))
    assert table_residual(fine, table) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_no_op_when_converged():
    angles = np.array([[0.3], [2.1]])
    weights = np.array([0.4, 0.7])
    table = circle_table(1, 2, angles, weights)
    measure = AtomicMeasure(1, np.exp(1j * angles), weights, scale=1.0)
    assert refine(measure, table) is measure


def test_refine_superresolves_off_grid_atom():
    angles = np.array([[0.55, 1.37]])
    weights = np.array([0.8])
    table = circle_table(2, 2, angles, weights)
    coarse = grid_nnls(table, 16)
    assert table_residual(coarse, table) > 1e-8  # off-grid: grid alone is not enough
    fine = refine(coarse, table, SolverConfig(tol=1e-8))
    assert table_residual(fine, table) <= 1e-8
    assert fine.weights.min() >= 0.0


def test_refine_raises_at_iteration_cap():
    angles = np.array([[0.55, 1.37]])
    table = circle_table(2, 2, angles, np.array([0.8]))
    coarse = grid_nnls(table, 4)
    with pytest.raises(ConvergenceFailure):
        refine(coarse, table, SolverConfig(tol=1e-14, max_refine_iters=1))


# ---------------------------------------------------------------------------
# end-to-end synthesis
# ---------------------------------------------------------------------------


def test_synthesize_zero_spec():
    spec = MomentSpec(2, ((0, 0), (1, 1)), (0, 0))
    assert len(synthesize(spec)) == 0


def test_synthesize_unsolvable():
    with pytest.raises(Unsolvable):
        synthesize(MomentSpec(1, ((0,), (1,)), (0, 1)))
    with pytest.raises(Unsolvable):
        synthesize(MomentSpec(1, ((0,),), (1j,)))
    with pytest.raises(Unsolvable):
        synthesize(MomentSpec(1, ((0,),), (-2,)))


def test_synthesize_wide_dynamic_range_fails_cleanly():
    # Solvable by a single atom, but beyond what the moment pre-scaling
    # handles today; it must end in the documented failure, not escape as
    # a factorization error.
    spec = MomentSpec(2, ((0, 0), (1, 0), (0, 3)), (1, 1e10, -3e12j))
    with pytest.raises(ConvergenceFailure):
        synthesize(spec)


def test_synthesize_one_variable_example():
    spec = MomentSpec(1, ((0,), (1,)), (1, 0.5))
    measure = synthesize(spec)
    mass, first = measure_moments(measure, spec.indices)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert first == pytest.approx(0.5, abs=1e-8)
    assert np.allclose(np.abs(measure.atoms), measure.scale, rtol=1e-12)


def test_synthesize_one_variable_oracles(rng):
    for seed in range(5):
        degree = int(rng.integers(1, 4))
        natoms = int(rng.integers(1, 5))
        spec, _ = random_instance(1, degree, natoms, seed=seed)
        measure = synthesize(spec)
        scale = max(1.0, max(abs(v) for v in spec.values))
        assert report(spec, measure).max_residual <= 1e-8 * scale


def test_synthesize_two_variable_oracle():
    spec, _ = random_instance(2, 2, 3, seed=11)
    measure = synthesize(spec)
    scale = max(1.0, max(abs(v) for v in spec.values))
    assert report(spec, measure).max_residual <= 1e-6 * scale


def test_synthesize_compact_support(rng):
    spec, _ = random_instance(2, 2, 2, seed=5)
    measure = synthesize(spec)
    assert len(measure) > 0
    assert np.allclose(np.abs(measure.atoms), measure.scale, rtol=1e-12)


def test_synthesize_dilation_covariance():
    spec, _ = random_instance(2, 2, 3, seed=23)
    tol = SolverConfig().resolved_tol(2)
    scale = max(1.0, max(abs(v) for v in spec.values))
    for factor in (0.5, 2.0):
        scaled_values = tuple(
            v * factor ** sum(k) for k, v in zip(spec.indices, spec.values)
        )
        scaled_spec = MomentSpec(spec.n, spec.indices, scaled_values)
        solved = synthesize(scaled_spec)
        pulled_back = AtomicMeasure(
            spec.n, solved.atoms / factor, solved.weights, scale=solved.scale / factor
        )
        assert report(spec, pulled_back).max_residual <= tol * scale


def test_synthesize_arbitrary_data_desk_scale(rng):
    # any positive mass is solvable, not just moments of actual measures
    for _ in range(4):
        n = int(rng.integers(1, 3))
        spec = random_box_spec(rng, n=n, degree=int(rng.integers(1, 3)))
        measure = synthesize(spec)
        scale = max(1.0, max(abs(v) for v in spec.values))
        tol = SolverConfig().resolved_tol(n)
        assert report(spec, measure).max_residual <= tol * scale


def test_synthesize_three_variables_best_effort():
    spec, _ = random_instance(3, 1, 2, seed=3)
    measure = synthesize(spec, SolverConfig(grid=192))
    scale = max(1.0, max(abs(v) for v in spec.values))
    assert report(spec, measure).max_residual <= 1e-6 * scale


def test_synthesize_respects_box_degree_override():
    spec = MomentSpec(1, ((0,), (1,)), (1, 0.5))
    measure = synthesize(spec, SolverConfig(box_degree=3))
    mass, first = measure_moments(measure, spec.indices)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert first == pytest.approx(0.5, abs=1e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid=0)
    with pytest.raises(ValueError):
        SolverConfig(margin=1.0)
    with pytest.raises(ValueError):
        SolverConfig(weight_prune=-1.0)
    assert SolverConfig().resolved_tol(1) == 1e-8
    assert SolverConfig().resolved_tol(2) == 1e-6
