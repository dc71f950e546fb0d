import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import momentsynth.synthesis as synthesis
from conftest import random_box_spec
from momentsynth.dilation import FourierTable, fourier_table
from momentsynth.errors import ConvergenceFailure, NotPSD, Unsolvable
from momentsynth.lattice import EmbeddedSpec, MomentSpec, box
from momentsynth.measures import AtomicMeasure
from momentsynth.operators import build_tuple
from momentsynth.synthesis import (
    SolverConfig,
    cf_atoms_1d,
    grid_nnls,
    grid_quadrature,
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


def extended_relative_residual(spec, measure):
    """max |moment - prescribed| / max(1, max |prescribed|), with the
    measure's moments summed in extended precision here rather than by
    the package's own verifier."""
    atoms = np.asarray(measure.atoms).astype(np.clongdouble)
    weights = np.asarray(measure.weights).astype(np.longdouble)
    worst = 0.0
    for k, value in zip(spec.indices, spec.values):
        mono = np.ones(len(weights), dtype=np.clongdouble)
        for j, e in enumerate(k):
            mono *= atoms[:, j] ** e
        worst = max(worst, float(abs(mono @ weights - np.clongdouble(value))))
    return worst / max(1.0, max(abs(v) for v in spec.values))


def scaled_spec(spec, factor):
    return MomentSpec(spec.n, spec.indices, tuple(v * factor for v in spec.values))


def spy(monkeypatch, name):
    """Record the positional arguments of every call to a synthesis stage."""
    calls = []
    original = getattr(synthesis, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(synthesis, name, wrapper)
    return calls


def refine_outcomes(monkeypatch):
    """Record how every refine call ends: its failure message, or None."""
    outcomes = []
    original = synthesis.refine

    def wrapper(*args, **kwargs):
        try:
            result = original(*args, **kwargs)
        except ConvergenceFailure as exc:
            outcomes.append(str(exc))
            raise
        outcomes.append(None)
        return result

    monkeypatch.setattr(synthesis, "refine", wrapper)
    return outcomes


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


def test_grid_nnls_three_variables_full_grid(rng):
    # off-grid atoms: the coarse grid stage is not exact, refinement carries
    # it to the usual contract
    angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
    weights = np.array([0.5, 0.8])
    table = circle_table(3, 1, angles, weights)
    coarse = grid_nnls(table, 8)
    assert len(coarse) > 0
    assert coarse.weights.min() >= 0.0
    fine = refine(coarse, table, tol=1e-8)
    scale = max(1.0, max(abs(c) for c in table.entries.values()))
    assert table_residual(fine, table) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# grid quadrature
# ---------------------------------------------------------------------------


@st.composite
def box_tables(draw):
    """Fourier table of an arbitrary spec: positive mass, free complex tail,
    magnitudes over twelve decades, grids of at most 729 points."""
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(1, 4).filter(lambda d: (2 * d + 1) ** n <= 729))
    idx = box(n, degree)
    magnitude = st.floats(1e-6, 1e6)
    phase = st.floats(0.0, 2 * np.pi)
    values = [draw(magnitude) * np.exp(1j * draw(phase)) for _ in idx[1:]]
    espec = EmbeddedSpec(n, degree, idx, np.array([draw(magnitude)] + values, dtype=complex))
    return fourier_table(build_tuple(espec), degree)


@given(box_tables())
def test_grid_quadrature_weights_nonnegative_and_exact(table):
    # every grid point is kept, so these are the weights before pruning
    measure = grid_quadrature(table, weight_prune=-np.inf)
    assert len(measure) == (2 * table.radius + 1) ** table.n
    assert measure.weights.min() >= 0.0
    assert table_residual(measure, table) <= 1e-12 * table.mass


def test_grid_quadrature_prunes_zero_weights():
    # one atom at angle 0: 1 + 2 cos(theta) vanishes at the two other grid
    # points, and all the weight lands on the atom
    table = circle_table(1, 1, np.zeros((1, 1)), np.ones(1))
    measure = grid_quadrature(table)
    assert len(measure) == 1
    assert measure.weights[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_no_op_when_converged():
    angles = np.array([[0.3], [2.1]])
    weights = np.array([0.4, 0.7])
    table = circle_table(1, 2, angles, weights)
    measure = AtomicMeasure(1, np.exp(1j * angles), weights, scale=1.0)
    assert refine(measure, table, tol=1e-8) is measure


def test_refine_superresolves_off_grid_atom():
    angles = np.array([[0.55, 1.37]])
    weights = np.array([0.8])
    table = circle_table(2, 2, angles, weights)
    coarse = grid_nnls(table, 16)
    assert table_residual(coarse, table) > 1e-8  # off-grid: grid alone is not enough
    fine = refine(coarse, table, tol=1e-8)
    assert table_residual(fine, table) <= 1e-8
    assert fine.weights.min() >= 0.0


def test_refine_raises_at_iteration_cap():
    # a target just below roundoff cannot be met, though it is above the
    # rounding level the fail-fast guard screens out: the residual stalls
    angles = np.array([[0.55, 1.37]])
    table = circle_table(2, 2, angles, np.array([0.8]))
    coarse = grid_nnls(table, 4)
    with pytest.raises(ConvergenceFailure, match="stalled"):
        refine(coarse, table, tol=1e-18)


def test_refine_fails_fast_below_its_rounding_level(monkeypatch):
    angles = np.array([[0.55, 1.37]])
    table = circle_table(2, 2, angles, np.array([0.8]))
    coarse = grid_nnls(table, 4)
    fits = spy(monkeypatch, "_nnls")
    solves = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    with pytest.raises(ConvergenceFailure, match="rounding level"):
        refine(coarse, table, tol=1e-30)
    assert fits == [] and solves == []


@pytest.mark.parametrize("degree, seed", [(12, 1), (12, 35), (13, 4), (13, 36), (14, 11), (14, 27)])
def test_refine_solves_what_the_split_alone_misses(degree, seed, monkeypatch):
    # with refine stubbed out every one of these specs fails; the guard
    # must leave the refinements that succeed untouched
    outcomes = refine_outcomes(monkeypatch)
    spec, _ = random_instance(1, degree, 4, seed)
    measure = synthesize(spec)
    assert None in outcomes
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(1)


def test_refine_stops_damping_at_its_cap(monkeypatch):
    # once the damping is capped, a rejected step would be tried again on the
    # very same system; the stall must end the search instead (this atom
    # reaches the cap with tries to spare)
    angles = np.array([[0.1, 2.0]])
    table = circle_table(2, 2, angles, np.array([0.8]))
    coarse = grid_nnls(table, 4)
    matrices = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        matrices.append(np.array(a, copy=True))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    with pytest.raises(ConvergenceFailure, match="stalled"):
        refine(coarse, table, tol=1e-18)
    assert len(matrices) >= 2
    for before, after in zip(matrices, matrices[1:]):
        assert not np.array_equal(before, after)


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
    measure = synthesize(spec)
    scale = max(1.0, max(abs(v) for v in spec.values))
    assert report(spec, measure).max_residual <= 1e-6 * scale


def test_synthesize_respects_box_degree_override():
    spec = MomentSpec(1, ((0,), (1,)), (1, 0.5))
    measure = synthesize(spec, SolverConfig(box_degree=3))
    mass, first = measure_moments(measure, spec.indices)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert first == pytest.approx(0.5, abs=1e-8)


def test_synthesize_degree_13_meets_contract_in_extended_precision():
    # double-precision moments of degree 13 on a torus of radius about 4
    # are as inexact as the contract itself, so acceptance must not use them
    solved = 0
    for seed in range(40):
        spec, _ = random_instance(1, 13, 4, seed)
        try:
            measure = synthesize(spec)
        except ConvergenceFailure:
            continue
        assert extended_relative_residual(spec, measure) <= 1e-8, seed
        solved += 1
    # as many as double-precision acceptance solved within the contract
    assert solved >= 22


@pytest.mark.parametrize(
    "spec",
    [
        # wins on the second pre-scaling
        scaled_spec(
            random_instance(2, 2, 3, 468350122, radius=0.4188368971922585)[0],
            561.6401249734669,
        ),
        # wins on the third pre-scaling
        scaled_spec(
            random_instance(1, 4, 4, 263167733, radius=24.038088336133328)[0],
            685.7122838804714,
        ),
    ],
    ids=["n2-second-prescale", "n1-third-prescale"],
)
def test_synthesize_fallback_attempts_solve(spec, monkeypatch):
    splits = spy(monkeypatch, "cf_atoms_1d")
    grids = spy(monkeypatch, "grid_nnls")
    measure = synthesize(spec)
    assert len(splits) + len(grids) > 1  # the first attempt alone does not solve it
    tol = SolverConfig().resolved_tol(spec.n)
    assert extended_relative_residual(spec, measure) <= tol


def test_synthesize_three_variables_one_quadrature(monkeypatch):
    spec = random_instance(3, 2, 2, 674418157, radius=0.8544370464638581)[0]
    stages = {name: spy(monkeypatch, name)
              for name in ("cf_atoms_1d", "grid_nnls", "refine", "grid_quadrature")}
    measure = synthesize(spec)
    assert {name: len(calls) for name, calls in stages.items()} == {
        "cf_atoms_1d": 0, "grid_nnls": 0, "refine": 0, "grid_quadrature": 1,
    }
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(3)


def test_synthesize_one_variable_ladder_skips_the_grid(monkeypatch):
    grids = spy(monkeypatch, "grid_nnls")
    quadratures = spy(monkeypatch, "grid_quadrature")
    spec, _ = random_instance(1, 16, 4, 3)
    with pytest.raises(ConvergenceFailure):
        synthesize(spec)
    assert grids == []
    assert len(quadratures) == 3  # one per pre-scaling


def test_convergence_failure_lists_every_attempt():
    spec, _ = random_instance(1, 16, 4, 3)
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(spec)
    attempts = re.findall(r"\(prescale ([^,]+), (\w+)\) ", str(failure.value))
    assert [stage for _, stage in attempts] == ["split", "quadrature"] * 3
    assert len({factor for factor, _ in attempts}) == 3


@pytest.mark.parametrize(
    "spec",
    [
        random_instance(1, 24, 4, 3)[0],
        MomentSpec.from_items(2, [((0, 0), 1.0), ((9, 9), 0.5)]),
    ],
    ids=["n1-d24", "n2-only-9-9"],
)
def test_synthesize_fails_fast_where_refine_cannot_resolve(spec, monkeypatch):
    # every refinement on these specs sits below its own rounding level, so
    # each ends before its first least-squares solve
    outcomes = refine_outcomes(monkeypatch)
    fits = spy(monkeypatch, "_nnls")
    grids = spy(monkeypatch, "grid_nnls")
    with pytest.raises(ConvergenceFailure):
        synthesize(spec)
    assert outcomes
    assert all(outcome is not None and "rounding level" in outcome for outcome in outcomes)
    assert len(fits) == len(grids)  # only grid_nnls fits, never refine


def test_synthesize_two_variables_quadrature_after_grid(monkeypatch):
    grids = spy(monkeypatch, "grid_nnls")
    quadratures = spy(monkeypatch, "grid_quadrature")
    spec, _ = random_instance(2, 5, 4, 0)
    measure = synthesize(spec)
    assert [args[1] for args in grids] == [SolverConfig().grid]
    assert len(quadratures) == 1
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(2)


def test_synthesize_three_variables_never_refines(monkeypatch):
    # a miss on (2R+1)**n quadrature atoms fails instead of running dense
    # Gauss-Newton on all of them
    refines = spy(monkeypatch, "refine")
    spec, _ = random_instance(3, 4, 4, 3)
    with pytest.raises(ConvergenceFailure):
        synthesize(spec)
    assert refines == []


@pytest.mark.parametrize(
    "spec",
    [
        random_instance(3, 3, 4, 3)[0],
        random_instance(4, 2, 4, 3)[0],
        MomentSpec.from_items(6, [((0,) * 6, 1.0), ((1, 0, 0, 0, 0, 1), 0.5)]),
        random_instance(3, 2, 4, 2)[0],
    ],
    ids=["n3-d3", "n4-d2", "n6-one-moment", "n3-d2-seed2"],
)
def test_synthesize_beyond_two_variables_meets_contract(spec):
    measure = synthesize(spec)
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(spec.n)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid=0)
    with pytest.raises(ValueError):
        SolverConfig(margin=1.0)
    with pytest.raises(ValueError):
        SolverConfig(box_degree=0)
    assert SolverConfig().resolved_tol(1) == 1e-8
    assert SolverConfig().resolved_tol(2) == 1e-6
