import itertools
import re
import tracemalloc

import numpy as np
import pytest

import momentsynth.synthesis as synthesis
from conftest import bounded, extended_relative_residual, extended_residual, random_box_spec
from test_contract import draw_spec
from momentsynth.cli import main
from momentsynth.dilation import FourierTable, fourier_table
from momentsynth.documents import problem_to_doc, write_doc
from momentsynth.errors import ConvergenceFailure, Unsolvable
from momentsynth.lattice import EmbeddedSpec, MomentSpec, box, embed
from momentsynth.measures import AtomicMeasure
from momentsynth.operators import build_tuple
from momentsynth.synthesis import (
    SolverConfig,
    cf_atoms_1d,
    grid_nnls,
    lattice_quadrature,
    refine,
    synthesize,
)
from momentsynth.verify import measure_moments, random_instance, report


def circle_table(n, radius, angles, weights, uniform=0.0):
    """Fourier table of a known unit-torus measure (independent of the
    operator pipeline), plus an optional uniform component at frequency 0."""
    angles = np.asarray(angles, dtype=float).reshape(-1, n)
    weights = np.asarray(weights, dtype=float)
    coeffs = np.empty((2 * radius + 1,) * n, dtype=complex)
    for k in signed_box(n, radius):
        karr = np.asarray(k, dtype=float)
        value = complex(np.sum(weights * np.exp(1j * (angles @ karr))))
        if not any(k):
            value = complex(value.real + uniform)
        coeffs[k] = value
    return FourierTable(n, radius, 1.0, coeffs)


def signed_box(n, radius):
    """Every signed index of a table of that radius."""
    return itertools.product(range(-radius, radius + 1), repeat=n)


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


def materialized(column, cols):
    """The design a column callback describes, one column at a time."""
    return np.column_stack([column(j) for j in range(cols)])


def table_residual(measure, table):
    angles = np.angle(measure.atoms)
    worst = 0.0
    for k in signed_box(table.n, table.radius):
        target = table.coeffs[k]
        karr = np.asarray(k, dtype=float)
        got = complex(np.sum(measure.weights * np.exp(1j * (angles @ karr))))
        worst = max(worst, abs(got - target))
    return worst


# ---------------------------------------------------------------------------
# zero measure
# ---------------------------------------------------------------------------


def test_solve_zero_returns_empty():
    spec = MomentSpec(2, ((0, 0), (1, 1)), (0, 0))
    measure = synthesize(spec)
    assert len(measure) == 0
    assert measure_moments(measure, spec.indices) == (0j, 0j)
    assert report(spec, measure).max_residual == 0.0


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
    with pytest.raises(ConvergenceFailure, match="Toeplitz section fails positivity"):
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


def test_grid_nnls_fits_only_the_given_indices():
    # the half box has 25 real rows; the nine exponents of box(2, 2) have
    # 17, and the fit keeps no more atoms than that
    grid = 8
    line = 2 * np.pi * np.arange(grid) / grid
    angles = np.array([[line[1], line[3]], [line[5], line[0]], [line[2], line[7]]])
    table = circle_table(2, 2, angles, np.array([0.6, 0.9, 0.3]))
    indices = box(2, 2)
    measure = grid_nnls(table, grid, indices=indices)
    assert 0 < len(measure) <= 17
    got = measure_moments(measure, indices)
    for k, value in zip(indices, got):
        assert abs(value - table.coeffs[k]) <= 1e-12


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
    scale = max(1.0, float(np.max(np.abs(table.coeffs))))
    assert table_residual(fine, table) <= 1e-8 * scale


def nnls_problem(seed):
    """Least-squares problems with entries in [-1, 1]: general right-hand
    sides, designs with duplicated columns, exact fits b = A x0 with a
    sparse x0 >= 0, and b = 0."""
    rng = np.random.default_rng(seed)
    m, cols = int(rng.integers(1, 41)), int(rng.integers(1, 201))
    kind = ("general", "duplicated", "exact", "zero")[rng.integers(4)]
    A = rng.uniform(-1.0, 1.0, (m, cols))
    if kind == "duplicated":
        # the last half of the columns repeat columns of the first half
        A[:, cols - cols // 2:] = A[:, rng.integers(0, cols - cols // 2, size=cols // 2)]
    if kind == "exact":
        x0 = np.where(rng.random(cols) < 0.1, rng.random(cols), 0.0)
        return A, A @ x0
    if kind == "zero":
        return A, np.zeros(m)
    return A, rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.integers(-3, 4)


@pytest.mark.parametrize("seed", range(100), ids="seed{}".format)
def test_lawson_hanson_matches_scipy(seed):
    from scipy.optimize import nnls

    A, b = nnls_problem(seed)
    # the core with dense callbacks: column j of A, and A.T @ r
    x = synthesis._lawson_hanson(lambda j: A[:, j], lambda r: A.T @ r, A.shape[1], b,
                                 float(np.abs(A).max()))
    reference, _ = nnls(A, b, maxiter=max(10 * A.shape[1], 1000))
    scale = max(1.0, float(np.linalg.norm(b)))
    assert x.min() >= 0.0
    objective = np.linalg.norm(A @ x - b)
    assert abs(objective - np.linalg.norm(A @ reference - b)) <= 1e-12 * scale
    # Karush-Kuhn-Tucker: no column at zero could lower the objective
    gradient = A.T @ (b - A @ x)
    assert np.all(gradient[x == 0.0] <= 1e-12 * scale)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_lawson_hanson_keeps_scipy_support_on_grid_designs(degree, seed, monkeypatch):
    from scipy.optimize import nnls

    # the grid fit never forms its design; built here from its columns, it
    # is the problem scipy solves, and the matrix-free fit keeps its support
    solve = synthesis._lawson_hanson
    fits = spy(monkeypatch, "_lawson_hanson")
    synthesize(random_instance(2, degree, 4, seed)[0])
    assert fits
    for column, gradient, cols, b, amax in fits:
        A = materialized(column, cols)
        assert float(np.abs(A).max()) == amax == 1.0
        reference, _ = nnls(A, b, maxiter=max(10 * cols, 1000))
        x = solve(column, gradient, cols, b, amax)
        assert np.array_equal(np.flatnonzero(x), np.flatnonzero(reference))


def grid_design(karr, grid):
    """Reference design of the grid fit, from float phases k.theta: cosines
    for every exponent, then sines for the nonzero ones."""
    n = karr.shape[1]
    angles = 2 * np.pi * np.indices((grid,) * n).reshape(n, -1).T / grid
    phases = karr.astype(float) @ angles.T
    return np.vstack([np.cos(phases), np.sin(phases)[np.any(karr, axis=1)]])


@pytest.mark.parametrize(
    "n, radius, grid, indices",
    [
        (1, 3, 16, None),
        (2, 2, 8, None),  # the half box holds negative exponents
        (3, 1, 8, None),
        (2, 5, 4, box(2, 5)),  # grid below the degree: exponents alias
        (2, 9, 8, ((0, 0), (9, 9))),
        (2, 3, 16, random_box_spec(np.random.default_rng(5), n=2, degree=3).indices),
    ],
    ids=["n1-half-box", "n2-half-box", "n3-half-box", "n2-d5-grid4", "n2-only-9-9", "n2-sparse-d3"],
)
def test_grid_gradient_is_the_dense_product(n, radius, grid, indices, monkeypatch):
    rng = np.random.default_rng(7)
    angles = rng.uniform(0, 2 * np.pi, size=(3, n))
    table = circle_table(n, radius, angles, np.array([0.5, 0.8, 0.3]))
    fits = spy(monkeypatch, "_lawson_hanson")
    grid_nnls(table, grid, indices=indices)
    (column, gradient, cols, b, amax), = fits
    A = grid_design(synthesis._rows(table, indices), grid)
    rows = A.shape[0]
    assert (len(b), cols, amax) == (rows, grid**n, 1.0)
    assert np.abs(materialized(column, cols) - A).max() <= 1e-13
    for size in (1e-3, 1.0, 1e3):
        r = size * rng.standard_normal(rows)
        bound = 1e-13 * max(1.0, float(np.linalg.norm(r))) * rows
        assert np.abs(gradient(r) - A.T @ r).max() <= bound


def test_grid_nnls_allocation_peak_stays_below_a_megabyte():
    # the dense 71 x 4096 design of this fit took 2.3 MB, and building it
    # peaked near 6 MB
    spec, _ = random_instance(2, 5, 4, 3)
    ops = build_tuple(embed(spec))
    table = fourier_table(ops, ops.degree)
    grid_nnls(table, 64, indices=spec.indices)  # first-call setup is not traced
    tracemalloc.start()
    try:
        grid_nnls(table, 64, indices=spec.indices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# ---------------------------------------------------------------------------
# grid quadrature of the Fourier table
# ---------------------------------------------------------------------------


def box_table(seed):
    """Fourier table of an arbitrary spec: positive mass, free complex tail,
    magnitudes over twelve decades, grids of at most 729 points."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    top = max(d for d in range(1, 5) if (2 * d + 1) ** n <= 729)
    degree = int(rng.integers(1, top + 1))
    idx = box(n, degree)
    mass = 10.0 ** bounded(rng, -6.0, 6.0)
    values = [mass] + [10.0 ** bounded(rng, -6.0, 6.0) * np.exp(2j * np.pi * rng.random())
                       for _ in idx[1:]]
    espec = EmbeddedSpec(n, degree, np.array(values, dtype=complex))
    return fourier_table(build_tuple(espec), degree)


@pytest.mark.parametrize("seed", range(100), ids="seed{}".format)
def test_grid_quadrature_weights_nonnegative_and_exact(seed):
    # The table is positive definite and zero beyond its radius R, so its
    # samples on the (2R+1)**n product grid, one FFT, are the weights of an
    # exact quadrature of the whole table.  The solver does not use this
    # grid; the check is one of the table's positivity.
    table = box_table(seed)
    size = 2 * table.radius + 1
    weights = np.fft.fftn(table.coeffs).real.reshape(-1) / size**table.n
    angles = (2.0 * np.pi / size) * np.indices((size,) * table.n).reshape(table.n, -1).T
    measure = AtomicMeasure(table.n, np.exp(1j * angles), weights, scale=1.0)
    assert len(measure) == size**table.n
    assert measure.weights.min() >= 0.0
    assert table_residual(measure, table) <= 1e-12 * table.mass


# ---------------------------------------------------------------------------
# rank-1 lattice quadrature
# ---------------------------------------------------------------------------


def with_positive_mass(spec):
    """The spec with its mass replaced by its modulus, or by 1 when it is 0."""
    mass = abs(spec.mass) or 1.0
    return MomentSpec(spec.n, spec.indices, (mass,) + spec.values[1:])


def lattice_of(unit):
    """Node count N and generating vector z of a lattice answer: node g of
    the unit measure has angles 2 pi (g z mod N) / N."""
    size = len(unit)
    z = np.rint(np.angle(unit.atoms[1 % size]) * size / (2.0 * np.pi)).astype(np.int64) % size
    return size, z


@pytest.mark.parametrize("seed", range(100), ids="seed{}".format)
def test_lattice_quadrature_is_exact_and_positive_on_the_sweep(seed):
    # draw_spec of tests/test_contract.py: one to eight variables, values
    # over 24 decades, sparse and full boxes
    spec = with_positive_mass(draw_spec(seed))
    unit, t = lattice_quadrature(spec)
    size, z = lattice_of(unit)
    karr = np.array(spec.indices, dtype=np.int64)
    freqs = np.concatenate([karr, -karr[1:]])
    # k -> k.z mod N is injective on P = spec u -spec, and every node is an atom
    assert len(set(((freqs @ z) % size).tolist())) == len(freqs) == 2 * len(spec.indices) - 1
    nodes = (np.outer(np.arange(size), z) % size) * (2.0 * np.pi / size)
    assert np.abs(np.exp(1j * nodes) - unit.atoms).max() <= 1e-12
    if spec.n == 1:
        # one candidate per node count: N is the least from |P| on that separates P
        assert not any(len(set((freqs[:, 0] % m).tolist())) == len(freqs)
                       for m in range(len(freqs), size))
    else:
        # a Korobov lattice below 2|P| nodes, or else the product lattice
        assert size < 2 * len(freqs) or size == np.prod(2 * karr.max(axis=0) + 1)
    # every weight is positive, at least the node floor's share
    s0 = spec.mass.real
    assert unit.weights.min() * size >= synthesis.NODE_FLOOR * s0 * (1.0 - 1e-9)
    # on the unit torus the answer reproduces s_k e^(-t|k|) at every
    # prescribed k, up to the rounding of its N weights
    got = np.exp(1j * (karr @ np.angle(unit.atoms).T)).astype(np.clongdouble) @ unit.weights
    values = np.array(spec.values)
    with np.errstate(divide="ignore"):  # a zero value has log -inf, and wants 0
        wanted = np.exp(np.log(np.abs(values)) - t * karr.sum(axis=1)) * np.exp(1j * np.angle(values))
    assert np.abs(got - wanted).max() <= 1e-12 * s0


def test_lattice_quadrature_radius_is_the_node_positivity_radius():
    # (0),(40) on three nodes: P_t = 1 + 0.5 e^(-40t) * 2 cos(40 theta) has
    # its least node value 1 - 0.5 e^(-40t) at theta = 2 pi / 3 and 4 pi / 3
    spec = MomentSpec.from_items(1, [((0,), 1.0), ((40,), 0.5)])
    unit, t = lattice_quadrature(spec)
    assert len(unit) == 3
    least = np.log(0.5 / (1.0 - synthesis.NODE_FLOOR)) / 40.0
    # the search narrows [t_lo, t_lo + log(2 / (1 - floor))] 32**3 times
    assert least <= t <= least + np.log(2.0 / (1.0 - synthesis.NODE_FLOOR)) / 32**3
    assert unit.weights.min() >= synthesis.NODE_FLOOR / 3.0


def test_lattice_quadrature_mass_alone_is_one_atom():
    unit, t = lattice_quadrature(MomentSpec(3, ((0, 0, 0),), (2.5,)))
    assert (len(unit), t) == (1, 0.0)
    assert unit.weights[0] == pytest.approx(2.5)


def test_lattice_falls_back_to_the_product_lattice():
    # |P| = 3, and 60 is 0 mod 3, 4 and 5, so no Korobov vector of a node
    # count below 2|P| separates (0,0), (60,0) and (-60,0); the product
    # lattice has (2 * 60 + 1) * 1 nodes
    spec = MomentSpec.from_items(2, [((0, 0), 1.0), ((60, 0), 0.25)])
    unit, t = lattice_quadrature(spec)
    assert len(unit) == 121
    measure = AtomicMeasure(2, np.exp(t) * unit.atoms, unit.weights, np.exp(t))
    assert extended_relative_residual(spec, measure) <= 1e-12


def test_synthesize_one_variable_searches_every_node_count():
    # one variable has one candidate per node count, so the search goes on
    # past 2|P| = 6 to N = 7, the least from 3 on that divides neither 60
    # nor 120, short of the 121-node product lattice
    spec = MomentSpec.from_items(1, [((0,), 1.0), ((60,), 0.25)])
    measure = synthesize(spec)
    assert len(measure) == 7
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(1)


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
    fits = spy(monkeypatch, "_clamped_least_squares")
    solves = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    with pytest.raises(ConvergenceFailure, match="rounding level"):
        refine(coarse, table, tol=1e-30)
    assert fits == [] and solves == []


@pytest.mark.parametrize("args", [(2, 4, 1, 8), (2, 5, 4, 0), (2, 5, 4, 4)],
                         ids="n{0[0]}-d{0[1]}-atoms{0[2]}-seed{0[3]}".format)
def test_refine_refit_matches_scipy_nnls(args, monkeypatch):
    from scipy.optimize import nnls

    # the weighted designs refine builds on these specs are square with
    # condition numbers 2e9-5e10; their least-squares weights are
    # nonnegative, so they solve the constrained fit scipy's nnls solves,
    # and both residuals are rounding: they differed by 2.5e-8 to 1.2e-7 of
    # ||b|| when measured
    refit = synthesis._clamped_least_squares
    systems = spy(monkeypatch, "_clamped_least_squares")
    synthesize(random_instance(*args)[0])
    assert systems
    for A, b in systems:
        weights = np.linalg.lstsq(A, b, rcond=None)[0]
        assert weights.min() >= 0.0
        assert np.array_equal(refit(A, b), weights)
        reference, _ = nnls(A, b, maxiter=max(10 * A.shape[1], 1000))
        gap = np.linalg.norm(A @ weights - b) - np.linalg.norm(A @ reference - b)
        assert abs(gap) <= 1e-6 * np.linalg.norm(b)


def test_refine_clamps_a_negative_least_squares_refit(monkeypatch):
    # four atoms for a two-atom measure: the least-squares weights of the
    # first refits go negative, and refine must still end with a measure
    table = circle_table(1, 3, np.array([[0.3], [2.1]]), np.array([0.4, 0.7]))
    angles = np.array([0.3, 1.2, 2.0, 2.2])
    start = AtomicMeasure(1, np.exp(1j * angles), np.full(4, 0.3), scale=1.0)
    systems = spy(monkeypatch, "_clamped_least_squares")
    try:
        fine = refine(start, table, tol=1e-10)
    except ConvergenceFailure:
        pass
    else:
        assert fine.weights.min() >= 0.0
    assert any(np.linalg.lstsq(A, b, rcond=None)[0].min() < 0.0 for A, b in systems)


@pytest.mark.parametrize("args", [(2, 4, 1, 8), (2, 5, 4, 4), (2, 5, 4, 0)],
                         ids="n{0[0]}-d{0[1]}-atoms{0[2]}-seed{0[3]}".format)
def test_refine_solves_what_the_grid_fit_alone_misses(args, monkeypatch):
    # the grid fit alone misses on every one of these specs, so refine runs;
    # its guard must leave the refinements that succeed untouched, and its
    # answer is accepted without the lattice stage
    outcomes = refine_outcomes(monkeypatch)
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(*args)
    measure = synthesize(spec)
    assert (outcomes, lattices) == ([None], [])
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(2)


@pytest.mark.parametrize("degree, seed", [(12, 1), (12, 35), (13, 4), (13, 36), (14, 0), (14, 2)])
def test_refine_solves_what_the_split_alone_misses(degree, seed, monkeypatch):
    # the split alone misses on every one of these specs; synthesize sends
    # the miss to the lattice stage, but refine, run on the split as its own
    # attempt did, must still end without its guard stopping it
    outcomes = refine_outcomes(monkeypatch)
    spec, _ = random_instance(1, degree, 4, seed)
    ops = build_tuple(embed(spec))
    table = fourier_table(ops, ops.degree)
    split = cf_atoms_1d(table.coeffs[:ops.degree + 1], tol=1e-8 * max(1.0, table.mass),
                        weight_prune=1e-12 * spec.mass.real)
    atoms = ops.scale * np.exp(1j * np.angle(split.atoms))
    tol = SolverConfig().resolved_tol(1)
    assert extended_relative_residual(
        spec, AtomicMeasure(1, atoms, split.weights, scale=ops.scale)) > tol
    synthesis.refine(split, table, tol, indices=spec.indices, weight_base=ops.scale)
    measure = synthesize(spec)
    assert outcomes == [None]
    assert extended_relative_residual(spec, measure) <= tol


@pytest.mark.parametrize("degree", range(11, 16))
def test_synthesize_one_variable_never_refines(degree, monkeypatch):
    # the corpus's first group: the split answers or the lattice stage does
    refines = spy(monkeypatch, "refine")
    for seed in range(40):
        spec, _ = random_instance(1, degree, 4, seed)
        measure = synthesize(spec)
        assert extended_residual(spec, measure) <= SolverConfig().allowance(spec), seed
    assert refines == []


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
    "spec, older",
    [
        # won on the second pre-scaling; the grid fit misses on the first
        (scaled_spec(
            random_instance(2, 2, 3, 468350122, radius=0.4188368971922585)[0],
            561.6401249734669,
        ), 1),
        # won on the third pre-scaling; the radius check refuses the first
        (scaled_spec(
            random_instance(1, 4, 4, 263167733, radius=24.038088336133328)[0],
            685.7122838804714,
        ), 0),
    ],
    ids=["n2-second-prescale", "n1-third-prescale"],
)
def test_synthesize_fallback_attempts_solve(spec, older, monkeypatch):
    # the older stage does not solve it on its one pre-scaling; the lattice does
    tuples = spy(monkeypatch, "build_tuple")
    splits = spy(monkeypatch, "cf_atoms_1d")
    grids = spy(monkeypatch, "grid_nnls")
    lattices = spy(monkeypatch, "lattice_quadrature")
    measure = synthesize(spec)
    assert (len(tuples), len(splits) + len(grids), len(lattices)) == (1, older, 1)
    tol = SolverConfig().resolved_tol(spec.n)
    assert extended_relative_residual(spec, measure) <= tol
    assert len(measure) == len(lattices[0][0].indices) * 2 - 1


# stages of the paper's construction and of the older attempt, none of
# which runs beyond two variables
CONSTRUCTION = ("embed", "build_tuple", "fourier_table", "cf_atoms_1d", "grid_nnls", "refine")


def test_synthesize_three_variables_one_quadrature(monkeypatch):
    spec = random_instance(3, 2, 2, 674418157, radius=0.8544370464638581)[0]
    stages = {name: spy(monkeypatch, name) for name in CONSTRUCTION + ("lattice_quadrature",)}
    measure = synthesize(spec)
    assert {name: len(calls) for name, calls in stages.items()} == {
        **dict.fromkeys(CONSTRUCTION, 0), "lattice_quadrature": 1,
    }
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(3)


def test_synthesize_one_variable_ladder_skips_the_grid(monkeypatch):
    # the split misses; one lattice stage solves it
    grids = spy(monkeypatch, "grid_nnls")
    splits = spy(monkeypatch, "cf_atoms_1d")
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(1, 16, 4, 3)
    measure = synthesize(spec)
    assert grids == []
    assert (len(splits), len(lattices)) == (1, 1)
    assert len(measure) == 33
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(1)


def attempts_of(exc):
    """(attempt, reason) of every attempt a ConvergenceFailure lists."""
    return re.findall(r"\(([^)]*)\) (.*?)(?=; \(|$)", str(exc).split(": ", 1)[1])


def test_convergence_failure_lists_every_attempt():
    # the Baseline rows that no one-radius answer solves
    for spec, first in (
        (MomentSpec(1, ((0,), (1,), (2,)), (1e-12, 1.0, 1j)), "prescale 1, radius"),
        (MomentSpec(2, ((0, 0), (1, 0), (0, 3)), (1, 1e10, -3e12j)), "prescale 1000, radius"),
    ):
        with pytest.raises(ConvergenceFailure) as failure:
            synthesize(spec)
        (attempt, reason), (lattice, why) = attempts_of(failure.value)
        assert (attempt, lattice) == (first, "lattice, 5 nodes")
        # each torus is refused for its rounding level, the lattice's at the
        # least radius at which its node values stay above the floor
        for text in (reason, why):
            assert text.startswith("moment sums on radius")
            assert text.endswith(f"above the residual target {SolverConfig().allowance(spec):.3e}")


def off_the_doubles(spec):
    """A lattice stage stub whose one node lies on a torus beyond a double."""
    return AtomicMeasure(spec.n, np.ones((1, spec.n)), [spec.mass.real], 1.0), 800.0


def test_convergence_failure_lists_a_failed_stage(monkeypatch):
    monkeypatch.setattr(synthesis, "lattice_quadrature", off_the_doubles)
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(random_instance(1, 16, 4, 3)[0])
    (attempt, reason), (lattice, why) = attempts_of(failure.value)
    assert (attempt, lattice) == ("prescale 1, split", "lattice, 1 nodes")
    # the split's own miss: no refinement runs at one variable
    assert reason == "synthesized measure misses the residual target"
    assert why.startswith("radius 2.") and why.endswith("is beyond the range of a double")


# On the first pre-scaling of these specs the least total weight an answer
# on its torus can have puts the rounding level of its moment sums above
# the residual target, so the older stage is refused before its table is
# built; the lattice answers all but the last two.
GATED = {
    "n1-d18": random_instance(1, 18, 4, 3)[0],
    "n1-d24": random_instance(1, 24, 4, 3)[0],
    "n1-d32": random_instance(1, 32, 4, 3)[0],
    "n1-only-40": MomentSpec.from_items(1, [((0,), 1.0), ((40,), 0.5)]),
    "n1-only-20": MomentSpec.from_items(1, [((0,), 1.0), ((20,), 0.5)]),
    "n1-mass-1e-12": MomentSpec(1, ((0,), (1,), (2,)), (1e-12, 1.0, 1j)),
    "n2-only-9-9": MomentSpec.from_items(2, [((0, 0), 1.0), ((9, 9), 0.5)]),
    "n2-wide-range": MomentSpec(2, ((0, 0), (1, 0), (0, 3)), (1, 1e10, -3e12j)),
}


@pytest.mark.parametrize("spec", list(GATED.values()), ids=list(GATED))
def test_synthesize_skips_rungs_that_cannot_resolve_the_target(spec, monkeypatch):
    stages = ("fourier_table", "cf_atoms_1d", "grid_nnls", "refine", "_clamped_least_squares",
              "_lawson_hanson")
    calls = {name: spy(monkeypatch, name) for name in stages + ("build_tuple", "lattice_quadrature")}
    try:
        measure = synthesize(spec)
    except ConvergenceFailure as exc:
        (rung, _), (lattice, _) = attempts_of(exc)
        assert rung.endswith(", radius") and lattice.startswith("lattice")
    else:
        assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(spec.n)
    # one pre-scaling is considered, and it builds no table and runs no stage
    assert {name: len(made) for name, made in calls.items()} == {
        **dict.fromkeys(stages, 0), "build_tuple": 1, "lattice_quadrature": 1,
    }


def wide_corpus_spec(index):
    """Draw `index` of the wide-magnitude group of tools/corpus.py."""
    rng = np.random.default_rng(13)
    for _ in range(index):
        random_box_spec(rng, magnitude=1e6, mass_floor=1e-3)
    return random_box_spec(rng, magnitude=1e6, mass_floor=1e-3)


def test_synthesize_stops_a_refinement_at_its_rounding_guard(monkeypatch):
    # no one-variable spec reaches refine; this wide-magnitude one reaches
    # its guard, on a grid fit of a pre-scaling the radius check lets
    # through, and a later attempt solves it
    fits = spy(monkeypatch, "_clamped_least_squares")
    original = synthesis.refine
    guarded = []

    def wrapper(*args, **kwargs):
        before = len(fits)
        try:
            return original(*args, **kwargs)
        except ConvergenceFailure as exc:
            if "rounding level" in str(exc):
                guarded.append(len(fits) - before)
            raise

    monkeypatch.setattr(synthesis, "refine", wrapper)
    spec = wide_corpus_spec(84)
    measure = synthesize(spec)
    assert guarded and all(solves == 0 for solves in guarded)
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(spec.n)


def torus_moments(seed):
    """A measure on the torus of radius r in [0.1, 50], n = 1..3, weights
    over 12 decades, with prescribed moments each moved by at most the
    allowance: at a random phase, or straight outward by the whole
    allowance, where the weight bound is tightest."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    radius = bounded(rng, 0.1, 50.0)
    count = int(rng.integers(1, 6))
    angles = 2.0 * np.pi * rng.random((count, n))
    weights = 10.0 ** np.array([bounded(rng, -6.0, 6.0) for _ in range(count)])
    # one to eight distinct exponents with entries 0..4
    drawn = dict.fromkeys(map(tuple, rng.integers(0, 5, (rng.integers(1, 9), n)).tolist()))
    indices = [(0,) * n] + [k for k in drawn if any(k)]
    atoms = (radius * np.exp(1j * angles)).astype(np.clongdouble)
    exact = np.array([np.prod(atoms ** np.array(k), axis=1) @ weights.astype(np.longdouble)
                      for k in indices])
    allowance = 10.0 ** bounded(rng, -12.0, 0.0) * max(1.0, float(np.max(np.abs(exact))))
    outward = rng.random() < 0.5
    moved = []
    for value in exact:
        if outward:
            phase = np.angle(complex(value)) if value != 0 else 0.0
            size = 1.0
        else:
            phase = 2.0 * np.pi * rng.random()
            size = bounded(rng, 0.0, 1.0)
        moved.append(complex(value + allowance * size * np.exp(1j * phase)))
    return radius, indices, moved, allowance, float(np.sum(weights))


@pytest.mark.parametrize("seed", range(100), ids="seed{}".format)
def test_weight_floor_never_exceeds_the_true_weight(seed):
    radius, indices, values, allowance, weight = torus_moments(seed)
    floor = synthesis._log_weight_floor(
        np.abs(np.array(values)), np.array([sum(k) for k in indices], dtype=float),
        allowance, np.log(radius))
    # the floor is exact on one atom moved outward, up to the rounding of its logs
    assert np.exp(floor) <= weight * (1.0 + 1e-12)


def test_synthesize_two_variables_quadrature_after_grid(monkeypatch):
    # refine returns here, but the extended-precision check refuses its
    # answer, so the lattice stage runs
    outcomes = refine_outcomes(monkeypatch)
    grids = spy(monkeypatch, "grid_nnls")
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(2, 5, 4, 9)
    measure = synthesize(spec)
    assert outcomes == [None]
    assert [args[1] for args in grids] == [synthesis.GRID]
    assert len(lattices) == 1
    assert len(measure) == 2 * len(spec.indices) - 1
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(2)


def test_synthesize_two_variables_solves_without_the_quadrature(monkeypatch):
    # fitted to its prescribed moments, the grid and its refinement meet
    # the contract at the first pre-scaling
    grids = spy(monkeypatch, "grid_nnls")
    refines = spy(monkeypatch, "refine")
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(2, 5, 4, 0)
    measure = synthesize(spec)
    assert (len(grids), len(refines), len(lattices)) == (1, 1, 0)
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(2)


def refine_returns_its_input(monkeypatch):
    """Record, for every refine call that returns, whether it returned the
    very measure it was given."""
    untouched = []
    original = synthesis.refine

    def wrapper(measure, *args, **kwargs):
        result = original(measure, *args, **kwargs)
        untouched.append(result is measure)
        return result

    monkeypatch.setattr(synthesis, "refine", wrapper)
    return untouched


def test_synthesize_checks_an_untouched_refinement_once(monkeypatch):
    # refine's double-precision residual meets the target on the grid fit,
    # so it hands back the atoms the extended-precision check just rejected
    untouched = refine_returns_its_input(monkeypatch)
    checked = spy(monkeypatch, "report")
    spec, _ = random_instance(2, 5, 4, 6)
    measure = synthesize(spec)
    assert untouched == [True]
    answers = [(candidate.atoms.tobytes(), candidate.weights.tobytes()) for _, candidate in checked]
    assert len(set(answers)) == len(answers)
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(2)


def test_convergence_failure_names_an_untouched_refinement(monkeypatch):
    # the one grid fit runs; the lattice stage is stubbed to fail
    untouched = refine_returns_its_input(monkeypatch)
    grids = spy(monkeypatch, "grid_nnls")
    monkeypatch.setattr(synthesis, "lattice_quadrature", off_the_doubles)
    spec, _ = random_instance(2, 5, 4, 6)
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(spec)
    assert (untouched, len(grids)) == ([True], 1)
    found = re.search(
        r"\(prescale [^,]+, grid\) refine's double-precision residual met the target;"
        r" the extended-precision check did not \(([^)]+)\)",
        str(failure.value),
    )
    assert found
    assert "; (lattice, 1 nodes) radius " in str(failure.value)
    target = SolverConfig().resolved_tol(2) * max(1.0, max(abs(v) for v in spec.values))
    assert float(found.group(1)) > target


def first_rung_grid_fit(spec):
    """The grid fit of the first pre-scaling of a two-variable spec, on the
    table and the exponents `synthesize` would give it."""
    espec = embed(spec)
    ops = build_tuple(synthesis._rescaled(espec, synthesis._prescale_factor(espec)))
    grid_nnls(fourier_table(ops, ops.degree), synthesis.GRID, indices=spec.indices)


def synthesize_or_fail(spec):
    try:
        synthesize(spec)
    except ConvergenceFailure:
        pass


@pytest.mark.parametrize(
    "spec, run",
    [
        # synthesize skips every pre-scaling of this spec before its grid fit
        (MomentSpec.from_items(2, [((0, 0), 1.0), ((9, 9), 0.5)]), first_rung_grid_fit),
        (random_instance(2, 5, 4, 0)[0], synthesize_or_fail),
        (random_box_spec(np.random.default_rng(5), n=2, degree=3), synthesize_or_fail),
    ],
    ids=["n2-only-9-9", "n2-d5", "n2-sparse-d3"],
)
def test_grid_stage_fits_the_prescribed_moments(spec, run, monkeypatch):
    # one real row per prescribed exponent and one imaginary row per
    # nonzero one, against every point of the grid
    fits = spy(monkeypatch, "_lawson_hanson")
    run(spec)
    grid = synthesis.GRID
    rows = 2 * len(spec.indices) - 1
    column, gradient, cols, b, _ = fits[0]
    assert (len(b), cols) == (rows, grid**2)
    assert column(cols - 1).shape == (rows,)
    assert gradient(b).shape == (cols,)


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_synthesize_two_variables_atoms_within_the_constraint_count(degree, seed):
    # Caratheodory: no more atoms than the 2 * |spec| - 1 real constraints
    spec, _ = random_instance(2, degree, 4, seed)
    measure = synthesize(spec)
    assert len(measure) <= 2 * len(spec.indices) - 1
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(2)


def test_synthesize_three_variables_never_refines(monkeypatch):
    # the lattice answers with one atom per real constraint, unrefined
    stages = {name: spy(monkeypatch, name) for name in CONSTRUCTION}
    spec, _ = random_instance(3, 4, 4, 3)
    measure = synthesize(spec)
    assert {name: len(calls) for name, calls in stages.items()} == dict.fromkeys(CONSTRUCTION, 0)
    assert len(measure) == 249 == 2 * len(spec.indices) - 1
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(3)


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


# Baseline rows of ROADMAP.md that the pre-scale ladder and its product-grid
# quadrature failed, with the lattice's atom count: one per real constraint,
# |P| = 2 * |spec| - 1, but for (9,9), whose keys 9 + 9a all vanish mod 3
LADDER_FAILURES = {
    "n1-d16": (random_instance(1, 16, 4, 3)[0], 33),
    "n1-d32": (random_instance(1, 32, 4, 3)[0], 65),
    "n1-only-40": (MomentSpec.from_items(1, [((0,), 1.0), ((40,), 0.5)]), 3),
    "n2-only-9-9": (MomentSpec.from_items(2, [((0, 0), 1.0), ((9, 9), 0.5)]), 4),
    "n3-d4": (random_instance(3, 4, 4, 3)[0], 249),
    "n5-d2": (random_instance(5, 2, 4, 3)[0], 485),
    "n1-moment-26-of-1e12": (MomentSpec(1, ((0,), (26,)), (1, 1e12)), 3),
}


@pytest.mark.parametrize("spec, atoms", list(LADDER_FAILURES.values()), ids=list(LADDER_FAILURES))
def test_synthesize_solves_what_the_ladder_failed(spec, atoms):
    measure = synthesize(spec)
    assert len(measure) == atoms
    assert measure.weights.min() > 0.0
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(spec.n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_synthesize_radius_beyond_a_double_fails_cleanly(n):
    # |s_1| / s0 = 1e310: no answer has atoms of modulus within a double
    spec = MomentSpec(n, ((0,) * n, (1,) + (0,) * (n - 1)), (1e-300, 1e10))
    lattice = r"\(lattice, 3 nodes\) radius 1\.\d+e\+310 is beyond"
    with pytest.raises(ConvergenceFailure, match=lattice) as failure:
        synthesize(spec)
    if n <= 2:
        # the older attempt names the construction's overflow; it read
        # "radius nan to the power 1", which names no cause
        (attempt, reason), _ = attempts_of(failure.value)
        assert attempt == ("prescale 1, split" if n == 1 else "prescale 1000, grid")
        # numpy before 1.25 names the ufunc true_divide
        assert re.fullmatch(r"overflow encountered in \w+", reason)


# ends of the double range, where the parent raised OverflowError, LinAlgError
# or ValueError, or (under the test warning filter) a RuntimeWarning
N3 = ((0, 0, 0), (1, 0, 0), (0, 1, 1))
FULL_RANGE = {
    # the older stage's construction overflows
    "n1-scale-overflows": MomentSpec(1, ((0,), (1,), (2,)), (1e-300, 5e-324, 1)),
    # a subnormal moment's phase, taken as s / |s|, overflowed
    "n3-subnormal-moment": MomentSpec(3, N3, (5e-324, 5e-324, 0)),
    # the lattice node values overflowed next to a mass near the double maximum
    "n3-mass-near-double-max": MomentSpec(3, N3, (1.7e308, 1e-300, 0)),
    # eigvalsh fails on the Toeplitz section of a subnormal mass
    "n1-subnormal-mass": MomentSpec(1, ((0,), (1,), (2,)), (5e-324, 5e-324, 0)),
    # refine raised the radius to the top degree past a double
    "n2-refine-overflows": MomentSpec(
        2, ((0, 0), (0, 3), (2, 2)),
        (3.764046407473006e85, 1.6596109349498412e-40 + 3.984801405059297e-40j,
         2.030271835041763e138 - 1.515949637126127e138j)),
}


@pytest.mark.parametrize("spec", list(FULL_RANGE.values()), ids=list(FULL_RANGE))
def test_synthesize_solves_at_the_ends_of_the_double_range(spec, tmp_path):
    measure = synthesize(spec)
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)
    problem = tmp_path / "problem.json"
    write_doc(problem, problem_to_doc(spec))
    assert main(["solve", str(problem), str(tmp_path / "solution.json")]) == 0


def test_config_validation():
    for tol in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(tol=tol)
    assert SolverConfig().resolved_tol(1) == 1e-8
    assert SolverConfig().resolved_tol(2) == 1e-6
    assert SolverConfig(tol=1e-3).resolved_tol(2) == 1e-3


def test_config_allowance_scales_by_the_largest_magnitude():
    small = MomentSpec.from_items(1, [((0,), 0.5), ((1,), 0.25j)])
    large = MomentSpec.from_items(2, [((0, 0), 2.0), ((1, 0), 3.0 - 4.0j)])
    assert SolverConfig().allowance(small) == 1e-8
    assert SolverConfig().allowance(large) == 1e-6 * 5.0
    assert SolverConfig(tol=1e-3).allowance(large) == 1e-3 * 5.0
