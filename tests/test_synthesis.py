import importlib
import itertools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import momentsynth.synthesis as synthesis
from conftest import bounded, extended_relative_residual, extended_residual, random_box_spec
from test_contract import draw_full_range_spec, draw_spec
from momentsynth.cli import main
from momentsynth.dilation import fourier_table
from momentsynth.documents import problem_to_doc, write_doc
from momentsynth.errors import ConvergenceFailure, Unsolvable
from momentsynth.lattice import EmbeddedSpec, MomentSpec, box, embed
from momentsynth.measures import AtomicMeasure
from momentsynth.operators import build_tuple, contraction_scale
from momentsynth.synthesis import (
    SolverConfig,
    _own_disc,
    cf_atoms_1d,
    grid_nnls,
    lattice_quadrature,
    refine,
    synthesize,
)
from momentsynth.verify import (
    _log_weight_floor,
    measure_moments,
    random_instance,
    report,
    torus_refusal,
)


def half_box(n, radius):
    """The canonical half of the signed index box of that radius: its
    C-order rows from the zero exponent on, so zero comes first."""
    signed = np.indices((2 * radius + 1,) * n).reshape(n, -1).T - radius
    return signed[len(signed) // 2:]


def circle_moments(exponents, angles, weights):
    """Moments sum_i w_i e^(i k.theta_i) of a known unit-torus measure at
    every row k of exponents, independent of the solver."""
    angles = np.asarray(angles, dtype=float).reshape(-1, exponents.shape[1])
    return np.exp(1j * (exponents @ angles.T)) @ np.asarray(weights, dtype=float)


def circle_fit(n, radius, angles, weights):
    """The exponents of the half box of that radius, and a known unit-torus
    measure's moments there: every entry of its Fourier table up to
    conjugation."""
    exponents = half_box(n, radius)
    return exponents, circle_moments(exponents, angles, weights)


def moment_residual(measure, exponents, targets):
    """Largest |moment - target| of a unit-torus measure over the rows of exponents."""
    return float(np.max(np.abs(circle_moments(exponents, np.angle(measure.atoms), measure.weights)
                               - targets)))


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


# the paper's construction, by defining module: tests of the construction
# call it, and no solve does
CONSTRUCTION = {"embed": "lattice", "build_tuple": "operators", "fourier_table": "dilation"}


def construction_calls(monkeypatch):
    """Record the calls of each function of CONSTRUCTION, wherever the
    package holds it: the wrapper replaces it in every momentsynth module."""
    modules = [module for name, module in sys.modules.items()
               if name == "momentsynth" or name.startswith("momentsynth.")]
    calls = {}
    for name, home in CONSTRUCTION.items():
        original = getattr(importlib.import_module(f"momentsynth.{home}"), name)
        made = calls[name] = []

        def wrapper(*args, made=made, original=original, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def no_construction(calls):
    return {name: len(made) for name, made in calls.items()} == dict.fromkeys(CONSTRUCTION, 0)


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
    exponents, targets = circle_fit(2, 2, angles, weights)
    measure = grid_nnls(exponents, targets, grid)
    assert moment_residual(measure, exponents, targets) <= 1e-10


def test_grid_nnls_fits_only_the_given_indices():
    # the half box has 25 real rows; the nine exponents of box(2, 2) have
    # 17, and the fit keeps no more atoms than that
    grid = 8
    line = 2 * np.pi * np.arange(grid) / grid
    angles = np.array([[line[1], line[3]], [line[5], line[0]], [line[2], line[7]]])
    indices = box(2, 2)
    exponents = np.array(indices)
    targets = circle_moments(exponents, angles, np.array([0.6, 0.9, 0.3]))
    measure = grid_nnls(exponents, targets, grid)
    assert 0 < len(measure) <= 17
    got = measure_moments(measure, indices)
    for value, target in zip(got, targets):
        assert abs(value - target) <= 1e-12


def test_grid_nnls_zero_table():
    exponents, targets = circle_fit(1, 2, np.zeros((0, 1)), np.zeros(0))
    assert len(grid_nnls(exponents, targets, 8)) == 0


def test_grid_nnls_doubling_does_not_hurt(rng):
    angles = rng.uniform(0, 2 * np.pi, size=(3, 1))
    weights = rng.uniform(0.2, 1.0, size=3)
    exponents, targets = circle_fit(1, 3, angles, weights)
    res_small = moment_residual(grid_nnls(exponents, targets, 8), exponents, targets)
    res_big = moment_residual(grid_nnls(exponents, targets, 16), exponents, targets)
    assert res_big <= res_small + 1e-9


def test_grid_nnls_three_variables_full_grid(rng):
    # off-grid atoms: the coarse grid stage is not exact, but it runs on the
    # full product grid and returns a measure
    angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
    weights = np.array([0.5, 0.8])
    exponents, targets = circle_fit(3, 1, angles, weights)
    coarse = grid_nnls(exponents, targets, 8)
    assert len(coarse) > 0
    assert coarse.weights.min() >= 0.0


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
    "grid, exponents",
    [
        (16, half_box(1, 3)),
        (8, half_box(2, 2)),  # the half box holds negative exponents
        (8, half_box(3, 1)),
        (4, np.array(box(2, 5))),  # grid below the degree: exponents alias
        (8, np.array(((0, 0), (9, 9)))),
        (16, np.array(random_box_spec(np.random.default_rng(5), n=2, degree=3).indices)),
    ],
    ids=["n1-half-box", "n2-half-box", "n3-half-box", "n2-d5-grid4", "n2-only-9-9", "n2-sparse-d3"],
)
def test_grid_gradient_is_the_dense_product(grid, exponents, monkeypatch):
    n = exponents.shape[1]
    rng = np.random.default_rng(7)
    angles = rng.uniform(0, 2 * np.pi, size=(3, n))
    targets = circle_moments(exponents, angles, np.array([0.5, 0.8, 0.3]))
    fits = spy(monkeypatch, "_lawson_hanson")
    grid_nnls(exponents, targets, grid)
    (column, gradient, cols, b, amax), = fits
    A = grid_design(exponents, grid)
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
    exponents, targets, _ = first_rung(random_instance(2, 5, 4, 3)[0])
    grid_nnls(exponents, targets, 64)  # first-call setup is not traced
    tracemalloc.start()
    try:
        grid_nnls(exponents, targets, 64)
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


def p_of(spec):
    """P = spec u -spec as rows of frequencies, the zero frequency first."""
    karr = np.array(spec.indices, dtype=np.int64)
    return np.concatenate([karr, -karr[1:]])


def korobov_bound(freqs):
    """The least prime N with N > 2 |k_c| for every frequency k and
    N - 1 > (n - 1) m (m - 1) / 2, m the count of frequencies: a node count
    at which some Korobov vector separates them."""
    count, n = freqs.shape
    size = max(2 * int(np.abs(freqs).max()) + 1, (n - 1) * count * (count - 1) // 2 + 2)
    while any(size % p == 0 for p in range(2, math.isqrt(size) + 1)):
        size += 1
    return size


def korobov_separates(freqs, size):
    """Whether some Korobov vector (1, a, ..., a**(n-1)) mod size, with
    0 < a < size, takes the frequencies to distinct keys mod size."""
    n = freqs.shape[1]
    for a in range(1, max(size, 2)):
        z = [pow(a, c, size) for c in range(n)]
        keys = {sum(e * w for e, w in zip(k, z)) % size for k in freqs.tolist()}
        if len(keys) == len(freqs):
            return True
    return False


@pytest.mark.parametrize("seed", range(100), ids="seed{}".format)
def test_lattice_quadrature_is_exact_and_positive_on_the_sweep(seed):
    # draw_spec of tests/test_contract.py: one to eight variables, values
    # over 24 decades, sparse and full boxes
    spec = with_positive_mass(draw_spec(seed))
    unit, t = lattice_quadrature(spec, _own_disc(spec))
    size, z = lattice_of(unit)
    karr = np.array(spec.indices, dtype=np.int64)
    freqs = p_of(spec)
    # k -> k.z mod N is injective on P = spec u -spec, and every node is an atom
    assert len(set(((freqs @ z) % size).tolist())) == len(freqs) == 2 * len(spec.indices) - 1
    nodes = (np.outer(np.arange(size), z) % size) * (2.0 * np.pi / size)
    assert np.abs(np.exp(1j * nodes) - unit.atoms).max() <= 1e-12
    # a Korobov vector z = (1, a, ..., a**(n-1)) mod N, with N at most the
    # node count that guarantees one
    assert z.tolist() == [pow(int(z[1 % spec.n]), c, size) for c in range(spec.n)]
    assert size <= korobov_bound(freqs)
    if spec.n == 1:
        # one candidate per node count: N is the least from |P| on that separates P
        assert not any(len(set((freqs[:, 0] % m).tolist())) == len(freqs)
                       for m in range(len(freqs), size))
    elif len(freqs) <= 64:
        # and N is the least node count with a Korobov vector that separates P
        assert not any(korobov_separates(freqs, m) for m in range(len(freqs), size))
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
    unit, t = lattice_quadrature(spec, _own_disc(spec))
    assert len(unit) == 3
    least = np.log(0.5 / (1.0 - synthesis.NODE_FLOOR)) / 40.0
    # the search narrows [t_lo, t_lo + log(2 / (1 - floor))] 32**3 times
    assert least <= t <= least + np.log(2.0 / (1.0 - synthesis.NODE_FLOOR)) / 32**3
    assert unit.weights.min() >= synthesis.NODE_FLOOR / 3.0


def test_lattice_quadrature_mass_alone_is_one_atom():
    spec = MomentSpec(3, ((0, 0, 0),), (2.5,))
    unit, t = lattice_quadrature(spec, _own_disc(spec))
    assert (len(unit), t) == (1, 0.0)
    assert unit.weights[0] == pytest.approx(2.5)


def test_lattice_takes_the_first_korobov_lattice_at_every_node_count():
    # |P| = 3, and 60 is 0 mod 3, 4 and 5, so no Korobov vector of fewer
    # than 7 nodes separates (0,0), (60,0) and (-60,0); 7 nodes with
    # z = (1, 1) do
    spec = MomentSpec.from_items(2, [((0, 0), 1.0), ((60, 0), 0.25)])
    assert synthesis._rank1_lattice(p_of(spec))[0] == 7
    unit, t = lattice_quadrature(spec, _own_disc(spec))
    assert len(unit) == 7
    measure = AtomicMeasure(2, np.exp(t) * unit.atoms, unit.weights, np.exp(t))
    assert extended_relative_residual(spec, measure) <= 1e-12


def test_lattice_nodes_of_a_sparse_spec_stay_few():
    # 2520 is 0 mod 5..9, so no node count below 10 separates P; the
    # product lattice would have 5041**2 = 25,411,681 nodes (a node matrix
    # of about 2 TB), and the first Korobov lattice has 11
    spec = MomentSpec.from_items(2, [((0, 0), 1.0), ((1, 0), 0.1), ((2520, 2520), 0.3 + 0.2j)])
    assert synthesis._rank1_lattice(p_of(spec))[0] == 11
    # the lattice stage alone: synthesize would first build the older
    # attempt's construction on the 2521**2 exponent box
    unit, t = lattice_quadrature(spec, _own_disc(spec))
    assert len(unit) == 11
    measure = AtomicMeasure(2, np.exp(t) * unit.atoms, unit.weights, np.exp(t))
    assert extended_relative_residual(spec, measure) <= 1e-12


def sparse_spec(n, degree):
    """Three moments: mass 1, 0.1 at (1, 0, ..., 0), 0.3+0.2i at (d, ..., d)."""
    return MomentSpec.from_items(
        n, [((0,) * n, 1.0), ((1,) + (0,) * (n - 1), 0.1), ((degree,) * n, 0.3 + 0.2j)])


@pytest.mark.parametrize("n", [3, 8])
def test_lattice_node_matrix_has_one_row_per_distinct_degree(n):
    # two distinct degrees, 1 and 65535 n; one row per degree up to the
    # top would take 129 MB at n = 3 and 344 MB at n = 8
    spec = sparse_spec(n, 65535)
    tracemalloc.start()
    try:
        lattice_quadrature(spec, _own_disc(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("n", [3, 5, 8])
def test_radius_search_depth_follows_the_top_degree(n):
    # at top degree 65535 n, a radius overshoot of bracket / 32**3 would
    # put r**top at up to 1.6e9 and miss the target at n = 5 and 8; the
    # search narrows the bracket to 0.1 / top
    spec = sparse_spec(n, 65535)
    measure = synthesize(spec)
    assert extended_relative_residual(spec, measure) <= 1e-10


def test_synthesize_one_variable_searches_every_node_count():
    # one variable has one candidate per node count, so N = 7 is the
    # least from |P| = 3 on that divides neither 60 nor 120
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
    exponents, targets = circle_fit(1, 2, angles, weights)
    measure = AtomicMeasure(1, np.exp(1j * angles), weights, scale=1.0)
    assert refine(measure, exponents, targets, 1.0, tol=1e-8) is measure


def test_refine_raises_at_iteration_cap():
    # a target just below roundoff cannot be met: the one refit stalls
    angles = np.array([[0.55, 1.37]])
    exponents, targets = circle_fit(2, 2, angles, np.array([0.8]))
    coarse = grid_nnls(exponents, targets, 4)
    with pytest.raises(ConvergenceFailure, match="stalled"):
        refine(coarse, exponents, targets, 1.0, tol=1e-18)


@pytest.mark.parametrize("args", [(2, 4, 1, 8), (2, 5, 4, 0), (2, 5, 4, 4)],
                         ids="n{0[0]}-d{0[1]}-atoms{0[2]}-seed{0[3]}".format)
def test_refine_refit_matches_scipy_nnls(args, monkeypatch):
    from scipy.optimize import nnls

    # the weighted designs refine builds on the first pre-scaling's grid fit
    # of these specs are square with condition numbers 2e9-5e10; their
    # least-squares weights are nonnegative, so they solve the constrained
    # fit scipy's nnls solves, and both residuals are rounding: they
    # differed by 2.5e-8 to 1.2e-7 of ||b|| when measured.  Whether a solve
    # refits follows the last bits of the fit, so the refit is forced here
    # by a target below its rounding
    refit = synthesis._clamped_least_squares
    systems = spy(monkeypatch, "_clamped_least_squares")
    exponents, targets, radius = first_rung(random_instance(*args)[0])
    with pytest.raises(ConvergenceFailure, match="stalled"):
        refine(grid_nnls(exponents, targets, synthesis.GRID), exponents, targets, radius, 1e-18)
    assert len(systems) == 1
    for A, b in systems:
        weights = np.linalg.lstsq(A, b, rcond=None)[0]
        assert weights.min() >= 0.0
        assert np.array_equal(refit(A, b), weights)
        reference, _ = nnls(A, b, maxiter=max(10 * A.shape[1], 1000))
        gap = np.linalg.norm(A @ weights - b) - np.linalg.norm(A @ reference - b)
        assert abs(gap) <= 1e-6 * np.linalg.norm(b)


def test_refine_clamps_a_negative_least_squares_refit(monkeypatch):
    # four atoms for a two-atom measure: the least-squares weights of the
    # refit go negative, and refine must still end with a measure or stall
    exponents, targets = circle_fit(1, 3, np.array([[0.3], [2.1]]), np.array([0.4, 0.7]))
    angles = np.array([0.3, 1.2, 2.0, 2.2])
    start = AtomicMeasure(1, np.exp(1j * angles), np.full(4, 0.3), scale=1.0)
    systems = spy(monkeypatch, "_clamped_least_squares")
    try:
        fine = refine(start, exponents, targets, 1.0, tol=1e-10)
    except ConvergenceFailure:
        pass
    else:
        assert fine.weights.min() >= 0.0
    assert any(np.linalg.lstsq(A, b, rcond=None)[0].min() < 0.0 for A, b in systems)


@pytest.mark.parametrize("args", [(2, 4, 1, 8), (2, 5, 4, 2), (2, 5, 4, 8)],
                         ids="n{0[0]}-d{0[1]}-atoms{0[2]}-seed{0[3]}".format)
def test_refine_solves_what_the_grid_fit_alone_misses(args, monkeypatch):
    # the grid fit alone misses on every one of these specs, so refine runs;
    # its refit meets the target, and its answer is accepted without the
    # lattice stage
    outcomes = refine_outcomes(monkeypatch)
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(*args)
    measure = synthesize(spec)
    assert (outcomes, lattices) == ([None], [])
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(2)


@pytest.mark.parametrize("args", [(2, 5, 4, 1), (2, 5, 4, 37), (2, 5, 5, 4), (2, 6, 4, 3)],
                         ids="n{0[0]}-d{0[1]}-atoms{0[2]}-seed{0[3]}".format)
def test_refine_is_one_refit_and_no_solve(args, monkeypatch):
    # the grid fit misses on each of these specs and one weight refit does
    # not meet the target: refine refits once and solves no linear system,
    # and the answer comes from the lattice stage
    fits = spy(monkeypatch, "_clamped_least_squares")
    solves = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    per_call = []
    original = synthesis.refine

    def wrapper(*call, **options):
        before = (len(fits), len(solves))
        try:
            return original(*call, **options)
        finally:
            per_call.append((len(fits) - before[0], len(solves) - before[1]))

    monkeypatch.setattr(synthesis, "refine", wrapper)
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(*args)
    measure = synthesize(spec)
    assert (per_call, len(lattices)) == ([(1, 0)], 1)
    assert len(measure) == 2 * len(spec.indices) - 1
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


@pytest.mark.parametrize("degree", range(11, 16))
def test_synthesize_one_variable_never_refines(degree, monkeypatch):
    # the corpus's first group: the split answers or the lattice stage does
    refines = spy(monkeypatch, "refine")
    for seed in range(40):
        spec, _ = random_instance(1, degree, 4, seed)
        measure = synthesize(spec)
        assert extended_residual(spec, measure) <= SolverConfig().allowance(spec), seed
    assert refines == []


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
    # the older stage does not solve it on its one pre-scaling; the lattice
    # does, and neither builds the construction
    built = construction_calls(monkeypatch)
    radii = spy(monkeypatch, "contraction_scale")
    splits = spy(monkeypatch, "cf_atoms_1d")
    grids = spy(monkeypatch, "grid_nnls")
    lattices = spy(monkeypatch, "lattice_quadrature")
    measure = synthesize(spec)
    assert (len(radii), len(splits) + len(grids), len(lattices)) == (1, older, 1)
    assert no_construction(built)
    tol = SolverConfig().resolved_tol(spec.n)
    assert extended_relative_residual(spec, measure) <= tol
    assert len(measure) == len(lattices[0][0].indices) * 2 - 1


# stages of the older attempt, its radius first, none of which runs beyond
# two variables
OLDER = ("contraction_scale", "cf_atoms_1d", "grid_nnls", "refine")


def test_synthesize_three_variables_one_quadrature(monkeypatch):
    spec = random_instance(3, 2, 2, 674418157, radius=0.8544370464638581)[0]
    built = construction_calls(monkeypatch)
    stages = {name: spy(monkeypatch, name) for name in OLDER + ("lattice_quadrature",)}
    measure = synthesize(spec)
    assert {name: len(calls) for name, calls in stages.items()} == {
        **dict.fromkeys(OLDER, 0), "lattice_quadrature": 1,
    }
    assert no_construction(built)
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(3)


def full_rank(degree):
    """A one-variable full box of degree + 1 atoms (instance seed 3): its
    Hankel matrix has full rank, so the pencil's rank rule sends it on."""
    spec = random_instance(1, degree, degree + 1, 3)[0]
    assert synthesis._pencil(spec, _own_disc(spec)) is None
    return spec


def test_synthesize_one_variable_ladder_skips_the_grid(monkeypatch):
    # the split misses; one lattice stage solves it
    grids = spy(monkeypatch, "grid_nnls")
    splits = spy(monkeypatch, "cf_atoms_1d")
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec = full_rank(16)
    measure = synthesize(spec)
    assert grids == []
    assert (len(splits), len(lattices)) == (1, 1)
    assert len(measure) == 33
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(1)


def attempts_of(exc):
    """(attempt, reason) of every attempt a ConvergenceFailure lists."""
    return re.findall(r"\(([^)]*)\) (.*?)(?=; \(|$)", str(exc).split(": ", 1)[1])


def test_convergence_failure_lists_every_attempt():
    # the Baseline rows that no one-radius answer solves: the first fills
    # its exponent box, so the older attempt runs first; the second does not
    for spec, older in (
        (MomentSpec(1, ((0,), (1,), (2,)), (1e-12, 1.0, 1j)), ["prescale 1, radius"]),
        (MomentSpec(2, ((0, 0), (1, 0), (0, 3)), (1, 1e10, -3e12j)), []),
    ):
        with pytest.raises(ConvergenceFailure) as failure:
            synthesize(spec)
        attempts = attempts_of(failure.value)
        assert [attempt for attempt, _ in attempts[:-1]] == older
        screen, why = attempts[-1]
        assert re.fullmatch(r"lattice screen, radius above \d\.\d{3}e[+-]\d+", screen)
        # each torus is refused for its rounding level, the lattice's at the
        # least level of any radius above its bracket floor
        for _, text in attempts:
            assert text.startswith("moment sums on radius")
            assert text.endswith(f"above the residual target {SolverConfig().allowance(spec):.3e}")


def off_the_doubles(spec, disc):
    """A lattice stage stub whose one node lies on a torus beyond a double."""
    return AtomicMeasure(spec.n, np.ones((1, spec.n)), [spec.mass.real], 1.0), 800.0


def test_convergence_failure_lists_a_failed_stage(monkeypatch):
    monkeypatch.setattr(synthesis, "lattice_quadrature", off_the_doubles)
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(full_rank(16))
    (attempt, reason), (lattice, why) = attempts_of(failure.value)
    assert (attempt, lattice) == ("prescale 1, split", "lattice, 1 nodes")
    # the split's own miss: no refinement runs at one variable
    assert reason == "synthesized measure misses the residual target"
    assert why.startswith("radius 2.") and why.endswith("is beyond the range of a double")


# Specs the older stage never answers.  On the first pre-scaling of those
# that fill their exponent box (n1-d*, n1-mass-1e-12) the least total
# weight an answer on its torus can have puts the rounding level of its
# moment sums above the residual target, so the older stage is refused
# before its targets are formed; the others are sparse, so the older stage
# never runs.  The lattice answers all but the last two.
GATED = {
    "n1-d18": full_rank(18),
    "n1-d24": full_rank(24),
    "n1-d32": full_rank(32),
    "n1-only-40": MomentSpec.from_items(1, [((0,), 1.0), ((40,), 0.5)]),
    "n1-only-20": MomentSpec.from_items(1, [((0,), 1.0), ((20,), 0.5)]),
    "n1-mass-1e-12": MomentSpec(1, ((0,), (1,), (2,)), (1e-12, 1.0, 1j)),
    "n2-only-9-9": MomentSpec.from_items(2, [((0, 0), 1.0), ((9, 9), 0.5)]),
    "n2-wide-range": MomentSpec(2, ((0, 0), (1, 0), (0, 3)), (1, 1e10, -3e12j)),
}


def fills_its_box(spec):
    """Whether spec prescribes every exponent of the box `embed` builds."""
    return len(spec.indices) == len(box(spec.n, max(1, max(map(max, spec.indices)))))


@pytest.mark.parametrize("spec", list(GATED.values()), ids=list(GATED))
def test_synthesize_skips_rungs_that_cannot_resolve_the_target(spec, monkeypatch):
    stages = ("cf_atoms_1d", "grid_nnls", "refine", "_clamped_least_squares", "_lawson_hanson")
    built = construction_calls(monkeypatch)
    calls = {name: spy(monkeypatch, name)
             for name in stages + ("contraction_scale", "lattice_quadrature")}
    full = fills_its_box(spec)
    try:
        measure = synthesize(spec)
    except ConvergenceFailure as exc:
        # the radius check refuses a full box's older stage, and the
        # screen every lattice radius before any node is built
        attempts = [attempt for attempt, _ in attempts_of(exc)]
        assert attempts[:-1] == (["prescale 1, radius"] if full else [])
        assert attempts[-1].startswith("lattice screen")
        lattices = 0
    else:
        assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(spec.n)
        lattices = 1
    # a spec that fills its box considers one pre-scaling, whose radius is
    # refused before any stage runs; any other has no older attempt, and
    # none builds the construction
    assert {name: len(made) for name, made in calls.items()} == {
        **dict.fromkeys(stages, 0), "contraction_scale": int(full),
        "lattice_quadrature": lattices,
    }
    assert no_construction(built)


# (spec, _pencil calls, older attempts): only a spec that fills its
# exponent box reaches the pencil (one variable) and the older attempt (up
# to two), whose radius is read and whose stage runs, the split at one
# variable and the grid fit at two; the pencil misses on n1-full
BOX_SHAPES = {
    "n1-full": (random_instance(1, 4, 4, 0)[0], 1, 1),
    "n1-sub-box": (MomentSpec.from_items(1, [((0,), 1.0), ((2,), 0.3), ((4,), 0.1j)]), 0, 0),
    "n1-mass-alone": (MomentSpec(1, ((0,),), (2.0,)), 0, 0),
    "n2-full": (random_instance(2, 2, 3, 11)[0], 0, 1),
    "n2-total-degree": (MomentSpec(2, ((0, 0), (1, 0), (0, 1)), (1.0, 0.2, 0.1j)), 0, 0),
    "n2-sparse": (random_box_spec(np.random.default_rng(5), n=2, degree=3), 0, 0),
    "n3-full": (random_instance(3, 1, 2, 3)[0], 0, 0),
}


@pytest.mark.parametrize("spec, pencils, boxes", list(BOX_SHAPES.values()), ids=list(BOX_SHAPES))
def test_only_specs_that_fill_their_box_reach_the_box(spec, pencils, boxes, monkeypatch):
    assert fills_its_box(spec) == (spec.n == 3 or boxes == 1)
    built = construction_calls(monkeypatch)
    calls = {name: spy(monkeypatch, name)
             for name in ("_pencil", "contraction_scale", "cf_atoms_1d", "grid_nnls")}
    measure = synthesize(spec)
    assert {name: len(made) for name, made in calls.items()} == {
        "_pencil": pencils, "contraction_scale": boxes,
        "cf_atoms_1d": boxes * (spec.n == 1), "grid_nnls": boxes * (spec.n == 2)}
    assert no_construction(built)
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


# a solve of each kind up to two variables, and one beyond: the pencil, the
# split, a radius refusal, the grid fit, its refit, a refit the extended
# check refuses before the lattice answers, and sparse specs
SOLVES = {
    "n1-pencil": random_instance(1, 16, 4, 3)[0],
    "n1-split": random_instance(1, 4, 4, 0)[0],
    "n1-radius-refused": full_rank(18),
    "n1-sparse": MomentSpec.from_items(1, [((0,), 1.0), ((2,), 0.3), ((4,), 0.1j)]),
    "n2-grid": random_instance(2, 2, 3, 11)[0],
    "n2-refit": random_instance(2, 5, 4, 2)[0],
    "n2-refit-then-lattice": random_instance(2, 5, 4, 1)[0],
    "n2-sparse": random_box_spec(np.random.default_rng(5), n=2, degree=3),
    "n3-full": random_instance(3, 1, 2, 3)[0],
}


@pytest.mark.parametrize("spec", list(SOLVES.values()), ids=list(SOLVES))
def test_no_solve_builds_the_construction(spec, monkeypatch):
    built = construction_calls(monkeypatch)
    measure = synthesize(spec)
    assert no_construction(built)
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)
    # synthesis holds none of the construction, nor its types
    assert not any(hasattr(synthesis, name)
                   for name in (*CONSTRUCTION, "FourierTable", "EmbeddedSpec", "OperatorTuple"))


def test_construction_spy_sees_every_call(monkeypatch):
    # the spy above counts calls through any module of the package
    import momentsynth.dilation
    import momentsynth.lattice
    import momentsynth.operators

    built = construction_calls(monkeypatch)
    ops = momentsynth.operators.build_tuple(momentsynth.lattice.embed(SOLVES["n2-grid"]))
    momentsynth.dilation.fourier_table(ops, ops.degree)
    assert {name: len(made) for name, made in built.items()} == dict.fromkeys(CONSTRUCTION, 1)


def sparse_row(n, d):
    """ROADMAP's sparse rows: mass 1, 0.1 at (1, 0, ...) and 0.3+0.2i at (d, ..., d)."""
    return MomentSpec.from_items(
        n, [((0,) * n, 1.0), ((1,) + (0,) * (n - 1), 0.1), ((d,) * n, 0.3 + 0.2j)])


# the older attempt's radius would read the whole zero-filled box of each:
# 20,001 entries at n=1 d=20,000 and 2,521**2 at n=2 d=2,520
SPARSE_ROWS = [(1, 200), (1, 1000), (1, 2500), (2, 20), (2, 40), (1, 20000), (2, 2520)]


@pytest.mark.parametrize("n, d", SPARSE_ROWS, ids=[f"n{n}-d{d}" for n, d in SPARSE_ROWS])
def test_sparse_rows_of_high_degree_never_build_the_box(n, d, monkeypatch):
    built = construction_calls(monkeypatch)
    calls = {name: spy(monkeypatch, name)
             for name in ("_pencil", "contraction_scale", "lattice_quadrature")}
    spec = sparse_row(n, d)
    measure = synthesize(spec)
    assert {name: len(made) for name, made in calls.items()} == {
        "_pencil": 0, "contraction_scale": 0, "lattice_quadrature": 1}
    assert no_construction(built)
    assert measure.weights.min() > 0.0
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


# the moment sums that accept every answer take exponents up to 65,535, so
# no spec holds a larger one; the zero spec neither, whose zero measure
# `momentsynth solve` would report. Each entry builds its spec.
BEYOND_THE_CAP = {
    "n1": lambda: MomentSpec(1, ((0,), (70000,)), (1, 0.5)),
    "n2": lambda: MomentSpec.from_items(2, [((0, 0), 1.0), ((1, 0), 0.1), ((70000, 1), 0.3 + 0.2j)]),
    "zero": lambda: MomentSpec(1, ((0,), (70000,)), (0, 0)),
}


@pytest.mark.parametrize("build", list(BEYOND_THE_CAP.values()), ids=list(BEYOND_THE_CAP))
def test_exponent_beyond_the_cap_raises_before_any_attempt(build, monkeypatch):
    calls = {name: spy(monkeypatch, name)
             for name in ("_pencil", "contraction_scale", "lattice_quadrature", "report")}
    with pytest.raises(ValueError, match="^exponent 70000 exceeds the limit 65535$"):
        synthesize(build())
    assert all(made == [] for made in calls.values())


def test_screen_refuses_before_the_node_search(monkeypatch):
    # n = 4 with 126 moments, whose node search takes about 0.25 s and
    # whose lattice radius is refused
    spec = draw_spec(125)
    assert (spec.n, len(spec.indices)) == (4, 126)
    searches = spy(monkeypatch, "_rank1_lattice")
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(spec)
    (screen, why), = attempts_of(failure.value)
    assert screen.startswith("lattice screen, radius above ")
    assert why.startswith("moment sums on radius")
    assert searches == []


def refused(spec, log_radius):
    """Whether the torus screen refuses every answer to the spec on the
    torus of radius exp(log_radius)."""
    degrees = np.array([sum(k) for k in spec.indices], dtype=float)
    return torus_refusal(np.abs(np.asarray(spec.values)), degrees,
                         SolverConfig().allowance(spec), log_radius) is not None


@pytest.mark.parametrize("draw, seeds, screened", [
    (draw_spec, range(0, 400, 8), 18),
    (draw_full_range_spec, range(0, 1000, 20), 17),
], ids=["sweep", "full-range"])
def test_screen_refuses_only_what_the_lattice_radius_would(draw, seeds, screened):
    # wherever the screen refuses, the lattice's own radius is refused too
    refusals = []
    for seed in seeds:
        spec = draw(seed)
        try:
            synthesize(spec)
        except (ConvergenceFailure, Unsolvable) as exc:
            if "(lattice screen" in str(exc):
                refusals.append(refused(spec, lattice_quadrature(spec, _own_disc(spec))[1]))
    assert refusals == [True] * screened


def wide_corpus_spec(index):
    """Draw `index` of the wide-magnitude group of tools/corpus.py."""
    rng = np.random.default_rng(13)
    for _ in range(index):
        random_box_spec(rng, magnitude=1e6, mass_floor=1e-3)
    return random_box_spec(rng, magnitude=1e6, mass_floor=1e-3)


def first_rung(spec):
    """The exponents, the targets s_k / r**|k| and the torus radius r of the
    first pre-scaling of a two-variable spec, as the older attempt computes
    them; a sparse spec is zero-filled onto its box for the radius."""
    exponents = np.array(spec.indices)
    values = np.array(spec.values)
    degrees = exponents.sum(axis=1).astype(float)
    factor = synthesis._prescale_factor(spec)
    espec = embed(MomentSpec(2, spec.indices, tuple(values / factor**degrees)))
    radius = contraction_scale(espec.values.reshape((espec.degree + 1,) * 2))[1] * factor
    return exponents, values / radius**degrees, radius


def test_synthesize_stops_a_refinement_at_its_rounding_guard(monkeypatch):
    # this wide-magnitude spec is sparse, so synthesize never fits it on the
    # grid nor refines it, and the lattice answers
    fits = spy(monkeypatch, "_clamped_least_squares")
    refines = spy(monkeypatch, "refine")
    spec = wide_corpus_spec(84)
    assert not fills_its_box(spec)
    measure = synthesize(spec)
    assert (refines, fits) == ([], [])
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
    floor = _log_weight_floor(
        np.abs(np.array(values)), np.array([sum(k) for k in indices], dtype=float),
        allowance, np.log(radius))
    # the floor is exact on one atom moved outward, up to the rounding of its logs
    assert np.exp(floor) <= weight * (1.0 + 1e-12)


def test_synthesize_two_variables_quadrature_after_grid(monkeypatch):
    # the grid fit misses here and its one weight refit stalls above the
    # target, so the lattice stage answers
    outcomes = refine_outcomes(monkeypatch)
    grids = spy(monkeypatch, "grid_nnls")
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(2, 5, 4, 9)
    measure = synthesize(spec)
    assert len(outcomes) == 1 and outcomes[0].startswith("refinement stalled at residual")
    assert [args[2] for args in grids] == [synthesis.GRID]
    assert len(lattices) == 1
    assert len(measure) == 71 == 2 * len(spec.indices) - 1
    assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(2)


def test_synthesize_two_variables_solves_without_the_quadrature(monkeypatch):
    # fitted to its prescribed moments, the grid and its weight refit meet
    # the contract at the first pre-scaling
    grids = spy(monkeypatch, "grid_nnls")
    refines = spy(monkeypatch, "refine")
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(2, 5, 4, 2)
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
    exponents and targets the older attempt would give it."""
    exponents, targets, _ = first_rung(spec)
    grid_nnls(exponents, targets, synthesis.GRID)


def synthesize_or_fail(spec):
    try:
        synthesize(spec)
    except ConvergenceFailure:
        pass


@pytest.mark.parametrize(
    "spec, run",
    [
        # sparse specs, which synthesize never fits on the grid
        (MomentSpec.from_items(2, [((0, 0), 1.0), ((9, 9), 0.5)]), first_rung_grid_fit),
        (random_instance(2, 5, 4, 0)[0], synthesize_or_fail),
        (random_box_spec(np.random.default_rng(5), n=2, degree=3), first_rung_grid_fit),
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
    built = construction_calls(monkeypatch)
    stages = {name: spy(monkeypatch, name) for name in OLDER}
    spec, _ = random_instance(3, 4, 4, 3)
    measure = synthesize(spec)
    assert {name: len(calls) for name, calls in stages.items()} == dict.fromkeys(OLDER, 0)
    assert no_construction(built)
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
    "n1-d16": (full_rank(16), 33),
    "n1-d32": (full_rank(32), 65),
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


# ---------------------------------------------------------------------------
# the own-disc front end
# ---------------------------------------------------------------------------


def test_own_disc_holds_t_lo_and_the_moments_on_the_disc():
    spec = MomentSpec(2, ((0, 0), (1, 0), (0, 2), (1, 1)), (4.0, 8.0j, 0.0, -1.0 + 1.0j))
    disc = _own_disc(spec)
    # the zero moment at (0, 2) is left out; |s_(1,0)| / s0 = 2 sets t_lo
    assert disc.exponents.tolist() == [[1, 0], [1, 1]]
    assert disc.degrees.tolist() == [1, 2]
    assert disc.t_lo == pytest.approx(math.log(2.0), rel=1e-15)
    for t in (disc.t_lo, 0.0, -1.5):
        assert disc.unit(t) == pytest.approx(
            [8.0j / (4.0 * math.exp(t)), (-1.0 + 1.0j) / (4.0 * math.exp(2.0 * t))], rel=1e-14)
    # none above 1 in modulus on the disc itself
    assert np.abs(disc.unit(disc.t_lo)).max() == pytest.approx(1.0, rel=1e-15)
    alone = _own_disc(MomentSpec(1, ((0,), (1,)), (2.0, 0.0)))
    assert (alone.t_lo, len(alone.degrees), alone.unit(0.0).size) == (-math.inf, 0, 0)


# (spec, front-end calls, _pencil calls, lattice_quadrature calls)
FRONT_END = {
    "pencil-answer": (random_instance(1, 16, 4, 3)[0], 1, 1, 0),
    "older-split-answer": (random_instance(1, 4, 4, 0)[0], 1, 1, 0),
    "older-grid-answer": (random_instance(2, 4, 1, 8)[0], 1, 0, 0),
    "lattice-answer": (MomentSpec(1, ((0,), (2,)), (1.0, 0.5)), 1, 0, 1),
    "screen-refusal": (MomentSpec(2, ((0, 0), (1, 0)), (1e-300, 1e10)), 1, 0, 0),
    "zero-spec": (MomentSpec(2, ((0, 0), (1, 0)), (0.0, 0.0)), 0, 0, 0),
}


@pytest.mark.parametrize("spec, fronts, pencils, lattices", list(FRONT_END.values()),
                         ids=list(FRONT_END))
def test_one_front_end_call_per_gated_solve(spec, fronts, pencils, lattices, monkeypatch):
    discs = []
    original = synthesis._own_disc

    def front_end(spec):
        discs.append(original(spec))
        return discs[-1]

    monkeypatch.setattr(synthesis, "_own_disc", front_end)
    readers = {name: spy(monkeypatch, name) for name in ("_pencil", "lattice_quadrature")}
    try:
        synthesize(spec)
    except ConvergenceFailure as exc:
        assert attempts_of(exc)[-1][0].startswith("lattice screen")
    assert (len(discs), len(readers["_pencil"]), len(readers["lattice_quadrature"])) == (
        fronts, pencils, lattices)
    # both readers take the solve's one disc, and the one call counted above
    # is synthesize's own: they compute none
    assert all(args[0] is spec and args[1] is discs[0]
               for calls in readers.values() for args in calls)


# ---------------------------------------------------------------------------
# the matrix pencil
# ---------------------------------------------------------------------------


def pencil_outcomes(monkeypatch):
    """Record what every _pencil call returns."""
    outcomes = []
    original = synthesis._pencil

    def wrapper(spec, disc):
        outcomes.append(original(spec, disc))
        return outcomes[-1]

    monkeypatch.setattr(synthesis, "_pencil", wrapper)
    return outcomes


def without_pencil(spec, monkeypatch):
    """What synthesize does with the pencil stubbed out: the answer's
    bytes, or the exception's class and its attempts."""
    with monkeypatch.context() as patch:
        patch.setattr(synthesis, "_pencil", lambda spec, disc: None)
        try:
            measure = synthesize(spec)
        except ConvergenceFailure as exc:
            return ConvergenceFailure, attempts_of(exc)
    return measure.atoms.tobytes(), measure.weights.tobytes()


def one_variable(values):
    """The one-variable spec of s_0, s_1, ... on the full box."""
    return MomentSpec(1, tuple((k,) for k in range(len(values))), tuple(values))


# the Baseline rows and GATED specs of four atoms, whose Hankel matrices
# have rank 4
LOW_RANK = {f"n1-d{d}": random_instance(1, d, 4, 3)[0] for d in (16, 18, 24, 32)}


@pytest.mark.parametrize("spec", list(LOW_RANK.values()), ids=list(LOW_RANK))
def test_pencil_answers_low_rank_specs(spec, monkeypatch):
    built = construction_calls(monkeypatch)
    stages = {name: spy(monkeypatch, name) for name in OLDER + ("lattice_quadrature",)}
    measure = synthesize(spec)
    assert {name: len(calls) for name, calls in stages.items()} == {
        **dict.fromkeys(OLDER, 0), "lattice_quadrature": 0,
    }
    assert no_construction(built)
    assert len(measure) == 4
    assert measure.weights.min() > 0.0
    # not on one torus: scale is the support radius
    assert measure.scale == measure.support_radius == float(np.max(np.abs(measure.atoms)))
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


def test_pencil_answer_passes_synthesize_acceptance(monkeypatch):
    # the lattice's answer has the smaller relative residual (rounding
    # decides both): the pencil's four atoms miss a tol between the two, and
    # the lattice answers; below both nothing answers
    spec = LOW_RANK["n1-d16"]
    disc = _own_disc(spec)
    unit, t = lattice_quadrature(spec, disc)
    lattice = AtomicMeasure(1, math.exp(t) * np.exp(1j * np.angle(unit.atoms)), unit.weights,
                            scale=math.exp(t))
    relative = {name: report(spec, measure).max_residual / SolverConfig(tol=1.0).allowance(spec)
                for name, measure in (("pencil", synthesis._pencil(spec, disc)[1]),
                                      ("lattice", lattice))}
    assert relative["lattice"] < relative["pencil"]
    outcomes = pencil_outcomes(monkeypatch)
    config = SolverConfig(tol=math.sqrt(relative["lattice"] * relative["pencil"]))
    measure = synthesize(spec, config)
    (m, candidate), = outcomes
    assert m == len(candidate) == 4
    assert report(spec, candidate).max_residual > config.allowance(spec)
    assert len(measure) == 33
    assert extended_residual(spec, measure) <= config.allowance(spec)
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(spec, SolverConfig(tol=0.5 * relative["lattice"]))
    assert attempts_of(failure.value)[0] == (
        "pencil, 4 atoms", "synthesized measure misses the residual target")


def test_pencil_rank_miss_leaves_the_split(monkeypatch):
    # four atoms at d = 4: a 3 x 3 Hankel matrix of rank 3 > L = 2
    outcomes = pencil_outcomes(monkeypatch)
    splits = spy(monkeypatch, "cf_atoms_1d")
    lattices = spy(monkeypatch, "lattice_quadrature")
    spec, _ = random_instance(1, 4, 4, 0)
    measure = synthesize(spec)
    assert (outcomes, len(splits), len(lattices)) == ([None], 1, 0)
    assert np.allclose(np.abs(measure.atoms), measure.scale, rtol=1e-12)
    assert (measure.atoms.tobytes(), measure.weights.tobytes()) == without_pencil(spec, monkeypatch)
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


@pytest.mark.parametrize("w1, w2, why", [
    (1.0, -0.4, "a weight is not positive (-4.000e-01)"),
    (0.6 + 0.2j, 0.4 - 0.2j, "a weight is not real (imaginary part 2.000e-01)"),
], ids=["negative", "complex"])
def test_pencil_refuses_weights_of_no_measure(w1, w2, why, monkeypatch):
    # s_k = w1 z1**k + w2 z2**k has rank 2 <= L = 3, and the pencil finds
    # its atoms with the weights w1 and w2
    z1, z2 = 0.6 * np.exp(0.3j), 0.5 * np.exp(2j)
    spec = one_variable([w1 * z1**k + w2 * z2**k for k in range(7)])
    outcomes = pencil_outcomes(monkeypatch)
    splits = spy(monkeypatch, "cf_atoms_1d")
    lattices = spy(monkeypatch, "lattice_quadrature")
    measure = synthesize(spec)
    (m, reason), = outcomes
    assert (m, reason) == (2, why)
    # the split answers
    assert (len(splits), len(lattices)) == (1, 0)
    assert (measure.atoms.tobytes(), measure.weights.tobytes()) == without_pencil(spec, monkeypatch)
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)
    # a failure lists the pencil's refusal first, then the attempts of today
    def split_fails(*args, **kwargs):
        raise ConvergenceFailure("stubbed")

    monkeypatch.setattr(synthesis, "cf_atoms_1d", split_fails)
    monkeypatch.setattr(synthesis, "lattice_quadrature", off_the_doubles)
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(spec)
    attempts = attempts_of(failure.value)
    assert attempts[0] == ("pencil, 2 atoms", reason)
    assert (ConvergenceFailure, attempts[1:]) == without_pencil(spec, monkeypatch)


def test_pencil_skips_a_sub_box(monkeypatch):
    # the even moments of two atoms: a sub-box, whatever its rank, which
    # neither the pencil nor the older attempt reads; the lattice answers
    z1, z2 = 0.6 * np.exp(0.3j), 0.5 * np.exp(2j)
    spec = MomentSpec(1, ((0,), (2,), (4,), (6,)),
                      tuple(0.7 * z1**k + 0.3 * z2**k for k in range(0, 7, 2)))
    outcomes = pencil_outcomes(monkeypatch)
    built = construction_calls(monkeypatch)
    stages = {name: spy(monkeypatch, name) for name in OLDER + ("lattice_quadrature",)}
    measure = synthesize(spec)
    assert outcomes == []
    assert {name: len(calls) for name, calls in stages.items()} == {
        **dict.fromkeys(OLDER, 0), "lattice_quadrature": 1,
    }
    assert no_construction(built)
    assert len(measure) == 2 * len(spec.indices) - 1
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


def test_pencil_never_runs_beyond_one_variable(monkeypatch):
    pencils = spy(monkeypatch, "_pencil")
    for spec in (random_instance(2, 2, 1, 4)[0], random_instance(3, 2, 1, 4)[0]):
        measure = synthesize(spec)
        assert extended_relative_residual(spec, measure) <= SolverConfig().resolved_tol(spec.n)
    assert pencils == []


EXTREME = {
    # one atom at 1e60 of weight 1e-300: the Vandermonde matrix of the raw
    # data overflows, the one of the data on their own disc does not
    "vandermonde-overflows": one_variable([10.0 ** (60 * k - 300) for k in range(7)]),
    # one atom at 1e100 of weight 1e-300, which the pencil answers
    "atom-1e100": one_variable([10.0 ** (100 * k - 300) for k in range(4)]),
    "subnormal": one_variable([5e-324, 5e-324, 0, 0]),
    "mass-near-double-max": one_variable([1.7e308 * 0.5**k for k in range(5)]),
    "atom-1e-100": one_variable([10.0 ** (-100 * k) for k in range(5)]),
    # the atom above with s_4 = 0 for 1e100: rank 2, and a weight not positive
    "atom-1e100-cut": one_variable([10.0 ** (100 * k - 300) for k in range(4)] + [0.0]),
    # the raw data's pencil divides by a subnormal and overflows; on their
    # own disc the data have rank 2 > L = 1
    "scale-overflows": one_variable([1e-300, 5e-324, 1]),
}


@pytest.mark.parametrize("spec", list(EXTREME.values()), ids=list(EXTREME))
def test_pencil_at_extreme_magnitudes_warns_and_escapes_nothing(spec, monkeypatch):
    outcome = without_pencil(spec, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            measure = synthesize(spec)
        except ConvergenceFailure:
            # the older attempt and the lattice fail as they did
            assert outcome[0] is ConvergenceFailure
            return
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


def pencil_atoms(spec):
    """The atoms and weights of the pencil's answer to spec."""
    measure = synthesize(spec)
    assert len(measure) == 4
    return measure.atoms[:, 0], measure.weights


@pytest.mark.parametrize("degree", [8, 10, 16])
@pytest.mark.parametrize("seed", range(3))
def test_pencil_answers_are_exactly_symmetric(degree, seed):
    # rotation s_k -> e^(ik phi) s_k, conjugation, and dilation
    # s_k -> lam**k s_k map the atoms by the same map, weights unchanged
    spec = random_instance(1, degree, 4, seed)[0]
    atoms, weights = pencil_atoms(spec)
    maps = [
        (lambda k, v: v * np.exp(0.7j * k), lambda z: z * np.exp(0.7j)),
        (lambda k, v: v.conjugate(), np.conj),
        (lambda k, v: v * 0.5**k, lambda z: 0.5 * z),
        (lambda k, v: v * 2.0**k, lambda z: 2.0 * z),
    ]
    for on_moments, on_atoms in maps:
        image = MomentSpec(1, spec.indices,
                           tuple(on_moments(k, v) for (k,), v in zip(spec.indices, spec.values)))
        got, got_weights = pencil_atoms(image)
        expected = on_atoms(atoms)
        nearest = [int(np.argmin(np.abs(got - z))) for z in expected]
        assert sorted(nearest) == [0, 1, 2, 3]
        assert np.max(np.abs(got[nearest] - expected)) <= 1e-10
        assert np.max(np.abs(got_weights[nearest] - weights)) <= 1e-10


def dilated(spec, factor):
    """The spec of the same measure with every atom multiplied by factor."""
    return MomentSpec(spec.n, spec.indices,
                      tuple(v * factor ** sum(k) for k, v in zip(spec.indices, spec.values)))


@pytest.mark.parametrize("seed", range(10))
def test_pencil_reads_dilated_data_on_their_own_disc(seed, monkeypatch):
    # four atoms in the disc of radius 100: on the raw s_k the rank rule
    # reads 2 or 3 and the weights are not real, and the lattice answers
    # with 21 atoms; on s_k / (s0 e^(k t)) the pencil finds all four
    spec = dilated(random_instance(1, 10, 4, seed)[0], 100.0)
    outcomes = pencil_outcomes(monkeypatch)
    stages = {name: spy(monkeypatch, name) for name in OLDER + ("lattice_quadrature",)}
    measure = synthesize(spec)
    (m, candidate), = outcomes
    assert m == len(candidate) == len(measure) == 4
    assert {name: len(calls) for name, calls in stages.items()} == {
        **dict.fromkeys(OLDER, 0), "lattice_quadrature": 0,
    }
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


def test_pencil_refuses_atoms_beyond_a_double():
    # one atom at 2**1030 > the double maximum, of weight 2**-1040: on its
    # own disc the data are 2**-1040 (1, 1, 1), of rank 1 and atom 1, so the
    # fit runs clean, and only the atom multiplied back by e^t overflows
    spec = one_variable([2.0**-1040, 2.0**-10, 2.0**1020])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, reason = synthesis._pencil(spec, _own_disc(spec))
        with pytest.raises(ConvergenceFailure) as failure:
            synthesize(spec)
    assert m == 1
    assert re.fullmatch(r"overflow encountered in (exp|multiply)", reason)
    attempts = attempts_of(failure.value)
    assert attempts[0] == ("pencil, 1 atoms", reason)
    assert attempts[-1][0] == "lattice screen, radius above 1.151e+310"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_synthesize_radius_beyond_a_double_fails_cleanly(n, monkeypatch):
    # |s_1| / s0 = 1e310: no answer has atoms of modulus within a double
    spec = MomentSpec(n, ((0,) * n, (1,) + (0,) * (n - 1)), (1e-300, 1e10))
    searches = spy(monkeypatch, "_rank1_lattice")
    built = construction_calls(monkeypatch)
    radii = spy(monkeypatch, "contraction_scale")
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(spec)
    *older, (screen, why) = attempts_of(failure.value)
    # the screen refuses the bracket floor before any node is built
    assert screen == "lattice screen, radius above 1.000e+310"
    assert re.fullmatch(r"radius 1\.000e\+310 is beyond the range of a double", why)
    assert searches == []
    # the lattice's own radius lies beyond a double as well
    assert lattice_quadrature(spec, _own_disc(spec))[1] > math.log(np.finfo(float).max)
    # only (0), (1) fills its exponent box; the older attempt names the
    # overflow of its radius, -s_1 / s0 = -1e310, and builds no construction
    assert (len(radii), no_construction(built)) == (int(n == 1), True)
    if n == 1:
        (attempt, reason), = older
        assert attempt == "prescale 1, split"
        # numpy before 1.25 names the ufunc true_divide
        assert re.fullmatch(r"overflow encountered in \w+", reason)
    else:
        assert older == []


# ends of the double range, where the parent raised OverflowError, LinAlgError
# or ValueError, or (under the test warning filter) a RuntimeWarning
N3 = ((0, 0, 0), (1, 0, 0), (0, 1, 1))
FULL_RANGE = {
    # the older stage's radius overflows
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


def test_older_radius_overflows_where_the_dense_tuple_did(monkeypatch):
    # the radius's closed form squares s_2 / s0 = 1e300, as the norm of the
    # dense tuple did: the older attempt ends on that overflow, and the
    # lattice answers.  On its own disc the spec has rank 2 > L = 1, so the
    # pencil makes no attempt
    spec = FULL_RANGE["n1-scale-overflows"]
    assert synthesis._pencil(spec, _own_disc(spec)) is None
    monkeypatch.setattr(synthesis, "lattice_quadrature", off_the_doubles)
    with pytest.raises(ConvergenceFailure) as failure:
        synthesize(spec)
    (attempt, reason), _ = attempts_of(failure.value)
    assert attempt == "prescale 1, split"
    assert re.fullmatch(r"overflow encountered in \w+", reason)


def test_full_range_961_keeps_the_split_answer(monkeypatch):
    # mass 1.9e-239 on (0), (1), (2): the split answers with 3 atoms; the
    # sum of |s_q|**2 / s0**2 taken as one quotient underflows and gives a
    # 5-atom lattice answer instead
    spec = draw_full_range_spec(961)
    splits = spy(monkeypatch, "cf_atoms_1d")
    lattices = spy(monkeypatch, "lattice_quadrature")
    measure = synthesize(spec)
    assert (len(splits), len(lattices), len(measure)) == (1, 0, 3)
    assert extended_residual(spec, measure) <= SolverConfig().allowance(spec)


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
