import itertools

import numpy as np
import pytest

from conftest import apply_power, bounded, moment_deviation, power_image, random_box_spec
from momentsynth.lattice import MomentSpec, box, embed
from momentsynth.operators import MARGIN, build_tuple, contraction_scale


def _embed(n, indices, values):
    return embed(MomentSpec(n, indices, values))


def sequence_space_gram(values):
    """Independent oracle: build the construction vectors explicitly and
    take raw inner products (linear in the first slot)."""
    values = np.asarray(values, dtype=complex)
    p = len(values)
    a = np.sqrt(values[0].real)
    X = np.zeros((p, p), dtype=complex)
    X[0, 0] = a
    for j in range(1, p):
        X[j, j] = 1.0
        X[0, j] = values[j] / a
    G = np.empty((p, p), dtype=complex)
    for j in range(p):
        for l in range(p):
            G[j, l] = np.vdot(X[:, l], X[:, j])
    return G


def test_gram_matches_sequence_space_oracle(rng):
    # full realization: every pair of box power images, not only row 0
    for _ in range(20):
        spec = random_box_spec(rng)
        es = embed(spec)
        ops = build_tuple(es)
        oracle = sequence_space_gram(es.values)
        full = box(es.n, es.degree)
        vecs = {k: power_image(ops, k) for k in full}
        realized = np.array([
            [ops.scale ** (sum(j) + sum(l)) * np.vdot(vecs[l], vecs[j]) for l in full]
            for j in full
        ])
        assert np.max(np.abs(realized - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_gram_rejects_bad_mass():
    with pytest.raises(ValueError):
        build_tuple(_embed(1, ((0,), (1,)), (-1, 0)))
    es = embed(MomentSpec(1, ((0,), (1,)), (1, 0)))
    bad = type(es)(es.n, es.degree, np.array([1j, 0.0]))
    with pytest.raises(ValueError):
        build_tuple(bad)


def test_build_tuple_trivial_instance():
    ops = build_tuple(_embed(1, ((0,), (1,)), (1, 0)))
    assert np.allclose(ops.matrices[0], [[0, 0], [1, 0]])
    assert ops.norm_bound == pytest.approx(1.0)
    assert ops.scale == pytest.approx(1.1, rel=1e-12)
    assert np.allclose(ops.cyclic, [1, 0])


def test_shift_matrices_are_tuple_increments(rng):
    # each matrix is L^T @ raw @ L^-T, raw sending box index k to k + e_j
    # when that stays in the box; raw is built here by tuple increments
    for n in (1, 2, 3):
        for degree in (1, 2, 3):
            es = embed(random_box_spec(rng, n=n, degree=degree))
            ops = build_tuple(es)
            full = box(n, es.degree)
            position = {k: i for i, k in enumerate(full)}
            a, tail = np.sqrt(ops.mass), es.values[1:]
            Lt = np.eye(len(full), dtype=complex)
            Lt[0, 0], Lt[0, 1:] = a, tail / a
            Lt_inv = np.eye(len(full), dtype=complex)
            Lt_inv[0, 0], Lt_inv[0, 1:] = 1.0 / a, -tail / ops.mass
            for j in range(n):
                raw = np.zeros((len(full), len(full)))
                for k in full:
                    up = k[:j] + (k[j] + 1,) + k[j + 1:]
                    if up in position:
                        raw[position[up], position[k]] = 1.0
                assert np.array_equal(ops.matrices[j], Lt @ raw @ Lt_inv)


def test_build_tuple_cyclic_norm():
    ops = build_tuple(_embed(1, ((0,), (1,)), (4, 0)))
    assert np.vdot(ops.cyclic, ops.cyclic).real == pytest.approx(4.0, rel=1e-12)


def test_commutators_vanish(rng):
    for _ in range(30):
        spec = random_box_spec(rng, n=int(rng.integers(2, 4)))
        ops = build_tuple(embed(spec))
        bound = 1e-12 * max(np.linalg.norm(m) for m in ops.matrices) ** 2
        for i, j in itertools.combinations(range(ops.n), 2):
            comm = ops.matrices[i] @ ops.matrices[j] - ops.matrices[j] @ ops.matrices[i]
            assert np.linalg.norm(comm) <= bound


def test_contraction_condition(rng):
    for _ in range(30):
        spec = random_box_spec(rng)
        ops = build_tuple(embed(spec))
        total = sum((np.linalg.norm(m) / ops.scale) ** 2 for m in ops.matrices)
        assert total < 1.0
        assert total <= 1.0 / 1.21


def full_box_spec(rng, n, degree):
    """Every exponent of box(n, degree): a positive mass and complex values,
    each modulus over twelve decades."""
    indices = box(n, degree)
    values = [10.0 ** bounded(rng, -6.0, 6.0)] + [
        10.0 ** bounded(rng, -6.0, 6.0) * np.exp(2j * np.pi * rng.random()) for _ in indices[1:]]
    return MomentSpec(n, indices, tuple(values))


def check_contraction_scale(spec):
    """The closed form against the dense tuple: each Frobenius norm within a
    few ulps of `np.linalg.norm`, build_tuple's bound and scale the closed
    form's, and the dense matrices a strict contraction at that scale."""
    es = embed(spec)
    ops = build_tuple(es)
    norms, scale = contraction_scale(es.values.reshape((es.degree + 1,) * es.n))
    dense = np.array([np.linalg.norm(m) for m in ops.matrices])
    eps = np.finfo(float).eps
    assert np.all(np.abs(norms - dense) <= 4 * eps * dense)
    assert (ops.norm_bound, ops.scale) == (norms.max(), scale)
    assert scale == pytest.approx(MARGIN * np.sqrt(es.n) * dense.max(), rel=16 * eps)
    assert float(np.sum((dense / scale) ** 2)) < 1.0 / MARGIN**2


@pytest.mark.parametrize("n, top", [(1, 12), (2, 5), (3, 3)], ids=["n1", "n2", "n3"])
def test_contraction_scale_is_the_norm_of_the_dense_tuple(n, top, rng):
    for degree in range(1, top + 1):
        for _ in range(8):
            check_contraction_scale(full_box_spec(rng, n, degree))


def test_contraction_scale_on_the_wide_corpus_group():
    # the wide group of tools/corpus.py: moduli up to 1e6, masses from 1e-3
    rng = np.random.default_rng(13)
    for _ in range(150):
        check_contraction_scale(random_box_spec(rng, magnitude=1e6, mass_floor=1e-3))


def test_apply_power_zero_index(rng):
    spec = random_box_spec(rng)
    ops = build_tuple(embed(spec))
    assert apply_power(ops, (0,) * ops.n) == pytest.approx(spec.mass.real, rel=1e-12)


def test_apply_power_adjoint_symmetry(rng):
    for _ in range(10):
        spec = random_box_spec(rng)
        ops = build_tuple(embed(spec))
        for _ in range(5):
            k = tuple(int(e) for e in rng.integers(-2, 3, size=ops.n))
            neg = tuple(-e for e in k)
            assert apply_power(ops, neg) == pytest.approx(
                np.conj(apply_power(ops, k)), abs=1e-12
            )


def test_apply_power_orthogonal_shift():
    ops = build_tuple(_embed(1, ((0,), (1,)), (1, 0)))
    assert apply_power(ops, (1,)) == pytest.approx(0.0, abs=1e-15)


def test_apply_power_order_independence(rng):
    # apply coordinates in reversed order via transposed index trickery:
    # evaluating with permuted matrices must give the same value.
    for _ in range(5):
        spec = random_box_spec(rng, n=3, degree=2)
        ops = build_tuple(embed(spec))
        k = (1, 2, 1)
        v1 = ops.cyclic
        for coord in (1, 2, 3):
            for _ in range(k[coord - 1]):
                v1 = ops.matrices[coord - 1] / ops.scale @ v1
        v2 = ops.cyclic
        for coord in (3, 1, 2):
            for _ in range(k[coord - 1]):
                v2 = ops.matrices[coord - 1] / ops.scale @ v2
        assert abs(np.vdot(ops.cyclic, v1) - np.vdot(ops.cyclic, v2)) <= 1e-12


def test_moment_identity_mass_only():
    es = _embed(2, ((0, 0),), (3,))
    ops = build_tuple(es)
    assert moment_deviation(ops, es) <= 1e-12


def test_moment_identity_simple_chain():
    es = _embed(1, ((0,), (1,)), (1, 2))
    ops = build_tuple(es)
    value = ops.scale * apply_power(ops, (1,))
    assert value == pytest.approx(2.0, rel=1e-12)


def test_moment_identity_random(rng):
    for _ in range(100):
        spec = random_box_spec(rng)
        es = embed(spec)
        ops = build_tuple(es)
        scale = max(1.0, max(abs(v) for v in spec.values))
        assert moment_deviation(ops, es) <= 1e-10 * scale
