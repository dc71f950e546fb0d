import itertools

import numpy as np
import pytest

from conftest import random_box_spec
from momentsynth.lattice import MomentSpec, embed
from momentsynth.operators import _box_vectors, apply_power, build_tuple, moment_identity


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
        vecs = _box_vectors(ops, es.degree)
        oracle = sequence_space_gram(es.values)
        realized = np.array([
            [ops.scale ** (sum(j) + sum(l)) * np.vdot(vecs[l], vecs[j]) for l in es.box]
            for j in es.box
        ])
        assert np.max(np.abs(realized - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_gram_rejects_bad_mass():
    with pytest.raises(ValueError):
        build_tuple(_embed(1, ((0,), (1,)), (-1, 0)))
    es = embed(MomentSpec(1, ((0,), (1,)), (1, 0)))
    bad = type(es)(es.n, es.degree, es.box, np.array([1j, 0.0]))
    with pytest.raises(ValueError):
        build_tuple(bad)


def test_build_tuple_trivial_instance():
    ops = build_tuple(_embed(1, ((0,), (1,)), (1, 0)))
    assert np.allclose(ops.matrices[0], [[0, 0], [1, 0]])
    assert ops.norm_bound == pytest.approx(1.0)
    assert ops.scale == pytest.approx(1.1, rel=1e-12)
    assert np.allclose(ops.cyclic, [1, 0])


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
                v1 = ops.contraction(coord) @ v1
        v2 = ops.cyclic
        for coord in (3, 1, 2):
            for _ in range(k[coord - 1]):
                v2 = ops.contraction(coord) @ v2
        assert abs(np.vdot(ops.cyclic, v1) - np.vdot(ops.cyclic, v2)) <= 1e-12


def test_moment_identity_mass_only():
    es = _embed(2, ((0, 0),), (3,))
    ops = build_tuple(es)
    assert moment_identity(ops, es) <= 1e-12


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
        assert moment_identity(ops, es) <= 1e-10 * scale
