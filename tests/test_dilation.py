import numpy as np
import pytest

from conftest import random_box_spec
from momentsynth.dilation import (
    fourier_table,
    min_eigenvalue,
    pd_section,
    psd_check,
)
from momentsynth.lattice import MomentSpec, box, embed
from momentsynth.operators import apply_power, build_tuple


def _table(n, indices, values, radius=None):
    es = embed(MomentSpec(n, indices, values))
    ops = build_tuple(es)
    return ops, fourier_table(ops, radius if radius is not None else es.degree)


def test_mass_entry():
    ops, table = _table(1, ((0,), (1,)), (1, 0))
    assert table.entries[(0,)].imag == 0.0
    assert table.entries[(0,)].real == pytest.approx(1.0, rel=1e-12)
    assert table.mass == pytest.approx(1.0, rel=1e-12)


def test_trivial_line():
    _, table = _table(1, ((0,), (1,)), (1, 0))
    assert table.entries[(1,)] == pytest.approx(0.0, abs=1e-15)
    assert table.entries[(-1,)] == pytest.approx(0.0, abs=1e-15)


def test_hermitian_symmetry(rng):
    for _ in range(10):
        spec = random_box_spec(rng)
        es = embed(spec)
        ops = build_tuple(es)
        table = fourier_table(ops, es.degree)
        for k, v in table.entries.items():
            neg = tuple(-e for e in k)
            assert table.entries[neg] == np.conj(v)


def test_table_matches_apply_power(rng):
    # radius degree + 1 reaches indices whose power images leave the box
    specs = [random_box_spec(rng, n=n) for n in (1, 2, 3) for _ in range(3)]
    specs.append(random_box_spec(rng, n=1, degree=16))
    for spec in specs:
        es = embed(spec)
        ops = build_tuple(es)
        table = fourier_table(ops, es.degree + 1)
        for k, v in table.entries.items():
            assert v == pytest.approx(apply_power(ops, k), abs=1e-13)


def test_table_scale_consistency(rng):
    # scale**|k| times the table entry reproduces the embedded moments
    for _ in range(20):
        spec = random_box_spec(rng)
        es = embed(spec)
        ops = build_tuple(es)
        table = fourier_table(ops, es.degree)
        scale = max(1.0, max(abs(v) for v in spec.values))
        for k in es.box:
            value = ops.scale ** sum(k) * table.entries[k]
            assert abs(value - es.value_of(k)) <= 1e-10 * scale


def test_table_radius_validation():
    es = embed(MomentSpec(1, ((0,), (2,)), (1, 0.5)))
    ops = build_tuple(es)
    with pytest.raises(ValueError):
        fourier_table(ops, 1)
    with pytest.raises(ValueError):
        fourier_table(ops, 2).value((3,))


def test_pd_section_identity_case():
    _, table = _table(1, ((0,), (1,)), (1, 0))
    M = pd_section(table, 1)
    assert np.allclose(M, np.eye(2))


def test_pd_section_mass_only_diagonal():
    _, table = _table(2, ((0, 0),), (5,))
    M = pd_section(table, 1)
    assert np.allclose(M, 5.0 * np.eye(4), atol=1e-12)


def test_pd_section_needs_table_radius():
    _, table = _table(1, ((0,), (1,)), (1, 0))
    with pytest.raises(ValueError):
        pd_section(table, 2)


def test_pd_section_positive_on_random_instances(rng):
    for _ in range(20):
        spec = random_box_spec(rng, n=int(rng.integers(1, 3)))
        es = embed(spec)
        ops = build_tuple(es)
        table = fourier_table(ops, es.degree)
        M = pd_section(table, es.degree)
        assert min_eigenvalue(M, resolution=1e-10) >= -1e-8 * spec.mass.real


def test_psd_check_identity():
    ok, witness = psd_check(np.eye(3), 0.0)
    assert ok
    assert witness == pytest.approx(1.0)


def test_psd_check_indefinite_witness():
    ok, witness = psd_check(np.diag([1.0, -1.0]), 1e-9)
    assert not ok
    assert witness == pytest.approx(-1.0, rel=1e-6)


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


def test_psd_check_matches_eigensolver(rng):
    # independent oracle: numpy's Hermitian eigensolver
    for _ in range(20):
        size = int(rng.integers(2, 8))
        base = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        M = base + base.conj().T
        lam = float(np.linalg.eigvalsh(M).min())
        assert psd_check(M, -lam + 1e-8)[0]
        assert not psd_check(M, -lam - 1e-6 * max(1.0, abs(lam)))[0]


def test_min_eigenvalue_matches_eigensolver(rng):
    for _ in range(10):
        size = int(rng.integers(1, 7))
        base = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        M = base + base.conj().T
        exact = float(np.linalg.eigvalsh(M).min())
        est = min_eigenvalue(M, resolution=1e-10)
        assert est == pytest.approx(exact, abs=1e-8)
        assert est <= exact + 1e-10
