import itertools

import numpy as np
import pytest

from conftest import apply_power, pd_section, random_box_spec
from momentsynth.dilation import fourier_table, min_eigenvalue, psd_check
from momentsynth.lattice import MomentSpec, box, embed
from momentsynth.operators import build_tuple
from momentsynth.verify import random_instance


def _table(n, indices, values, radius=None):
    es = embed(MomentSpec(n, indices, values))
    ops = build_tuple(es)
    return ops, fourier_table(ops, radius if radius is not None else es.degree)


def test_mass_entry():
    ops, table = _table(1, ((0,), (1,)), (1, 0))
    assert table.coeffs[0].imag == 0.0
    assert table.coeffs[0].real == pytest.approx(1.0, rel=1e-12)
    assert table.mass == pytest.approx(1.0, rel=1e-12)


def test_trivial_line():
    _, table = _table(1, ((0,), (1,)), (1, 0))
    assert table.coeffs[1] == pytest.approx(0.0, abs=1e-15)
    assert table.coeffs[-1] == pytest.approx(0.0, abs=1e-15)


def test_hermitian_symmetry(rng):
    for _ in range(10):
        spec = random_box_spec(rng)
        es = embed(spec)
        ops = build_tuple(es)
        table = fourier_table(ops, es.degree)
        size = 2 * table.radius + 1
        # entry -k of the periodic layout sits at index -k mod size
        negated = table.coeffs[np.ix_(*((-np.arange(size)) % size,) * table.n)]
        assert np.array_equal(negated, table.coeffs.conj())


def _closed_form_entries(ops, radius):
    """The table as Python complex scalars keyed by signed index: the closed
    form on the canonical half (first nonzero entry positive), conjugates on
    the other half, the mass at zero."""
    full = box(ops.n, ops.degree)
    powers = np.array([sum(k) for k in full])
    scaled = ops.espec.values / ops.scale ** powers
    scaled[0] = ops.mass
    reduced = dict(zip(full, map(complex, scaled)))
    zero = (0,) * ops.n
    entries = {zero: complex(ops.mass)}
    for k in itertools.product(range(-radius, radius + 1), repeat=ops.n):
        if k == zero or next(e for e in k if e) < 0:
            continue
        plus = tuple(max(e, 0) for e in k)
        minus = tuple(max(-e, 0) for e in k)
        value = reduced.get(plus, 0j) * reduced.get(minus, 0j).conjugate() / ops.mass
        entries[k] = value
        entries[tuple(-e for e in k)] = value.conjugate()
    return entries


def test_table_matches_scalar_closed_form_bit_for_bit(rng):
    # signed zeros included: the array form must repeat the scalar operations
    for radius_over_degree in (0, 1):
        for n in (1, 2, 3):
            for _ in range(6):
                es = embed(random_box_spec(rng, n=n))
                ops = build_tuple(es)
                table = fourier_table(ops, es.degree + radius_over_degree)
                expected = np.empty_like(table.coeffs)
                for k, v in _closed_form_entries(ops, table.radius).items():
                    expected[k] = v
                assert expected.tobytes() == table.coeffs.tobytes()


def test_table_matches_apply_power(rng):
    # radius degree + 1 reaches indices whose power images leave the box
    specs = [random_box_spec(rng, n=n) for n in (1, 2, 3) for _ in range(3)]
    specs.append(random_box_spec(rng, n=1, degree=16))
    for spec in specs:
        es = embed(spec)
        ops = build_tuple(es)
        table = fourier_table(ops, es.degree + 1)
        for k in itertools.product(range(-table.radius, table.radius + 1), repeat=es.n):
            assert table.coeffs[k] == pytest.approx(apply_power(ops, k), abs=1e-13)


def test_table_scale_consistency(rng):
    # scale**|k| times the table entry reproduces the embedded moments
    for _ in range(20):
        spec = random_box_spec(rng)
        es = embed(spec)
        ops = build_tuple(es)
        table = fourier_table(ops, es.degree)
        scale = max(1.0, max(abs(v) for v in spec.values))
        for k, moment in zip(box(es.n, es.degree), es.values):
            value = ops.scale ** sum(k) * table.coeffs[k]
            assert abs(value - moment) <= 1e-10 * scale


def test_table_radius_validation():
    es = embed(MomentSpec(1, ((0,), (2,)), (1, 0.5)))
    ops = build_tuple(es)
    with pytest.raises(ValueError, match="below box degree"):
        fourier_table(ops, 1)
    assert fourier_table(ops, 2).coeffs.shape == (5,)


def test_pd_section_identity_case():
    _, table = _table(1, ((0,), (1,)), (1, 0))
    M = pd_section(table, 1)
    assert np.allclose(M, np.eye(2))


def test_pd_section_mass_only_diagonal():
    _, table = _table(2, ((0, 0),), (5,))
    M = pd_section(table, 1)
    assert np.allclose(M, 5.0 * np.eye(4), atol=1e-12)


def test_pd_section_positive_on_random_instances(rng):
    for _ in range(20):
        spec = random_box_spec(rng, n=int(rng.integers(1, 3)))
        es = embed(spec)
        ops = build_tuple(es)
        table = fourier_table(ops, es.degree)
        M = pd_section(table, es.degree)
        assert min_eigenvalue(M) >= -1e-8 * spec.mass.real


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


def _rank_deficient_psd(rng, size):
    rank = int(rng.integers(1, size))
    base = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    base *= 10.0 ** rng.uniform(-3, 3)
    M = base @ base.conj().T
    return (M + M.conj().T) / 2


def _scale(M):
    return max(1.0, float(np.max(np.abs(M))))


def test_psd_check_rank_deficient_sections(rng):
    # semidefinite at the boundary: passes at the solver's relative tol,
    # and fails once shifted 1e-6 of its scale below it
    for size in range(2, 42):
        M = _rank_deficient_psd(rng, size)
        tol = 1e-8 * _scale(M)
        ok, witness = psd_check(M, tol)
        assert ok, size
        assert witness > 0.0
        shifted = M - (tol + 1e-6 * _scale(M)) * np.eye(size)
        ok, witness = psd_check(shifted, tol)
        assert not ok, size
        assert witness < 0.0


@pytest.mark.parametrize("degree", range(1, 41))
def test_psd_check_passes_fourier_toeplitz_sections(degree):
    # the section cf_atoms_1d tests, T[p, q] = c_(p-q), at the tol it uses
    for seed in range(3):
        spec, _ = random_instance(1, degree, 4, seed)
        table = fourier_table(build_tuple(embed(spec)), degree)
        c = table.coeffs[:degree + 1]
        full = np.concatenate([c[:0:-1].conj(), c])
        T = np.array([full[degree + p::-1][: degree + 1] for p in range(degree + 1)])
        assert np.array_equal(T, pd_section(table, degree))
        assert psd_check(T, 1e-8 * max(1.0, table.mass))[0], (degree, seed)


def _pivoted_cholesky_verdict(M, tol):
    """Reference: diagonally pivoted Cholesky of M + tol*I, one pivot at a time."""
    W = np.array(M, dtype=complex) + tol * np.eye(len(M))
    for i in range(len(W)):
        j = i + int(np.argmax(W.diagonal().real[i:]))
        W[[i, j], :] = W[[j, i], :]
        W[:, [i, j]] = W[:, [j, i]]
        pivot = W[i, i].real
        if pivot <= 0.0:
            return False
        col = W[i + 1:, i] / np.sqrt(pivot)
        W[i + 1:, i + 1:] -= np.outer(col, col.conj())
    return True


def test_psd_check_verdict_matches_pivoted_reference(rng):
    for size in range(2, 42, 3):
        M = _rank_deficient_psd(rng, size)
        tol = 1e-8 * _scale(M)
        for shift in (0.0, 1e-6, 1e-3):
            shifted = M - shift * _scale(M) * np.eye(size)
            assert psd_check(shifted, tol)[0] == _pivoted_cholesky_verdict(shifted, tol)


def test_psd_check_failure_witness_is_the_smallest_eigenvalue(rng):
    for size in (2, 7, 19, 41):
        M = _rank_deficient_psd(rng, size)
        tol = 1e-8 * _scale(M)
        shifted = M - 1e-3 * _scale(M) * np.eye(size)
        ok, witness = psd_check(shifted, tol)
        assert not ok
        exact = np.linalg.eigvalsh(shifted + tol * np.eye(size))[0]
        assert abs(witness - exact) <= 1e-12 * _scale(shifted)


def test_psd_check_factors_once(rng, monkeypatch):
    calls = {"cholesky": 0, "eigvalsh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    M = _rank_deficient_psd(rng, 12)
    tol = 1e-8 * _scale(M)
    assert psd_check(M, tol)[0]
    assert calls == {"cholesky": 1, "eigvalsh": 0}
    assert not psd_check(M - _scale(M) * np.eye(12), tol)[0]
    assert calls == {"cholesky": 2, "eigvalsh": 1}


def test_psd_check_empty():
    assert psd_check(np.zeros((0, 0)), 1e-8) == (True, 0.0)


def test_min_eigenvalue_matches_eigensolver(rng):
    for _ in range(10):
        size = int(rng.integers(1, 7))
        base = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        M = base + base.conj().T
        exact = float(np.linalg.eigvalsh(M).min())
        est = min_eigenvalue(M)
        assert est == pytest.approx(exact, abs=1e-8)
        assert est <= exact + 1e-10
        # independent of the eigensolver: the Cholesky test brackets it
        shifted = M - est * np.eye(size)
        assert psd_check(shifted, 1e-8)[0]
        assert not psd_check(shifted, -1e-6 * max(1.0, abs(est)))[0]


def test_min_eigenvalue_empty():
    assert min_eigenvalue(np.zeros((0, 0))) == 0.0
