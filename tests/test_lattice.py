import numpy as np
import pytest

from momentsynth.lattice import EmbeddedSpec, MomentSpec, box, embed


def test_box_1d():
    assert box(1, 2) == ((0,), (1,), (2,))


def test_box_2d_lexicographic():
    assert box(2, 1) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_box_count():
    assert len(box(3, 2)) == 27


def test_box_zero_first():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            assert box(n, d)[0] == (0,) * n


def test_box_rejects_degenerate():
    with pytest.raises(ValueError):
        box(0, 1)
    with pytest.raises(ValueError):
        box(1, 0)


def test_embed_zero_fill():
    spec = MomentSpec(1, ((0,), (2,)), (1, 5j))
    es = embed(spec)
    assert es.degree == 2
    assert es.box.tolist() == [[0], [1], [2]]
    assert np.allclose(es.values, [1, 0, 5j])


def test_embed_degenerate_index_set():
    spec = MomentSpec(2, ((0, 0),), (3,))
    es = embed(spec)
    assert es.degree == 1
    assert np.allclose(es.values, [3, 0, 0, 0])


def test_embed_box_already():
    spec = MomentSpec(1, ((0,), (1,)), (1, 2))
    es = embed(spec)
    assert es.degree == 1
    assert np.allclose(es.values, [1, 2])


def test_embed_contains_all_indices(rng):
    from conftest import random_box_spec

    for _ in range(20):
        spec = random_box_spec(rng)
        es = embed(spec)
        assert es.box.tolist() == list(map(list, box(es.n, es.degree)))
        assert set(spec.indices) <= set(map(tuple, es.box.tolist()))
        embedded = dict(zip(map(tuple, es.box.tolist()), es.values))
        for k, v in zip(spec.indices, spec.values):
            assert embedded[k] == v


def test_spec_requires_zero_first():
    with pytest.raises(ValueError):
        MomentSpec(1, ((1,), (0,)), (1, 2))
    with pytest.raises(ValueError):
        MomentSpec(1, ((1,),), (1,))


def test_spec_rejects_duplicates_and_negatives():
    with pytest.raises(ValueError):
        MomentSpec(1, ((0,), (1,), (1,)), (1, 2, 3))
    with pytest.raises(ValueError):
        MomentSpec(2, ((0, 0), (0, -1)), (1, 2))


def test_spec_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        MomentSpec(1, ((0,), (1,)), (1, float("nan")))


def test_spec_from_items_reorders():
    spec = MomentSpec.from_items(2, [((1, 0), 2), ((0, 0), 1)])
    assert spec.indices[0] == (0, 0)
    assert spec.value_of((1, 0)) == 2


@pytest.mark.parametrize("bad", [1.5, 2.7, "3", "1", True, False, pytest.param(np.True_, id="numpy True")])
def test_spec_rejects_non_integral_exponents(bad):
    with pytest.raises(ValueError, match="not an integer"):
        MomentSpec(1, ((0,), (bad,)), (1, 2))
    with pytest.raises(ValueError, match="not an integer"):
        MomentSpec.from_items(1, [((0,), 1), ((bad,), 2)])


def test_spec_rejects_boolean_indices_and_dimension():
    # `int()` reads False as 0 and True as 1: a zero index nobody wrote
    with pytest.raises(ValueError, match="not an integer"):
        MomentSpec.from_items(1, [((False,), 1), ((True,), 2)])
    with pytest.raises(ValueError, match="not an integer"):
        MomentSpec(True, ((0,),), (1,))


def test_spec_from_items_checks_in_the_spec():
    # the zero index moves first, the rest keep their order, and only
    # __post_init__ checks and converts
    spec = MomentSpec.from_items(np.int64(1), [((2.0,), 2), ((1,), 3j), ((0.0,), "1")])
    assert spec.n == 1 and type(spec.n) is int
    assert spec.indices == ((0,), (2,), (1,))
    assert spec.values == (1, 2, 3j)
    with pytest.raises(ValueError, match="zero multi-index"):
        MomentSpec.from_items(1, [((1,), 1)])
    with pytest.raises(ValueError, match="duplicate"):
        MomentSpec.from_items(1, [((1,), 1), ((0,), 1), ((0.0,), 2)])


def test_spec_accepts_integral_floats():
    spec = MomentSpec(2, ((0.0, 0), (2.0, np.int64(1))), (1, 2))
    assert spec.indices == ((0, 0), (2, 1))
    assert all(type(e) is int for k in spec.indices for e in k)
    items = MomentSpec.from_items(1, [((2.0,), 2), ((0.0,), 1)])
    assert items.indices == ((0,), (2,))


def test_embedded_spec_shape_checks():
    with pytest.raises(ValueError):
        EmbeddedSpec(1, 1, np.zeros(3))
    with pytest.raises(ValueError):
        EmbeddedSpec(2, 1, np.zeros(3))
