import re
from pathlib import Path

import numpy as np
import pytest

import momentsynth
from momentsynth.lattice import EmbeddedSpec, MomentSpec, box, embed, exponent_rows
from momentsynth.measures import AtomicMeasure
from momentsynth.verify import measure_moments


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


def test_spec_rejects_a_modulus_beyond_a_double():
    # both parts are finite; the allowance read inf, so any measure verified
    for values in ((1, 1.7e308 + 1.7e308j), (1.7e308 + 1.7e308j, 1)):
        with pytest.raises(ValueError, match="has a modulus beyond the range of a double"):
            MomentSpec(1, ((0,), (1,)), values)
    assert MomentSpec(1, ((0,), (1,)), (1, 1e308 + 1e308j)).values[1] == 1e308 + 1e308j


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


# exponents that no spec and no moment sum takes, each with its one message
REFUSED_EXPONENTS = {
    "2.5": (2.5, "2.5 is not an integer"),
    "True": (True, "True is not an integer"),
    "string": ("3", "'3' is not an integer"),
    "-1": (-1, "negative exponent -1"),
    "65536": (65536, "exponent 65536 exceeds the limit 65535"),
    "2**64+1": (2**64 + 1, "exponent 18446744073709551617 exceeds the limit 65535"),
}


@pytest.mark.parametrize("exponent, message", list(REFUSED_EXPONENTS.values()), ids=list(REFUSED_EXPONENTS))
def test_spec_and_moment_sums_refuse_an_exponent_alike(exponent, message):
    refusals = (
        lambda: MomentSpec(1, ((0,), (exponent,)), (1, 0.5)),
        lambda: MomentSpec.from_items(1, [((exponent,), 0.5), ((0,), 1)]),
        lambda: measure_moments(AtomicMeasure(1, [[0.5]], [1.0]), [(0,), (exponent,)]),
        lambda: measure_moments(AtomicMeasure.empty(1), [(0,), (exponent,)]),
    )
    for refuse in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            refuse()


@pytest.mark.parametrize("flag", [True, np.True_], ids=["True", "numpy True"])
def test_a_boolean_inside_an_integer_row_is_refused(flag):
    # np.asarray([[flag, 2]]) is an int64 array that reads flag as 1
    message = f"^{re.escape(repr(flag))} is not an integer$"
    with pytest.raises(ValueError, match=message):
        MomentSpec(2, ((0, 0), (flag, 2)), (1, 0.5))
    with pytest.raises(ValueError, match=message):
        measure_moments(AtomicMeasure(2, [[0.5, 0.5]], [1.0]), [(0, 0), (flag, 2)])
    with pytest.raises(ValueError, match=f"^{re.escape(repr(np.False_))} is not an integer$"):
        exponent_rows(np.array([[False, False], [True, True]]), 2)


def test_an_integer_array_is_checked_whole():
    assert exponent_rows(np.array([[0], [65535]], dtype=np.uint16), 1).tolist() == [[0], [65535]]
    with pytest.raises(ValueError, match="^exponent 70000 exceeds the limit 65535$"):
        exponent_rows(np.array([[0], [70000]]), 1)
    # a uint64 beyond int64 is not wrapped to a negative exponent
    with pytest.raises(ValueError, match=f"^exponent {2**64 - 1} exceeds the limit 65535$"):
        exponent_rows(np.array([[0], [2**64 - 1]], dtype=np.uint64), 1)
    with pytest.raises(ValueError, match="^negative exponent -3$"):
        exponent_rows(np.array([[0, 0], [1, -3]]), 2)
    with pytest.raises(ValueError, match="^an index has length 2, expected 1$"):
        exponent_rows(np.zeros((2, 2), dtype=np.int64), 1)
    with pytest.raises(ValueError, match="^an index has length 2, expected 1$"):
        exponent_rows([(0,), (1, 0)], 1)


def test_spec_keeps_its_exponents_as_one_read_only_array():
    rows = np.array([[0, 0], [2, 1], [65535, 3]])
    spec = MomentSpec(2, rows, (1, 2, 3))
    rows[1, 0] = 5  # the spec holds its own copy
    assert spec.exponents.dtype == np.int64 and spec.exponents.shape == (3, 2)
    assert not spec.exponents.flags.writeable
    assert spec.exponents.tolist() == [list(k) for k in spec.indices] == [[0, 0], [2, 1], [65535, 3]]
    # equality, hashing and repr read the indices alone
    twin = MomentSpec(2, ((0.0, 0), (2, np.int64(1)), (65535, 3)), (1, 2, 3))
    assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
    assert "exponents" not in repr(spec)
    assert spec.exponents is not twin.exponents


def test_one_module_decides_the_exponent_domain():
    src = Path(momentsynth.__file__).parent
    deciding = [path.name for path in sorted(src.glob("*.py")) if "exceeds the limit" in path.read_text()]
    assert deciding == ["lattice.py"]
