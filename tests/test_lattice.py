import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import momentsynth
from momentsynth.lattice import EmbeddedSpec, MomentSpec, box, embed, exponent_rows
from momentsynth.measures import AtomicMeasure
from momentsynth.verify import SolverConfig, measure_moments


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


def bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


def test_spec_rejects_nonfinite_values():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError):
        MomentSpec(1, ((0,), (1,)), (1, nan))
    # complex() is the one rule for what a value is, as the mass and after it
    for bad in (nan, complex(0, nan), inf, -inf, complex(1, inf), complex(1, -inf), complex(nan, inf)):
        for values in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match="^moment values must be finite$"):
                MomentSpec(1, ((0,), (1,)), values)
    for bad in (None, [1, 2], object(), 10**400):
        with pytest.raises(Exception) as refused:
            complex(bad)
        for values in ((bad, 1), (1, bad)):
            with pytest.raises(refused.type, match=f"^{re.escape(str(refused.value))}$"):
                MomentSpec(1, ((0,), (1,)), values)
    # complex() reads "1+2j" and True; a spec refuses strings and booleans, as the documents do
    for bad in ("abc", "1+2j", True, False, np.True_, np.str_("1"), b"1"):
        for values in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a number$"):
                MomentSpec(1, ((0,), (1,)), values)
    # accepted as complex() reads them, to the same bits
    for good in (np.float32(0.1), np.clongdouble("0.1+0.3j")):
        for at in (0, 1):
            spec = MomentSpec(1, ((0,), (1,)), (good, 1) if at == 0 else (1, good))
            assert type(spec.values[at]) is complex
            assert bits(spec.values[at]) == bits(complex(good)) == bits(complex(spec.moments[at]))


def test_spec_rejects_a_modulus_beyond_a_double():
    # both parts are finite; the allowance read inf, so any measure verified
    for values in ((1, 1.7e308 + 1.7e308j), (1.7e308 + 1.7e308j, 1)):
        with pytest.raises(ValueError, match="has a modulus beyond the range of a double"):
            MomentSpec(1, ((0,), (1,)), values)
    assert MomentSpec(1, ((0,), (1,)), (1, 1e308 + 1e308j)).values[1] == 1e308 + 1e308j
    # the first refused value in order names the refusal
    message = re.escape("moment value (1.7e+308+1.7e+308j) has a modulus beyond the range of a double")
    with pytest.raises(ValueError, match=f"^{message}$"):
        MomentSpec(1, ((0,), (1,), (2,)), (1, 1.7e308 + 1.7e308j, float("nan")))
    with pytest.raises(ValueError, match="^moment values must be finite$"):
        MomentSpec(1, ((0,), (1,), (2,)), (1, float("nan"), 1.7e308 + 1.7e308j))
    # moduli within rounding of the largest double, which np.abs and
    # math.hypot may round apart: np.abs, the rule of the allowance, decides
    for v in (7.40663182194873e307 + 1.638022789118657e308j, 7.878585364351698e305 + 1.7976758704014905e308j,
              1.271215268948481e308 + 1.2711067410423648e308j, 8.442332608174992e305 + 1.7976733112974766e308j,
              1.3091510602183845e308 + 1.2320000440990983e308j):
        for values in ((v, 1), (1, v)):
            if np.abs(v) == np.inf:
                with pytest.raises(ValueError, match="has a modulus beyond the range of a double"):
                    MomentSpec(1, ((0,), (1,)), values)
            else:
                spec = MomentSpec(1, ((0,), (1,)), values)
                assert spec.values == tuple(map(complex, values))
                assert math.isfinite(SolverConfig().allowance(spec))
    # the rules disagree both ways on these values: refused where math.hypot
    # is finite, accepted where it is inf
    refused = 7.40663182194873e307 + 1.638022789118657e308j
    accepted = 1.271215268948481e308 + 1.2711067410423648e308j
    assert math.hypot(refused.real, refused.imag) < np.abs(refused) == np.inf
    assert math.hypot(accepted.real, accepted.imag) == np.inf > np.abs(accepted)


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
    spec = MomentSpec.from_items(np.int64(1), [((2.0,), 2), ((1,), 3j), ((0.0,), np.float32(1))])
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
    values = np.array([1, 2j, -3.5 + 0.25j])
    spec = MomentSpec(2, rows, values)
    rows[1, 0] = 5  # the spec holds its own copies
    values[1] = 7
    assert spec.exponents.dtype == np.int64 and spec.exponents.shape == (3, 2)
    assert spec.moments.dtype == np.complex128 and spec.moments.shape == (3,)
    assert spec.magnitudes.dtype == np.float64 and spec.magnitudes.shape == (3,)
    assert spec.degrees.dtype == np.int64 and spec.degrees.shape == (3,)
    for array in (spec.exponents, spec.moments, spec.magnitudes, spec.degrees):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert spec.exponents.tolist() == [list(k) for k in spec.indices] == [[0, 0], [2, 1], [65535, 3]]
    assert spec.moments.tolist() == list(spec.values) == [1, 2j, -3.5 + 0.25j]
    assert spec.degrees.tolist() == [sum(k) for k in spec.indices] == [0, 3, 65538]
    # np.abs of the values as given, bit for bit, in an array of the spec's own
    given = np.abs([1, 2j, -3.5 + 0.25j])
    assert spec.magnitudes.tobytes() == np.abs(spec.moments).tobytes() == given.tobytes()
    assert not np.shares_memory(spec.magnitudes, values)
    assert not np.shares_memory(spec.magnitudes, spec.moments)
    # equality, hashing and repr read the indices and values alone
    twin = MomentSpec(2, ((0.0, 0), (2, np.int64(1)), (65535, 3)), (1.0, 2j, np.complex64(-3.5 + 0.25j)))
    assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
    for name in ("exponents", "moments", "magnitudes", "degrees"):
        assert f"{name}=" not in repr(spec)
        assert getattr(spec, name) is not getattr(twin, name)
    skipped = [f.name for f in dataclasses.fields(MomentSpec) if not (f.init or f.compare or f.repr)]
    assert skipped == ["exponents", "moments", "magnitudes", "degrees"]


def test_one_module_decides_the_exponent_domain():
    src = Path(momentsynth.__file__).parent
    deciding = [path.name for path in sorted(src.glob("*.py")) if "exceeds the limit" in path.read_text()]
    assert deciding == ["lattice.py"]


def test_one_module_takes_the_moduli_by_np_abs():
    # the allowance, the own-disc front end and the torus screen read spec.magnitudes
    src = Path(momentsynth.__file__).parent
    taking = [path.name for path in sorted(src.glob("*.py"))
              if re.search(r"np\.abs\((spec\.)?moments|math\.hypot", path.read_text())]
    assert taking == ["lattice.py"]
