import gc
import json
import math

import numpy as np
import pytest

from momentsynth import documents
from momentsynth.documents import (
    doc_bytes,
    measure_from_doc,
    measure_to_doc,
    problem_from_doc,
    problem_to_doc,
    read_doc,
    report_to_doc,
    write_doc,
)
from momentsynth.lattice import MomentSpec
from momentsynth.measures import AtomicMeasure
from momentsynth.synthesis import SolverConfig
from momentsynth.verify import Report, random_instance, report


def test_problem_round_trip_exact():
    spec = MomentSpec(
        2,
        ((0, 0), (1, 2), (2, 0)),
        (1.25, 0.1 + 0.2j, -3.714285714285714e-01 + 1e-17j),
    )
    doc = json.loads(json.dumps(problem_to_doc(spec)))
    back = problem_from_doc(doc)
    assert back.n == spec.n
    assert back.indices == spec.indices
    assert back.values == spec.values


@pytest.mark.parametrize("seed", range(100), ids="seed{}".format)
def test_problem_round_trip_random(seed):
    # moments in any order, exponents written as integral floats in half of
    # the draws: the document still reads as the source spec
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    spec, _ = random_instance(n, int(rng.integers(1, 6)), 3, seed=seed)
    doc = json.loads(json.dumps(problem_to_doc(spec)))
    rng.shuffle(doc["moments"])
    if rng.random() < 0.5:
        for entry in doc["moments"]:
            entry["k"] = [float(e) for e in entry["k"]]
    back = problem_from_doc(json.loads(json.dumps(doc)))
    assert back.n == n and type(back.n) is int
    assert back.indices[0] == (0,) * n
    assert sorted(back.indices) == sorted(spec.indices)
    assert all(type(e) is int for k in back.indices for e in k)
    assert dict(zip(back.indices, back.values)) == dict(zip(spec.indices, spec.values))


def test_measure_round_trip_exact():
    measure = AtomicMeasure(
        2,
        np.array([[0.1 + 0.9j, -0.5 - 0.25j], [1.0 / 3.0, 2.0 + 0j]]),
        np.array([0.125, 7.0 / 11.0]),
        scale=1.375,
    )
    back = measure_from_doc(json.loads(json.dumps(measure_to_doc(measure))))
    assert back.n == measure.n
    assert back.scale == measure.scale
    assert np.array_equal(back.atoms, measure.atoms)
    assert np.array_equal(back.weights, measure.weights)


def test_problem_doc_rejects_duplicates():
    doc = {
        "n": 1,
        "moments": [
            {"k": [0], "re": 1.0, "im": 0.0},
            {"k": [1], "re": 0.0, "im": 0.0},
            {"k": [1], "re": 2.0, "im": 0.0},
        ],
    }
    with pytest.raises(ValueError, match="^malformed problem document: "):
        problem_from_doc(doc)


def test_problem_doc_requires_zero_index():
    doc = {"n": 1, "moments": [{"k": [1], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="^malformed problem document: "):
        problem_from_doc(doc)


@pytest.mark.parametrize("k, re", [
    pytest.param([-1], 0.5, id="negative entry"),
    pytest.param([1, 0], 0.5, id="wrong length"),
    pytest.param([1], float("inf"), id="infinite value"),
    pytest.param([1], float("nan"), id="nan value"),
])
def test_problem_doc_reports_a_spec_error_as_malformed(k, re):
    doc = {"n": 1, "moments": [{"k": [0], "re": 1.0, "im": 0.0}, {"k": k, "re": re, "im": 0.0}]}
    with pytest.raises(ValueError, match="^malformed problem document: "):
        problem_from_doc(doc)


def test_problem_doc_malformed():
    with pytest.raises(ValueError):
        problem_from_doc({"n": 1})
    with pytest.raises(ValueError):
        problem_from_doc([1, 2, 3])
    with pytest.raises(ValueError):
        problem_from_doc({"n": 1, "moments": [{"k": [0], "re": "x", "im": 0.0}]})


def test_measure_doc_dimension_check():
    doc = {
        "n": 2,
        "scale": 1.0,
        "atoms": [{"z": [{"re": 1.0, "im": 0.0}], "w": 1.0}],
    }
    with pytest.raises(ValueError):
        measure_from_doc(doc)


def test_measure_round_trip_of_20000_atoms_is_bitwise(rng):
    count = 20_000
    atoms = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    atoms[0] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
    atoms[1] = [complex(5e-324, -1e300), complex(1.0 / 3.0, -2.0**-1070)]
    weights = rng.random(count)
    weights[2] = 0.0
    measure = AtomicMeasure(2, atoms, weights, scale=2.75)
    back = measure_from_doc(json.loads(json.dumps(measure_to_doc(measure))))
    assert back.n == 2 and back.scale == measure.scale
    assert back.atoms.shape == (count, 2)
    assert back.atoms.tobytes() == measure.atoms.tobytes()
    assert back.weights.tobytes() == measure.weights.tobytes()


def _measure_doc(**atom):
    """A one-atom n=2 measure document with the atom's fields overridden."""
    entry = {"z": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 1.0}], "w": 0.5, **atom}
    return {"n": 2, "scale": 1.0, "atoms": [entry]}


@pytest.mark.parametrize("doc", [
    pytest.param({"n": 2, "scale": 1.0, "atoms": [
        {"z": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 1.0}], "w": 0.5},
        {"z": [{"re": 1.0, "im": 0.0}], "w": 0.5},
    ]}, id="ragged z row"),
    pytest.param({"n": 2, "scale": 1.0, "atoms": [
        {"z": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 1.0}]},
    ]}, id="missing w"),
    pytest.param(_measure_doc(z=[{"re": None, "im": 0.0}, {"re": 0.0, "im": 1.0}]), id="re null"),
    pytest.param({"n": 2, "scale": 1.0, "atoms": None}, id="atoms null"),
    pytest.param({"n": 2, "scale": 1.0, "atoms": {"z": [], "w": 1.0}}, id="atoms object"),
    pytest.param(_measure_doc(z=3.0), id="z not a list"),
    pytest.param(_measure_doc(z=[[1.0, 0.0], [0.0, 1.0]]), id="z entries lists"),
    pytest.param(_measure_doc(z=[{"re": "0.5", "im": 0.0}, {"re": 0.0, "im": 1.0}]), id="re string"),
    pytest.param(_measure_doc(z=[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": False}]), id="im false"),
    pytest.param(_measure_doc(w="0.25"), id="w string"),
    pytest.param(_measure_doc(w=True), id="w true"),
    pytest.param({**_measure_doc(), "scale": "2"}, id="scale string"),
    pytest.param({**_measure_doc(), "scale": True}, id="scale true"),
])
def test_measure_doc_malformed(doc):
    with pytest.raises(ValueError, match="malformed measure document"):
        measure_from_doc(doc)


@pytest.mark.parametrize("doc, message", [
    pytest.param(_measure_doc(w=-0.5), "weights must be nonnegative", id="negative w"),
    pytest.param(
        _measure_doc(z=[{"re": float("inf"), "im": 0.0}, {"re": 0.0, "im": 1.0}]),
        "atoms and weights must be finite", id="inf re",
    ),
    pytest.param({"n": 0, "scale": 1.0, "atoms": []}, "dimension must be at least 1", id="n 0"),
    pytest.param({"n": -2, "scale": 1.0, "atoms": []}, "dimension must be at least 1", id="n -2"),
])
def test_measure_doc_reports_a_measure_error_as_malformed(doc, message):
    with pytest.raises(ValueError, match=f"^malformed measure document: {message}$"):
        measure_from_doc(doc)


@pytest.mark.parametrize("field, value", [
    pytest.param("re", "1.5", id="re string"),
    pytest.param("im", True, id="im true"),
    pytest.param("re", False, id="re false"),
    pytest.param("im", None, id="im null"),
])
def test_problem_doc_rejects_a_number_field_that_is_no_json_number(field, value):
    # float() would have read "1.5" as 1.5 and true as 1.0
    doc = {"n": 1, "moments": [{"k": [0], "re": 1.0, "im": 0.0}, {"k": [1], "re": 0.5, "im": 0.0, field: value}]}
    with pytest.raises(ValueError, match="malformed problem document"):
        problem_from_doc(doc)


def test_documents_read_json_integers_as_their_floats():
    big = [2**53 + 1, 2**63 + 1, 2**64 + 3, -(2**63) - 1, 10**300 + 7]
    spec = problem_from_doc({"n": 1, "moments": [{"k": [0], "re": 2, "im": 0}] + [
        {"k": [j + 1], "re": v, "im": -v} for j, v in enumerate(big)
    ]})
    assert spec.values == (2.0,) + tuple(complex(float(v), -float(v)) for v in big)
    measure = measure_from_doc({"n": 1, "scale": 2, "atoms": [
        {"z": [{"re": v, "im": -v}], "w": abs(v)} for v in big
    ]})
    assert measure.scale == 2.0
    assert measure.weights.tolist() == [float(abs(v)) for v in big]
    assert measure.atoms[:, 0].tolist() == [complex(float(v), -float(v)) for v in big]
    with pytest.raises(ValueError, match="malformed measure document"):
        measure_from_doc({"n": 1, "scale": 1.0, "atoms": [{"z": [{"re": 10**400, "im": 0}], "w": 1}]})


def test_measure_doc_without_atoms_is_the_zero_measure():
    measure = measure_from_doc({"n": 3, "scale": 0.0, "atoms": []})
    assert len(measure) == 0
    assert measure.atoms.shape == (0, 3)
    assert measure.total_mass == 0.0


@pytest.mark.parametrize("n, k", [
    pytest.param(1, 1.5, id="k 1.5"),
    pytest.param(1.5, 1, id="n 1.5"),
    pytest.param(1, "3", id="k string"),
    pytest.param(1, float("inf"), id="k inf"),
    pytest.param(float("nan"), 1, id="n nan"),
    pytest.param(True, 1, id="n true"),
    pytest.param(1, True, id="k true"),
    pytest.param(1, False, id="k false"),
])
def test_problem_doc_rejects_non_integral_numbers(n, k):
    # int() would have truncated 1.5 to 1, a moment nobody prescribed, and
    # read true as 1
    doc = {"n": n, "moments": [{"k": [0], "re": 1.0, "im": 0.0}, {"k": [k], "re": 0.5, "im": 0.0}]}
    with pytest.raises(ValueError, match="malformed problem document"):
        problem_from_doc(doc)


@pytest.mark.parametrize("n", [1.7, float("inf"), "1", True])
def test_measure_doc_rejects_non_integral_dimension(n):
    with pytest.raises(ValueError, match="malformed measure document"):
        measure_from_doc({"n": n, "scale": 1.0, "atoms": [{"z": [{"re": 1.0, "im": 0.0}], "w": 1.0}]})


def test_documents_accept_integral_floats():
    spec = problem_from_doc({"n": 2.0, "moments": [
        {"k": [0.0, 0], "re": 1.0, "im": 0.0}, {"k": [2.0, 1], "re": 0.5, "im": 0.0},
    ]})
    assert spec.n == 2 and spec.indices == ((0, 0), (2, 1))
    assert all(type(e) is int for k in spec.indices for e in k)
    measure = measure_from_doc({"n": 1.0, "scale": 1.0, "atoms": [{"z": [{"re": 1.0, "im": 0.0}], "w": 1.0}]})
    assert measure.n == 1 and type(measure.n) is int


def test_documents_write_a_numpy_integer_dimension_as_an_int():
    spec = MomentSpec(np.int64(1), ((0,), (np.int64(2),)), (1, 2))
    measure = AtomicMeasure(np.int64(1), [[1j]], [0.5])
    assert type(spec.n) is int and type(measure.n) is int
    assert json.loads(json.dumps(problem_to_doc(spec)))["n"] == 1
    assert json.loads(json.dumps(measure_to_doc(measure)))["n"] == 1


def test_measure_doc_holds_plain_floats():
    atoms = [[complex(0.5, -0.0), complex(-0.0, 2.0)], [1e300, 1.0 / 3.0]]
    measure = AtomicMeasure(2, atoms, [0.25, 0.0], scale=2.5)
    doc = measure_to_doc(measure)
    numbers = [doc["scale"]] + [a["w"] for a in doc["atoms"]]
    numbers += [z[part] for a in doc["atoms"] for z in a["z"] for part in ("re", "im")]
    assert {type(x) for x in numbers} == {float}
    assert doc_bytes(doc) == b"""{
  "n": 2,
  "scale": 2.5,
  "atoms": [
    {
      "z": [
        {
          "re": 0.5,
          "im": -0.0
        },
        {
          "re": -0.0,
          "im": 2.0
        }
      ],
      "w": 0.25
    },
    {
      "z": [
        {
          "re": 1e300,
          "im": 0.0
        },
        {
          "re": 0.3333333333333333,
          "im": 0.0
        }
      ],
      "w": 0.0
    }
  ]
}
"""


def test_measure_doc_rejects_negative_weight():
    doc = {
        "n": 1,
        "scale": 1.0,
        "atoms": [{"z": [{"re": 1.0, "im": 0.0}], "w": -0.5}],
    }
    with pytest.raises(ValueError):
        measure_from_doc(doc)


def test_report_doc_includes_config_echo():
    spec, truth = random_instance(1, 2, 2, seed=3)
    cfg = SolverConfig(tol=1e-7)
    doc = report_to_doc(report(spec, truth, cfg))
    assert doc["config"] == {"tol": 1e-7}
    assert doc["max_residual"] == max(r["abs_err"] for r in doc["residuals"])
    assert len(doc["residuals"]) == len(spec.indices)


def test_report_doc_without_config():
    spec, truth = random_instance(1, 1, 1, seed=4)
    doc = report_to_doc(report(spec, truth))
    assert doc["config"] is None


def _reports():
    """Report documents of random_instance specs at n = 1..4, exact and perturbed."""
    for n, degree, atoms, seed in ((1, 12, 5, 1), (2, 20, 40, 2), (3, 3, 6, 3), (4, 2, 5, 4)):
        spec, truth = random_instance(n, degree, atoms, seed)
        tampered = AtomicMeasure(n, truth.atoms, truth.weights * 1.001, scale=truth.scale)
        for measure in (truth, tampered):
            for config in (None, SolverConfig(), SolverConfig(tol=1e-7)):
                yield report_to_doc(report(spec, measure, config))


def _exact(value):
    """The tree with every float as its float.hex and every key in order, so
    two trees compare equal only where they hold the same bits."""
    if isinstance(value, dict):
        return [(key, _exact(v)) for key, v in value.items()]
    if isinstance(value, list):
        return list(map(_exact, value))
    return float.hex(value) if isinstance(value, float) else (type(value).__name__, value)


def _read_back(tmp_path, doc) -> None:
    """Write `doc`, and read it back to the same bits with orjson and with json."""
    path = tmp_path / "doc.json"
    write_doc(path, doc)
    assert path.read_bytes() == doc_bytes(doc)
    assert _exact(read_doc(path)) == _exact(doc)
    assert _exact(json.loads(path.read_text(encoding="utf-8"))) == _exact(doc)


# floats whose spelling changed with the writer: 1e-05 is written 0.00001,
# 1e+300 as 1e300 and 2.5e-08 as 2.5e-8
_RESPELLED = (1e-05, 1e300, 2.5e-08)


@pytest.mark.parametrize("seed", range(10), ids="seed{}".format)
def test_written_documents_read_back_bit_for_bit(tmp_path, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=400, dtype=np.uint64)
    drawn = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
    doubles = list(_EDGE_DOUBLES + _RESPELLED) + drawn
    pairs = [(x, y) for x, y in zip(doubles, doubles[1:] + doubles[:1]) if math.isfinite(math.hypot(x, y))]
    values = [complex(x, y) for x, y in pairs] + [complex(x, 0.0) for x in doubles]
    spec = MomentSpec(1, tuple((k,) for k in range(len(values))), values)
    _read_back(tmp_path, problem_to_doc(spec))
    magnitudes = [abs(v.imag) for v in values]
    measure = AtomicMeasure(1, [[v] for v in values], magnitudes, scale=doubles[-1])
    _read_back(tmp_path, measure_to_doc(measure))
    rep = Report(
        indices=spec.indices, residuals=tuple(magnitudes[:-3]) + (math.inf, math.nan, -math.inf),
        max_residual=math.inf, total_mass=math.nan, support_radius=magnitudes[-1],
        atom_count=len(magnitudes), config=SolverConfig(tol=np.float64(magnitudes[0] or 1.0)),
    )
    doc = report_to_doc(rep)
    assert doc["max_residual"] is doc["total_mass"] is None
    assert [entry["abs_err"] for entry in doc["residuals"][-3:]] == [None] * 3
    _read_back(tmp_path, doc)
    docs = list(_reports())
    assert any(len(doc["residuals"]) == 441 for doc in docs)  # n=2, d=20
    for doc in docs:
        _read_back(tmp_path, doc)


def test_written_report_reads_a_moment_beyond_a_double_as_null(tmp_path):
    spec = MomentSpec(1, ((0,), (2,)), (1, 0.5))
    far = AtomicMeasure(1, [[1e200]], [1.0], scale=1e200)
    for config in (None, SolverConfig(tol=1e-7)):
        doc = report_to_doc(report(spec, far, config))
        assert doc["residuals"][1]["abs_err"] is None
        _read_back(tmp_path, doc)


def _problem_doc(exponent: int) -> dict:
    """A problem document as a plain dict: no spec holds an exponent this large."""
    return {"n": 1, "moments": [{"k": [0], "re": 1.0, "im": 0.0}, {"k": [exponent], "re": 0.5, "im": 0.0}]}


def test_write_doc_refuses_an_integer_beyond_64_bits(tmp_path):
    path = tmp_path / "doc.json"
    for exponent in (2**64, 10**30):
        with pytest.raises(ValueError, match=r"integers must lie in -2\*\*63\.\.2\*\*64-1\)$"):
            write_doc(path, _problem_doc(exponent))
        assert not path.exists()
    # the largest integer that is written reads back as that integer
    _read_back(tmp_path, _problem_doc(2**64 - 1))


@pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_measure_refuses_a_scale_that_is_not_finite(scale):
    # JSON holds no such number: the writer would spell it null, which the
    # reader refuses
    with pytest.raises(ValueError, match="^scale .* is not finite$"):
        AtomicMeasure(1, [[0.5]], [1.0], scale=scale)


# the first two within the cap of 65,535
_EDGE_EXPONENTS = (0, 65_535, 65_536, 2**63 - 1, 2**64 + 1)
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


def _refused_or_read_back(tmp_path, build, refused, doc, to_doc, reader):
    """Build from `doc`'s fields.  A refused build raises ValueError, and
    the document that the standard library's json writes is refused too,
    as invalid JSON (a scale of inf) or by `reader`.  Otherwise the built
    object's document (`to_doc`), written by write_doc, reads back to
    `doc`'s bits by read_doc and json, and `reader` rebuilds the same bits
    from either."""
    path = tmp_path / "std.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if refused:
        with pytest.raises(ValueError):
            build()
        with pytest.raises(ValueError, match="^malformed |: invalid JSON: "):
            reader(read_doc(path))
        return
    written = to_doc(build())
    assert _exact(written) == _exact(doc)
    _read_back(tmp_path, written)
    for tree in (read_doc(path), read_doc(tmp_path / "doc.json")):
        assert _exact(to_doc(reader(tree))) == _exact(doc)


@pytest.mark.parametrize("seed", range(40), ids="seed{}".format)
def test_edge_specs_and_measures_are_refused_or_read_back_bit_for_bit(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n, count = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    # entries within the cap, and in half the specs one beyond it
    within = (1, 2) + _EDGE_EXPONENTS[:2]
    indices = [(0,) * n] + [tuple(within[j] for j in rng.integers(0, 4, size=n)) for _ in range(count)]
    if rng.random() < 0.5:
        row, column = int(rng.integers(1, count + 1)), int(rng.integers(0, n))
        indices[row] = indices[row][:column] + (_EDGE_EXPONENTS[int(rng.integers(2, 5))],) + indices[row][column + 1:]
    values = [complex(*rng.choice(_EDGE_VALUES, size=2).tolist()) for _ in indices]
    doc = {"n": n, "moments": [{"k": list(k), "re": v.real, "im": v.imag} for k, v in zip(indices, values)]}
    beyond = max(map(max, indices)) > 65_535
    refused = (beyond or len(set(indices)) < len(indices)
               or any(math.hypot(v.real, v.imag) == math.inf for v in values))
    _refused_or_read_back(tmp_path, lambda: MomentSpec(n, tuple(indices), tuple(values)), refused,
                          doc, problem_to_doc, problem_from_doc)
    if beyond:
        with pytest.raises(ValueError, match="exceeds the limit 65535$"):
            MomentSpec(n, tuple(indices), tuple(values))

    coords = rng.choice(_EDGE_VALUES, size=(count, n, 2)).tolist()
    weights = rng.choice(_EDGE_VALUES, size=count).tolist()
    scale = float(rng.choice((0.0, math.inf) + _EDGE_VALUES))
    doc = {"n": n, "scale": scale, "atoms": [
        {"z": [{"re": re, "im": im} for re, im in row], "w": w} for row, w in zip(coords, weights)
    ]}
    atoms = [[complex(re, im) for re, im in row] for row in coords]
    _refused_or_read_back(tmp_path, lambda: AtomicMeasure(n, atoms, weights, scale=scale),
                          min(weights) < 0 or math.isinf(scale), doc, measure_to_doc, measure_from_doc)
    if math.isinf(scale) and min(weights) >= 0:
        with pytest.raises(ValueError, match="^scale inf is not finite$"):
            AtomicMeasure(n, atoms, weights, scale=scale)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("text", ['{"n": 1, "atoms": [[1.5]]}', '{"n": ', None], ids=["valid", "invalid", "missing"])
def test_read_doc_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled, text):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    decoding = []
    loads = documents.orjson.loads
    monkeypatch.setattr(documents.orjson, "loads", lambda data: decoding.append(gc.isenabled()) or loads(data))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if text is None:
            with pytest.raises(OSError):
                read_doc(path)
        elif text.endswith("}"):
            assert read_doc(path) == {"n": 1, "atoms": [[1.5]]}
        else:
            with pytest.raises(ValueError, match="invalid JSON"):
                read_doc(path)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    assert decoding == ([] if text is None else [False])


# Doubles that a decoder most easily gets wrong: the smallest subnormal, the
# largest subnormal and the smallest normal, the largest double, both zeros.
_EDGE_DOUBLES = (
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
)


def _decoder_agreement_text(rng) -> str:
    """A JSON text of numbers spelled many ways, and objects with repeated keys."""
    bits = rng.integers(0, 2**64, size=60, dtype=np.uint64)
    bits[:20] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # exponent field zero: subnormals
    doubles = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)] + list(_EDGE_DOUBLES)
    spellings = [spell % x for x in doubles for spell in ("%r", "%.17g", "%.25e")]
    integers = rng.integers(0, 2**64, size=20, dtype=np.uint64).tolist()
    integers += [-v for v in rng.integers(0, 2**63, size=20).tolist()]
    integers += [0, 2**64 - 1, -(2**63)]
    objects = []
    for _ in range(10):
        keys = rng.choice(list("abc"), size=int(rng.integers(1, 7)))
        members = ", ".join(f'"{key}": {rng.choice(spellings)}' for key in keys)
        objects.append("{" + members + "}")
    return (
        '{"doubles": [' + ", ".join(spellings) + "],\n"
        + '"integers": [' + ",".join(map(str, integers)) + "],\n"
        + '"objects": [' + ", ".join(objects) + '], "doubles": [1.5, -0.0]}'
    )


@pytest.mark.parametrize("seed", range(100), ids="seed{}".format)
def test_read_doc_decodes_as_the_standard_library_does(tmp_path, seed):
    text = _decoder_agreement_text(np.random.default_rng(seed))
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    got, want = read_doc(path), json.loads(text)
    # repr tells -0.0 from 0.0 and 1 from 1.0, and shows the order of keys
    assert got == want and repr(got) == repr(want)


def test_read_doc_reads_an_integer_beyond_64_bits_as_its_float(tmp_path):
    big = [2**64, -(2**63) - 1, 10**30 + 1, 2**64 - 1, -(2**63)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(big), encoding="utf-8")
    got = read_doc(path)
    assert got == [float(2**64), float(-(2**63) - 1), float(10**30 + 1), 2**64 - 1, -(2**63)]
    assert list(map(type, got)) == [float, float, float, int, int]


@pytest.mark.parametrize("data", [
    b"NaN", b"[Infinity]", b'{"w": -Infinity}', b"[1e400]", b"[-1e400]", b'{"n": 1, "moments": [\xff]}',
], ids=["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "not utf-8"])
def test_read_doc_refuses_what_is_not_strict_json(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{path}: invalid JSON: "):
        read_doc(path)


# brackets and escaped quotes inside strings, which add no depth
_BRACKETY = '"]]]{{[\\"[\\\\"'


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"k": ', "}")], ids=["arrays", "objects"])
def test_read_doc_reads_nesting_up_to_max_depth(tmp_path, opening, closing):
    path = tmp_path / "doc.json"
    depth = documents.MAX_DEPTH
    path.write_text(opening * depth + _BRACKETY + closing * depth, encoding="utf-8")
    got = read_doc(path)
    for _ in range(depth):
        got = got[0] if isinstance(got, list) else got["k"]
    assert got == json.loads(_BRACKETY)
    path.write_text(opening * (depth + 1) + _BRACKETY + closing * (depth + 1), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}: invalid JSON: nested deeper than {depth} levels$"):
        read_doc(path)


def _nested(rng, level: int):
    """A random JSON value whose strings hold brackets, quotes and backslashes."""
    kind = rng.integers(0, 3) if level < 8 else 0
    if kind == 0:
        return "".join(rng.choice(list('ab[]{}"\\'), size=int(rng.integers(0, 5))))
    size = int(rng.integers(0, 4))
    if kind == 1:
        return [_nested(rng, level + 1) for _ in range(size)]
    return {_nested(rng, 8): _nested(rng, level + 1) for _ in range(size)}


def _depth(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    return 1 + max(map(_depth, value), default=0) if isinstance(value, list) else 0


@pytest.mark.parametrize("seed", range(50), ids="seed{}".format)
def test_nesting_depth_is_the_depth_of_the_tree(seed):
    rng = np.random.default_rng(seed)
    value = _nested(rng, 0)
    text = json.dumps(value, indent=int(rng.integers(0, 2)) or None)
    assert documents._nesting_depth(text.encode()) == _depth(value)
