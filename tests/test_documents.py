import json

import numpy as np
import pytest

from momentsynth.documents import (
    measure_from_doc,
    measure_to_doc,
    problem_from_doc,
    problem_to_doc,
    report_to_doc,
)
from momentsynth.lattice import MomentSpec
from momentsynth.measures import AtomicMeasure
from momentsynth.synthesis import SolverConfig
from momentsynth.verify import random_instance, report


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


def test_problem_round_trip_random(rng):
    spec, _ = random_instance(3, 1, 4, seed=17)
    back = problem_from_doc(json.loads(json.dumps(problem_to_doc(spec))))
    assert back.indices == spec.indices
    assert back.values == spec.values


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
    with pytest.raises(ValueError):
        problem_from_doc(doc)


def test_problem_doc_requires_zero_index():
    doc = {"n": 1, "moments": [{"k": [1], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError):
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
])
def test_measure_doc_malformed(doc):
    with pytest.raises(ValueError, match="malformed measure document"):
        measure_from_doc(doc)


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
])
def test_problem_doc_rejects_non_integral_numbers(n, k):
    # int() would have truncated 1.5 to 1, a moment nobody prescribed
    doc = {"n": n, "moments": [{"k": [0], "re": 1.0, "im": 0.0}, {"k": [k], "re": 0.5, "im": 0.0}]}
    with pytest.raises(ValueError, match="malformed problem document"):
        problem_from_doc(doc)


@pytest.mark.parametrize("n", [1.7, float("inf"), "1"])
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
