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
