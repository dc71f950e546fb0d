"""JSON document formats for problems, measures, and reports.

Complex numbers are stored as {re, im} pairs and floats round-trip exactly
(serialization relies on Python's shortest exact float representation), so
parse(serialize(x)) reproduces x field for field.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .lattice import MomentSpec, _integer
from .measures import AtomicMeasure
from .verify import Report


def problem_to_doc(spec: MomentSpec) -> dict:
    return {
        "n": spec.n,
        "moments": [
            {"k": list(k), "re": v.real, "im": v.imag}
            for k, v in zip(spec.indices, spec.values)
        ],
    }


def problem_from_doc(doc: dict) -> MomentSpec:
    if not isinstance(doc, dict):
        raise ValueError("problem document must be a JSON object")
    try:
        n = _integer(doc["n"])
        moments = doc["moments"]
        items = [
            (tuple(map(_integer, entry["k"])), complex(float(entry["re"]), float(entry["im"])))
            for entry in moments
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc
    return MomentSpec.from_items(n, items)


def measure_to_doc(measure: AtomicMeasure) -> dict:
    return {
        "n": measure.n,
        "scale": measure.scale,
        "atoms": [
            {
                "z": [{"re": z.real, "im": z.imag} for z in row],
                "w": float(w),
            }
            for row, w in zip(measure.atoms, measure.weights)
        ],
    }


def measure_from_doc(doc: dict) -> AtomicMeasure:
    """Read a measure document into arrays, one pass per field.

    Every row length is checked before the coordinates are flattened, and
    each of `re`, `im` and `w` is read straight into a float array; no
    Python complex number is built per coordinate.
    """
    if not isinstance(doc, dict):
        raise ValueError("measure document must be a JSON object")
    try:
        n = _integer(doc["n"])
        scale = float(doc["scale"])
        entries = doc["atoms"]
        rows = list(map(itemgetter("z"), entries))
        for length in set(map(len, rows)):
            if length != n:
                raise ValueError(f"atom has {length} coordinates, expected {n}")
        coords = list(chain.from_iterable(rows))
        atoms = np.empty(len(coords), dtype=complex)
        atoms.real = np.fromiter(map(float, map(itemgetter("re"), coords)), float, len(coords))
        atoms.imag = np.fromiter(map(float, map(itemgetter("im"), coords)), float, len(coords))
        weights = np.fromiter(map(float, map(itemgetter("w"), entries)), float, len(rows))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed measure document: {exc}") from exc
    return AtomicMeasure(n, atoms.reshape(-1, n), weights, scale=scale)


def _finite_or_null(x: float) -> float | None:
    """x, or None (JSON null) for inf and nan, which JSON cannot hold."""
    return x if math.isfinite(x) else None


def report_to_doc(rep: Report) -> dict:
    """The report as a JSON object; a non-finite value becomes null."""
    return {
        "max_residual": _finite_or_null(rep.max_residual),
        "total_mass": _finite_or_null(rep.total_mass),
        "support_radius": _finite_or_null(rep.support_radius),
        "atom_count": rep.atom_count,
        "residuals": [
            {"k": list(k), "abs_err": _finite_or_null(r)}
            for k, r in zip(rep.indices, rep.residuals)
        ],
        "config": None if rep.config is None else {"tol": rep.config.tol},
    }


def write_doc(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_doc(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
