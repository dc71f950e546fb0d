"""JSON document formats for problems, measures, and reports.

Complex numbers are stored as {re, im} pairs and floats round-trip exactly
(serialization relies on Python's shortest exact float representation), so
parse(serialize(x)) reproduces x field for field.  Every `re`, `im`, `w`
and `scale` must be a JSON number: a string such as "1.5" or a boolean is
a parse error.

`read_doc` decodes with the cyclic garbage collector paused (see
`collector_paused`).  `report_json` writes a report document directly,
with the bytes of `json.dumps(doc, indent=2)`, whose indented form runs
the standard library's pure-Python encoder.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .lattice import MomentSpec, _integer
from .measures import AtomicMeasure
from .verify import Report


def _reals(items: list, name: str) -> list:
    """Field `name` of every item, each checked to be a JSON number.

    `float()` alone would read "1.5" and true.  The types are checked in
    one pass over the values, not one call each.
    """
    values = list(map(itemgetter(name), items))
    if not set(map(type, values)) <= {float, int}:
        bad = next(v for v in values if type(v) not in (float, int))
        raise ValueError(f"{name} {bad!r} is not a number")
    return values


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
        # the spec checks n and every moment, and its errors get the prefix too
        moments = doc["moments"]
        return MomentSpec.from_items(doc["n"], [
            (entry["k"], complex(re, im))
            for entry, re, im in zip(moments, _reals(moments, "re"), _reals(moments, "im"))
        ])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc


def measure_to_doc(measure: AtomicMeasure) -> dict:
    return {
        "n": measure.n,
        "scale": measure.scale,
        "atoms": [
            {"z": [{"re": re, "im": im} for re, im in zip(res, ims)], "w": w}
            for res, ims, w in zip(
                measure.atoms.real.tolist(), measure.atoms.imag.tolist(), measure.weights.tolist()
            )
        ],
    }


def measure_from_doc(doc: dict) -> AtomicMeasure:
    """Read a measure document into arrays, one pass per field.

    Every row length is checked before the coordinates are flattened, and
    each of `re`, `im` and `w` is checked to hold JSON numbers only, then
    read straight into a float array; no Python complex number is built per
    coordinate.
    """
    if not isinstance(doc, dict):
        raise ValueError("measure document must be a JSON object")
    try:
        n = _integer(doc["n"])
        scale = float(_reals([doc], "scale")[0])
        entries = doc["atoms"]
        rows = list(map(itemgetter("z"), entries))
        for length in set(map(len, rows)):
            if length != n:
                raise ValueError(f"atom has {length} coordinates, expected {n}")
        coords = list(chain.from_iterable(rows))
        atoms = np.empty(len(coords), dtype=complex)
        atoms.real = np.array(_reals(coords, "re"), dtype=float)
        atoms.imag = np.array(_reals(coords, "im"), dtype=float)
        weights = np.array(_reals(entries, "w"), dtype=float)
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


def _json_number(x: float | None) -> str:
    return "null" if x is None else float.__repr__(x)


def report_json(doc: dict) -> str:
    """`json.dumps(doc, indent=2)` of a `report_to_doc` document, byte for byte.

    The lines of the report's one layout are joined directly; floats are
    written with `float.__repr__` and ints with `int.__repr__`, as `json`
    writes them, and a non-finite value is already null.  The top-level
    scalars and the `tol` echo go through `json.dumps` itself.
    """
    residuals = ",\n".join(
        '    {\n      "k": [\n        ' + ",\n        ".join(map(int.__repr__, r["k"]))
        + '\n      ],\n      "abs_err": ' + _json_number(r["abs_err"]) + "\n    }"
        for r in doc["residuals"]
    )
    config = doc["config"]
    return (
        "{\n"
        + "".join(
            f'  "{key}": {json.dumps(doc[key])},\n'
            for key in ("max_residual", "total_mass", "support_radius", "atom_count")
        )
        + f'  "residuals": [\n{residuals}\n  ],\n'
        + '  "config": '
        + ("null" if config is None else f'{{\n    "tol": {json.dumps(config["tol"])}\n  }}')
        + "\n}"
    )


def write_doc(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, then restore its earlier state.

    A decoded JSON tree holds no reference cycles, so a collection while a
    tree is built or read could free nothing; it would only walk the tree's
    containers, and an n=2 measure document of 20,000 atoms builds 80,000
    of them.  Reference counting still frees the tree.  The pause
    is process-wide and nests.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_doc(path: Path) -> dict:
    """Decode a JSON file, with the collector paused while it decodes."""
    text = path.read_text(encoding="utf-8")
    try:
        with collector_paused():
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
