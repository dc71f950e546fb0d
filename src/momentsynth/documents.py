"""JSON document formats for problems, measures, and reports.

Complex numbers are stored as {re, im} pairs and floats round-trip exactly
(every float is written in its shortest exact spelling), so parse(serialize(x))
reproduces x field for field.  Every `re`, `im`, `w` and `scale` must be a
JSON number: a string such as "1.5" or a boolean is a parse error.

orjson both decodes and encodes.  `read_doc` decodes a file's bytes with
the cyclic garbage collector paused (see `collector_paused`).  orjson
reads strict JSON: NaN, Infinity and a number beyond a double (1e400) are
invalid, an integer beyond 64 bits reads as the nearest double (above the
cap of an exponent), and a document nested deeper than `MAX_DEPTH` is
refused before it is decoded.
`doc_bytes` makes the bytes of every written document and printed report,
indented by two spaces, with floats spelled as orjson spells them
(0.00001, 1e300, 2.5e-8), which the standard library's `json` reads to the
same bits.
"""

from __future__ import annotations

import gc
import math
import re
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np
import orjson

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
        # the measure checks n, the weights' signs and finiteness, and its
        # errors get the prefix too
        return AtomicMeasure(n, atoms, weights, scale=scale)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed measure document: {exc}") from exc


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


def doc_bytes(doc: dict) -> bytes:
    """The document as indented JSON, ending in a newline.

    A numpy scalar, such as a `tol` given as np.float64, is written as its
    Python number.  orjson writes integers of at most 64 bits, the ones it
    reads back as integers; a document with any other integer is refused.
    """
    options = orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
    try:
        return orjson.dumps(doc, option=options)
    except orjson.JSONEncodeError as exc:
        raise ValueError(f"cannot write the document: {exc} (integers must lie in -2**63..2**64-1)") from exc


def write_doc(path: Path, doc: dict) -> None:
    path.write_bytes(doc_bytes(doc))


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


# The deepest nesting of arrays and objects a document may have.  orjson
# 3.8 builds its Python objects recursively and has no depth limit of its
# own: a document nested 200,000 deep overflows the C stack.
MAX_DEPTH = 1024

# Brackets step the depth by +1 and -1 (0xff as int8); quotes stay, and
# every other byte is deleted.
_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_STRUCTURAL = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def _nesting_depth(data: bytes) -> int:
    """How deep the arrays and objects of a JSON text nest, read from its bytes.

    A bracket inside a string does not count.  On invalid JSON the result
    still bounds the depth of every prefix the decoder reads before it
    stops at the error.
    """
    if b"\\" in data:
        # drop each escape sequence, so that every quote left opens or closes a string
        data = re.sub(rb"\\.", b"", data, flags=re.DOTALL)
    # Deleting two adjacent quotes keeps the parity of every later quote, so
    # once the strings without a bracket (all of a written document's) are
    # gone, the even pieces between quotes are the brackets outside strings.
    marks = data.translate(_STEPS, _NOT_STRUCTURAL).replace(b'""', b"")
    outside = b"".join(marks.split(b'"')[::2])
    return int(np.cumsum(np.frombuffer(outside, dtype=np.int8)).max(initial=0))


def read_doc(path: Path) -> dict:
    """Decode a JSON file, with the collector paused while it decodes.

    The bytes are decoded by orjson, which refuses what is not JSON:
    NaN, Infinity, a number beyond a double, text that is not UTF-8.
    A document nested deeper than `MAX_DEPTH` is refused before decoding.
    """
    data = path.read_bytes()
    if _nesting_depth(data) > MAX_DEPTH:
        raise ValueError(f"{path}: invalid JSON: nested deeper than {MAX_DEPTH} levels")
    try:
        with collector_paused():
            return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
