"""Multi-index lattice arithmetic and moment problem instances.

A problem instance prescribes complex values for finitely many monomial
exponents in n complex variables, which only `exponent_rows` checks.  The
paper's construction works on a full exponent box of some degree, so this
module also provides the zero-filled embedding of an instance into that
box: an array in the lexicographic (C) order of `box`, where incrementing
the j-th exponent moves an index by the stride (degree+1)**(n-j).  Only
the paper's construction reads it; no solve builds it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Exponent vector of a monomial z1^k1 ... zn^kn (entries >= 0).
MultiIndex = tuple[int, ...]

MAX_EXPONENT = 65_535  # one atom's powers fit a block of verify's moment sums


def _integer(value) -> int:
    """An integer exponent or count; an integral float such as 2.0 passes.

    `int()` alone would truncate 1.5 to 1, read the string "3" as 3 and
    true as 1, so a boolean, Python's or numpy's, is rejected too.
    """
    integer = int(value)
    if integer != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{value!r} is not an integer")
    return integer


def exponent_rows(indices, n: int) -> np.ndarray:
    """`indices` as a read-only int64 (len(indices), n) array of integers by
    `_integer`'s rule from 0 to MAX_EXPONENT.  An integer array is checked
    whole; other entries before numpy reads [[True, 2]] as [[1, 2]]."""
    if isinstance(indices, np.ndarray) and indices.ndim == 2 and indices.dtype.kind in "iu":
        # as Python ints: a uint64 beyond int64 would wrap in the cast below
        lengths, entries = {indices.shape[1]}, indices
        lo, hi = int(indices.min(initial=0)), int(indices.max(initial=0))
    else:
        rows = list(map(tuple, indices))
        lengths, read = set(map(len, rows)), list(itertools.chain.from_iterable(rows))
        # `_integer` only where it can refuse
        entries = read if set(map(type, read)) <= {int} else list(map(_integer, read))
        lo, hi = min(entries, default=0), max(entries, default=0)
    if lengths - {n}:
        raise ValueError(f"an index has length {min(lengths - {n})}, expected {n}")
    if lo < 0:
        raise ValueError(f"negative exponent {lo}")
    if hi > MAX_EXPONENT:  # named as read: a document's 2**64 + 1 as the double 2.0**64
        top = hi if entries is indices else read[entries.index(hi)]
        raise ValueError(f"exponent {top} exceeds the limit {MAX_EXPONENT}")
    array = np.array(entries, dtype=np.int64).reshape(-1, n)
    array.setflags(write=False)
    return array


def box(n: int, degree: int) -> tuple[MultiIndex, ...]:
    """All multi-indices with every entry <= degree, in lexicographic order.

    The zero index comes first and the result has (degree+1)**n elements.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if degree < 1:
        raise ValueError("box degree must be at least 1")
    return tuple(itertools.product(range(degree + 1), repeat=n))


@dataclass(frozen=True)
class MomentSpec:
    """A truncated moment problem: prescribed complex values per exponent.

    `indices` are distinct multi-indices with the all-zero exponent first;
    `values` align with them, the first the total mass.  Equality, hashing
    and repr skip four read-only arrays: `exponents`, `exponent_rows(indices,
    n)`; `moments`, the values as complex128; `magnitudes`, their finite
    moduli |s_k| by `np.abs`, float64; `degrees`, |k| per row, int64.
    """

    n: int
    indices: tuple[MultiIndex, ...]
    values: tuple[complex, ...]
    exponents: np.ndarray = field(init=False, compare=False, repr=False)
    moments: np.ndarray = field(init=False, compare=False, repr=False)
    magnitudes: np.ndarray = field(init=False, compare=False, repr=False)
    degrees: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = _integer(self.n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        exponents = exponent_rows(self.indices, n)
        indices = tuple(map(tuple, exponents.tolist()))
        values = list(self.values)  # what complex() reads, but not "1" or True, as in the documents
        for v in values if not set(map(type, values)) <= {complex, float, int} else ():
            if isinstance(v, (str, bytes, bool, np.bool_)):
                raise ValueError(f"{v!r} is not a number")
        moments = np.array(list(map(complex, values)), dtype=complex)
        if len(indices) != len(moments):
            raise ValueError("indices and values must have equal length")
        if not indices or indices[0] != (0,) * n:
            raise ValueError("the zero multi-index must be present and first")
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate multi-index in spec")
        magnitudes = np.abs(moments)  # the one modulus rule; the first refused value names the refusal
        for v in moments[~np.isfinite(magnitudes)][:1].tolist():
            raise ValueError(f"moment value {v} has a modulus beyond the range of a double"
                             if np.isfinite(v) else "moment values must be finite")
        degrees = exponents.sum(axis=1)
        for array in (moments, magnitudes, degrees):
            array.setflags(write=False)
        for name, value in dict(n=n, indices=indices, values=tuple(moments.tolist()), exponents=exponents,
                                moments=moments, magnitudes=magnitudes, degrees=degrees).items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_items(cls, n: int, items) -> "MomentSpec":
        """Build a spec from (index, value) pairs given in any order.

        A stable sort puts the pairs whose index has no nonzero entry first
        and converts nothing; `__post_init__` does all the checking.
        """
        pairs = sorted(items, key=lambda item: any(item[0]))
        return cls(n, tuple(k for k, _ in pairs), tuple(v for _, v in pairs))

    def value_of(self, k: MultiIndex) -> complex:
        return self.values[self.indices.index(k)]

    @property
    def mass(self) -> complex:
        return complex(self.moments[0])

    def is_zero(self) -> bool:
        return not self.moments.any()


@dataclass(frozen=True, eq=False)
class EmbeddedSpec:
    """A moment spec zero-filled onto a full exponent box, in the C order of `box`."""

    n: int
    degree: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != ((self.degree + 1) ** self.n,):
            raise ValueError("one value per box element required")

    @property
    def box(self) -> np.ndarray:
        """The box exponents as a (len(values), n) array, row i for values[i]."""
        return np.indices((self.degree + 1,) * self.n).reshape(self.n, -1).T

    @property
    def mass(self) -> complex:
        return complex(self.values[0])


def embed(spec: MomentSpec) -> EmbeddedSpec:
    """Zero-fill a spec onto the smallest box containing its indices.

    The box degree is max(1, largest exponent entry).
    """
    degree = max(1, int(spec.exponents.max()))
    values = np.zeros((degree + 1) ** spec.n, dtype=complex)
    values[np.ravel_multi_index(spec.exponents.T, (degree + 1,) * spec.n)] = spec.moments
    return EmbeddedSpec(spec.n, degree, values)
