"""Exact dense linear algebra over GF(p) or the rationals.

Everything here is about row spaces: ranks, reduced bases, sums,
intersections and relative dimensions. A Subspace is always stored as
its reduced row echelon form with first-nonzero-column pivoting, so a
row space has exactly one stored basis and identical inputs yield
identical output, bit for bit. All functions are pure; Matrix and
Subspace are immutable and safe to share between threads.

Each field has one forward elimination, which intersections stop after;
only a canonical basis pays for the back-substitution. Ranks and relative
dimensions need no echelon rows: over GF(p) a whole stack of matrices is
ranked side by side (`_ranks`), over Q by the forward pass. Over GF(p)
both run on int64 numpy arrays (valid because the default modulus is
below isqrt(2**63), so a product of two reduced entries never overflows),
or on object arrays of Python ints for larger primes. Over Q elimination
is fraction-free: rows are scaled to integers and stay integers, each
eliminated row divided by its content, and Fraction appears only in the
back-substitution of a canonical basis.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from .fields import FieldSpec, Scalar

_INT64_PRIME_LIMIT = isqrt(2**63 - 1)


class AmbientMismatchError(ValueError):
    """Raised when subspaces of different ambient spaces are combined."""


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with entries canonical in its field."""

    entries: tuple[tuple[Scalar, ...], ...]
    cols: int
    field: FieldSpec

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int | Fraction]],
        field: FieldSpec,
        cols: int | None = None,
    ) -> Matrix:
        rows = [tuple(field.reduce(x) for x in row) for row in rows]
        if cols is None:
            if not rows:
                raise ValueError("column count required for an empty matrix")
            cols = len(rows[0])
        for row in rows:
            if len(row) != cols:
                raise ValueError(f"ragged row: {len(row)} entries, expected {cols}")
        return cls(tuple(rows), cols, field)

    @property
    def rows(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Subspace:
    """Row space of a matrix, stored as its unique RREF basis."""

    ambient: int
    basis: tuple[tuple[Scalar, ...], ...]
    pivots: tuple[int, ...]
    field: FieldSpec

    @property
    def dim(self) -> int:
        return len(self.basis)


def _echelon_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Forward pass over GF(p) on an int64 array, or on an object array of
    Python ints for primes whose squares overflow int64: each pivot is
    scaled to 1 and cleared below only."""
    nr, nc = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        below = a[r + 1 :, c]
        if below.any():
            a[r + 1 :, c:] = (a[r + 1 :, c:] - np.outer(below, a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _clear_row(row: Sequence[int | Fraction]) -> list[int]:
    """The row times the lcm of its denominators: integers, same span."""
    den = lcm(*{x.denominator for x in row})
    if den == 1:
        return list(map(int, row))
    return [x.numerator * (den // x.denominator) for x in row]


def _echelon_int(mat: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward pass over the integers: a row below a pivot
    becomes pivot * row - lead * pivot row, divided by its content, so
    entries stay small and no Fraction is built."""
    nc = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        pl = prow[c]
        for i in range(r + 1, len(mat)):
            li = mat[i][c]
            if li:
                new = [pl * x - li * y for x, y in zip(mat[i], prow)]
                # reduce, not gcd(*new): the argument tuple per row showed
                # in peak memory
                g = reduce(gcd, new, 0)
                mat[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _echelon(rows: Sequence[Sequence[Scalar]] | np.ndarray, field: FieldSpec):
    """Forward elimination of a sequence of rows or a 2-D array.

    Returns the nonzero rows of an echelon form as a new 2-D array with
    the input's column count, and their pivot columns. Over GF(p) each
    pivot is 1; over Q the rows are integers (each input row is scaled to
    integers first, which keeps the row space).
    """
    if not len(rows):
        return np.zeros((0, 0), dtype=object), []
    if field.is_modular:
        p = field.prime
        dtype = np.int64 if p <= _INT64_PRIME_LIMIT else object
        return _echelon_mod(np.array(rows, dtype=dtype) % p, p)
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    mat, pivots = _echelon_int([_clear_row(row) for row in rows if any(row)])
    return np.array(mat, dtype=object).reshape(len(mat), len(rows[0])), pivots


def _rref(rows: Sequence[Sequence[Scalar]] | np.ndarray, field: FieldSpec):
    """RREF basis rows, as lists of field scalars, and pivot columns: the
    forward pass, then each pivot scaled to 1 and cleared above."""
    a, pivots = _echelon(rows, field)
    if not pivots:
        return [], []
    if not field.is_modular:
        a = a / np.array([Fraction(a[k, c]) for k, c in enumerate(pivots)])[:, None]
    for k in range(len(pivots) - 1, 0, -1):
        col = a[:k, pivots[k]]
        if col.any():
            a[:k] = a[:k] - np.outer(col, a[k])
            if field.is_modular:
                a[:k] %= field.prime
    return a.tolist(), pivots


def _combine(a, rows: np.ndarray, field: FieldSpec) -> np.ndarray:
    """The rows of a·rows in exact Python scalars, reduced over GF(p)."""
    w = np.array(a, dtype=object).dot(rows)
    return w % field.prime if field.is_modular else w


def _span(rows, ambient: int, field: FieldSpec) -> Subspace:
    """Row space of a sequence of rows or a 2-D array."""
    basis, pivots = _rref(rows, field)
    return Subspace(ambient, tuple(map(tuple, basis)), tuple(pivots), field)


def _ranks(stack, field: FieldSpec) -> list[int]:
    """Ranks of a sequence of equally shaped matrices (or a 3-D array).

    Over GF(p) the matrices are eliminated side by side along their shorter
    side: step k takes the first nonzero entry piv of line k of each matrix
    and replaces the matrix by (piv·a - col ⊗ line) mod p, which clears the
    line and the pivot's column and lowers the rank by exactly one. A zero
    line leaves its matrix as it is (piv = 1, col ⊗ line = 0), and a line
    that is zero in every matrix is skipped. Over Q each matrix gets the
    fraction-free forward pass.
    """
    if not field.is_modular:
        return [len(_echelon(a, field)[1]) for a in stack]
    p = field.prime
    a = np.array(stack, dtype=np.int64 if p <= _INT64_PRIME_LIMIT else object) % p
    if a.size == 0:
        return [0] * len(a)
    if a.shape[1] > a.shape[2]:
        a = a.transpose(0, 2, 1)
    ranks = np.zeros(len(a), dtype=np.int64)
    k = np.arange(len(a))
    for _ in range(a.shape[1]):
        line, a = a[:, 0], a[:, 1:]
        j = (line != 0).argmax(1)
        piv = line[k, j]
        found = piv != 0
        if not found.any():
            continue
        ranks += found
        piv[~found] = 1
        a = (piv[:, None, None] * a - a[k, :, j][:, :, None] * line[:, None, :]) % p
    return ranks.tolist()


def _rank(rows, field: FieldSpec) -> int:
    """Rank of a sequence of rows or a 2-D array."""
    return _ranks([rows], field)[0]


def rank(m: Matrix) -> int:
    """Rank of the matrix over its field."""
    return _rank(m.entries, m.field)


def row_space(m: Matrix) -> Subspace:
    """Row space of the matrix as a canonically based subspace."""
    return _span(m.entries, m.cols, m.field)


def zero_subspace(ambient: int, field: FieldSpec) -> Subspace:
    return Subspace(ambient=ambient, basis=(), pivots=(), field=field)


def _check_pair(a: Subspace, b: Subspace) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatchError(
            f"ambient dimensions differ: {a.ambient} != {b.ambient}"
        )
    if a.field != b.field:
        raise AmbientMismatchError("subspaces live over different fields")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both arguments."""
    _check_pair(a, b)
    return _span(a.basis + b.basis, a.ambient, a.field)


def _meet(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Echelon rows spanning row space(a) ∩ row space(b) (Zassenhaus).

    The row space of [[a, a], [b, 0]] is {(x·a + y·b, x·a)}. Its echelon
    rows whose left half is zero therefore have right halves x·a = -y·b,
    and those right halves are an echelon basis of the intersection.
    """
    k, n = a.shape
    z = np.zeros((k + len(b), 2 * n), dtype=a.dtype)
    z[:k, :n] = z[:k, n:] = a
    z[k:, :n] = b
    rows, pivots = _echelon(z, field)
    return rows[bisect_left(pivots, n) :, n:]


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, by the Zassenhaus algorithm: one forward elimination
    of the stacked bases [[A, A], [B, 0]], whose rows with a zero left half
    span the intersection in their right half."""
    _check_pair(a, b)
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient, a.field)
    rows = _meet(
        np.array(a.basis, dtype=object), np.array(b.basis, dtype=object), a.field
    )
    return _span(rows, a.ambient, a.field)


def relative_dim(a: Subspace, b: Subspace) -> int:
    """dim a - dim(a intersect b), i.e. the dimension of a modulo b.

    Computed as rank(a + b) - dim b, which is the same number by the
    Grassmann identity and needs a single forward elimination.
    """
    _check_pair(a, b)
    return _rank(a.basis + b.basis, a.field) - b.dim
