"""Exact dense linear algebra over GF(p) or the rationals.

Everything here is about row spaces: ranks, reduced bases, sums,
intersections and relative dimensions. A Subspace is always stored as
its reduced row echelon form with first-nonzero-column pivoting, so a
row space has exactly one stored basis and identical inputs yield
identical output, bit for bit. All functions are pure; Matrix and
Subspace are immutable and safe to share between threads.

Over GF(p), ranks and intersections share one stacked elimination,
`_line_steps`: a stack of equally shaped matrices is eliminated side by
side, one line per step, so the quotient trials of one type are ranked
together (`_ranks`) and a whole level of generator subsets is intersected
together (`_meets`, by Zassenhaus). Only canonical bases (`_rref`) and the
echelon rows of single generators take the column-by-column forward pass,
`_echelon_mod`. All of these run on int64 numpy arrays (valid because the
default modulus is below isqrt(2**63), so a product of two reduced entries
never overflows), or on object arrays of Python ints for larger primes.
Over Q every rank, intersection and basis starts from one fraction-free
forward pass: rows are scaled to integers and stay integers, each
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


def _line_steps(a: np.ndarray, p: int):
    """Eliminate a stack of equally shaped matrices over GF(p), one line of
    each per step, all side by side.

    Step k yields line k of every matrix as the earlier steps left it, the
    column j of its first nonzero entry and whether it has one. The lines
    below then become (piv·row - row[j]·line) mod p, piv = line[j], which
    zeroes column j under the line and keeps the row space. A zero line
    leaves its matrix as it is (piv = 1, row[j]·line = 0), and a step whose
    line is zero in every matrix changes nothing. Entries stay below p, so
    products stay below p² and int64 holds them for p <= _INT64_PRIME_LIMIT.
    """
    k = np.arange(len(a))
    for _ in range(a.shape[1]):
        line, a = a[:, 0], a[:, 1:]
        j = (line != 0).argmax(1)
        piv = line[k, j]
        found = piv != 0
        yield line, j, found
        if a.shape[1] and found.any():
            piv[~found] = 1
            a = (piv[:, None, None] * a - a[k, :, j][:, :, None] * line[:, None, :]) % p


def _ranks(stack, field: FieldSpec) -> list[int]:
    """Ranks of a sequence of equally shaped matrices (or a 3-D array).

    Over GF(p) the matrices are eliminated side by side along their shorter
    side by `_line_steps`: every nonzero line lowers the rank of what is
    left by exactly one. Over Q each matrix gets the fraction-free forward
    pass.
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
    for _, _, found in _line_steps(a, p):
        ranks += found
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


def _meets(pairs, field: FieldSpec) -> list[np.ndarray]:
    """Rows spanning row space(a) ∩ row space(b), for each pair (a, b) of
    2-D arrays with equal column counts (Zassenhaus).

    The row space of Z = [[a, a], [b, 0]] is {(x·a + y·b, x·a)}, and its
    vectors with a zero left half have right halves x·a = -y·b, which run
    over the intersection. The pairs are grouped by shape and each group's
    Z stacked. Over GF(p) the rows of each stack are eliminated in order by
    `_line_steps`, and the lines whose first nonzero entry lies in the
    right half are kept: their left halves are zero and their right halves
    are a basis of the intersection. For, the nonzero lines are a basis of
    row(Z); in a combination of them, take the first line with a left-half
    pivot: every earlier line has its pivot in the right half, so it is
    zero on the whole left half, and every later line is zero at that pivot
    column, so the combination's left half cannot vanish. Over Q each Z
    gets the fraction-free forward pass, whose rows with a right-half pivot
    are the same kind of basis.
    """
    out: list = [None] * len(pairs)
    groups: dict[tuple, list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        groups.setdefault((a.shape, b.shape), []).append(i)
    p = field.prime
    dtype = np.int64 if field.is_modular and p <= _INT64_PRIME_LIMIT else object
    for ((ka, n), (kb, _)), idx in groups.items():
        z = np.zeros((len(idx), ka + kb, 2 * n), dtype=dtype)
        z[:, :ka, :n] = z[:, :ka, n:] = [pairs[i][0] for i in idx]
        z[:, ka:, :n] = [pairs[i][1] for i in idx]
        if not field.is_modular:
            for i, zi in zip(idx, z):
                rows, pivots = _echelon(zi, field)
                out[i] = rows[bisect_left(pivots, n) :, n:]
            continue
        kept: list[list[np.ndarray]] = [[] for _ in idx]
        for line, j, found in _line_steps(z % p, p):
            g = (found & (j >= n)).nonzero()[0]
            for gi, row in zip(g.tolist(), line[g, n:]):
                kept[gi].append(row)
        for i, rows in zip(idx, kept):
            out[i] = np.array(rows, dtype=dtype).reshape(len(rows), n)
    return out


def _meet(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Rows spanning row space(a) ∩ row space(b): `_meets` of one pair."""
    return _meets([(a, b)], field)[0]


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
