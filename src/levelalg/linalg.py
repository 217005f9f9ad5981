"""Exact dense linear algebra over GF(p) or the rationals.

Everything here is about row spaces: ranks, reduced bases, sums,
intersections and relative dimensions. Reduction always produces the
reduced row echelon form with first-nonzero-column pivoting, so a row
space has exactly one stored basis and identical inputs yield identical
output, bit for bit. All functions are pure; Matrix and Subspace are
immutable and safe to share between threads.

The modular kernel runs on int64 numpy arrays (valid because the default
modulus is below isqrt(2**63), so a product of two reduced entries never
overflows). The rational kernel clears rows to coprime integers, runs a
fraction-free forward pass, and only touches Fraction on the compact
echelon, which keeps exact arithmetic affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
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


def _rref_mod_np(a: np.ndarray, p: int) -> tuple[list[list[int]], list[int]]:
    nr, nc = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        if np.any(col):
            a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r].tolist(), pivots


def _rref_mod_py(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    # fallback for moduli whose squares overflow int64
    mat = [[x % p for x in row] for row in rows]
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
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        prow = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _clear_row(row: Sequence[Fraction]) -> list[int]:
    den = 1
    for x in row:
        d = x.denominator
        den = den * d // gcd(den, d)
    ints = [int(x * den) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _rref_frac(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    mat = [_clear_row(row) for row in rows]
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
                g = 0
                for v in new:
                    g = gcd(g, v)
                if g > 1:
                    new = [v // g for v in new]
                mat[i] = new
        pivots.append(c)
        r += 1
    basis = [[Fraction(v) for v in mat[k]] for k in range(r)]
    for k in range(r):
        lead = basis[k][pivots[k]]
        if lead != 1:
            basis[k] = [x / lead for x in basis[k]]
    for k in range(r - 1, -1, -1):
        c = pivots[k]
        for j in range(k):
            f = basis[j][c]
            if f:
                basis[j] = [x - f * y for x, y in zip(basis[j], basis[k])]
    return basis, pivots


def _rref(rows: Sequence[Sequence[Scalar]] | np.ndarray, field: FieldSpec):
    """RREF basis rows and pivot columns of a sequence of rows or a 2-D array.

    Rational rows may be integers: only the row space is read.
    """
    if not len(rows):
        return [], []
    if field.is_modular and field.prime <= _INT64_PRIME_LIMIT:
        a = np.asarray(rows, dtype=np.int64) % field.prime
        return _rref_mod_np(a[a.any(axis=1)], field.prime)
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    if field.is_modular:
        return _rref_mod_py(rows, field.prime)
    return _rref_frac(rows)


def _combine(a, rows: np.ndarray, field: FieldSpec) -> np.ndarray:
    """The rows of a·rows in exact Python scalars, reduced over GF(p)."""
    w = np.array(a, dtype=object).dot(rows)
    return w % field.prime if field.is_modular else w


def _span(rows, ambient: int, field: FieldSpec) -> Subspace:
    """Row space of a sequence of rows or a 2-D array."""
    basis, pivots = _rref(rows, field)
    return Subspace(ambient, tuple(map(tuple, basis)), tuple(pivots), field)


def _rank(rows, field: FieldSpec) -> int:
    """Rank of a sequence of rows or a 2-D array."""
    return len(_rref(rows, field)[1])


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


def _nullspace(rows: list[list[Scalar]], cols: int, field: FieldSpec):
    """Basis of the right null space {x : rows @ x = 0}."""
    basis, pivots = _rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    out = []
    zero = field.zero()
    one = field.one()
    for f in free:
        v = [zero] * cols
        v[f] = one
        for k, pc in enumerate(pivots):
            v[pc] = field.neg(basis[k][f])
        out.append(v)
    return out


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, via the null space of the stacked coefficient system.

    A vector lies in both row spaces iff it is x @ A = y @ B for some
    coefficient vectors x, y; these are the null vectors of the ambient-by-
    (dim a + dim b) system [A^T | -B^T].
    """
    _check_pair(a, b)
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient, a.field)
    basis = np.array(a.basis, dtype=object)
    stacked = np.vstack([basis, -np.array(b.basis, dtype=object)]).T
    null = _nullspace(stacked, a.dim + b.dim, a.field)
    if not null:
        return zero_subspace(a.ambient, a.field)
    x = np.array([z[: a.dim] for z in null], dtype=object)
    return _span(_combine(x, basis, a.field), a.ambient, a.field)


def relative_dim(a: Subspace, b: Subspace) -> int:
    """dim a - dim(a intersect b), i.e. the dimension of a modulo b.

    Computed as dim(a + b) - dim b, which is the same number by the
    Grassmann identity and needs a single elimination.
    """
    _check_pair(a, b)
    return subspace_sum(a, b).dim - b.dim
