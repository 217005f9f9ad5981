"""Exact dense linear algebra over GF(p) or the rationals.

Everything here is about row spaces: ranks, reduced bases, sums and
intersections. A Subspace is always stored as its reduced row echelon
form with first-nonzero-column pivoting, so a row space has exactly one
stored basis and identical inputs yield identical output, bit for bit.
All functions are pure; Matrix and Subspace are immutable and safe to
share between threads.

Over GF(p) every elimination is `_line_steps`: a stack of equally shaped
matrices is eliminated side by side, one line per step. A stack of one
matrix (a frame's column basis, a module's own rank, a canonical basis or
a single pair's meet, and the certificates over Q of each) takes the same
steps on the matrix alone, with 2-D arrays and a Python scalar pivot
(`_matrix_steps`), and yields the same lines; the stacked loop
(`_stack_steps`) is its oracle in the tests. It has three readers:
- `_independent_rows` gives, for each matrix of a stack, the ascending
  indices of rows that form a basis of its row space, from one pass along
  the stack's shorter side; it is the only place that picks an
  orientation. A rank (`_ranks`, the quotient trials of one type ranked
  together) is the number of those rows, a basis (`_bases`, the
  generators' derivative spaces) is the rows themselves, or I_n when n of
  them span the whole space, and a column
  basis (`_column_basis`, the frame) is the rows of the transposed live
  submatrix, the array without its zero rows and columns.
- `_meets` intersects a whole level of generator subsets, or a single
  pair, by Zassenhaus, each distinct pair of a call once in either field.
- `_span` gives a canonical basis, from one pass and a back-substitution.

An integer array is int64 where that is exact and an object array of
Python ints otherwise, chosen from the values once, where a module's
coefficient rows are stored (`_integer_array`, called by
`modules.InverseSystemModule`). Over GF(p) the rows are residues in [0,
p): int64 whenever p <= isqrt(2**63 - 1) (`_INT64_PRIME_LIMIT`), so a
product of two entries fits in int64, and object for larger primes. Over
Q they are int64 while every entry is below 2**62 in absolute value
(`_INT64_RATIONAL_LIMIT`): the 0/1 and 10^6-sized rows of most modules,
not a conic family's 120-200-bit rows. Every array built from the rows
keeps their type: catalecticant gathers, combinations (`_combine`, whose
int64 dot is guarded in both fields by an exact bound on its sums), bases
and meets. `_dtype` names the type a kernel works in: over GF(p) the
field's, to which the GF(p) kernels cast their input (int64 without a
copy, `np.asarray`) before reducing it mod p, which also serves callers
that pass negative entries; over Q the common type of its inputs, so
int64 with object is object, and the exact pass returns Python ints.

Over Q every rank, basis and intersection is first certified mod
DEFAULT_PRIME by the GF(p) pass. `_certified_rows` is the one function
that reduces a stack mod its prime to pick rows, in either field, and the
one that says what those rows prove over Q. What a certificate leaves
open gets `_echelon_int`, the fraction-free forward pass on integer rows,
each eliminated row divided by its content; it is the only elimination
over Q. It runs once per distinct matrix of a call
(`_ranks`, `_bases`, by `_once`) or per distinct pair (`_meets`), both
keyed by shape and entries (`_key`). Duplicates get the very same result,
and so do the duplicate pairs of a `_meets` call over GF(p), so callers
must not mutate what these return. The exact answers never depend on p;
only the time does. The kernels take integer rows only: every row the
pipeline builds is one (the generators' coefficient rows are cleared to
integers once, and catalecticants, combinations, meets and bases keep
that). Fractions enter only through Form, Matrix and Subspace, and are
cleared there by `_clear`, the one rule that multiplies values by the lcm
of their denominators; Fraction appears again only in the
back-substitution of a canonical basis.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from .fields import DEFAULT_PRIME, FieldSpec, Scalar

_INT64_PRIME_LIMIT = isqrt(2**63 - 1)
# integers over Q are int64 below this in absolute value: a margin below
# 2**63, so that an entry's negation and absolute value stay in int64
_INT64_RATIONAL_LIMIT = 2**62


def _dtype(field: FieldSpec, *arrays):
    """The array type a kernel works in. Over GF(p) the field's: int64 for
    p <= _INT64_PRIME_LIMIT, where residues below p multiply within int64,
    and object (Python ints) otherwise. Over Q that of its integer inputs,
    arrays or sequences: int64 when each reads as int64, object otherwise
    and when none is given (a list of ints past int64 reads as float64 or
    object)."""
    if field.is_modular:
        return np.int64 if field.prime <= _INT64_PRIME_LIMIT else object
    if arrays and all(np.asarray(a).dtype == np.int64 for a in arrays):
        return np.int64
    return object


def _integer_array(values, field: FieldSpec) -> np.ndarray:
    """A new array of the integers `values`, of any integer type or size,
    as the field's kernels take them: over GF(p) residues mod p in
    `_dtype(field)`, over Q int64 while every entry is below
    _INT64_RATIONAL_LIMIT in absolute value and Python ints in an object
    array otherwise. Unsigned and object input is read exactly, through
    Python ints; a float, Fraction or other non-integer entry raises
    ValueError."""
    a = np.asarray(values)
    if a.dtype.kind == "i":
        a = a.astype(np.int64, copy=False)
    else:
        # unsigned, object, or a list of ints past int64, which numpy reads
        # as float64: read as Python ints, exactly
        try:
            ints = list(map(operator.index, np.array(values, dtype=object).ravel().tolist()))
        except TypeError as exc:
            raise ValueError(f"entries must be integers: {exc}") from None
        a = np.array(ints, dtype=object).reshape(a.shape)
    if field.is_modular:
        dtype = _dtype(field)
        # a big prime exceeds int64: the residues are taken in Python ints
        a = (a.astype(object) if dtype is object else a) % field.prime
        return a.astype(dtype, copy=False)
    # max |entry| in Python ints: an int64 negation wraps at -2**63
    fits = not a.size or max(int(a.max()), -int(a.min())) < _INT64_RATIONAL_LIMIT
    return a.astype(np.int64 if fits else object)


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


def _clear(values) -> tuple[list[int], int]:
    """Integers or Fractions (or numpy integers) times the lcm `den` of
    their denominators, an integer's being 1: Python ints in the same
    ratios, and den (1 for no values)."""
    den = lcm(*(x.denominator for x in values))
    return [int(x.numerator) * (den // x.denominator) for x in values], den


def _echelon_int(rows):
    """Fraction-free forward pass over the integers, on a sequence of
    integer rows or a 2-D integer array (read through `.tolist()`, so no
    fixed-width scalar reaches the big-integer arithmetic). Zero rows are
    dropped; below a pivot a row becomes pivot * row - lead * pivot row,
    divided by its content, so entries stay small and no Fraction is
    built. Returns the echelon rows, an object array of shape (r, cols),
    and their pivot columns, a column basis of the input."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    cols = len(rows[0]) if rows else 0
    mat = [row for row in rows if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
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
    return np.array(mat[:r], dtype=object).reshape(r, cols), pivots


def _key(m) -> tuple:
    """A 2-D array's shape and entries, hashable: its dtype and bytes for
    an int64 array, its Python ints for an object array."""
    if m.dtype == object:
        return (m.shape, *m.ravel().tolist())
    return (m.shape, m.dtype.str, m.tobytes())


def _once(f):
    """f on 2-D arrays, evaluated once per distinct matrix (`_key`): its
    duplicates get the very same result."""
    memo = {}

    def call(m):
        key = _key(m)
        if key not in memo:
            memo[key] = f(m)
        return memo[key]

    return call


def _combine(a, rows: np.ndarray, field: FieldSpec) -> np.ndarray:
    """a·rows for a stack a of integer matrices with t columns and the t
    coefficient rows of a module. a is either an int64 array whose entries
    are below 2**62 in absolute value, as the random draws are, taken as it
    is, or any integers, read exactly in an object array of Python ints.

    Over GF(p) a is reduced mod p first, in int64 for p <=
    _INT64_PRIME_LIMIT and in Python ints otherwise, and the product after
    it, in the rows' dtype. In either field every entry of a·rows is a sum
    of t products of at most max|a|·max|rows|, so when t·max|a|·max|rows| <
    2**63, computed in Python ints, the int64 dot of int64 rows is exact;
    otherwise the dot runs on Python ints, and over Q its result is an
    object array. (np.abs is exact on int64 rows: a module's are below
    2**62 in absolute value, and an int64 combination of them below 2**63.)
    """
    if not (isinstance(a, np.ndarray) and a.dtype == np.int64):
        a = np.array(a, dtype=object)
    if field.is_modular:
        a = (a if _dtype(field) is np.int64 else a.astype(object)) % field.prime
    if rows.dtype == np.int64 and len(rows) * int(np.abs(a).max()) * int(np.abs(rows).max()) < 2**63:
        w = a.astype(np.int64, copy=False).dot(rows)
    else:
        w = a.astype(object, copy=False).dot(rows)
    if field.is_modular:
        w = (w % field.prime).astype(rows.dtype, copy=False)
    return w


def _span(rows, ambient: int, field: FieldSpec) -> Subspace:
    """Row space of a sequence of rows or a 2-D array, as its RREF basis:
    over GF(p) the nonzero lines of one `_line_steps` pass, sorted by their
    distinct leading columns and scaled to pivot 1; over Q the rows, which
    may hold Fractions, each cleared to integers, get `_echelon_int` and
    are divided by their pivots. Then each pivot is cleared above."""
    if field.is_modular:
        p = field.prime
        a = np.asarray(rows, dtype=_dtype(field)) % p
        steps = _line_steps(a[None], p) if a.size else ()
        lines = sorted(
            (int(j[0]), line[0] * pow(int(line[0, j[0]]), -1, p) % p)
            for line, j, found in steps if found[0]
        )
        pivots = [c for c, _ in lines]
        a = np.array([row for _, row in lines], dtype=a.dtype)
    else:
        a, pivots = _echelon_int([_clear(row)[0] for row in rows])
        piv = np.array([Fraction(a[k, c]) for k, c in enumerate(pivots)], dtype=object)
        a = a / piv[:, None]
    for k in range(len(pivots) - 1, 0, -1):
        col = a[:k, pivots[k]]
        if col.any():
            a[:k] = a[:k] - np.outer(col, a[k])
            if field.is_modular:
                a[:k] %= field.prime
    return Subspace(ambient, tuple(map(tuple, a.tolist())), tuple(pivots), field)


# the j of a zero line and the found flags of `_matrix_steps`, shared by
# every step and read-only
_NO_PIVOT = np.zeros(1, dtype=np.intp)
_NOT_FOUND = np.zeros(1, dtype=bool)
_FOUND = np.ones(1, dtype=bool)
_NO_PIVOT.flags.writeable = _NOT_FOUND.flags.writeable = _FOUND.flags.writeable = False


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

    A stack of one matrix takes the same steps on the matrix alone
    (`_matrix_steps`), with the same integers and the same triples: the
    stacked step costs as much for one matrix as for five, and the frame,
    a module's own rank and the certificates over Q each eliminate one.
    """
    if len(a) == 1:
        return _matrix_steps(a[0], p)
    return _stack_steps(a, p)


def _matrix_steps(a: np.ndarray, p: int):
    """`_line_steps` on a single 2-D matrix a, yielding its lines as 1-row
    views and j and found as arrays of one entry. The first nonzero column
    comes from line.nonzero(), the pivot is a Python scalar, the column
    below it a basic index, and the update an outer product."""
    for _ in range(len(a)):
        line, a = a[:1], a[1:]
        nz = line[0].nonzero()[0]
        if not nz.size:
            yield line, _NO_PIVOT, _NOT_FOUND
            continue
        j = nz[:1]
        yield line, j, _FOUND
        if len(a):
            col = a[:, j[0]]
            a = (int(line[0, j[0]]) * a - np.multiply.outer(col, line[0])) % p


def _stack_steps(a: np.ndarray, p: int):
    """`_line_steps` on a 3-D stack, every matrix side by side."""
    k = np.arange(len(a))
    for _ in range(a.shape[1]):
        line, a = a[:, 0], a[:, 1:]
        j = (line != 0).argmax(1)
        piv = line[k, j]
        found = piv != 0
        yield line, j, found
        # count_nonzero: a small array's any() costs several times more
        if a.shape[1] and np.count_nonzero(found):
            piv[~found] = 1
            a = (piv[:, None, None] * a - a[k, :, j][:, :, None] * line[:, None, :]) % p


def _independent_rows(a: np.ndarray, p: int) -> list[list[int]]:
    """For each matrix of a 3-D stack of residues mod p, the ascending
    indices of rows that form a basis of its row space, from one
    `_line_steps` pass along the stack's shorter side.

    Row by row, line k is row k less a combination of the earlier rows, so
    it is nonzero exactly when row k is independent of them, and the rows
    with a nonzero line are kept. Column by column (a tall stack), the
    nonzero column lines L_1..L_r of a matrix A span col(A), and L_k is
    zero at every earlier leading row j_i and nonzero at its own j_k: on
    the rows J = {j_k} they are triangular with a nonzero diagonal, so
    rank A[J] = r = rank A and the rows A[J], sorted, are kept.
    """
    tall = a.shape[1] > a.shape[2]
    kept: list[list[int]] = [[] for _ in range(len(a))]
    for k, (_, j, found) in enumerate(_line_steps(a.transpose(0, 2, 1) if tall else a, p)):
        for rows, row, f in zip(kept, j.tolist() if tall else repeat(k), found.tolist()):
            if f:
                rows.append(row)
    return [sorted(rows) for rows in kept] if tall else kept


def _certified_rows(a: np.ndarray, shapes, field: FieldSpec) -> list[list[int] | None]:
    """For each matrix of a 3-D integer stack, the ascending indices of
    rows that form a basis of its row space, or None where only the exact
    pass can tell; `shapes` gives each matrix's own (rows, cols) k × n,
    before any zero padding.

    The stack is reduced mod its prime, over GF(p) the field's and over Q
    DEFAULT_PRIME, and `_independent_rows` picks the rows. Over GF(p) they
    are the answer. Over Q they rest on one fact: a nonzero minor mod p is
    a nonzero integer minor, so rank mod p <= rank over Q <= min(k, n) for
    an integer matrix. So when min(k, n) rows are kept, they are a basis
    over Q too, and otherwise the result is None. What the readers certify
    with it:
    - full rank: min(k, n) rows is the rank (`_ranks`), and in the
      transposed live submatrix they are a column basis (`_column_basis`;
      the zero lines of a sparse catalecticant, such as a sharp family's,
      keep min(shape) of the whole array out of reach, not that of its
      live submatrix);
    - I_n: n rows span Q^n, whose basis is I_n (`_bases`);
    - own rows: k rows are independent, so they are their own basis
      (`_bases`);
    - meet 0: with the left halves [a; b] of a Zassenhaus stack, all ka +
      kb rows kept makes them independent over Q, so row(a) ∩ row(b) is 0
      (`_meets`).
    """
    if field.is_modular:
        return _independent_rows(a % field.prime, field.prime)
    # the residues fit int64 whatever the stack's type
    mod = (a % DEFAULT_PRIME).astype(np.int64, copy=False)
    kept = _independent_rows(mod, DEFAULT_PRIME)
    return [rows if len(rows) == min(shape) else None for rows, shape in zip(kept, shapes)]


def _ranks(stack, field: FieldSpec) -> list[int]:
    """Ranks of a sequence of 2-D arrays of any shapes (or of a 3-D array).

    A sequence is first zero-padded to one shape, in the matrices' common
    type (`_dtype`), which keeps every rank. A rank is the number of rows
    `_certified_rows` keeps; over Q a matrix it leaves open gets the
    fraction-free forward pass, on its own rows and columns, once per
    distinct matrix.
    """
    if isinstance(stack, np.ndarray) and stack.ndim == 3:
        a = np.asarray(stack, dtype=_dtype(field, stack))
        shapes = [a.shape[1:]] * len(a)
    else:
        dtype = _dtype(field, *stack)
        mats = [np.asarray(m, dtype=dtype) for m in stack]
        shapes = [(len(m), m.shape[-1]) for m in mats]
        a = np.zeros((len(mats), *map(max, zip((0, 0), *shapes))), dtype=dtype)
        for s, m, (k, n) in zip(a, mats, shapes):
            s[:k, :n] = m
    exact = _once(lambda m: len(_echelon_int(m)[1]))
    kept = _certified_rows(a, shapes, field)
    # a matrix is sliced out only for the exact pass: a view of every
    # matrix costs the small GF(p) stacks of quotient trials microseconds
    return [
        exact(a[i, :k, :n]) if rows is None else len(rows)
        for i, (rows, (k, n)) in enumerate(zip(kept, shapes))
    ]


def _bases(stack, field: FieldSpec) -> list[np.ndarray]:
    """Basis rows of the row space of each matrix in a sequence of equally
    shaped k × n matrices (or a 3-D array), in the stack's type (`_dtype`).

    One rule for both fields: the rows that `_certified_rows` keeps are the
    basis, and n kept rows span the whole space, whose basis is I_n. Only a
    matrix it leaves open, which happens over Q alone, gets the
    fraction-free forward pass, once per distinct matrix: duplicates share
    one result.
    """
    a = np.asarray(stack, dtype=_dtype(field, stack))
    k, n = a.shape[1:]
    exact = _once(lambda m: _echelon_int(m)[0])
    return [
        exact(m) if rows is None
        else np.eye(n, dtype=a.dtype) if len(rows) == n
        else m[rows]
        for m, rows in zip(a, _certified_rows(a, [(k, n)] * len(a), field))
    ]


def _column_basis(a, field: FieldSpec) -> list[int]:
    """Ascending indices of a column basis of a 2-D integer array.

    The zero rows and columns are dropped first: a zero column is in no
    column basis, and neither changes the rank, so a column basis of the
    live submatrix that is left, mapped back to a's columns, is one of a
    (an array with no zero line is its own live submatrix, and is not
    copied). The basis is the `_certified_rows` of the live submatrix's
    transpose; over Q one it leaves open gets the pivot columns of the
    fraction-free pass. A sparse catalecticant, such as a sharp family's,
    reaches min(live shape) mod p where it falls far short of min(shape),
    so its frame needs no exact pass. (Over GF(p) an entry divisible by p
    may keep its line live; the line is zero mod p, so no basis takes it.)
    """
    a = np.asarray(a, dtype=_dtype(field, a))
    nonzero = a != 0
    rows, cols = nonzero.any(1), nonzero.any(0)
    live = a if rows.all() and cols.all() else a[rows][:, cols]
    [basis] = _certified_rows(live.T[None], [live.T.shape], field)
    if basis is None:
        basis = _echelon_int(live)[1]
    return basis if live is a else cols.nonzero()[0][basis].tolist()


def rank(m: Matrix) -> int:
    """Rank of the matrix over its field."""
    rows = [_clear(row)[0] for row in m.entries]
    a = np.array(rows, dtype=_dtype(m.field)).reshape(1, m.rows, m.cols)
    return _ranks(a, m.field)[0]


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
    over the intersection. Each distinct pair of the call (keyed by
    `_key`) is met once, and its duplicates get the very same array, so
    callers must not mutate a result. The Z of the distinct pairs of one
    shape are stacked, and only the elimination of a stack depends on the
    field.

    Over GF(p) the stack's rows are eliminated in order by `_line_steps`,
    and the lines whose first nonzero entry lies in the right half are
    kept: their left halves are zero and their right halves are a basis of
    the intersection. For, the nonzero lines are a basis of row(Z); in a
    combination of them, take the first line with a left-half pivot: every
    earlier line has its pivot in the right half, so it is zero on the
    whole left half, and every later line is zero at that pivot column, so
    the combination's left half cannot vanish.

    Over Q the stack's left halves [a; b] go to `_certified_rows`. When it
    keeps all rows(a) + rows(b) of them, they are independent over Q, so
    x·a + y·b = 0 forces x = y = 0, and the meet is 0: an empty (0, n)
    array in the pairs' common type (`_dtype`). Any other Z gets the
    fraction-free forward pass, whose rows with a right-half pivot are the
    same kind of basis as over GF(p). A single pair is a list of one pair:
    the overlap walk passes a whole level of every degree,
    `subspace_intersection` and the subset chain of
    `relative_intersection_dim` one pair at a time.
    """
    # the indices of each distinct pair, by the shape of its pair
    stacks: dict[tuple, dict[tuple, list[int]]] = {}
    for i, (a, b) in enumerate(pairs):
        group = stacks.setdefault((a.shape, b.shape), {})
        group.setdefault((_key(a), _key(b)), []).append(i)
    out: list = [None] * len(pairs)
    for ((ka, n), (kb, _)), group in stacks.items():
        firsts = [pairs[idx[0]] for idx in group.values()]
        z = np.zeros((len(firsts), ka + kb, 2 * n), dtype=_dtype(field, *chain(*firsts)))
        z[:, :ka, :n] = z[:, :ka, n:] = [a for a, _ in firsts]
        z[:, ka:, :n] = [b for _, b in firsts]
        if field.is_modular:
            kept: list[list[np.ndarray]] = [[] for _ in group]
            for line, j, found in _line_steps(z % field.prime, field.prime):
                g = (found & (j >= n)).nonzero()[0]
                for gi, row in zip(g.tolist(), line[g, n:]):
                    kept[gi].append(row)
            meets = [
                np.array(rows, dtype=z.dtype).reshape(len(rows), n) for rows in kept
            ]
        else:
            meets = []
            certified = _certified_rows(z[:, :, :n], [(ka + kb, n)] * len(z), field)
            for rows, zi in zip(certified, z):
                if len(rows or ()) == ka + kb:
                    meets.append(np.zeros((0, n), dtype=z.dtype))
                else:
                    ech, pivots = _echelon_int(zi)
                    meets.append(ech[bisect_left(pivots, n) :, n:])
        for meet, idx in zip(meets, group.values()):
            for i in idx:
                out[i] = meet
    return out


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, by the Zassenhaus algorithm: one forward elimination
    of the stacked bases [[A, A], [B, 0]], whose rows with a zero left half
    span the intersection in their right half."""
    _check_pair(a, b)
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient, a.field)
    pair = [np.array([_clear(row)[0] for row in s.basis], dtype=object) for s in (a, b)]
    rows = _meets([pair], a.field)[0]
    return _span(rows, a.ambient, a.field)
