"""Exact rank, row space, sum, intersection, relative dimension.

The independent oracle here is rank-by-minors: the rank of a small matrix
is the largest k such that some k-by-k submatrix has nonzero determinant,
with the determinant computed by cofactor expansion over the rationals and
reduced into the field. Slow but unarguable for the sizes used. The
property tests add sympy's rank over Q, and the intersection is checked
against the null-space construction kept in tests/oracle.py.
"""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import oracle
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from levelalg.fields import FieldSpec
from levelalg.linalg import (
    AmbientMismatchError,
    Matrix,
    Subspace,
    _echelon,
    _meets,
    _rank,
    _ranks,
    _rref,
    _span,
    rank,
    relative_dim,
    row_space,
    subspace_intersection,
    subspace_sum,
    zero_subspace,
)

MOD = FieldSpec.modular()
RAT = FieldSpec.rational()
# a prime above isqrt(2**63 - 1), forcing the non-numpy modular kernel
BIG = FieldSpec.modular(4294967311)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * _det(minor)
    return total


def _rank_by_minors(rows, field):
    rows = [[Fraction(x) for x in row] for row in rows]
    n, m = len(rows), len(rows[0]) if rows else 0
    for k in range(min(n, m), 0, -1):
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                d = _det(sub)
                if field.is_modular:
                    if d.numerator % field.prime != 0:
                        return k
                elif d != 0:
                    return k
    return 0


def test_rank_identity_and_zero():
    assert rank(Matrix.from_rows([[1, 0], [0, 1]], MOD)) == 2
    assert rank(Matrix.from_rows([[0] * 4] * 3, MOD)) == 0
    assert rank(Matrix.from_rows([], MOD, cols=5)) == 0


def test_rank_hand_example_over_rationals():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], RAT)
    assert rank(m) == 2


def test_rank_matches_minor_oracle_seeded():
    rng = random.Random(20240817)
    for trial in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        for field in (MOD, RAT, BIG):
            got = rank(Matrix.from_rows(rows, field))
            want = _rank_by_minors(rows, field)
            assert got == want, (rows, field.describe())


def test_row_space_normalizes_scaling():
    s = row_space(Matrix.from_rows([[2, 0], [0, 3]], MOD))
    assert s.basis == ((1, 0), (0, 1))
    assert s.pivots == (0, 1)


def test_row_space_collapses_dependent_rows():
    s = row_space(Matrix.from_rows([[1, 1], [2, 2]], RAT))
    assert s.dim == 1
    assert s.basis == ((Fraction(1), Fraction(1)),)


def test_row_space_empty_is_zero_subspace():
    s = row_space(Matrix.from_rows([], MOD, cols=4))
    assert s == zero_subspace(4, MOD)
    assert s.dim == 0


def test_rref_shape_invariants_seeded():
    rng = random.Random(7)
    for trial in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        field = (MOD, RAT)[trial % 2]
        s = row_space(Matrix.from_rows(rows, field))
        assert list(s.pivots) == sorted(s.pivots)
        assert len(set(s.pivots)) == len(s.pivots)
        for i, row in enumerate(s.basis):
            p = s.pivots[i]
            assert row[p] == field.one()
            assert all(x == field.zero() for x in row[:p])
            # pivot columns are zero in every other row
            for k, other in enumerate(s.basis):
                if k != i:
                    assert other[p] == field.zero()


def test_row_space_idempotent_and_order_independent():
    rng = random.Random(99)
    for _ in range(25):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        s = row_space(Matrix.from_rows(rows, MOD))
        again = row_space(Matrix.from_rows(s.basis, MOD, cols=4))
        assert again == s
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert row_space(Matrix.from_rows(shuffled, MOD)) == s


def test_determinism_bit_for_bit():
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    a = row_space(Matrix.from_rows(rows, MOD))
    b = row_space(Matrix.from_rows(rows, MOD))
    assert a.basis == b.basis and a.pivots == b.pivots


def test_subspace_sum_examples():
    a = row_space(Matrix.from_rows([[1, 0]], MOD))
    b = row_space(Matrix.from_rows([[0, 1]], MOD))
    assert subspace_sum(a, b).dim == 2
    u = row_space(Matrix.from_rows([[1, 1, 0]], MOD))
    assert subspace_sum(u, u) == u
    v = row_space(Matrix.from_rows([[1, 0, 1]], MOD))
    assert subspace_sum(u, v).dim == 2
    z = zero_subspace(3, MOD)
    assert subspace_sum(z, z).dim == 0


def test_intersection_examples():
    u = row_space(Matrix.from_rows([[1, 0], [0, 1]], MOD))
    assert subspace_intersection(u, u) == u
    a = row_space(Matrix.from_rows([[1, 0]], MOD))
    b = row_space(Matrix.from_rows([[0, 1]], MOD))
    assert subspace_intersection(a, b).dim == 0
    p = row_space(Matrix.from_rows([[1, 0, 0], [0, 1, 0]], MOD))
    q = row_space(Matrix.from_rows([[0, 1, 0], [0, 0, 1]], MOD))
    inter = subspace_intersection(p, q)
    assert inter.basis == ((0, 1, 0),)


def test_grassmann_identity_seeded():
    rng = random.Random(123)
    for trial in range(60):
        ambient = rng.randint(1, 6)
        field = (MOD, RAT)[trial % 2]

        def rand_space():
            k = rng.randint(0, ambient)
            rows = [
                [rng.randint(-4, 4) for _ in range(ambient)] for _ in range(k)
            ]
            if not rows:
                return zero_subspace(ambient, field)
            return row_space(Matrix.from_rows(rows, field, cols=ambient))

        a, b = rand_space(), rand_space()
        s = subspace_sum(a, b)
        i = subspace_intersection(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        # the intersection sits inside both arguments
        assert subspace_sum(i, a).dim == a.dim
        assert subspace_sum(i, b).dim == b.dim


def test_relative_dim():
    full = row_space(Matrix.from_rows([[1, 0], [0, 1]], MOD))
    line = row_space(Matrix.from_rows([[1, 1]], MOD))
    assert relative_dim(full, full) == 0
    assert relative_dim(full, zero_subspace(2, MOD)) == 2
    assert relative_dim(full, line) == 1
    # Grassmann consistency: dim a - dim(a cap b)
    rng = random.Random(5)
    for _ in range(30):
        rows_a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        rows_b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        a = row_space(Matrix.from_rows(rows_a, MOD, cols=4))
        b = row_space(Matrix.from_rows(rows_b, MOD, cols=4))
        inter = subspace_intersection(a, b)
        assert relative_dim(a, b) == a.dim - inter.dim


def test_modular_rank_agrees_with_rational_on_corpus():
    rng = random.Random(2718)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
        assert rank(Matrix.from_rows(rows, MOD)) == rank(
            Matrix.from_rows(rows, RAT)
        )


def test_ambient_mismatch_raises():
    a = row_space(Matrix.from_rows([[1, 0]], MOD))
    b = row_space(Matrix.from_rows([[1, 0, 0]], MOD))
    for op in (subspace_sum, subspace_intersection, relative_dim):
        with pytest.raises(AmbientMismatchError):
            op(a, b)
    c = row_space(Matrix.from_rows([[1, 0]], RAT))
    with pytest.raises(AmbientMismatchError):
        subspace_sum(a, c)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]], MOD)
    with pytest.raises(ValueError):
        Matrix.from_rows([], MOD)  # needs an explicit column count
    m = Matrix.from_rows([[Fraction(1, 2), 1]], MOD)
    # fractions land in [0, p) canonical form
    assert m.entries[0][0] == pow(2, -1, MOD.prime)


def test_big_prime_kernel_matches_default_kernel_ranks():
    rng = random.Random(31337)
    for _ in range(20):
        rows = [[rng.randint(0, 100) for _ in range(4)] for _ in range(4)]
        assert rank(Matrix.from_rows(rows, BIG)) == rank(
            Matrix.from_rows(rows, RAT)
        )


def test_intersection_matches_the_null_space_oracle():
    rng = random.Random(4242)
    for trial in range(90):
        field = (MOD, RAT, BIG)[trial % 3]
        ambient = rng.randint(1, 7)

        def entry():
            if field is RAT:
                return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            return rng.randint(-3, 3)

        def rows(k):
            return [[entry() for _ in range(ambient)] for _ in range(k)]

        shared = rows(rng.randint(0, 2))

        def space():
            picked = shared + rows(rng.randint(0, ambient))
            return row_space(Matrix.from_rows(picked, field, cols=ambient))

        a, b = space(), space()
        assert subspace_intersection(a, b) == oracle.subspace_intersection(a, b)


# ------------------------------------------------------ property tests

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
FIELDS = st.sampled_from([MOD, RAT, BIG])


@st.composite
def _int_rows(draw):
    cols = draw(st.integers(1, 6))
    row = st.lists(st.integers(-5, 5), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=6))


@PROPERTY
@given(rows=_int_rows(), field=FIELDS)
def test_forward_rank_equals_rref_rank(rows, field):
    assert _rank(rows, field) == len(_rref(rows, field)[1])


@PROPERTY
@given(rows=_int_rows())
def test_rational_rank_equals_sympy(rows):
    assert _rank(rows, RAT) == sympy.Matrix(rows).rank()


def _forward_ranks(stack, field):
    return [len(_echelon(a, field)[1]) for a in stack]


@st.composite
def _stacks(draw):
    # a small prime too, where ranks differ from those over Q
    field = draw(st.sampled_from([MOD, RAT, BIG, FieldSpec.modular(3)]))
    k, n, m = draw(st.integers(0, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # mostly zeros, so that some lines are zero in some matrices only
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    cells = draw(st.lists(entries, min_size=k * n * m, max_size=k * n * m))
    return np.array(cells, dtype=object).reshape(k, n, m), field


@PROPERTY
@given(case=_stacks())
def test_stacked_ranks_equal_forward_ranks(case):
    stack, field = case
    assert _ranks(stack, field) == _forward_ranks(stack, field)


def test_stacked_ranks_edge_shapes():
    rng = random.Random(31)
    for field in (MOD, RAT, BIG, FieldSpec.modular(7)):
        assert _ranks([], field) == []
        assert _ranks(np.zeros((3, 4, 5), dtype=np.int64), field) == [0, 0, 0]
        assert _ranks(np.zeros((2, 0, 3), dtype=np.int64), field) == [0, 0]
        assert _ranks([[[0, 0, 2]], [[0, 0, 0]], [[1, 5, 0]]], field) == [1, 0, 1]
        assert _ranks([[[0], [0], [3]], [[0], [0], [0]]], field) == [1, 0]
        # a zero first line in one matrix only
        assert _ranks([[[0, 0], [1, 0]], [[1, 0], [0, 1]]], field) == [1, 2]
        # one zero matrix in a stack of full-rank ones
        stack = [[[rng.randint(1, 6) if i == j else 0 for j in range(4)]
                  for i in range(4)] for _ in range(3)]
        stack[1] = [[0] * 4] * 4
        assert _ranks(stack, field) == [4, 0, 4]
    # entries just below p: products of unreduced entries leave int64
    p = MOD.prime
    for _ in range(10):
        stack = [[[p - rng.randint(1, 1000) for _ in range(6)] for _ in range(5)]
                 for _ in range(3)]
        stack[2][4] = [(2 * x) % p for x in stack[2][0]]
        assert _ranks(stack, MOD) == _forward_ranks(np.array(stack), MOD)
        assert _ranks(stack, MOD)[2] == 4


@st.composite
def _subspace_pairs(draw):
    ambient = draw(st.integers(1, 6))
    field = draw(FIELDS)
    row = st.lists(st.integers(-4, 4), min_size=ambient, max_size=ambient)
    shared = draw(st.lists(row, max_size=2))

    def space():
        rows = shared + draw(st.lists(row, max_size=ambient))
        return row_space(Matrix.from_rows(rows, field, cols=ambient))

    return space(), space()


@PROPERTY
@given(pair=_subspace_pairs())
def test_intersection_is_canonical_and_satisfies_grassmann(pair):
    a, b = pair
    inter = subspace_intersection(a, b)
    assert _span(inter.basis, inter.ambient, inter.field) == inter
    assert subspace_sum(a, b).dim + inter.dim == a.dim + b.dim


MEET_FIELDS = [MOD, FieldSpec.modular(3), BIG, RAT]


@st.composite
def _meet_cases(draw):
    field = draw(st.sampled_from(MEET_FIELDS))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3])

    def matrix(k, n):
        cells = draw(st.lists(entries, min_size=k * n, max_size=k * n))
        rows = np.array(cells, dtype=object).reshape(k, n)
        if k > 1 and draw(st.booleans()):
            rows[-1] = 2 * rows[0]
        return rows

    pairs = []
    # several pairs of each of several shapes, so that one stack holds
    # matrices whose lines are zero at different steps
    for _ in range(draw(st.integers(0, 3))):
        ka, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        kind = draw(st.sampled_from(["random", "equal", "shared"]))
        kb = ka if kind == "equal" else draw(st.integers(1, 3))
        for _ in range(draw(st.integers(1, 3))):
            a = matrix(ka, n)
            if kind == "equal":
                b = a.copy()
            elif kind == "shared":
                b = np.vstack([a[:1], matrix(kb - 1, n)])
            else:
                b = matrix(kb, n)
            pairs.append((a, b))
    return pairs, field


@PROPERTY
@given(case=_meet_cases())
def test_stacked_meets_span_the_pairwise_zassenhaus_meets(case):
    pairs, field = case
    got = _meets(pairs, field)
    assert len(got) == len(pairs)
    for rows, (a, b) in zip(got, pairs):
        n = a.shape[1]
        want = oracle.zassenhaus(a, b, field)
        assert rows.shape == (len(want), n)
        assert _span(rows, n, field) == _span(want, n, field)
    assert _meets([], field) == []
