"""Exact rank, row space, sum and intersection.

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
from math import lcm

import numpy as np
import oracle
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from levelalg import linalg
from levelalg.families import sharp_family
from levelalg.fields import FieldSpec
from levelalg.linalg import (
    AmbientMismatchError,
    Matrix,
    Subspace,
    _bases,
    _clear,
    _column_basis,
    _meets,
    _ranks,
    _span,
    rank,
    row_space,
    subspace_intersection,
    subspace_sum,
    zero_subspace,
)

MOD = FieldSpec.modular()
RAT = FieldSpec.rational()
P = MOD.prime
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
            assert got == want, (rows, field)


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
            assert row[p] == field.reduce(1)
            assert all(x == field.reduce(0) for x in row[:p])
            # pivot columns are zero in every other row
            for k, other in enumerate(s.basis):
                if k != i:
                    assert other[p] == field.reduce(0)


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
    for op in (subspace_sum, subspace_intersection):
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


# ----------------------------------------- the checks above, on the kernels
# The same seeded cases through `_ranks` and `_meets` alone, each in GF(p),
# in GF(p) above the int64 limit and over Q: the coverage stays when the
# Matrix and Subspace API goes.

KERNEL_FIELDS = [MOD, BIG, RAT]
KERNEL_IDS = ["gfp", "bigp", "q"]


def _kernel_rows(rows, ambient):
    """rows as a (len(rows), ambient) object array, each row of Fractions
    scaled to integers: the row space the kernels see is the same."""
    ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]
    return np.array(ints, dtype=object).reshape(len(rows), ambient)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_grassmann_identity_seeded_on_the_kernels(field):
    rng = random.Random(123)
    for _ in range(60):
        ambient = rng.randint(1, 6)

        def rand_rows():
            k = rng.randint(0, ambient)
            return _kernel_rows(
                [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(k)], ambient
            )

        a, b = rand_rows(), rand_rows()
        [inter] = _meets([(a, b)], field)
        dim_a, dim_b, dim_sum, dim_i, with_a, with_b = _ranks(
            [a, b, np.vstack([a, b]), inter, np.vstack([inter, a]), np.vstack([inter, b])],
            field,
        )
        assert dim_sum + dim_i == dim_a + dim_b
        # the intersection sits inside both arguments
        assert (with_a, with_b) == (dim_a, dim_b)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_modular_rank_agrees_with_rational_on_corpus_on_the_kernels(field):
    rng = random.Random(2718)
    mats = []
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mats.append([[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)])
    want = [sympy.Matrix(a).rank() for a in mats]
    assert _ranks(mats, field) == want
    assert [_ranks([a], field)[0] for a in mats] == want


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_big_prime_kernel_matches_default_kernel_ranks_on_the_kernels(field):
    rng = random.Random(31337)
    mats = [[[rng.randint(0, 100) for _ in range(4)] for _ in range(4)] for _ in range(20)]
    assert _ranks(mats, field) == _ranks(mats, RAT) == _ranks(mats, MOD)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_intersection_matches_the_null_space_oracle_on_the_kernels(field):
    rng = random.Random(4242)
    for _ in range(30):
        ambient = rng.randint(1, 7)

        def entry():
            if field is RAT:
                return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            return Fraction(rng.randint(-3, 3))

        def rows(k):
            return [[entry() for _ in range(ambient)] for _ in range(k)]

        shared = rows(rng.randint(0, 2))
        a, b = (shared + rows(rng.randint(0, ambient)) for _ in range(2))
        [meet] = _meets([(_kernel_rows(a, ambient), _kernel_rows(b, ambient))], field)
        want = oracle.subspace_intersection(
            oracle.span(a, ambient, field), oracle.span(b, ambient, field)
        )
        assert oracle.span(meet.tolist(), ambient, field) == want


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
    assert _ranks([rows], field) == [_span(rows, len(rows[0]), field).dim]


@PROPERTY
@given(rows=_int_rows())
def test_rational_rank_equals_sympy(rows):
    assert _ranks([rows], RAT) == [sympy.Matrix(rows).rank()]


def _forward_ranks(stack, field):
    return [len(oracle.echelon(a, field)[1]) for a in stack]


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


def test_rational_ranks_edge_inputs():
    big = 2**200
    cases = [
        [],
        np.zeros((2, 0, 3), dtype=object),
        np.zeros((2, 3, 0), dtype=object),
        np.array([[[1, 2, 0], [2, 4, 0]], [[0, 0, 5], [1, 0, 0]]], dtype=object),
        [[[1, 2, 0], [2, 4, 0]], [[0, 0, 5], [1, 0, 0]]],
        # entries above 2**63: reduced as Python ints, then cast to int64
        [[[big + 1, big + 2], [big + 3, big + 4]],
         [[big, 2 * big], [3 * big, 6 * big]],
         [[big + 1, 1], [big + 1 + P * big, 1]]],
    ]
    for stack in cases:
        assert _ranks(stack, RAT) == _forward_ranks(stack, RAT)
    assert _ranks(cases[-1], RAT) == [2, 1, 2]


@st.composite
def _mod_p_deficient_stacks(draw):
    """Stacks of full-rank integer matrices, some with one row scaled by p
    or moved by p times itself onto another row: those lose rank mod p,
    not over Q."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = draw(st.integers(n, 5))
    tall = draw(st.booleans())
    entries = st.integers(-3, 3)
    stack = []
    for _ in range(k):
        # diagonally dominant: rank n
        a = [[draw(entries) + (20 if i == j else 0) for j in range(m)] for i in range(n)]
        i = draw(st.integers(0, n - 1))
        how = draw(st.sampled_from(["keep", "scale", "shift"] if n > 1 else ["keep", "scale"]))
        if how == "scale":
            a[i] = [P * x for x in a[i]]
        elif how == "shift":
            j = draw(st.sampled_from([j for j in range(n) if j != i]))
            a[i] = [y + P * x for x, y in zip(a[i], a[j])]
        stack.append([list(col) for col in zip(*a)] if tall else a)
    return stack


@PROPERTY
@given(stack=_mod_p_deficient_stacks())
def test_rational_ranks_survive_rank_loss_mod_p(stack):
    assert _ranks(stack, RAT) == [sympy.Matrix(a).rank() for a in stack]


def test_rational_ranks_run_the_exact_pass_only_below_full_rank_mod_p(monkeypatch):
    calls = []
    exact = linalg._echelon_int

    def counting(mat):
        calls.append(len(mat))
        return exact(mat)

    monkeypatch.setattr(linalg, "_echelon_int", counting)
    rng = random.Random(5)
    stack = [[[rng.randint(-3, 3) + (20 if i == j else 0) for j in range(5)]
              for i in range(3)] for _ in range(6)]
    assert _ranks(stack, RAT) == [3] * 6
    assert _ranks(np.array(stack, dtype=object).transpose(0, 2, 1), RAT) == [3] * 6
    assert calls == []
    stack[1][0] = [P * x for x in stack[1][0]]
    stack[3][2] = [y + P * x for x, y in zip(stack[3][2], stack[3][0])]
    stack[4][1] = [0] * 5
    assert _ranks(stack, RAT) == [3, 3, 3, 3, 2, 3]
    assert len(calls) == 3


@st.composite
def _ragged_stacks(draw, field):
    """2-D arrays of the field's array type with one column count and row
    counts 0..6; over Q one of them is scaled by p, so it is zero mod p
    and of rank at least 1 over Q."""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3, P - 1])
    row = st.lists(entries, min_size=n, max_size=n)
    stack = [draw(st.lists(row, max_size=6)) for _ in range(draw(st.integers(1, 5)))]
    if not field.is_modular:
        i = draw(st.integers(0, len(stack) - 1))
        stack[i] = [[P * x for x in row] for row in [[1] + [0] * (n - 1), *stack[i]]]
    dtype = linalg._dtype(field)
    return [np.array(a, dtype=dtype).reshape(len(a), n) for a in stack]


@pytest.mark.parametrize("field", [MOD, BIG, RAT], ids=["gfp-int64", "bigp-object", "q"])
@PROPERTY
@given(data=st.data())
def test_ragged_stacks_rank_each_matrix_as_alone(field, data):
    stack = data.draw(_ragged_stacks(field))
    assert stack[0].dtype == (np.int64 if field == MOD else object)
    want = _forward_ranks(stack, field)
    assert _ranks(stack, field) == want
    if not field.is_modular:
        assert want == [sympy.Matrix(a.tolist()).rank() for a in stack]


def test_ragged_stacks_of_any_shapes():
    # rows and columns both ragged, and empty matrices among full ones
    stack = [[[1, 2]], [[1], [2]], [], [[0, 0, 0], [0, 0, 5]], [[1, 0], [0, 1], [1, 1]]]
    for field in (MOD, BIG, RAT):
        assert _ranks(stack, field) == [1, 1, 0, 1, 2]
    assert _ranks([[[P, 0], [0, P]], [[P]]], RAT) == [2, 1]


def test_rational_ranks_and_bases_eliminate_each_distinct_matrix_once(monkeypatch):
    # what the mod-p certificate leaves open gets one exact pass per
    # distinct matrix of a call, and duplicates share its result; the same
    # entries in another shape are another matrix
    calls = []
    exact = linalg._echelon_int
    monkeypatch.setattr(linalg, "_echelon_int", lambda mat: calls.append(1) or exact(mat))
    full = [[P, 2 * P], [3 * P, 4 * P]]  # rank 2 over Q, 0 mod p
    low = [[P, 2 * P], [2 * P, 4 * P]]  # rank 1 over Q, 0 mod p
    assert _ranks([full, low, full, full, low], RAT) == [2, 1, 2, 2, 1]
    assert len(calls) == 2
    calls.clear()
    assert _ranks(np.array([full] * 3, dtype=object), RAT) == [2] * 3
    assert len(calls) == 1
    calls.clear()
    bases = _bases(np.array([full, low, full, low], dtype=object), RAT)
    assert len(calls) == 2
    assert bases[0] is bases[2] and bases[1] is bases[3]
    assert [len(b) for b in bases] == [2, 1, 2, 1]
    for b, a in zip(bases, (full, low)):
        assert sympy.Matrix(b.tolist() + a).rank() == sympy.Matrix(a).rank() == len(b)
    calls.clear()
    wide = [[P, 2 * P, 3 * P], [2 * P, 4 * P, 6 * P]]
    tall = [[P, 2 * P], [3 * P, 2 * P], [4 * P, 6 * P]]
    assert _ranks([wide, tall], RAT) == [1, 2]
    assert len(calls) == 2


@st.composite
def _subspace_pairs(draw, field):
    ambient = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=ambient, max_size=ambient)
    shared = draw(st.lists(row, max_size=2))

    def space():
        rows = shared + draw(st.lists(row, max_size=ambient))
        return row_space(Matrix.from_rows(rows, field, cols=ambient))

    return space(), space()


# one case per field, as for the stacked kernels below
@pytest.mark.parametrize("field", [MOD, RAT, BIG], ids=["gfp", "q", "bigp"])
@PROPERTY
@given(data=st.data())
def test_intersection_is_canonical_and_satisfies_grassmann(field, data):
    a, b = data.draw(_subspace_pairs(field))
    inter = subspace_intersection(a, b)
    assert _span(inter.basis, inter.ambient, inter.field) == inter
    assert subspace_sum(a, b).dim + inter.dim == a.dim + b.dim


MEET_FIELDS = [MOD, FieldSpec.modular(3), BIG, RAT]
MEET_IDS = ["gfp", "gf3", "bigp", "q"]


@st.composite
def _meet_cases(draw):
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
    return pairs


# one case per field: a strategy that drew the field drew no Q pair once
@pytest.mark.parametrize("field", MEET_FIELDS, ids=MEET_IDS)
@PROPERTY
@given(pairs=_meet_cases())
def test_stacked_meets_span_the_pairwise_zassenhaus_meets(field, pairs):
    got = _meets(pairs, field)
    assert len(got) == len(pairs)
    for rows, (a, b) in zip(got, pairs):
        n = a.shape[1]
        want = oracle.zassenhaus(a, b, field)
        assert rows.shape == (len(want), n)
        assert _span(rows, n, field) == _span(want, n, field)
    assert _meets([], field) == []


@st.composite
def _basis_stacks(draw):
    k, short = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    long = draw(st.integers(short + 1, 7))
    # tall, wide and square
    rows, cols = draw(st.sampled_from([(long, short), (short, long), (short, short)]))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
    size = k * rows * cols
    cells = draw(st.lists(entries, min_size=size, max_size=size))
    stack = np.array(cells, dtype=object).reshape(k, rows, cols)
    for a in stack:
        kind = draw(st.sampled_from(["random", "zero", "deficient"]))
        if kind == "zero":
            a[:] = 0
        elif kind == "deficient" and rows > 1:
            # the last row is a combination of the first two
            a[-1] = 2 * a[0] - a[min(1, rows - 2)]
    return stack


@PROPERTY
@given(stack=_basis_stacks(), pairs=_meet_cases(), data=st.data())
def test_rational_kernels_give_int64_input_the_values_of_object_input(stack, pairs, data):
    # the same small integers as int64 and as Python ints: the object path
    # is the oracle, for ranks (stacked and ragged), bases, meets and
    # column bases
    def int64(a):
        return a.astype(np.int64)

    assert _ranks(int64(stack), RAT) == _ranks(stack, RAT)
    ragged = [a[: len(a) - k % 2] for k, a in enumerate(stack)]
    assert _ranks(list(map(int64, ragged)), RAT) == _ranks(ragged, RAT)
    got, want = _bases(int64(stack), RAT), _bases(stack, RAT)
    assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want]
    got = _meets([(int64(a), int64(b)) for a, b in pairs], RAT)
    want = _meets(pairs, RAT)
    assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want]
    # the mod-p traps of a case, up to three, may multiply an entry past int64
    a = data.draw(_index_cases(RAT).filter(lambda a: all(abs(x) < 2**62 for x in a.flat)))
    assert _column_basis(int64(a), RAT) == _column_basis(a, RAT)


@pytest.mark.parametrize("field", MEET_FIELDS, ids=MEET_IDS)
@PROPERTY
@given(stack=_basis_stacks())
def test_stacked_bases_span_the_column_pass_rows(field, stack):
    got = _bases(stack, field)
    assert len(got) == len(stack)
    for rows, a in zip(got, stack):
        n = a.shape[1]
        want = oracle.echelon(a, field)[0]
        assert rows.shape == (len(want), n)
        assert len(oracle.echelon(rows, field)[1]) == len(rows)
        assert _span(rows, n, field) == _span(want, n, field)


def _residue_stack(stack, field):
    """A 3-D residue stack in the field's array type, as the kernels get it."""
    a = np.array(stack, dtype=object) % field.prime
    return a.astype(linalg._dtype(field))


def test_clear_scales_by_the_lcm_of_the_denominators():
    assert _clear([3, -4, 0]) == ([3, -4, 0], 1)
    assert _clear([Fraction(1, 2), Fraction(-2, 3)]) == ([3, -4], 6)
    # a mix: 4 and 6 have the lcm 12, not their product or the larger
    assert _clear([Fraction(1, 4), 5, Fraction(-1, 6)]) == ([3, 60, -2], 12)
    assert _clear([]) == ([], 1)
    # numpy integers come back as Python ints, past int64 once scaled
    ints, den = _clear(np.array([2**62, -1], dtype=np.int64))
    assert (ints, den) == ([2**62, -1], 1) and all(type(x) is int for x in ints)


@pytest.mark.parametrize("field", [MOD, BIG], ids=["gfp", "bigp"])
def test_independent_rows_of_hand_examples(field):
    def rows(*stack):
        a = _residue_stack(stack, field)
        assert a.dtype == (np.int64 if field == MOD else object)
        return linalg._independent_rows(a, field.prime)

    # tall: the basis rows are not the first two
    assert rows([[1, 0], [2, 0], [0, 1]]) == [[0, 2]]
    # tall: the leading rows come out as 1, then 0
    assert rows([[0, 1], [1, 0], [1, 1]]) == [[0, 1]]
    # square and wide, each with a dependent middle row
    assert rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == [[0, 2]]
    assert rows([[1, 2, 3, 4], [-1, -2, -3, -4], [0, 0, 1, 1]]) == [[0, 2]]
    # one stack, a different basis in each matrix
    assert rows([[0, 0], [1, 0], [0, 1]], [[1, 1], [2, 2], [0, 0]]) == [[1, 2], [0]]
    # all-zero, zero-row, zero-column and empty stacks
    empty = _residue_stack(np.zeros((2, 3, 2), dtype=object), field)
    assert linalg._independent_rows(empty, field.prime) == [[], []]
    for shape in [(2, 0, 3), (2, 3, 0), (0, 3, 2), (0, 2, 3)]:
        a = np.zeros(shape, dtype=linalg._dtype(field))
        assert linalg._independent_rows(a, field.prime) == [[]] * shape[0]


@pytest.mark.parametrize("field", [MOD, FieldSpec.modular(3), BIG], ids=["gfp", "gf3", "bigp"])
@PROPERTY
@given(stack=_basis_stacks())
def test_independent_rows_are_an_ascending_basis(field, stack):
    a = _residue_stack(stack, field)
    got = linalg._independent_rows(a, field.prime)
    assert len(got) == len(a)
    for rows, m in zip(got, a):
        n = m.shape[1]
        want = oracle.echelon(m, field)[0]
        assert rows == sorted(set(rows))
        assert len(rows) == len(want)
        assert _span(m[rows], n, field) == _span(want, n, field)


def test_rational_bases_certify_full_row_rank_with_the_rows_themselves(monkeypatch):
    wide = [[1, 2, 0, 1], [0, 1, 1, 3]]
    # the second row is the first plus p·e_2: rank 1 mod p, 2 over Q
    trap = [wide[0], [1, 2, P, 1]]
    # rank 1 over Q
    dependent = [wide[0], [2, 4, 0, 2]]
    calls = _count_exact_passes(monkeypatch)
    # the rows themselves, in the input's array type
    for given in (np.array([wide]), np.array([wide], dtype=object)):
        [own] = _bases(given, RAT)
        assert own.tolist() == wide and own.dtype == given.dtype
    assert calls == []
    got = _bases([trap, dependent], RAT)
    assert len(calls) == 2
    monkeypatch.undo()
    assert [len(rows) for rows in got] == [2, 1]
    for rows, a in zip(got, (trap, dependent)):
        assert _span(rows, 4, RAT) == _span(a, 4, RAT)


@st.composite
def _index_cases(draw, field):
    """A matrix over field, tall, wide or square, with zero rows, rows
    combined from others, and over Q traps: a row scaled by p, or moved by
    p times another row, loses rank mod p only."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]), min_size=rows * cols,
                          max_size=rows * cols))
    a = np.array(cells, dtype=object).reshape(rows, cols)
    traps = ["scale", "shift"]
    # over Q the first change is always a trap
    for k in range(draw(st.integers(1 if field == RAT else 0, 3))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        how = draw(st.sampled_from(traps if k == 0 and field == RAT else ["zero", "combine", *traps]))
        if how == "zero":
            a[i] = 0
        elif how == "combine":
            a[i] = 2 * a[j] - a[(j + 1) % rows]
        elif how == "scale":
            a[i] = P * a[i]
        else:
            a[i] = a[i] + P * a[j]
    if field.is_modular:
        # the GF(p) kernels take residues, as the package passes them
        a %= field.prime
    return a.T.copy() if draw(st.booleans()) else a


@pytest.mark.parametrize("field", MEET_FIELDS, ids=MEET_IDS)
@PROPERTY
@given(data=st.data())
def test_column_basis_gives_columns_of_full_rank(field, data):
    # a[:, J] has rank r = rank a and r columns: J is a column basis
    a = data.draw(_index_cases(field))
    cols = _column_basis(a, field)
    r = len(oracle.echelon(a, field)[1])
    assert cols == sorted(set(cols))
    assert len(cols) == r
    assert len(oracle.echelon(a[:, cols], field)[1]) == r


@pytest.mark.parametrize("field", MEET_FIELDS, ids=MEET_IDS)
@PROPERTY
@given(data=st.data())
def test_zero_rows_and_columns_leave_the_column_basis_in_place(field, data):
    # zero lines inserted anywhere: the basis is the same columns, moved
    # past the zero columns inserted before them
    a = data.draw(_index_cases(field))
    slots = [st.lists(st.integers(0, n), max_size=3) for n in a.shape]
    row_slots, col_slots = data.draw(slots[0]), data.draw(slots[1])
    padded = np.insert(np.insert(a, row_slots, 0, axis=0), col_slots, 0, axis=1)
    moved = [j + sum(s <= j for s in col_slots) for j in _column_basis(a, field)]
    assert _column_basis(padded, field) == moved


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_column_basis_maps_the_live_columns_back_past_zero_lines(field):
    # zero rows and columns between live ones, one wide live submatrix
    # and one tall: the live bases [0, 1] are the columns [1, 3] and [1, 4]
    wide = [[0, 1, 0, 2, 0, 3], [0, 0, 0, 0, 0, 0], [0, 4, 0, 5, 0, 6]]
    assert _column_basis(wide, field) == [1, 3]
    tall = [[0, 1, 0, 0, 2], [0, 0, 0, 0, 0], [0, 3, 0, 0, 4], [0, 5, 0, 0, 7], [0, 1, 0, 0, 1]]
    assert _column_basis(tall, field) == [1, 4]


def test_rational_column_basis_certifies_full_rank_mod_p_only(monkeypatch):
    a = [[1, 2, 0, 1], [0, 1, 1, 3], [2, 0, 0, 1]]
    calls = _count_exact_passes(monkeypatch)
    assert _column_basis(np.array(a, dtype=object), RAT) == [0, 1, 2]
    assert calls == []
    # full rank over Q, rank 2 mod p: the exact pass gives the basis
    trap = [a[0], [P * x for x in a[1]], a[2]]
    assert _column_basis(np.array(trap, dtype=object), RAT) == [0, 1, 2]
    # rank 2 over Q below a zero row: the exact pass's pivot columns
    short = [[0] * 4, a[0], [2 * x for x in a[0]], a[1]]
    assert _column_basis(np.array(short, dtype=object), RAT) == [0, 1]
    assert len(calls) == 2


def test_rational_sharp_frames_take_no_exact_pass(monkeypatch):
    # most lines of a sharp family's catalecticants are zero: sharp t=8 e=3
    # has rank 9 on 72 by 45 at u = 2, and on its 16 by 9 live submatrix,
    # so the rank mod p certifies every frame
    calls = _count_exact_passes(monkeypatch)
    for t, p, e in [(8, 1, 3), (6, 1, 4), (5, 2, 3)]:
        m = sharp_family(t, p, e, RAT)
        frame = m._frame
        assert [len(frame[u]) for u in range(1, e)] == [(t + 1) * p] * (e - 1)
    assert calls == []


def _independent_rows(draw, k, n):
    """k <= n integer rows of length n, diagonally dominant: rank k."""
    entries = st.integers(-3, 3)
    return [[draw(entries) + (20 if i == j else 0) for j in range(n)] for i in range(k)]


@st.composite
def _repeated_meet_calls(draw):
    """One `_meets` call: a few pairs, each repeated (some as copies),
    pairs sharing their first matrix, and traps whose [a; b] is
    independent over Q but not mod p (one row moved onto another by p
    times itself)."""
    entries = st.sampled_from([0, 0, 1, -1, 2, 3])

    def matrix(k, n):
        cells = draw(st.lists(entries, min_size=k * n, max_size=k * n))
        return np.array(cells, dtype=object).reshape(k, n)

    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        ka, kb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        n = draw(st.integers(1, 6))
        kind = draw(st.sampled_from(["random", "shared", "trap"]))
        if kind == "trap":
            n = max(n, ka + kb)
            ab = _independent_rows(draw, ka + kb, n)
            i, j = draw(st.permutations(range(ka + kb)))[:2]
            ab[i] = [y + P * x for x, y in zip(ab[i], ab[j])]
            a, b = np.array(ab[:ka], dtype=object), np.array(ab[ka:], dtype=object)
        else:
            a, b = matrix(ka, n), matrix(kb, n)
            if kind == "shared":
                b[0] = a[0]
        pairs.append((a, b))
        # the same first matrix with a different second one
        pairs.append((a, np.vstack([b[1:], matrix(1, n)])))
    repeats = [
        (a.copy(), b.copy()) if draw(st.booleans()) else (a, b)
        for a, b in pairs
        for _ in range(draw(st.integers(0, 3)))
    ]
    return draw(st.permutations(pairs + repeats))


def _zassenhaus_matrix(a, b):
    (ka, n), kb = a.shape, len(b)
    z = np.zeros((ka + kb, 2 * n), dtype=object)
    z[:ka, :n] = z[:ka, n:] = a
    z[ka:, :n] = b
    return z


@pytest.mark.parametrize("field", MEET_FIELDS, ids=MEET_IDS)
@PROPERTY
@given(pairs=_repeated_meet_calls())
def test_meets_of_repeated_and_mod_p_dependent_pairs(field, pairs):
    # each distinct pair is met once, in every field: its duplicates get
    # the very same array, and over GF(p) the stacks `_line_steps` gets
    # hold the Zassenhaus matrix of each distinct pair exactly once
    if field.is_modular:
        # the pipeline's residues: int64 below the limit
        pairs = [
            ((a % field.prime).astype(linalg._dtype(field)),
             (b % field.prime).astype(linalg._dtype(field)))
            for a, b in pairs
        ]
    stacks = []
    steps = linalg._line_steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_line_steps", lambda a, p: stacks.append(a) or steps(a, p))
        got = _meets(pairs, field)
    assert len(got) == len(pairs)
    first = {}
    for rows, (a, b) in zip(got, pairs):
        n = a.shape[1]
        want = oracle.zassenhaus(a, b, field)
        assert rows.shape == (len(want), n)
        assert _span(rows, n, field) == _span(want, n, field)
        assert rows is first.setdefault(str((a.tolist(), b.tolist())), rows)
    if field.is_modular:
        distinct = {str((a.tolist(), b.tolist())): (a, b) for a, b in pairs}
        p = field.prime
        want = [(_zassenhaus_matrix(a, b) % p).tolist() for a, b in distinct.values()]
        assert sorted(z.tolist() for stack in stacks for z in stack) == sorted(want)


def test_meets_keep_equal_entries_of_different_shapes_apart():
    # 1x4 and 2x2 int64 pairs with the same bytes: the keys differ, and so
    # do the results, in one call
    row = np.array([[1, 0, 0, 1]], dtype=np.int64)
    square = row.reshape(2, 2)
    assert row.tobytes() == square.tobytes()
    assert linalg._key(row) != linalg._key(square)
    assert linalg._key(row) == linalg._key(row.copy())
    assert linalg._key(row.astype(object)) == linalg._key(row.astype(object).copy())
    got = _meets([(row, row), (square, square), (row, row.copy())], MOD)
    assert got[0] is got[2]
    assert _span(got[0], 4, MOD) == _span(row, 4, MOD)
    assert _span(got[1], 2, MOD) == _span(square, 2, MOD)
    assert [rows.shape for rows in got] == [(1, 4), (2, 2), (1, 4)]


def _count_exact_passes(monkeypatch):
    calls = []
    exact = linalg._echelon_int

    def counting(mat):
        calls.append(len(mat))
        return exact(mat)

    monkeypatch.setattr(linalg, "_echelon_int", counting)
    return calls


def test_rational_meets_run_one_exact_pass_per_distinct_open_pair(monkeypatch):
    a = np.array([[1, 2, 0, 1], [0, 1, 1, 3]], dtype=object)
    b = np.array([[1, 3, 1, 4], [2, 0, 0, 1]], dtype=object)
    c = np.array([[1, 2, 0, 1], [5, 0, 0, 1]], dtype=object)
    # [a; d] has full rank mod p; [a; e] is independent over Q only
    d = np.array([[0, 0, 1, 0], [0, 0, 0, 7]], dtype=object)
    e = np.array([[P * 3, 0, 0, 0], [0, 0, P, 1]], dtype=object)
    calls = _count_exact_passes(monkeypatch)
    # k equal pairs, some of them copies: one pass, one shared result
    equal = _meets([(a, b), (a.copy(), b.copy()), (a, b), (a, b.copy())], RAT)
    assert len(calls) == 1
    assert all(rows is equal[0] for rows in equal)
    # the same a with another b is another pair
    other = _meets([(a, b), (a, c)], RAT)
    assert len(calls) == 3
    # certified zero, no pass
    certified = _meets([(a, d), (a, d)], RAT)
    assert len(calls) == 3
    # the exact pass decides that this one is 0
    exact = _meets([(a, e)], RAT)
    assert len(calls) == 4
    monkeypatch.undo()
    assert _meets([], RAT) == []

    def span(rows):
        return _span(rows, 4, RAT)

    assert span(equal[0]) == span(other[0]) == span([[1, 3, 1, 4]])
    assert span(other[1]) == span([[1, 2, 0, 1]])
    for rows in certified + exact:
        assert rows.shape == (0, 4) and rows.dtype == object


def test_rational_bases_certify_full_column_rank(monkeypatch):
    rng = random.Random(17)
    tall = [[[rng.randint(-3, 3) + (20 if i == j else 0) for j in range(3)]
             for i in range(5)] for _ in range(3)]
    square = [row[:3] for row in tall]
    # one column scaled by p: full rank over Q, rank 2 mod p
    scaled = [[x * P if j == 1 else x for j, x in enumerate(row)] for row in tall[0]]
    # rank 2 over Q: the last column is the sum of the others
    short = [row[:2] + [row[0] + row[1]] for row in tall[1]]
    calls = _count_exact_passes(monkeypatch)
    # I_3 in the stack's array type: int64, or Python ints
    for stack in (tall, square):
        for given in (np.array(stack), np.array(stack, dtype=object)):
            got = _bases(given, RAT)
            assert [rows.tolist() for rows in got] == [np.eye(3, dtype=int).tolist()] * 3
            assert all(rows.dtype == given.dtype for rows in got)
        # the object stack's, the last, holds Python ints
        assert all(type(x) is int for rows in got for x in rows.ravel())
    # two rows of three columns, one short of I_3: their own basis
    [own] = _bases([tall[2][:2]], RAT)
    assert own.tolist() == tall[2][:2]
    assert calls == []
    got = _bases([tall[2], scaled, short], RAT)
    assert len(calls) == 2
    monkeypatch.undo()
    assert got[0].tolist() == np.eye(3, dtype=int).tolist()
    for rows, a in zip(got[1:], (scaled, short)):
        want = oracle.echelon(a, RAT)[0]
        assert rows.shape == (len(want), 3)
        assert _span(rows, 3, RAT) == _span(want, 3, RAT)
    assert [len(rows) for rows in got] == [3, 3, 2]


# ------------------------------------------------- the one-matrix step
#
# A stack of one matrix is eliminated by `_matrix_steps`, a 2-D loop beside
# the stacked one; the stacked loop, `_stack_steps`, is its oracle.

ONE_MATRIX_FIELDS = [MOD, FieldSpec.modular(7), BIG]
ONE_MATRIX_IDS = ["gfp", "gf7", "bigp"]

# singular mod 7 only
SINGULAR_MOD_7 = np.array([[1, 2], [4, 1]], dtype=object)
# tall, with a basis that a pivot at the last nonzero column picks otherwise
TALL = np.array([[1, 0], [0, 1], [1, 1]], dtype=object)
# 0 x n, n x 0, 1 x n, n x 1, all-zero, tall, wide and square
ONE_MATRICES = [
    np.zeros((0, 3), dtype=object),
    np.zeros((3, 0), dtype=object),
    np.zeros((0, 0), dtype=object),
    np.array([[0, 2, 0, 5]], dtype=object),
    np.array([[0], [3], [0], [1]], dtype=object),
    np.zeros((3, 4), dtype=object),
    SINGULAR_MOD_7,
    TALL,
    np.array([[0, 1], [1, 0], [1, 1], [2, 3], [0, 0]], dtype=object),
    np.array([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 0, 1, 1, 6]], dtype=object),
    np.array([[0, 0, 1], [1, 1, 1], [1, 1, 0], [0, 0, 0]], dtype=object),
    np.array([[-1, 3, 0], [1, -3, 2], [2, 1, 1]], dtype=object),
]


def _one_matrix(m, field):
    """m's residues in the field's array type, as the kernels get them."""
    return _residue_stack(np.asarray(m, dtype=object)[None], field)[0]


def _triples(steps):
    return [(line.tolist(), j.tolist(), found.tolist()) for line, j, found in steps]


@st.composite
def _one_matrix_cases(draw, cols=None):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6)) if cols is None else cols
    # mostly zeros, so that lines vanish and pivots move right
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, 3, 6])
    cells = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    m = np.array(cells, dtype=object).reshape(rows, cols)
    if rows > 2 and draw(st.booleans()):
        m[-1] = 2 * m[0] - m[1]
    return m


def _check_one_matrix(m, field):
    p, a = field.prime, _one_matrix(m, field)
    # the same triples, step by step (a matrix with no column has no line
    # the stacked step can take; `_independent_rows` never hands it one)
    if a.shape[1]:
        got = _triples(linalg._line_steps(a[None], p))
        assert got == _triples(linalg._stack_steps(a[None], p)), m.tolist()
    # the same rows, in either orientation, as in a stack of two
    for one in (a, a.T):
        [want, _] = linalg._independent_rows(np.stack([one, one]), p)
        assert linalg._independent_rows(one[None], p) == [want], m.tolist()


@pytest.mark.parametrize("field", ONE_MATRIX_FIELDS, ids=ONE_MATRIX_IDS)
def test_one_matrix_steps_equal_the_stacked_steps_on_fixed_matrices(field):
    for m in ONE_MATRICES:
        _check_one_matrix(m, field)
    # the pivot is the first nonzero column: the tall matrix keeps rows 0, 1
    a = _one_matrix(TALL, field)
    assert linalg._independent_rows(a[None], field.prime) == [[0, 1]]
    # singular mod 7 only: a step without the reduction would keep both rows
    a = _one_matrix(SINGULAR_MOD_7, field)
    want = [0] if field.prime == 7 else [0, 1]
    assert linalg._independent_rows(a[None], field.prime) == [want]


@pytest.mark.parametrize("field", ONE_MATRIX_FIELDS, ids=ONE_MATRIX_IDS)
@PROPERTY
@given(m=_one_matrix_cases())
def test_one_matrix_steps_equal_the_stacked_steps(field, m):
    _check_one_matrix(m, field)


def _on_the_stacked_loop(f, *args):
    """f(*args) with every elimination on the stacked loop, a one-matrix
    stack included: what these kernels gave before the one-matrix step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_line_steps", linalg._stack_steps)
        return f(*args)


@pytest.mark.parametrize("field", ONE_MATRIX_FIELDS, ids=ONE_MATRIX_IDS)
@PROPERTY
@given(a=_one_matrix_cases(), data=st.data())
def test_spans_and_single_pair_meets_equal_the_stacked_loops(field, a, data):
    n = a.shape[1]
    b = _one_matrix(data.draw(_one_matrix_cases(cols=n)), field)
    a = _one_matrix(a, field)
    assert _span(a, n, field) == _on_the_stacked_loop(_span, a, n, field)
    if n and len(a) and len(b):
        [got] = _meets([(a, b)], field)
        [want] = _on_the_stacked_loop(_meets, [(a, b)], field)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_one_matrix_rational_certificates_equal_the_stacked_loops():
    # entries that are multiples of DEFAULT_PRIME, past int64, and a
    # singular matrix: the certificate over Q reduces each mod p, and a
    # stack of one must keep the rows a stack of two keeps
    p = linalg.DEFAULT_PRIME
    cases = [
        np.array([[p, 1], [0, p]], dtype=object),
        np.array([[2**70, 1, 0], [3, 2**65, 1]], dtype=object),
        np.array([[1, 2], [2, 4], [3, 7]], dtype=np.int64),
        np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64),
        *ONE_MATRICES,
    ]
    for m in cases:
        if not m.size:
            continue
        shape = [m.shape]
        got = linalg._certified_rows(m[None], shape, RAT)
        assert got == [linalg._certified_rows(np.stack([m, m]), shape * 2, RAT)[0]]
        assert got == _on_the_stacked_loop(linalg._certified_rows, m[None], shape, RAT)
        assert _ranks([m], RAT) == [sympy.Matrix(m.tolist()).rank()]
