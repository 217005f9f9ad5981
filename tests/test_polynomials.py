"""Monomial order and rank, form parsing, contraction, catalecticants;
classical differentiation against the oracle's."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import oracle
import pytest

from levelalg import polynomials
from levelalg.fields import FieldSpec
from levelalg.linalg import Matrix, _ranks, rank, row_space
from levelalg.modules import DependentGeneratorsError, InverseSystemModule, h_vector
from levelalg.polynomials import (
    MAX_SPACE_DIM,
    Form,
    FormParseError,
    ParameterMismatchError,
    _exponents,
    _gather_table,
    apply_operator,
    catalecticant_rows,
    check_space_dim,
    coefficient_rows,
    derivative_space,
    monomial_rank,
    monomials_of_degree,
    parse_form,
    space_dim,
)

MOD = FieldSpec.modular()
RAT = FieldSpec.rational()
# a prime above isqrt(2**63 - 1), forcing the Python-int kernel
BIG = FieldSpec.modular(4294967311)


# ---------------------------------------------------------------- monomials


def test_monomial_order_degree_two_three_vars():
    assert monomials_of_degree(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_monomial_order_first_is_pure_power_and_sorted():
    for n in (1, 2, 3, 4):
        for d in (1, 2, 3, 5):
            monos = monomials_of_degree(n, d)
            assert monos[0] == (d,) + (0,) * (n - 1)
            assert len(monos) == space_dim(n, d)
            assert len(set(monos)) == len(monos)
            assert all(sum(m) == d for m in monos)
            # descending order == ascending lex on reversed exponents
            keys = [tuple(reversed(m)) for m in monos]
            assert keys == sorted(keys)


def test_monomials_of_many_variables_and_the_space_bound(monkeypatch):
    # one exponent vector per variable, without recursing once per variable
    monos = monomials_of_degree(1200, 1)
    assert len(monos) == 1200
    assert monos[0] == (1,) + (0,) * 1199 and monos[-1] == (0,) * 1199 + (1,)
    assert space_dim(1200, 3) > MAX_SPACE_DIM

    # the bound is checked before a single bar is drawn
    def drawn(*args):
        raise AssertionError("the bars were drawn")

    monkeypatch.setattr(polynomials, "combinations", drawn)
    with pytest.raises(ValueError, match="288720400 monomials"):
        monomials_of_degree(1200, 3)
    with pytest.raises(ValueError, match="288720400 monomials"):
        _exponents(1200, 3)


def test_a_degree_past_the_bound_is_refused():
    # one variable has one monomial in every degree, but the h-vector and
    # the position table of a degree e have e + 1 entries
    check_space_dim(1, MAX_SPACE_DIM - 1)
    # two variables reach N_e = e + 1 = MAX_SPACE_DIM at the same degree
    check_space_dim(2, MAX_SPACE_DIM - 1)
    for degree in (MAX_SPACE_DIM, 10**8):
        with pytest.raises(ValueError, match=f"^degree {degree} is more than the 999999 "):
            check_space_dim(1, degree)


def test_exponent_arrays_are_the_sorted_tuples_and_read_only():
    # the order read off the ordered bars is the order a sort gave
    shapes = [(r, d) for r in range(1, 7) for d in range(8)] + [(1, 12), (9, 0)]
    for r, d in shapes:
        exps = _exponents(r, d)
        want = oracle.monomials_sorted(r, d)
        assert exps.dtype == np.int64 and exps.shape == (len(want), r), (r, d)
        assert list(map(tuple, exps.tolist())) == want, (r, d)
        assert monomials_of_degree(r, d) == tuple(want), (r, d)
        assert not exps.flags.writeable
        with pytest.raises(ValueError):
            exps[0, 0] = 1


def test_monomial_index_is_inverse():
    # the closed-form rank inverts the order, one exponent vector at a time
    # and for a whole array at once
    monos = monomials_of_degree(3, 4)
    for i, m in enumerate(monos):
        assert monomial_rank(m, 4) == i
    assert monomial_rank(monos, 4).tolist() == list(range(len(monos)))


def test_monomial_rank_matches_the_oracle_index():
    for r in range(1, 7):
        for d in range(8):
            index = oracle.monomial_index(r, d)
            exps = oracle.monomials_sorted(r, d)
            rng = random.Random(r * 8 + d)
            rng.shuffle(exps)
            got = monomial_rank(np.array(exps).reshape(-1, r), d)
            assert got.dtype == np.int64
            assert got.tolist() == [index[m] for m in exps], (r, d)


def test_space_dim_values():
    assert space_dim(3, 2) == 6
    assert space_dim(1, 5) == 1
    assert space_dim(4, 0) == 1
    assert space_dim(2, 7) == 8
    assert space_dim(3, -1) == 0


# -------------------------------------------------------------------- Form


def test_form_constructor_validation():
    with pytest.raises(ValueError):
        Form(0, 2, MOD, {})
    with pytest.raises(ValueError):
        Form(2, -1, MOD, {})
    with pytest.raises(ValueError):
        Form(2, 2, MOD, {(1, 1, 0): 1})  # wrong tuple length
    with pytest.raises(ValueError):
        Form(2, 2, MOD, {(3, -1): 1})
    with pytest.raises(ValueError):
        Form(2, 2, MOD, {(1, 0): 1})  # inhomogeneous


def test_form_drops_zero_coefficients():
    f = Form(2, 2, MOD, {(2, 0): MOD.prime, (1, 1): 3})
    assert f.terms == {(1, 1): 3}
    z = Form(2, 2, MOD, {(2, 0): 0})
    assert z.is_zero


def test_form_equality_and_hash():
    a = Form(2, 3, MOD, {(3, 0): 1, (0, 3): -1})
    b = Form(2, 3, MOD, {(0, 3): MOD.prime - 1, (3, 0): 1})
    assert a == b
    assert hash(a) == hash(b)
    assert a != Form(2, 3, RAT, {(3, 0): 1, (0, 3): -1})


def test_forms_are_frozen():
    f = Form(2, 2, MOD, {(2, 0): 1})
    for name, value in (("num_vars", 3), ("degree", 3), ("field", RAT), ("terms", {})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, value)
    assert f == Form(2, 2, MOD, {(2, 0): 1})


@pytest.mark.parametrize("field", [MOD, RAT, BIG], ids=["gfp", "q", "bigp"])
def test_parsed_built_and_module_forms_are_equal_and_hash_alike(field):
    parsed = parse_form("3*y1^2*y2 - y2^3 + 7*y1*y2*y3", 3, 3, field)
    # the constructor reduces its coefficients and drops the zero ones
    p = field.prime or 0
    built = Form(3, 3, field, {
        (2, 1, 0): 3 + p, (0, 3, 0): -1 - p, (1, 1, 1): 7, (0, 0, 3): p,
    })
    [generator] = InverseSystemModule.from_forms([parsed], field).generators
    assert parsed == built == generator
    assert hash(parsed) == hash(built) == hash(generator)
    assert built.terms == {(2, 1, 0): 3, (0, 3, 0): field.reduce(-1), (1, 1, 1): 7}


def test_coefficient_vector_layout():
    f = Form(2, 2, MOD, {(2, 0): 5, (0, 2): 7})
    rows, den = coefficient_rows([f])
    assert rows.dtype == np.int64 and rows.tolist() == [[5, 0, 7]] and den == 1
    # over Q one common denominator scales every row to integers
    g = Form(2, 2, RAT, {(2, 0): Fraction(1, 2), (1, 1): Fraction(-2, 3)})
    h = Form(2, 2, RAT, {(0, 2): 4})
    rows, den = coefficient_rows([g, h])
    assert rows.dtype == np.int64 and rows.tolist() == [[3, -4, 0], [0, 0, 24]]
    assert den == 6
    # int64 while every scaled coefficient is below 2^62 in absolute value,
    # Python ints in an object array from there
    for top, dtype in ((2**62 - 1, np.int64), (-(2**62), object)):
        big = Form(2, 2, RAT, {(2, 0): Fraction(top, 5), (0, 2): 1})
        rows, den = coefficient_rows([big])
        assert rows.dtype == dtype and rows.tolist() == [[top, 0, 5]] and den == 5
    assert all(type(x) is int for x in rows.flat)
    # a big prime's residues stay Python ints
    rows, _ = coefficient_rows([Form(2, 2, BIG, {(2, 0): -1, (1, 1): 2})])
    assert rows.dtype == object and rows.tolist() == [[BIG.prime - 1, 2, 0]]


# ----------------------------------------------------------------- parsing


def test_parse_simple_sum():
    f = parse_form("y1^3 + 2*y2^3", 2, 3, MOD)
    assert f.terms == {(3, 0): 1, (0, 3): 2}


def test_parse_leading_minus_and_products():
    f = parse_form("-y1^2*y2 + 4*y1*y2^2", 2, 3, RAT)
    assert f.terms == {(2, 1): -1, (1, 2): 4}


def test_parse_whitespace_insensitive():
    assert parse_form("y1^2+y2^2", 2, 2, MOD) == parse_form(
        "  y1^2   +   y2^2 ", 2, 2, MOD
    )


def test_parse_repeated_factor_accumulates():
    f = parse_form("y1*y1*y2", 2, 3, MOD)
    assert f.terms == {(2, 1): 1}


def test_parse_cancellation_rejected():
    with pytest.raises(FormParseError, match="zero after combining"):
        parse_form("y1*y2 - y1*y2", 2, 2, MOD)


def test_parse_inhomogeneous_term_position():
    with pytest.raises(FormParseError) as err:
        parse_form("y1^2 + y2", 2, 2, MOD)
    assert err.value.pos == 7


def test_parse_bad_character_position():
    with pytest.raises(FormParseError) as err:
        parse_form("y1 & y2", 2, 2, MOD)
    assert err.value.pos == 3


def test_parse_index_out_of_range():
    with pytest.raises(FormParseError, match="out of range 1..2"):
        parse_form("y3^2", 2, 2, MOD)


def test_parse_requires_star_after_coefficient():
    # a coefficient followed by any other symbol is not a product either
    for text in ("2y1", "2-y1^2", "3+y1^2", "5^y1^2"):
        with pytest.raises(FormParseError) as err:
            parse_form(text, 1, len(text) // 3, MOD)
        assert str(err.value) == "expected '*' after a coefficient (at position 1)"
        assert err.value.pos == 1, text


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("y^2", "expected a variable index", 1),
        ("y1^", "expected an exponent", 3),
        ("y1^2 +", "expected a variable like y1", 6),
        ("y1^2 + y3^2", "variable index 3 out of range 1..2", 8),
        ("y1^2^2", "expected '+' or '-' between terms", 4),
    ],
)
def test_parse_error_positions(text, message, pos):
    with pytest.raises(FormParseError) as err:
        parse_form(text, 2, 2, MOD)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_parse_empty_and_dangling():
    with pytest.raises(FormParseError, match="empty"):
        parse_form("", 2, 2, MOD)
    with pytest.raises(FormParseError, match="empty"):
        parse_form("   ", 2, 2, MOD)
    with pytest.raises(FormParseError):
        parse_form("y1^2 +", 2, 2, MOD)
    with pytest.raises(FormParseError, match="between terms"):
        parse_form("y1 y2", 2, 1, MOD)


def test_to_text_round_trip_integer_coefficients():
    rng = random.Random(808)
    for field in (MOD, RAT):
        for _ in range(20):
            n = rng.randint(1, 3)
            d = rng.randint(1, 4)
            monos = monomials_of_degree(n, d)
            terms = {}
            for m in rng.sample(monos, rng.randint(1, len(monos))):
                terms[m] = rng.choice([c for c in range(-9, 10) if c])
            f = Form(n, d, field, terms)
            assert parse_form(f.to_text(), n, d, field) == f


# --------------------------------------------------------------- operators


def test_apply_operator_identity():
    f = parse_form("y1^2*y2 + y2^3", 2, 3, MOD)
    assert apply_operator((0, 0), f) == f
    assert oracle.apply_operator((0, 0), f, differentiate=True) == f


def test_differentiate_uses_falling_factorials():
    f = Form(1, 3, MOD, {(3,): 1})
    g = oracle.apply_operator((2,), f, differentiate=True)
    assert g.terms == {(1,): 6}


def test_contract_lowers_exponents_with_unit_coefficient():
    f = Form(1, 3, MOD, {(3,): 1})
    g = apply_operator((2,), f)
    assert g.terms == {(1,): 1}


def test_operator_kills_non_divisible_terms():
    f = parse_form("y1^2", 2, 2, MOD)
    g = apply_operator((0, 1), f)
    assert g.is_zero
    assert g.degree == 1


def test_operator_degree_and_arity_errors():
    f = Form(1, 3, MOD, {(3,): 1})
    with pytest.raises(ValueError, match=r"operator degree 4 out of range 0\.\.3"):
        apply_operator((4,), f)
    with pytest.raises(ParameterMismatchError):
        apply_operator((1, 0), f)
    with pytest.raises(ValueError, match=r"negative exponent in operator \(2, -1\)"):
        apply_operator((2, -1), Form(2, 3, MOD, {(3, 0): 1}))


def test_operator_composition_seeded():
    rng = random.Random(1618)
    for trial in range(40):
        n = rng.randint(1, 3)
        d = rng.randint(2, 5)
        monos = monomials_of_degree(n, d)
        terms = {
            m: rng.choice([c for c in range(-5, 6) if c])
            for m in rng.sample(monos, rng.randint(1, len(monos)))
        }
        field = (MOD, RAT)[trial % 2]
        f = Form(n, d, field, terms)
        total = rng.randint(0, d)
        a_deg = rng.randint(0, total)
        combined = rng.choice(monomials_of_degree(n, total) or ((0,) * n,))
        # split the combined operator into two stages
        a = []
        rem = a_deg
        for e in combined:
            take = min(e, rem)
            a.append(take)
            rem -= take
        a = tuple(a)
        b = tuple(x - y for x, y in zip(combined, a))
        assert apply_operator(combined, f) == apply_operator(a, apply_operator(b, f))
        assert oracle.apply_operator(combined, f, True) == oracle.apply_operator(
            a, oracle.apply_operator(b, f, True), True
        )


def test_operator_output_is_homogeneous():
    f = parse_form("y1^2*y2^2 + y1^4", 2, 4, MOD)
    g = apply_operator((1, 1), f)
    assert g.degree == 2
    assert all(sum(m) == 2 for m in g.terms)


# ----------------------------------------------------------- catalecticant


def _catalecticant(forms, i):
    """The rows of C_i on the forms' coefficient rows."""
    f = forms[0]
    return catalecticant_rows(coefficient_rows(forms)[0], f.num_vars, f.degree, i)


def test_catalecticant_pure_power_rank_one():
    f = Form(2, 3, MOD, {(3, 0): 1})
    for i in range(4):
        assert _ranks([_catalecticant([f], i)], MOD) == [1]
        assert rank(oracle.catalecticant([f], i, differentiate=True)) == 1


def test_catalecticant_two_cubics():
    fs = [Form(2, 3, MOD, {(3, 0): 1}), Form(2, 3, MOD, {(0, 3): 1})]
    assert _ranks([_catalecticant(fs, 2)], MOD) == [2]


def test_catalecticant_differentiate_rows():
    f = parse_form("y1^2*y2 + y1*y2^2", 2, 3, MOD)
    cat = oracle.catalecticant([f], 1, differentiate=True)
    assert [list(row) for row in cat.entries] == [[0, 2, 1], [1, 2, 0]]
    assert rank(cat) == 2


def test_catalecticant_binary_cubic_contract_rows():
    f = parse_form("y1^3 + 2*y1^2*y2 + 5*y1*y2^2 + 7*y2^3", 2, 3, MOD)
    rows = _catalecticant([f], 1)
    assert rows.tolist() == [[1, 2, 5], [2, 5, 7]]
    assert _ranks([rows], MOD) == [2]


def test_catalecticant_shape_and_range():
    fs = [Form(3, 3, MOD, {(3, 0, 0): 1}), Form(3, 3, MOD, {(0, 0, 3): 1})]
    assert _catalecticant(fs, 2).shape == (2 * space_dim(3, 2), space_dim(3, 1))
    with pytest.raises(ValueError, match="need at least one form"):
        coefficient_rows([])
    with pytest.raises(ParameterMismatchError):
        coefficient_rows([fs[0], Form(2, 3, MOD, {(3, 0): 1})])


def test_apply_operator_builds_no_matrix(monkeypatch):
    # one row of the form's catalecticant, gathered directly
    built = []
    from_rows = Matrix.from_rows.__func__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return from_rows(cls, *args, **kwargs)

    rng = random.Random(31)
    cases = []
    for field in (MOD, BIG, RAT):
        for _ in range(4):
            n, d = rng.randint(1, 3), rng.randint(1, 4)
            monos = monomials_of_degree(n, d)
            terms = {
                m: _random_coefficient(rng, field)
                for m in rng.sample(monos, rng.randint(1, len(monos)))
            }
            cases.append(Form(n, d, field, terms))
    monkeypatch.setattr(Matrix, "from_rows", classmethod(counting))
    got = [
        (apply_operator(op, f), f, op)
        for f in cases
        for i in range(f.degree + 1)
        for op in monomials_of_degree(f.num_vars, i)
    ]
    assert not built
    for g, f, op in got:
        assert g == oracle.apply_operator(op, f), (f, op)
        assert all(type(c) is type(f.field.reduce(1)) for c in g.terms.values())


# ------------------------------------------------------- derivative spaces


def test_derivative_space_endpoints():
    fs = [Form(2, 3, MOD, {(3, 0): 1}), Form(2, 3, MOD, {(0, 3): 1})]
    top = derivative_space(fs, 3)
    assert top.dim == 2
    assert derivative_space(fs, 0).dim == 1
    with pytest.raises(ValueError):
        derivative_space(fs, 4)


def test_derivative_space_three_quadric_generators():
    # y1^2*y2, y1^2*y3, y1^2*y4: first-order pieces span
    # {y1*y2, y1*y3, y1*y4, y1^2}
    gens = [
        Form(4, 3, MOD, {(2, 1, 0, 0): 1}),
        Form(4, 3, MOD, {(2, 0, 1, 0): 1}),
        Form(4, 3, MOD, {(2, 0, 0, 1): 1}),
    ]
    assert derivative_space(gens, 2).dim == 4
    # second-order pieces reach every variable: x1*x2 on the first
    # generator already gives y1, and x1^2 gives y2, y3, y4
    assert derivative_space(gens, 1).dim == 4


def _random_coefficient(rng, field):
    if field is RAT:
        return Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 6))
    if field is BIG:
        return rng.randint(1, field.prime - 1)
    return rng.randint(1, 9)


def test_derivative_space_matches_catalecticant_row_space():
    rng = random.Random(2024)
    for field in [MOD, RAT, BIG] * 25:
        n = rng.randint(2, 3)
        d = rng.randint(2, 4)
        monos = monomials_of_degree(n, d)
        forms = []
        for _ in range(rng.randint(1, 3)):
            terms = {
                m: _random_coefficient(rng, field)
                for m in rng.sample(monos, rng.randint(1, len(monos)))
            }
            forms.append(Form(n, d, field, terms))
        for u in range(d + 1):
            s = derivative_space(forms, u)
            cat = oracle.catalecticant(forms, d - u)
            assert s == row_space(cat)
            # the gather against the per-operator, per-term oracle
            assert s == oracle.derivative_space(forms, u)
            rows = _catalecticant(forms, d - u)
            # over Q the gathered rows are scaled by the forms' denominator
            den = coefficient_rows(forms)[1]
            scaled = [[Fraction(x, den) for x in row] for row in rows.tolist()]
            assert scaled == [list(row) for row in cat.entries]
            for op in monomials_of_degree(n, d - u):
                for f in forms:
                    assert apply_operator(op, f) == oracle.apply_operator(op, f)


def test_gather_table_matches_the_oracle():
    # (40, 2) and (64, 1): many variables at a low degree
    shapes = [(r, e) for r in range(1, 5) for e in range(1, 7)] + [(40, 2), (64, 1)]
    for r, e in shapes:
        for i in range(e + 1):
            table = _gather_table(r, e, i)
            want = oracle.gather_table(r, e, i)
            assert table.dtype == want.dtype
            assert np.array_equal(table, want), (r, e, i)


def test_gather_table_memory_is_that_of_the_table():
    # 200 by 200 entries: a few MB, where a 200 by 200 by 200 array of the
    # monomials op*m, as the whole table at once would build it, is 64 MB
    _gather_table.cache_clear()
    tracemalloc.start()
    try:
        table = _gather_table(200, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (200, 200)
    assert peak < 32 * 2**20


def test_actions_agree_on_monomial_forms():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(2, 4)
        d = rng.randint(2, 5)
        monos = monomials_of_degree(n, d)
        forms = [
            Form(n, d, MOD, {m: 1})
            for m in rng.sample(monos, rng.randint(1, 3))
        ]
        for u in range(d + 1):
            assert (
                oracle.derivative_space(forms, u, differentiate=True).dim
                == derivative_space(forms, u).dim
            )


def test_actions_can_disagree_on_general_forms():
    # (y1 + y2)^2 written out: contraction sees a two-dimensional space of
    # first-order pieces, differentiation a one-dimensional one
    f = parse_form("y1^2 + 2*y1*y2 + y2^2", 2, 2, MOD)
    assert derivative_space([f], 1).dim == 2
    assert oracle.derivative_space([f], 1, differentiate=True).dim == 1


@pytest.mark.parametrize(
    "field", [RAT, FieldSpec.modular(7), MOD], ids=["q", "gf7", "gfp"]
)
def test_differentiation_gives_the_contraction_h_vector_of_the_factorial_scaled_forms(
    field,
):
    # y^b -> b! y^b is invertible over Q and over GF(p), p > e, and carries
    # the derivatives of F onto the contractions of F with c_a scaled by a!
    rng = random.Random(71)
    for _ in range(12):
        n, d = rng.randint(2, 3), rng.randint(2, 6)
        monos = monomials_of_degree(n, d)
        forms = []
        for _ in range(rng.randint(1, 3)):
            terms = {
                m: rng.choice([-3, -1, 1, 2, 5])
                for m in rng.sample(monos, rng.randint(1, len(monos)))
            }
            forms.append(Form(n, d, field, terms))
        try:
            m = InverseSystemModule.from_forms(
                [oracle.factorial_scaled(f) for f in forms], field
            )
        except DependentGeneratorsError:  # as the drawn forms may be
            continue
        assert h_vector(m) == oracle.h_vector(forms, differentiate=True), forms
