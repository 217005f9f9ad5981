"""Module invariants, h-vectors, random quotients, overlap dimensions,
and the module file format.

Rank oracle for the frozen h-vector fixtures: determinants of explicit
small catalecticant blocks, computed by hand in the comments.
"""

import random
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import oracle
import pytest
from hypothesis import assume, given, settings, strategies as st

from levelalg import modules
from levelalg.combinatorics import is_o_sequence
from levelalg.families import (
    monomial_module,
    random_module,
    sharp_family,
    truncated_gorenstein_conic,
)
from levelalg.fields import DEFAULT_PRIME, FieldSpec
from levelalg.modules import (
    DegenerateSampleError,
    DependentGeneratorsError,
    InverseSystemModule,
    InputError,
    derive_seed,
    empirical_generic_h,
    generic_quotient_trials,
    h_vector,
    inclusion_exclusion_sum,
    module_to_text,
    parse_module_file,
    relative_intersection_dim,
    remix_generators,
    sample_generic_quotient,
)
from levelalg.linalg import _INT64_PRIME_LIMIT, Matrix, _bases, _combine, _meets, rank
from levelalg.polynomials import (
    Form,
    catalecticant_rows,
    form_from_row,
    monomials_of_degree,
    parse_form,
    space_dim,
)

MOD = FieldSpec.modular()
RAT = FieldSpec.rational()
BIG = FieldSpec.modular(4294967311)
# the largest prime <= _INT64_PRIME_LIMIT: residues still multiply within
# int64, but a sum of two products of them does not
NEAR = FieldSpec.modular(3037000493)

# three cubics whose coefficients reduce to just below the default prime
NEGATIVE_TEXT = """\
vars: 3
degree: 3
F1: -y1^3 - 2*y1^2*y2 - y2^3 - 3*y1*y2*y3
F2: -y1^3 - y1*y2^2 - 5*y3^3 - y1*y2*y3
F3: -2*y1^3 - y2^3 - y1*y3^2 - 7*y1*y2*y3
"""


def _mono(num_vars, exps, field=MOD):
    return Form(num_vars, sum(exps), field, {tuple(exps): 1})


# ----------------------------------------------------------- construction


def test_module_requires_generators():
    with pytest.raises(ValueError):
        InverseSystemModule.from_forms((), MOD)


def test_module_rejects_degree_zero():
    const = Form(2, 0, MOD, {(0, 0): 1})
    with pytest.raises(ValueError, match="at least 1"):
        InverseSystemModule.from_forms((const,), MOD)


def test_module_rejects_field_mismatch():
    g = Form(2, 2, RAT, {(2, 0): 1})
    with pytest.raises(ValueError, match="field disagrees"):
        InverseSystemModule.from_forms((g,), MOD)


def test_module_rejects_mixed_degrees_or_vars():
    a = _mono(2, (2, 0))
    b = _mono(2, (3, 0))
    with pytest.raises(ValueError, match="disagree"):
        InverseSystemModule.from_forms((a, b), MOD)
    c = _mono(3, (2, 0, 0))
    with pytest.raises(ValueError, match="disagree"):
        InverseSystemModule.from_forms((a, c), MOD)


def test_module_rejects_dependent_generators():
    a = parse_form("y1^2 + y2^2", 2, 2, MOD)
    b = parse_form("2*y1^2 + 2*y2^2", 2, 2, MOD)
    with pytest.raises(DependentGeneratorsError):
        InverseSystemModule.from_forms((a, b), MOD)
    z = Form(2, 2, MOD, {})
    with pytest.raises(DependentGeneratorsError):
        InverseSystemModule.from_forms((z,), MOD)


def test_module_rejects_small_modulus():
    small = FieldSpec.modular(3)
    g = Form(1, 3, small, {(3,): 1})
    with pytest.raises(ValueError, match="exceed the socle degree"):
        InverseSystemModule.from_forms((g,), small)
    ok = FieldSpec.modular(5)
    m = InverseSystemModule.from_forms((Form(1, 3, ok, {(3,): 1}),), ok)
    assert m.type == 1 and m.socle_degree == 3 and m.num_vars == 1


# -------------------------------------------------------------- h-vectors


def test_h_vector_single_power():
    m = InverseSystemModule.from_forms((_mono(2, (4, 0)),), MOD)
    assert h_vector(m) == (1, 1, 1, 1, 1)


def test_h_vector_three_quadric_generators():
    gens = tuple(
        _mono(4, exps)
        for exps in ((2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1))
    )
    m = InverseSystemModule.from_forms(gens, MOD)
    assert h_vector(m) == (1, 4, 4, 3)


def test_h_vector_binary_cubic_against_minor_oracle():
    # first catalecticant rows (1,2,5) and (2,5,7): the 2x2 minor
    # 1*5 - 2*2 = 1 is nonzero, so both middle entries are 2
    f = parse_form("y1^3 + 2*y1^2*y2 + 5*y1*y2^2 + 7*y2^3", 2, 3, MOD)
    m = InverseSystemModule.from_forms((f,), MOD)
    assert h_vector(m) == (1, 2, 2, 1)
    f_rat = parse_form("y1^3 + 2*y1^2*y2 + 5*y1*y2^2 + 7*y2^3", 2, 3, RAT)
    assert h_vector(InverseSystemModule.from_forms((f_rat,), RAT)) == (1, 2, 2, 1)


def test_h_vector_endpoints():
    rng = random.Random(61)
    for _ in range(10):
        t = rng.randint(1, 3)
        m = sharp_family(t=max(t, 2), p=1, e=3, field=MOD)
        h = h_vector(m)
        assert h[0] == 1
        assert h[-1] == m.type


# -------------------------------------------------------------- quotients


def test_generic_quotient_of_sharp_is_gorenstein_profile():
    m = sharp_family(t=3, p=1, e=3, field=MOD)
    s = sample_generic_quotient(m, 1, seed=7)
    assert s.h == (1, 2, 2, 1)
    assert s.c == 1
    assert len(s.coefficients) == 1 and len(s.coefficients[0]) == 3


def test_generic_quotient_sharp_type_two():
    m = sharp_family(t=3, p=2, e=4, field=MOD)
    assert h_vector(m) == (1, 8, 8, 8, 3)
    s = sample_generic_quotient(m, 2, seed=11)
    assert s.h == (1, 6, 6, 6, 2)


def test_quotient_selection_matrix_picks_subset():
    m = sharp_family(t=3, p=1, e=3, field=MOD)
    s = sample_generic_quotient(m, 2, coefficients=[[1, 0, 0], [0, 1, 0]])
    sub = InverseSystemModule.from_forms(m.generators[:2], m.field)
    assert s.h == h_vector(sub)


def test_quotient_coefficient_matrix_validation():
    m = sharp_family(t=3, p=1, e=3, field=MOD)
    with pytest.raises(ValueError, match="2x3"):
        sample_generic_quotient(m, 2, coefficients=[[1, 0, 0]])
    with pytest.raises(DependentGeneratorsError):
        sample_generic_quotient(m, 2, coefficients=[[1, 1, 0], [2, 2, 0]])


def test_quotient_type_range():
    m = sharp_family(t=3, p=1, e=3, field=MOD)
    for bad in (0, 3, 4, -1):
        with pytest.raises(ValueError, match="out of range"):
            sample_generic_quotient(m, bad)


def test_quotient_determinism():
    m = sharp_family(t=4, p=1, e=4, field=MOD)
    a = sample_generic_quotient(m, 2, seed=99)
    b = sample_generic_quotient(m, 2, seed=99)
    assert a.coefficients == b.coefficients
    assert a.h == b.h
    c = sample_generic_quotient(m, 2, seed=100)
    assert c.coefficients != a.coefficients


def test_trials_and_empirical_h():
    m = InverseSystemModule.from_forms(
        tuple(_mono(3, e) for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3))), MOD
    )
    assert empirical_generic_h(m, 1, trials=4, seed=1) == (1, 3, 3, 1)
    samples = generic_quotient_trials(m, 1, trials=4, seed=1)
    assert len(samples) == 4
    only = generic_quotient_trials(m, 1, trials=1, seed=1)[0]
    assert only.h == samples[0].h
    with pytest.raises(ValueError):
        generic_quotient_trials(m, 1, trials=0)


def test_empirical_h_monotone_in_trials_and_bounded_by_parent():
    m = sharp_family(t=4, p=2, e=5, field=MOD)
    h = h_vector(m)
    few = empirical_generic_h(m, 2, trials=2, seed=5)
    more = empirical_generic_h(m, 2, trials=5, seed=5)
    assert all(a <= b for a, b in zip(few, more))
    assert all(b <= hh for b, hh in zip(more, h))
    assert more[0] == 1
    assert more[-1] == 2


def test_h_vector_matches_oracle():
    for field in (MOD, RAT, BIG):
        for k in range(6):
            m = random_module(3, 4, 3, 0.5, k, field)
            assert h_vector(m) == oracle.h_vector(m.generators)


def test_seeded_samples_match_the_oracle():
    # the same retry sequence, coefficients and h as combining Forms and
    # taking the h-vector of the module they span; c = t-1 included
    cases = [
        (random_module(3, 4, 4, 0.5, 3, MOD), (1, 2, 3)),
        (random_module(4, 3, 3, 0.4, 8, RAT), (1, 2)),
        (random_module(3, 3, 3, 0.6, 2, BIG), (1, 2)),
        (random_module(3, 3, 3, 0.6, 2, FieldSpec.modular(97)), (1, 2)),
        (sharp_family(t=4, p=1, e=3, field=MOD), (1, 3)),
        (parse_module_file(NEGATIVE_TEXT), (1, 2)),
    ]
    for m, cs in cases:
        for c in cs:
            for seed in range(4):
                s = sample_generic_quotient(m, c, seed=seed)
                assert (s.coefficients, s.h) == oracle.sample_generic_quotient(
                    m, c, seed=seed
                )


def _first_draw(m, c, seed):
    rng = random.Random(derive_seed(seed, "quotient", 0))
    return tuple(
        tuple(oracle.random_coefficient(rng, m.field) for _ in range(m.type))
        for _ in range(c)
    )


def test_batched_trials_match_the_oracle_per_trial():
    # trial k is drawn as the oracle draws seed derive_seed(seed, "trial", k)
    # alone; over GF(3) the trials need different numbers of retries
    gf3 = random_module(3, 2, 3, 0.7, 4, FieldSpec.modular(3))
    cases = [
        (random_module(3, 4, 4, 0.5, 3, MOD), (1, 3)),
        (random_module(4, 3, 3, 0.4, 8, RAT), (2,)),
        (random_module(3, 3, 3, 0.6, 2, BIG), (1,)),
        (gf3, (1, 2)),
    ]
    for m, cs in cases:
        for c in cs:
            for seed in range(2):
                samples = generic_quotient_trials(m, c, trials=6, seed=seed)
                assert len(samples) == 6
                for k, s in enumerate(samples):
                    trial_seed = derive_seed(seed, "trial", k)
                    assert s.seed == trial_seed
                    assert (s.coefficients, s.h) == oracle.sample_generic_quotient(
                        m, c, seed=trial_seed
                    )
    retried = {
        s.coefficients != _first_draw(gf3, 2, s.seed)
        for s in generic_quotient_trials(gf3, 2, trials=8, seed=0)
    }
    assert retried == {True, False}


def test_one_form_draws_take_no_rank_and_stay_the_same(monkeypatch):
    # c = 1: a row of nonzero draws times independent rows is never zero,
    # so the first attempt is accepted without a rank, and A and W are
    # those of the ranked draw loop (the oracle), from GF(2) to Q
    gf2 = FieldSpec.modular(2)
    cases = [
        InverseSystemModule.from_forms(
            (_mono(3, (1, 0, 0), gf2), _mono(3, (0, 1, 0), gf2), _mono(3, (0, 0, 1), gf2)),
            gf2,
        ),
        random_module(3, 2, 3, 0.7, 4, FieldSpec.modular(3)),
        random_module(3, 3, 3, 0.6, 2, FieldSpec.modular(97)),
        random_module(3, 4, 4, 0.5, 3, MOD),
        random_module(3, 3, 3, 0.6, 2, BIG),
        random_module(4, 3, 3, 0.4, 8, RAT),
    ]
    assert BIG.prime > _INT64_PRIME_LIMIT
    seeds = [derive_seed(1, "trial", k) for k in range(6)]

    def refuse(*args):
        raise AssertionError("a rank for c = 1")

    monkeypatch.setattr(modules, "_ranks", refuse)
    for m in cases:
        for (a, w), seed in zip(modules._draws(m, 1, seeds, "quotient"), seeds):
            assert a == oracle.sample_generic_quotient(m, 1, seed)[0], m.field
            assert w.dtype == m.rows.dtype, m.field
            assert np.array_equal(w, _combine([a], m.rows, m.field)[0]), m.field


def _selections(t, c):
    """Every 0/1 matrix that picks c of t generators, in order."""
    return [
        tuple(tuple(int(j == i) for j in range(t)) for i in subset)
        for subset in combinations(range(t), c)
    ]


def test_degrees_share_a_rank_or_basis_call_only_when_their_tables_share_a_shape(
    monkeypatch,
):
    # the first rank call takes the critical degrees, a second the degrees
    # still open for some trial, both for every trial; a
    # degree whose frame table has a shape of its own is gathered alone,
    # and the degrees of a sharp module, all of one shape, get one call
    ranked, based = [], []
    ranks, bases = modules._ranks, modules._bases
    monkeypatch.setattr(modules, "_ranks", lambda a, f: ranked.append(a) or ranks(a, f))
    monkeypatch.setattr(modules, "_bases", lambda a, f: based.append(a) or bases(a, f))
    m = _monomial_module(MOD)
    degrees = range(1, m.socle_degree)
    tables = m._frame_tables
    # h = (1, 3, 6, 5): at c = 2 degree 2 is the only critical one, c·h_1 = h_2
    assert [tables[u].shape for u in degrees] == [(6, 3), (3, 6)]
    draws = np.stack([w for _, w in modules._draws(m, 2, [0, 1, 2], "quotient")])
    w = np.concatenate([draws, _combine(_selections(m.type, 2), m.rows, MOD)])
    want = oracle.graded_ranks(w, m)
    ranked.clear()
    assert modules._graded_ranks(w, m) == want
    # the draws reach h_2 = 6, and so settle degree 1; some selections do not
    open_ = [i for i, h in enumerate(want) if h[2] < 6]
    assert 0 < len(open_) < len(w) and open_[0] >= len(draws)
    assert len(ranked) == 2
    for a, u in zip(ranked, (2, 1)):
        sub = tables[u]
        assert a.dtype == w.dtype
        assert np.array_equal(a, w[:, :, sub].reshape(len(w), -1, sub.shape[1]))
    modules._single_spaces(m, degrees, m.rows)
    assert len(based) == len(degrees)
    for u, a in zip(degrees, based):
        assert a.dtype == m.rows.dtype
        assert np.array_equal(a, m.rows[:, tables[u]]), u
    # a random module's generic quotients sit at their caps: all trials
    # ranked at the critical degrees, at most two shapes, nothing open
    m = random_module(3, 6, 4, 0.5, 0, MOD)
    assert len({m._frame_tables[u].shape for u in range(1, 6)}) == 5
    for c in (1, 2, 3):
        w = np.stack([w for _, w in modules._draws(m, c, [0, 1, 2, 3], "quotient")])
        ranked.clear()
        assert modules._graded_ranks(w, m) == oracle.graded_ranks(w, m)
        assert 1 <= len(ranked) <= 2 and all(len(a) == len(w) for a in ranked), c
    sharp = sharp_family(t=4, p=1, e=4, field=MOD)
    w = np.stack([w for _, w in modules._draws(sharp, 2, [0, 1], "quotient")])
    ranked.clear()
    based.clear()
    assert modules._graded_ranks(w, sharp) == oracle.graded_ranks(w, sharp)
    modules._single_spaces(sharp, range(1, 4), sharp.rows)
    assert (len(ranked), len(based)) == (1, 1)


def test_known_and_mirrored_h_entries_equal_computed_ranks():
    # h_0, h_e and, for one form, h_u = h_(e-u) are not ranked; compare
    # every entry with the rank of the catalecticant of the combined forms
    def ranks(forms):
        e = forms[0].degree
        return tuple(rank(oracle.catalecticant(forms, e - u)) for u in range(e + 1))

    asymmetric = False
    for field in (MOD, RAT, BIG):
        for k in range(3):
            m = random_module(3, 5, 3, 0.5, k, field)
            single = InverseSystemModule.from_forms(m.generators[:1], field)
            assert h_vector(m) == ranks(m.generators)
            assert h_vector(single) == ranks(single.generators)
            for c in (1, 2):
                for s in generic_quotient_trials(m, c, trials=3, seed=k):
                    forms = [
                        oracle.combine_forms(m.generators, row, field)
                        for row in s.coefficients
                    ]
                    assert s.h == ranks(forms), (c, s.h)
                    asymmetric |= s.h[1:-1] != s.h[-2:0:-1]
    assert asymmetric


def test_module_coefficient_rows_are_built_once_and_read_only():
    gens = (
        Form(2, 3, RAT, {(3, 0): Fraction(1, 2), (1, 2): Fraction(-3, 7)}),
        Form(2, 3, RAT, {(2, 1): Fraction(5, 3), (0, 3): 1}),
    )
    m = InverseSystemModule.from_forms(gens, RAT)
    rows = m.rows
    assert rows is m.rows
    assert not rows.flags.writeable
    assert rows.tolist() == [[21, 0, -18, 0], [0, 70, 0, 42]]
    assert m.denominator == 42
    h_vector(m)
    sample_generic_quotient(m, 1, seed=3)
    remix_generators(m, seed=3)
    assert m.rows is rows
    assert rows.tolist() == [[21, 0, -18, 0], [0, 70, 0, 42]]


@pytest.mark.parametrize("field", [MOD, BIG, RAT], ids=["gfp", "bigp", "q"])
def test_generators_come_back_exactly_as_given(field):
    # over Q the rows are integers and the denominator gives the Fractions
    # back; over GF(p) the residues are the reduced coefficients
    rng = random.Random(17)
    for _ in range(10):
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        monos = monomials_of_degree(n, d)
        forms = []
        for _ in range(rng.randint(1, min(3, len(monos)))):
            terms = {
                x: Fraction(rng.choice([-7, -1, 1, 3]), rng.choice([1, 2, 9, 10]))
                for x in rng.sample(monos, rng.randint(1, len(monos)))
            }
            forms.append(Form(n, d, field, terms))
        try:
            m = InverseSystemModule.from_forms(forms, field, label="given")
        except DependentGeneratorsError:
            continue
        assert m.generators == tuple(forms)
        assert (m.num_vars, m.socle_degree, m.type, m.label) == (n, d, len(forms), "given")


def test_module_is_a_record_of_its_rows():
    # rows in any integer form, reduced mod p into a read-only copy of the
    # field's array type, over Q int64 for entries this small; compared
    # and hashed by identity
    given = np.array([[1, -1, 0], [0, 2, MOD.prime + 5]])
    m = InverseSystemModule(2, 2, MOD, given, label="rows")
    given[0, 0] = 7
    assert m.rows.dtype == np.int64 and not m.rows.flags.writeable
    assert m.rows.tolist() == [[1, MOD.prime - 1, 0], [0, 2, 5]]
    assert m.generators == (
        parse_form("y1^2 - y1*y2", 2, 2, MOD),
        parse_form("2*y1*y2 + 5*y2^2", 2, 2, MOD),
    )
    q = InverseSystemModule(2, 2, RAT, [[1, -1, 0], [0, 2, 5]], denominator=4)
    assert q.rows.dtype == np.int64 and q.generators[0].terms == {
        (2, 0): Fraction(1, 4), (1, 1): Fraction(-1, 4)
    }
    assert m != InverseSystemModule(2, 2, MOD, m.rows) and len({m, m}) == 1
    with pytest.raises(ValueError, match="3 variables have 6 monomials"):
        InverseSystemModule(3, 2, MOD, m.rows)
    with pytest.raises(ValueError, match="at least one generator"):
        InverseSystemModule(2, 2, MOD, np.zeros((0, 3), dtype=np.int64))


@pytest.mark.parametrize("field", [FieldSpec(97), MOD], ids=["gf97", "gfp"])
def test_module_rows_outside_int64_are_reduced_mod_p(field):
    # entries beyond int64, as a list or an object array, reduced in Python
    # ints into the int64 residues the rest of the module sees
    p = field.prime
    big = [[2**64 + 1, 0, 1], [0, 1, -(2**70)]]
    want = [[x % p for x in row] for row in big]
    for given in (big, np.array(big, dtype=object)):
        m = InverseSystemModule(2, 2, field, given)
        assert m.rows.dtype == np.int64 and not m.rows.flags.writeable
        assert m.rows.tolist() == want
        assert h_vector(m) == (1, 2, 2)
    # p·2^64 is 0 mod p: the first row becomes the second
    with pytest.raises(DependentGeneratorsError):
        InverseSystemModule(2, 2, field, [[p * 2**64, 1, 0], [0, 1, 0]])


def test_module_rows_are_read_exactly_and_must_be_integers():
    # an unsigned entry past int64 is reduced exactly, not wrapped to -1,
    # and kept exactly over Q, where it is past 2^62
    unsigned = np.array([[2**64 - 1, 0, 1], [0, 1, 0]], dtype=np.uint64)
    m = InverseSystemModule(2, 2, FieldSpec(97), unsigned)
    assert m.rows.tolist() == [[60, 0, 1], [0, 1, 0]] and (2**64 - 1) % 97 == 60
    q = InverseSystemModule(2, 2, RAT, unsigned)
    assert q.rows.dtype == object and q.rows.tolist() == unsigned.tolist()
    # a float entry is refused, not truncated (GF(97)) or kept (Q), and so
    # is a Fraction
    for field in (FieldSpec(97), RAT):
        for given in ([[1.5, 0, 1], [0, 1, 0]], np.array([[1.5, 0, 1], [0, 1, 0]])):
            with pytest.raises(ValueError, match="must be integers: 'float'"):
                InverseSystemModule(2, 2, field, given)
        with pytest.raises(ValueError, match="must be integers: 'Fraction'"):
            InverseSystemModule(2, 2, field, [[Fraction(1, 2), 0, 1], [0, 1, 0]])


def test_rational_rows_are_int64_below_2_62_in_absolute_value():
    # NEGATIVE_TEXT's cubics with one coefficient set to a boundary value:
    # int64 up to 2^62 - 1 in absolute value, Python ints from 2^62 on, and
    # the h-vector and a quotient's are the oracle's either way
    base = parse_module_file(NEGATIVE_TEXT, field_override=RAT).rows.tolist()
    coefficients = [[1, 2, 3], [3, -1, 2]]
    for value, dtype in (
        (2**62 - 1, np.int64), (-(2**62 - 1), np.int64), (2**62, object), (-(2**62), object),
    ):
        rows = [row[:] for row in base]
        rows[0][0] = value
        m = InverseSystemModule(3, 3, RAT, rows)
        assert m.rows.dtype == dtype, value
        assert m.rows.tolist() == rows
        assert h_vector(m) == oracle.h_vector(m.generators)
        s = sample_generic_quotient(m, 2, coefficients=coefficients)
        assert s.h == oracle.sample_generic_quotient(m, 2, coefficients=coefficients)[1]


def test_rational_combinations_past_int64_take_python_ints():
    # each product 2·(2^62 - 1) fits in int64, a sum of t = 2 of them does
    # not: the combination runs on Python ints, exactly
    x = 2**62 - 1
    m = InverseSystemModule(2, 2, RAT, [[x, 0, 1], [x, 1, 0]])
    assert m.rows.dtype == np.int64
    w = _combine([[[2, 2]]], m.rows, RAT)
    assert w.dtype == object and w.tolist() == [[[4 * x, 2, 2]]]
    # a bound of 2·1·x < 2^63: the int64 dot
    w = _combine([[[1, -1]]], m.rows, RAT)
    assert w.dtype == np.int64 and w.tolist() == [[[0, -1, 1]]]


def test_explicit_coefficients_agree_across_fields():
    # -1 reduces to p-1 and the generators' entries sit just below p too,
    # so an int64 product A·V of these would wrap around
    for coefficients in ([[-1, 1, 0], [0, -1, 1]], [[-1, -2, -3], [-4, -5, -7]]):
        h = {}
        for field in (MOD, RAT, BIG):
            m = parse_module_file(NEGATIVE_TEXT, field_override=field)
            h[field] = sample_generic_quotient(m, 2, coefficients=coefficients).h
            assert h[field] == oracle.sample_generic_quotient(
                m, 2, coefficients=coefficients
            )[1]
        assert h[MOD] == h[RAT] == h[BIG]
    # the second row is twice the first, which a wrapped int64 sum would hide
    m = parse_module_file(NEGATIVE_TEXT)
    with pytest.raises(DependentGeneratorsError):
        sample_generic_quotient(m, 2, coefficients=[[-1, -1, -1], [-2, -2, -2]])


def _exact_combination(coefficients, m):
    """A·F in Python ints, reduced mod p: the object path of _combine."""
    a = np.array([coefficients], dtype=object)
    return (a.dot(m.rows.astype(object)) % m.field.prime).tolist()


def test_explicit_coefficients_of_any_size_combine_exactly():
    # negative entries, entries of 10^15 (an int64 product with a residue
    # would wrap) and of 2^70 (beyond int64): reduced mod p before the dot
    m = parse_module_file(NEGATIVE_TEXT)
    for coefficients in (
        [[-1, -(2**40), 3], [7, -2, -(10**9)]],
        [[10**15, 1, 0], [3, 10**15 + 1, 2]],
        [[2**70, -(2**70) - 1, 5], [1, 2**70, 3 * 2**70]],
    ):
        w = _combine([coefficients], m.rows, MOD)
        assert w.dtype == np.int64
        assert w.tolist() == _exact_combination(coefficients, m)
        s = sample_generic_quotient(m, 2, coefficients=coefficients)
        assert s.coefficients == tuple(map(tuple, coefficients))
        assert s.h == oracle.sample_generic_quotient(m, 2, coefficients=coefficients)[1]


def test_combinations_near_the_int64_prime_limit_fall_back_to_python_ints():
    assert NEAR.prime <= _INT64_PRIME_LIMIT < BIG.prime
    m = parse_module_file(NEGATIVE_TEXT, field_override=NEAR)
    assert m.rows.dtype == np.int64
    # -1 reduces to p - 1, and so do most generator entries: one product
    # fits in int64, a sum of t of them does not, even for a single row
    for coefficients in ([[-1, -1, -1]], [[-1, -2, -3], [-4, -5, -7]]):
        exact = _exact_combination(coefficients, m)
        a = np.array([coefficients], dtype=object) % NEAR.prime
        wrapped = a.astype(np.int64).dot(m.rows) % NEAR.prime
        assert wrapped.tolist() != exact
        w = _combine([coefficients], m.rows, NEAR)
        assert w.dtype == np.int64
        assert w.tolist() == exact
        c = len(coefficients)
        s = sample_generic_quotient(m, c, coefficients=coefficients)
        assert s.h == oracle.sample_generic_quotient(m, c, coefficients=coefficients)[1]


def test_array_types_are_chosen_once_per_field():
    # over GF(p) int64 residues below the limit and object arrays above it;
    # over Q int64 while every entry is below 2^62 in absolute value and
    # object past it. Catalecticants, combinations, bases and meets keep
    # the type they are given, and the exact pass over Q gives Python ints
    text = module_to_text(sharp_family(t=3, p=1, e=4, field=MOD))
    small = parse_module_file(text, field_override=RAT)
    wide = InverseSystemModule(small.num_vars, 4, RAT, small.rows.astype(object) * 2**62)
    cases = [parse_module_file(text, field_override=f) for f in (MOD, BIG)] + [small, wide]
    for m, dtype in zip(cases, (np.int64, object, np.int64, object)):
        field = m.field
        assert m.rows.dtype == dtype
        assert _combine([[[1, 2, 3]], [[4, -5, 6]]], m.rows, field).dtype == dtype
        rows = catalecticant_rows(m.rows, m.num_vars, 4, 2)
        assert rows.dtype == dtype
        stack = rows.reshape(m.type, -1, rows.shape[1])
        # ranks 2 of 10: over Q the exact pass gives these bases
        exact = object if field == RAT else dtype
        bases = _bases(stack, field) + _bases(stack.transpose(0, 2, 1), field)
        assert {b.dtype for b in bases} == {np.dtype(exact)}
        meets = _meets([(bases[0], bases[1]), (bases[0], bases[2])], field)
        assert {b.dtype for b in meets} == {np.dtype(exact)}
        # the generators are certified their own basis, and to meet in 0
        [own] = _bases(m.rows[None], field)
        [zero] = _meets([(m.rows[:1], m.rows[1:])], field)
        assert own.tolist() == m.rows.tolist() and zero.shape == (0, m.rows.shape[1])
        assert own.dtype == zero.dtype == dtype


def test_remix_over_rationals_is_exactly_the_combination():
    gens = (
        Form(2, 3, RAT, {(3, 0): Fraction(1, 2), (1, 2): Fraction(-3, 7)}),
        Form(2, 3, RAT, {(2, 1): Fraction(5, 3), (0, 3): 1}),
        Form(2, 3, RAT, {(1, 2): Fraction(2, 9), (0, 3): Fraction(-1, 4)}),
    )
    m = InverseSystemModule.from_forms(gens, RAT)
    for seed in range(3):
        assert remix_generators(m, seed).generators == oracle.remix_generators(m, seed)


def _first_coefficients(rng, field, n):
    """n random coefficients, each the first draw of its own stream on rng,
    as a caller drawing one coefficient at a time would draw them."""
    return [next(modules._coefficients(rng, field)) for _ in range(n)]


def test_random_coefficient_never_zero_modulo_a_small_prime():
    rng = random.Random(5)
    draws = list(islice(modules._coefficients(rng, FieldSpec.modular(97)), 5000))
    assert all(1 <= x <= 96 for x in draws)
    assert len(set(draws)) == 96
    assert set(_first_coefficients(rng, FieldSpec.modular(2), 50)) == {1}


def test_random_coefficient_default_prime_draws_unchanged():
    # ranges {1}, [1, 16] (a power of two, drawn from 5 bits, not 4),
    # [1, 96] and [1, 10^6] over GF(p), [-10^6, 10^6] over Q, and the same
    # state after the draws: the same bits were consumed, whether the
    # coefficients come from one stream or each from a stream of its own
    small = [FieldSpec.modular(p) for p in (2, 17, 97)]
    for field in (*small, MOD, BIG, RAT):
        for seed in range(100):
            rng, ref = random.Random(seed), random.Random(seed)
            got = list(islice(modules._coefficients(rng, field), 30))
            got += _first_coefficients(rng, field, 30)
            assert got == [oracle.random_coefficient(ref, field) for _ in range(60)], (
                field, seed
            )
            assert rng.getstate() == ref.getstate()
    # seed 118 draws randint(-10^6, 10^6) == 0 at its 13,806th draw, so
    # this run goes through the zero redraw
    rng, ref = random.Random(118), random.Random(118)
    assert list(islice(modules._coefficients(rng, RAT), 14000)) == [
        oracle.random_coefficient(ref, RAT) for _ in range(14000)
    ]
    assert rng.getstate() == ref.getstate()


# over Q this seed's first attempt draws randint(-10^6, 10^6) == 0 at its
# fifth draw, which the rule redraws
ZERO_REDRAW_SEED = 294303


def _successive_draws(seed, attempt, c, t, field):
    """Attempt `attempt` of a quotient seed: c rows of t successive
    randint coefficients (`oracle.random_coefficient`) on one seeded
    random.Random."""
    rng = random.Random(derive_seed(seed, "quotient", attempt))
    return tuple(
        tuple(oracle.random_coefficient(rng, field) for _ in range(t)) for _ in range(c)
    )


@pytest.mark.parametrize(
    "field", [MOD, FieldSpec.modular(101), RAT], ids=["gfp", "gf101", "q"]
)
def test_draws_are_successive_random_coefficients(field):
    # each round's matrices are drawn into one int64 array; the accepted
    # coefficients are tuples of Python ints, those of successive randint
    # coefficients, in the range the field allows
    m = random_module(3, 3, 3, 0.6, 2, field)
    seeds = [ZERO_REDRAW_SEED, 0, 1, 2, 3]
    draws = modules._draws(m, 2, seeds, "quotient")
    for (a, w), seed in zip(draws, seeds):
        assert type(a) is tuple and all(type(row) is tuple for row in a)
        assert all(type(x) is int for row in a for x in row)
        assert a == oracle.sample_generic_quotient(m, 2, seed)[0]
        assert np.array_equal(w, _combine([a], m.rows, field)[0])
        low, high = (1, min(10**6, field.prime - 1)) if field.is_modular else (-(10**6), 10**6)
        assert all(low <= x <= high and x for row in a for x in row), a
    assert draws[0][0] == _successive_draws(ZERO_REDRAW_SEED, 0, 2, 3, field)
    if not field.is_modular:
        rng = random.Random(derive_seed(ZERO_REDRAW_SEED, "quotient", 0))
        assert [rng.randint(-(10**6), 10**6) for _ in range(6)][4] == 0
    for s in generic_quotient_trials(m, 2, trials=4, seed=3):
        assert all(type(x) is int for row in s.coefficients for x in row)
        assert s.coefficients == oracle.sample_generic_quotient(m, 2, s.seed)[0]


def test_random_modules_draw_the_recorded_rows():
    # density 0.6 at seed 11: rng.random() and the coefficient draws
    # interleave on one random.Random
    want = {
        MOD: [[0, 114614, 364798, 0], [271946, 0, 0, 0]],
        FieldSpec.modular(101): [[0, 14, 45, 0], [34, 0, 0, 0]],
        RAT: [[0, -770773, -270406, 0], [-456110, 0, 0, 0]],
    }
    for field, rows in want.items():
        assert random_module(2, 3, 2, 0.6, 11, field).rows.tolist() == rows


def test_explicit_coefficients_are_read_exactly():
    # int() truncated 1.5 to 1, so [[1.5, 0, 1]] gave the h of [[1, 0, 1]];
    # every entry is now read by operator.index, as module rows are
    m = parse_module_file(NEGATIVE_TEXT)
    for bad in (1.5, np.float64(1.5), 2.0, Fraction(3, 2), "1", None):
        with pytest.raises(ValueError) as exc:
            sample_generic_quotient(m, 1, coefficients=[[bad, 0, 1]])
        assert str(exc.value) == f"coefficients must be integers, got {bad!r}"
    # bools and Python or numpy integers of any size are Python ints
    for given, want in (
        ([[True, False, 1]], ((1, 0, 1),)),
        ([[np.int64(-3), np.uint64(2**63), 2**70]], ((-3, 2**63, 2**70),)),
        (np.array([[1, 0, 1]], dtype=np.int8), ((1, 0, 1),)),
        (np.array([[True, False, True]]), ((1, 0, 1),)),
    ):
        s = sample_generic_quotient(m, 1, coefficients=given)
        assert s.coefficients == want
        assert all(type(x) is int for row in s.coefficients for x in row)
        assert s.h == sample_generic_quotient(m, 1, coefficients=want).h


def test_remix_preserves_module():
    m = sharp_family(t=3, p=1, e=4, field=MOD)
    r = remix_generators(m, seed=3)
    assert r.label == m.label
    assert r.type == m.type
    assert h_vector(r) == h_vector(m)
    assert r.generators != m.generators
    # degree-by-degree the two generating sets span the same spaces
    from levelalg.polynomials import derivative_space

    for u in range(m.socle_degree + 1):
        assert derivative_space(r.generators, u) == derivative_space(
            m.generators, u
        )


# ----------------------------------------------------- overlap dimensions


def test_intersection_dim_disjoint_powers():
    # with q = t nothing is modded out: the plain t-fold intersection
    m = InverseSystemModule.from_forms((_mono(2, (3, 0)), _mono(2, (0, 3))), MOD)
    assert relative_intersection_dim(m, 2, 1) == 0
    assert relative_intersection_dim(m, 2, 2) == 0


def test_intersection_dim_shared_derivatives():
    m = InverseSystemModule.from_forms((_mono(2, (2, 1)), _mono(2, (1, 2))), MOD)
    # degree-2 pieces are {y1y2, y1^2} and {y2^2, y1y2}: they share y1y2
    assert relative_intersection_dim(m, 2, 2) == 1
    # degree-1 pieces are both the full span {y1, y2}
    assert relative_intersection_dim(m, 2, 1) == 2


def test_intersection_dim_single_form_and_ranges():
    m = InverseSystemModule.from_forms((_mono(2, (2, 1)),), MOD)
    assert relative_intersection_dim(m, 1, 2) == 2
    with pytest.raises(ValueError):
        relative_intersection_dim(m, 1, 0)
    with pytest.raises(ValueError):
        relative_intersection_dim(m, 1, 3)


def test_inclusion_exclusion_pair_case():
    m = InverseSystemModule.from_forms((_mono(2, (3, 0)), _mono(2, (0, 3))), MOD)
    for u in (1, 2):
        assert inclusion_exclusion_sum(m, u) == relative_intersection_dim(m, 2, u)
        assert inclusion_exclusion_sum(m, u) == 0


def test_inclusion_exclusion_sharp_remixed():
    # three re-mixed generators y1^2 * (generic linear): pairwise overlaps
    # have dimension 1 in both middle degrees, the triple overlap too,
    # so the signed sum is 3 - 1 = 2
    m = remix_generators(sharp_family(t=3, p=1, e=3, field=MOD), seed=14)
    assert inclusion_exclusion_sum(m, 1) == 2
    assert inclusion_exclusion_sum(m, 2) == 2


def test_inclusion_exclusion_needs_two_generators():
    single = InverseSystemModule.from_forms((_mono(2, (3, 0)),), MOD)
    with pytest.raises(ValueError):
        inclusion_exclusion_sum(single, 1)
    pair = InverseSystemModule.from_forms((_mono(2, (3, 0)), _mono(2, (0, 3))), MOD)
    with pytest.raises(ValueError):
        inclusion_exclusion_sum(pair, 0)
    with pytest.raises(ValueError):
        inclusion_exclusion_sum(pair, 3)


def test_relative_intersection_dim_cases():
    a = _mono(2, (3, 0))
    b = _mono(2, (0, 3))
    m = InverseSystemModule.from_forms((a, b), MOD)
    # q = t: plain intersection, no complement to mod out
    assert relative_intersection_dim(m, 2, 1) == 0
    # single generator modulo the other: spans y1 vs y2, nothing collapses
    assert relative_intersection_dim(m, 1, 1) == 1
    assert relative_intersection_dim(m, 1, 1, subset=(1,)) == 1


def test_relative_intersection_subset_independence_on_remix():
    m = remix_generators(sharp_family(t=3, p=1, e=3, field=MOD), seed=21)
    for u in (1, 2):
        vals = {
            relative_intersection_dim(m, 2, u, subset=s)
            for s in ((0, 1), (0, 2), (1, 2))
        }
        assert len(vals) == 1


def _monomial_module(field, exps=((3, 0, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1), (0, 1, 2))):
    # far from generic: by default the prefix {0, 1, 2} meets in 0 at u = 1,
    # and the prefix {0, 1} already at u = 2
    return InverseSystemModule.from_forms(tuple(_mono(3, x, field) for x in exps), field)


# D_2(2) = 1, where four pairs meet in nonzero rows; at u = 1 the prefix
# {0, 1, 2} meets in 0 while six triples and one 4-subset do not
MIXED_MONOMIALS = ((2, 1, 0), (2, 0, 1), (0, 2, 1), (1, 1, 1), (0, 0, 3))


OVERLAP_CASES = (
    lambda field: sharp_family(t=5, p=1, e=3, field=field),
    lambda field: remix_generators(sharp_family(t=6, p=1, e=3, field=field), seed=6),
    lambda field: remix_generators(sharp_family(t=7, p=1, e=3, field=field), seed=7),
    lambda field: remix_generators(random_module(2, 5, 5, 0.5, 5, field), seed=1),
    _monomial_module,
    lambda field: _monomial_module(field, MIXED_MONOMIALS),
)


@pytest.mark.parametrize("field", [MOD, RAT, BIG], ids=["gfp", "q", "bigp"])
def test_overlap_statistics_match_the_subset_oracle(field):
    for build in OVERLAP_CASES:
        m = build(field)
        for u in range(1, m.socle_degree):
            want = oracle.inclusion_exclusion_sum(m, u)
            assert inclusion_exclusion_sum(m, u) == want, (m.label, m.type, u)
            dims = [oracle.relative_intersection_dim(m, q, u) for q in range(1, m.type + 1)]
            for q in range(1, m.type + 1):
                got = relative_intersection_dim(m, q, u)
                assert got == dims[q - 1], (m.type, u, q)
            # one walk gives the sum and the relative dimension of every
            # prefix the recount weighs, {0, 1} and longer, up to the first
            # that meets in 0; the ones it leaves out are 0
            [(total, yielded)] = modules._overlap(
                modules._single_spaces(m, [u], m.rows), m.field
            )
            zeros = [0] * (m.type - 1 - len(yielded))
            assert (total, yielded + zeros) == (want, dims[1:]), (m.label, m.type, u)


def _walk_prefixes(m, u):
    """What the overlap walk hands `_relative_dims` for the prefixes
    {0..q-1}, q = 2, 3, ..., from the oracle's spaces: the oracle's I_q,
    or None for empty rows. The list runs up to the first prefix that
    meets in 0. Once a nonzero prefix q' lies in every S_j, j >= q' (q' =
    1 included), each longer prefix meets in I_q' and has D_u 0 below
    size t, handed empty, and dim I_q' at size t, handed I_q'."""
    spaces = oracle._spaces(m, u)
    t, inter, out = len(spaces), spaces[0], []
    for q in range(1, t + 1):
        if q > 1:
            inter = oracle.subspace_intersection(inter, spaces[q - 1])
            if not inter.dim:
                break
            out.append(inter)
        if q < t and all(
            oracle.subspace_intersection(inter, s).dim == inter.dim for s in spaces[q:]
        ):
            return out + [None] * (t - 1 - q) + [inter]
    return out


def _ranked_prefixes(m, u):
    """The number of prefixes the walk ranks in degree u, from the oracle:
    a prefix q < t is ranked iff I_q != 0 and no shorter prefix q' has I_q'
    in every S_j, j >= q'."""
    return sum(s is not None for s in _walk_prefixes(m, u)[: m.type - 2])


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_overlap_ranks_exactly_the_nonzero_prefix_meets(monkeypatch, field):
    # the walk hands on the meet of {0..q-1}, q >= 2, while it is nonzero,
    # and nothing once a prefix meets in 0; below a prefix that lies in
    # every later space it hands empty rows, whose oracle D_u is 0, and
    # that prefix's rows at size t. Its rows are in frame coordinates, so
    # the oracle's prefix spaces are restricted to J_u
    from levelalg.linalg import _span

    handed = []
    relative = modules._relative_dims

    def recording(pairs, f):
        handed.extend(inter for inter, _ in pairs)
        return relative(pairs, f)

    monkeypatch.setattr(modules, "_relative_dims", recording)
    for build in OVERLAP_CASES:
        m = build(field)
        for u in range(1, m.socle_degree):
            handed.clear()
            modules._overlap(modules._single_spaces(m, [u], m.rows), m.field)
            want = _walk_prefixes(m, u)
            assert len(handed) == len(want), (m.type, u)
            frame = m._frame[u]
            for q, (rows, s) in enumerate(zip(handed, want), start=2):
                if s is None:
                    assert len(rows) == 0, (m.type, u, q)
                    assert oracle.relative_intersection_dim(m, q, u) == 0, (m.type, u, q)
                    continue
                restricted = _span([[x[j] for j in frame] for x in s.basis], len(frame), field)
                assert restricted.dim == s.dim, (m.type, u)
                assert _span(rows, len(frame), field) == restricted, (m.type, u)


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_reading_one_degrees_relative_dims_costs_one_stacked_rank(monkeypatch, field):
    # one walk ranks every [I_q; S_q] and S_q of the degree in one `_ranks`
    # call; the size-t prefix needs none, nor does a prefix below one that
    # lies in every later space, nor a degree whose {0, 1} meets in 0
    calls = []
    ranks = modules._ranks

    def counting(stack, f):
        calls.append(len(stack))
        return ranks(stack, f)

    cases = [build(field) for build in OVERLAP_CASES]
    monkeypatch.setattr(modules, "_ranks", counting)
    ranked = 0
    for m in cases:
        degrees = range(1, m.socle_degree)
        read, below = [], []
        for u in degrees:
            calls.clear()
            [(_, dims)] = modules._overlap(modules._single_spaces(m, [u], m.rows), m.field)
            read.append(dims)
            below_t = _ranked_prefixes(m, u)
            assert calls == ([2 * below_t] if below_t else []), (m.type, u)
            ranked += bool(below_t)
            below.append(below_t)
            for q in range(1, m.type + 1):
                calls.clear()
                relative_intersection_dim(m, q, u)
                assert len(calls) <= 1, (m.type, u, q)
        # walked together, the degrees' prefixes are ranked in one call
        calls.clear()
        walks = modules._overlap(modules._single_spaces(m, degrees, m.rows), m.field)
        assert [dims for _, dims in walks] == read, m.type
        assert calls == ([2 * sum(below)] if sum(below) else []), m.type
    assert ranked


def _conic(field):
    return truncated_gorenstein_conic(5, 4, field, seed=2)


WALK_CASES = (
    *OVERLAP_CASES,
    lambda field: sharp_family(t=4, p=1, e=4, field=field),
    lambda field: sharp_family(t=5, p=2, e=3, field=field),
    lambda field: remix_generators(sharp_family(t=8, p=1, e=3, field=field), seed=8),
    _conic,
)


@pytest.mark.parametrize("field", [MOD, RAT, BIG], ids=["gfp", "q", "bigp"])
def test_walk_over_all_degrees_matches_the_per_degree_oracle(field):
    # every degree's sum and prefix D_u from the one walk equal those of
    # the walk of that degree alone, on the generators and on a re-mix
    for build in WALK_CASES:
        m = build(field)
        degrees = range(1, m.socle_degree)
        [(_, remix)] = modules._draws(m, m.type, [m.type], "remix")
        for w in (m.rows, remix):
            walks = modules._overlap(modules._single_spaces(m, degrees, w), field)
            assert walks == [oracle.overlap(m, u, w) for u in degrees], (m.label, m.type)


@st.composite
def _walk_draws(draw, field):
    """A module over field, an `OVERLAP_CASES` one, a sharp one of type
    at most 10, a dense one of type 3 or 4 or the conic s = 5, e = 4 (whose
    identities fail), with its own rows or those of a re-mix, seed 0-3."""
    kind = draw(st.sampled_from(["overlap", "sharp", "dense", "conic"]))
    if kind == "overlap":
        m = draw(st.sampled_from(OVERLAP_CASES))(field)
    elif kind == "sharp":
        t = draw(st.integers(2, 10))
        wide = t > 6  # the oracle meets all 2^t - t - 1 subsets: keep p = 1, e = 3
        p, e = draw(st.integers(1, 1 if wide else 2)), draw(st.integers(3, 3 if wide else 4))
        m = sharp_family(t=t, p=p, e=e, field=field)
    elif kind == "dense":
        t, seed = draw(st.integers(3, 4)), draw(st.integers(0, 3))
        m = random_module(draw(st.integers(3, 4)), 4, t, 1.0, seed, field)
    else:
        m = _conic(field)
    seed = draw(st.integers(0, 3))
    w = m.rows if draw(st.booleans()) else modules._draws(m, m.type, [seed], "remix")[0][1]
    return m, w


@pytest.mark.parametrize("field", [MOD, BIG, RAT], ids=["gfp", "bigp", "q"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_pruned_walk_equals_the_unpruned_oracle(field, data):
    # the caps and the pruned subtrees give every degree's sum and prefix
    # D_u that the walk over every subset with a nonzero parent gives
    m, w = data.draw(_walk_draws(field))
    degrees = range(1, m.socle_degree)
    walks = modules._overlap(modules._single_spaces(m, degrees, w), field)
    assert walks == [oracle.overlap(m, u, w) for u in degrees], (m.label, m.type)


def _scaled_trap(t=3):
    """Sharp generators over Q with the second one scaled by p: the same
    span, but mod p the second generator vanishes, so the mod-p pass on
    the stacked catalecticant falls short of the rank over Q."""
    gens = list(sharp_family(t=t, p=1, e=3, field=RAT).generators)
    g = gens[1]
    terms = {k: v * DEFAULT_PRIME for k, v in g.terms.items()}
    gens[1] = Form(g.num_vars, g.degree, RAT, terms)
    return InverseSystemModule.from_forms(tuple(gens), RAT)


FRAME_CASES = (
    lambda field: sharp_family(t=4, p=1, e=4, field=field),
    _monomial_module,
    lambda field: remix_generators(sharp_family(t=5, p=1, e=3, field=field), seed=3),
    lambda field: remix_generators(random_module(3, 4, 3, 0.5, 2, field), seed=4),
)


def _frame_modules():
    for field in (MOD, RAT, BIG, FieldSpec.modular(97)):
        for build in FRAME_CASES:
            yield build(field)
    yield _scaled_trap()


def _mat(a, field):
    return Matrix.from_rows(a.tolist(), field, cols=a.shape[1])


def test_frame_is_a_column_basis_of_the_parent_catalecticants():
    # |J_u| = h_u columns of C_(e-u)(F) that keep its rank, one form
    # included
    singles = [InverseSystemModule.from_forms(m.generators[:1], m.field) for m in _frame_modules()]
    for m in [*_frame_modules(), *singles]:
        e = m.socle_degree
        assert sorted(m._frame) == list(range(1, e)), m.type
        for u in range(1, e):
            full = catalecticant_rows(m.rows, m.num_vars, e, e - u)
            frame = m._frame[u]
            assert frame == sorted(set(frame)), (m.type, u)
            assert len(frame) == h_vector(m)[u] == rank(_mat(full, m.field)), (m.type, u)
            assert rank(_mat(full[:, frame], m.field)) == len(frame), (m.type, u)


def test_frame_restricted_quotients_and_overlaps_equal_the_full_width_oracle():
    # the quotient h and every overlap statistic, gathered through the
    # frame, against full-width ranks and the subset oracle
    trap = _scaled_trap()
    for u in (1, 2):
        # the trap is real: mod p its columns fall short of the frame
        rows = catalecticant_rows(
            trap.rows % DEFAULT_PRIME, trap.num_vars, 3, 3 - u
        )
        assert len(modules._column_basis(rows, MOD)) < len(trap._frame[u])
    for m in _frame_modules():
        assert h_vector(m) == oracle.graded_ranks(m.rows[None], m)[0]
        for c in range(1, m.type):
            samples = generic_quotient_trials(m, c, trials=3, seed=c)
            w = _combine([s.coefficients for s in samples], m.rows, m.field)
            assert [s.h for s in samples] == oracle.graded_ranks(w, m), (m.type, c)
        for u in range(1, m.socle_degree):
            assert inclusion_exclusion_sum(m, u) == oracle.inclusion_exclusion_sum(m, u)
            for q in range(1, m.type + 1):
                got = relative_intersection_dim(m, q, u)
                assert got == oracle.relative_intersection_dim(m, q, u), (m.type, u, q)


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_frame_takes_one_elimination_per_degree_and_a_remix_shares_it(monkeypatch, field):
    # e - 1 eliminations for every type, one form included, as no J_u
    # above u = 1 holds every monomial; a re-mix spans what its parent
    # spans and reuses the parent's frame
    calls = []
    kernel = modules._column_basis

    def counting(a, f):
        calls.append(a.shape)
        return kernel(a, f)

    monkeypatch.setattr(modules, "_column_basis", counting)
    for e in (3, 4, 5):
        m = sharp_family(t=3, p=1, e=e, field=field)
        single = InverseSystemModule.from_forms(m.generators[:1], field)
        calls.clear()
        assert m._frame and single._frame
        assert len(calls) == 2 * (e - 1)
        g = remix_generators(m, seed=e)
        assert g._frame is m._frame
        assert h_vector(g) == h_vector(m)
        assert len(calls) == 2 * (e - 1)


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_frame_passes_stop_at_the_first_full_degree(monkeypatch, field):
    # h = (1, 3, 6, 10, 15, 20, 12, 6, 2): passes at u = 7, 6 and 5 only.
    # J_5 misses one of the N_5 = 21 monomials, fewer than r = 3, so
    # Ann(F)_4 = 0 and every lower J_u is all of its columns
    calls = []
    kernel = modules._column_basis
    monkeypatch.setattr(
        modules, "_column_basis", lambda a, f: calls.append(a.shape) or kernel(a, f)
    )
    for seed in range(2):
        m = random_module(3, 8, 2, 0.5, seed, field)
        calls.clear()
        frame = m._frame
        assert len(calls) == 3
        h = oracle.h_vector(m.generators)
        assert h == (1, 3, 6, 10, 15, 20, 12, 6, 2)
        assert [len(frame[u]) for u in range(1, 8)] == list(h[1:8])
        for u in range(1, 8):
            rows = catalecticant_rows(m.rows, 3, 8, 8 - u)
            assert frame[u] == kernel(rows, field), u
    # y1^5 in two variables: J_u = {y1^u} misses u >= r = 2 monomials down
    # to u = 2, so the walk takes every pass, and J_1 = {y1} is not full
    m = InverseSystemModule.from_forms((_mono(2, (5, 0), field),), field)
    calls.clear()
    assert m._frame == {u: [0] for u in range(1, 5)}
    assert len(calls) == 4


def test_relative_intersection_dim_matches_the_oracle_on_every_subset():
    # monomial generators are far from generic, so the subset (and the order
    # in which its spaces are met) changes the value
    for field in (MOD, RAT, BIG):
        m = _monomial_module(field)
        for u in (1, 2):
            for q in range(1, m.type + 1):
                for subset in combinations(range(m.type), q):
                    for order in (subset, subset[::-1]):
                        assert relative_intersection_dim(
                            m, q, u, subset=order
                        ) == oracle.relative_intersection_dim(m, q, u, subset=order)
    # the first two and the last two generators give different values
    assert {relative_intersection_dim(m, 2, 2, s) for s in ((0, 1), (1, 2))} == {0, 1}


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_inclusion_exclusion_sum_ranks_at_most_once(monkeypatch, field):
    # the sum is read off the walk's meets; the walk's one stacked rank,
    # of the prefixes below t it hands rows, is all the ranking it adds
    calls = []
    ranks = modules._ranks

    def counting(stack, f):
        calls.append(len(stack))
        return ranks(stack, f)

    cases = [build(field) for build in OVERLAP_CASES]
    monkeypatch.setattr(modules, "_ranks", counting)
    for m in cases:
        for u in range(1, m.socle_degree):
            below_t = _ranked_prefixes(m, u)
            calls.clear()
            assert inclusion_exclusion_sum(m, u) == oracle.inclusion_exclusion_sum(m, u)
            assert calls == ([2 * below_t] if below_t else []), (m.type, u)


def _walk_meets(m, u):
    """The number of subsets the walk meets in degree u, from the oracle's
    spaces: none when their dimensions add up to h_u or all equal h_u;
    otherwise the children T + {j}, j after the last index of T, of every
    subset T the walk reaches. The walk reaches each single generator, and
    each child with a nonzero intersection of a reached subset that some
    child does not keep the dimension of."""
    spaces = oracle._spaces(m, u)
    h = oracle.h_vector(m.generators)[u]
    dims = [s.dim for s in spaces]
    if sum(dims) == h or min(dims) == h:
        return 0

    def met(inter, last):
        kids = [oracle.subspace_intersection(inter, s) for s in spaces[last + 1 :]]
        if all(kid.dim == inter.dim for kid in kids):
            return len(kids)
        below = (met(kid, j) for j, kid in enumerate(kids, start=last + 1) if kid.dim)
        return len(kids) + sum(below)

    return sum(met(s, j) for j, s in enumerate(spaces))


def test_stacked_walk_meets_the_children_of_each_unpruned_subset(monkeypatch):
    # a subset is met only when the walk reaches its lexicographic parent
    # (the subset less its largest index): a single generator, or a subset
    # with a nonzero intersection whose own parent has a child that does
    # not keep the parent's dimension
    met = []
    stacked = modules._meets

    def counting(pairs, field):
        met.extend(pairs)
        return stacked(pairs, field)

    monkeypatch.setattr(modules, "_meets", counting)
    cases = (
        # every pair and triple meets in one line: the C(8,2) + C(8,3) = 84
        # pairs and triples, per degree, of the 247 subsets of two or more
        (remix_generators(sharp_family(t=8, p=1, e=3, field=MOD), seed=8), 168),
        # every space is all of degrees 1 and 2, which the walk settles with
        # no meet; in degree 3 the 10 pairs all meet in 0
        (random_module(3, 4, 5, 0.8, 2, MOD), 10),
    )
    for m, count in cases:
        met.clear()
        expected = 0
        for u in range(1, m.socle_degree):
            inclusion_exclusion_sum(m, u)
            expected += _walk_meets(m, u)
        assert len(met) == expected == count


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_identity_checks_walk_each_degree_once(monkeypatch, field):
    # the sums and the recounts all come from one walk over the degrees:
    # the walk's stacked meets are all there is, and no pair is met on its
    # own (a one-pair meet would go through `_meets` too); level q of every
    # degree is one call: the 6 pairs of each of the 3 degrees, then their 4
    # triples, each of which keeps its parent pair's line, so no pair's
    # children are expanded and no 4-subset is met
    from levelalg import manifest

    met, calls = [], []
    stacked = modules._meets

    def counting(pairs, f):
        met.extend(pairs)
        calls.append(len(pairs))
        return stacked(pairs, f)

    monkeypatch.setattr(modules, "_meets", counting)
    m = sharp_family(t=4, p=1, e=4, field=field)
    seed = 5
    g = remix_generators(m, derive_seed(seed, "identity-mix"))
    expected = sum(_walk_meets(g, u) for u in range(1, m.socle_degree))
    met.clear()
    calls.clear()
    passed, failures = manifest._identity_checks(m, seed)
    assert (passed, failures) == (9, [])
    assert len(met) == expected == 30
    assert calls == [3 * 6, 3 * 4]


def test_relative_intersection_validation():
    m = InverseSystemModule.from_forms((_mono(2, (3, 0)), _mono(2, (0, 3))), MOD)
    with pytest.raises(ValueError):
        relative_intersection_dim(m, 0, 1)
    with pytest.raises(ValueError):
        relative_intersection_dim(m, 3, 1)
    with pytest.raises(ValueError):
        relative_intersection_dim(m, 2, 1, subset=(0, 0))
    with pytest.raises(ValueError):
        relative_intersection_dim(m, 2, 1, subset=(0, 5))


# ------------------------------------------------------------------ seeds


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(1, "trial", 0) == derive_seed(1, "trial", 0)
    assert derive_seed(1, "trial", 0) != derive_seed(1, "trial", 1)
    assert derive_seed("a", "bc") != derive_seed("ab", "c")
    val = derive_seed(0)
    assert 0 <= val < 2**64


# ----------------------------------------------------------- module files


MODULE_TEXT = """\
# two binary cubics
vars: 2
degree: 3
prime: 97

F1: y1^3 + 2*y2^3
F2: y1*y2^2 - y2^3
"""


def test_parse_module_file_basic():
    m = parse_module_file(MODULE_TEXT)
    assert m.num_vars == 2
    assert m.socle_degree == 3
    assert m.type == 2
    assert m.field == FieldSpec.modular(97)
    assert m.generators[1].terms == {(1, 2): 1, (0, 3): 96}


def test_parse_module_file_default_field():
    text = "vars: 1\ndegree: 2\nF1: y1^2\n"
    m = parse_module_file(text)
    assert m.field == FieldSpec.modular()


def test_parse_module_file_rational():
    text = "vars: 2\ndegree: 2\nprime: rational\nF1: y1^2 - 3*y2^2\n"
    m = parse_module_file(text)
    assert not m.field.is_modular
    assert m.generators[0].terms == {(2, 0): 1, (0, 2): Fraction(-3)}


def test_parse_module_file_field_override():
    text = "vars: 1\ndegree: 3\nprime: 97\nF1: y1^3\nF2: y1^3\n"
    # dependence is detected over the override field too
    with pytest.raises(InputError):
        parse_module_file(text, field_override=FieldSpec.rational())
    text = "vars: 2\ndegree: 2\nprime: 97\nF1: y1^2 - 3*y2^2\n"
    m = parse_module_file(text, field_override=FieldSpec.rational())
    assert m.generators[0].terms == {(2, 0): 1, (0, 2): Fraction(-3)}
    m97 = parse_module_file(text)
    assert m97.generators[0].terms == {(2, 0): 1, (0, 2): 94}


def test_parse_module_file_errors_carry_line_numbers():
    with pytest.raises(InputError) as err:
        parse_module_file("vars: 2\ndegree: 3\nnonsense\n")
    assert err.value.line == 3
    with pytest.raises(InputError) as err:
        parse_module_file("vars: 2\ndegree: 3\ncolor: blue\nF1: y1^3\n")
    assert err.value.line == 3
    # a generator label is F and decimal digits: '²' is a digit, not decimal
    with pytest.raises(InputError, match="unknown key 'F²'") as err:
        parse_module_file("vars: 2\ndegree: 3\nF²: y1^3\n")
    assert err.value.line == 3
    with pytest.raises(InputError, match="missing"):
        parse_module_file("degree: 3\nF1: y1^3\n")
    with pytest.raises(InputError, match="no generator"):
        parse_module_file("vars: 2\ndegree: 3\n")
    with pytest.raises(InputError, match="F1..F2"):
        parse_module_file("vars: 2\ndegree: 3\nF1: y1^3\nF3: y2^3\n")
    with pytest.raises(InputError) as err:
        parse_module_file("vars: 2\ndegree: 3\nvars: x\n")
    assert err.value.line == 3
    with pytest.raises(InputError, match="positive"):
        parse_module_file("vars: 0\ndegree: 3\nF1: y1^3\n")
    with pytest.raises(InputError) as err:
        parse_module_file("vars: 2\ndegree: 3\nprime: 91\nF1: y1^3\n")
    assert err.value.line == 3
    # one integer parser for every header: a prime that is no integer too
    with pytest.raises(InputError, match="prime must be an integer") as err:
        parse_module_file("vars: 2\ndegree: 3\nprime: x\nF1: y1^3\n")
    assert err.value.line == 3
    # a prime not above the degree is the prime line's fault
    with pytest.raises(InputError, match="must exceed") as err:
        parse_module_file("vars: 3\ndegree: 3\nprime: 2\nF1: y1^3\n")
    assert err.value.line == 3


def test_parse_module_file_form_error_line():
    with pytest.raises(InputError) as err:
        parse_module_file("vars: 2\ndegree: 3\n\nF1: y1^3\nF2: y1^2\n")
    assert err.value.line == 5
    with pytest.raises(InputError) as err:
        parse_module_file("vars: 2\ndegree: 3\nF1: y1^3 - y1^3\n")
    assert err.value.line == 3


def test_parse_module_file_dependent_generators():
    # the line of the first generator in the span of the earlier ones
    cases = [
        ("vars: 2\ndegree: 3\nF1: y1^3\nF2: 2*y1^3\n", 4),
        ("vars: 2\ndegree: 3\n# a comment\nF1: y1^3\nF2: 2*y1^3\n", 5),
        # generators are taken in label order
        ("vars: 2\ndegree: 3\nF2: 2*y1^3\nF1: y1^3\n", 3),
        ("vars: 2\ndegree: 3\nF1: y1^3\nF2: y2^3\nF3: y1^3 - 4*y2^3\nF4: y1*y2^2\n", 5),
    ]
    for text, line in cases:
        for field in (None, RAT):
            with pytest.raises(InputError, match="smaller space") as err:
                parse_module_file(text, field_override=field)
            assert err.value.line == line, text


def test_module_text_round_trip_modular():
    m = parse_module_file(MODULE_TEXT)
    again = parse_module_file(module_to_text(m))
    assert again.generators == m.generators
    assert again.field == m.field


def test_module_text_round_trip_rational_negatives():
    text = "vars: 2\ndegree: 3\nprime: rational\nF1: -y1^3 + 2*y1*y2^2\nF2: y2^3\n"
    m = parse_module_file(text)
    again = parse_module_file(module_to_text(m))
    assert again.generators == m.generators
    assert h_vector(again) == h_vector(m)


# ------------------------------------------------------ property tests

# the settings of the linalg property tests
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def _small_modules(draw):
    """The same integer generators over GF(p) and over Q: r <= 3, e <= 4,
    t <= 4, coefficients in [-5, 5]; r, e >= 2, so that most examples have
    inner degrees and room for two generators."""
    r, e = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    n = len(monomials_of_degree(r, e))
    t = draw(st.integers(1, min(4, n)))
    row = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=t, max_size=t))
    pair = []
    for field in (MOD, RAT):
        try:
            forms = tuple(form_from_row(x, r, e, field) for x in rows)
            pair.append(InverseSystemModule.from_forms(forms, field))
        except DependentGeneratorsError:
            assume(False)
    return pair


@PROPERTY
@given(pair=_small_modules())
def test_small_modules_agree_across_fields_and_give_o_sequences(pair):
    mp, mq = pair
    e = mp.socle_degree
    assert h_vector(mp) == h_vector(mq)
    if mp.type >= 2:
        for u in range(1, e):
            assert inclusion_exclusion_sum(mp, u) == inclusion_exclusion_sum(mq, u)
    for m in pair:
        assert is_o_sequence(h_vector(m)).ok
        if m.type < 2:
            continue
        for s in generic_quotient_trials(m, 1, trials=2, seed=e):
            form = oracle.combine_forms(m.generators, s.coefficients[0], m.field)
            # every entry ranked, the mirrored half included
            h = tuple(rank(oracle.catalecticant([form], e - u)) for u in range(e + 1))
            assert s.h == h == h[::-1]
            assert is_o_sequence(h).ok


GRADED_FIELDS = [MOD, FieldSpec.modular(7), BIG, RAT]
GRADED_IDS = ["gfp", "gf7", "bigp", "q"]


@st.composite
def _graded_cases(draw, field):
    """A random, monomial, sharp or conic module over field, of socle
    degree at most 6 (below the modulus 7), a type c and a stack of
    type-c trials: generic draws, which sit at the caps, and 0/1
    selections of c generators, which may miss them."""
    kind = draw(st.sampled_from(["random", "monomial", "sharp", "conic"]))
    seed = draw(st.integers(0, 99))
    r, e = draw(st.integers(2, 3)), draw(st.integers(2, 6))
    try:
        if kind == "random":
            t = draw(st.integers(2, min(4, space_dim(r, e))))
            density = draw(st.sampled_from([0.3, 0.6, 1.0]))
            m = random_module(r, e, t, density, seed, field)
        elif kind == "monomial":
            m = monomial_module(r, e, draw(st.integers(2, min(5, space_dim(r, e)))), seed, field)
        elif kind == "sharp":
            m = sharp_family(draw(st.integers(2, 4)), 1, min(e, 4), field)
        else:
            m = truncated_gorenstein_conic(draw(st.integers(3, 6)), max(e, 3), field, seed)
        c = draw(st.integers(1, m.type - 1))
        seeds = draw(st.lists(st.integers(0, 2**32), max_size=3))
        picks = draw(st.lists(st.sampled_from(_selections(m.type, c)), max_size=3))
        assume(seeds or picks)
        stacks = [w for _, w in modules._draws(m, c, seeds, "quotient")]
    except DegenerateSampleError:
        assume(False)
    if picks:
        stacks.extend(_combine(picks, m.rows, field))
    return m, np.stack(stacks)


@pytest.mark.parametrize("field", GRADED_FIELDS, ids=GRADED_IDS)
@PROPERTY
@given(data=st.data())
def test_graded_ranks_and_frame_equal_the_per_degree_passes(field, data):
    # the ranks settled from the caps, and J_u below the first full degree,
    # equal what a pass at every degree gives
    m, w = data.draw(_graded_cases(field))
    assert modules._graded_ranks(w, m) == oracle.graded_ranks(w, m)
    r, e = m.num_vars, m.socle_degree
    for u in range(1, e):
        rows = catalecticant_rows(m.rows, r, e, e - u)
        assert m._frame[u] == modules._column_basis(rows, field), u


@pytest.mark.parametrize("field", GRADED_FIELDS, ids=GRADED_IDS)
def test_selections_that_miss_the_caps_equal_the_full_width_ranks(field):
    # pairs and triples of binary sextic monomials: a rank at the row cap
    # c·h_(e-u) settles the degrees above u, not those below
    for seed in range(3):
        m = monomial_module(2, 6, 5, seed, field)
        for c in (2, 3, 4):
            w = _combine(_selections(m.type, c), m.rows, field)
            assert modules._graded_ranks(w, m) == oracle.graded_ranks(w, m), (seed, c)
    # h = (1, 3, 6, 10, 15, 9, 3): pairs of these sparse ternary sextics
    # reach the row cap low, and the degrees above it get c·h_(e-u), which
    # this lopsided h tells apart from c·h_u
    m = random_module(3, 6, 3, 0.3, 0, field)
    w = _combine(_selections(3, 2), m.rows, field)
    assert modules._graded_ranks(w, m) == oracle.graded_ranks(w, m)
