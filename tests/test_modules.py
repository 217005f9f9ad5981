"""Module invariants, h-vectors, random quotients, overlap dimensions,
and the module file format.

Rank oracle for the frozen h-vector fixtures: determinants of explicit
small catalecticant blocks, computed by hand in the comments.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import oracle
import pytest
from hypothesis import assume, given, settings, strategies as st

from levelalg import modules
from levelalg.combinatorics import is_o_sequence
from levelalg.families import random_module, sharp_family
from levelalg.fields import DEFAULT_PRIME, FieldSpec
from levelalg.modules import (
    DegenerateSampleError,
    DependentGeneratorsError,
    InverseSystemModule,
    ModuleFileError,
    derive_seed,
    empirical_generic_h,
    generic_quotient_trials,
    h_vector,
    inclusion_exclusion_sum,
    intersection_dim,
    module_to_text,
    parse_module_file,
    random_coefficient,
    relative_intersection_dim,
    remix_generators,
    sample_generic_quotient,
)
from levelalg.linalg import rank
from levelalg.polynomials import (
    Form,
    catalecticant,
    form_from_row,
    monomials_of_degree,
    parse_form,
)

MOD = FieldSpec.modular()
RAT = FieldSpec.rational()
BIG = FieldSpec.modular(4294967311)

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
        InverseSystemModule((), MOD)


def test_module_rejects_degree_zero():
    const = Form(2, 0, MOD, {(0, 0): 1})
    with pytest.raises(ValueError, match="at least 1"):
        InverseSystemModule((const,), MOD)


def test_module_rejects_field_mismatch():
    g = Form(2, 2, RAT, {(2, 0): 1})
    with pytest.raises(ValueError, match="field disagrees"):
        InverseSystemModule((g,), MOD)


def test_module_rejects_mixed_degrees_or_vars():
    a = _mono(2, (2, 0))
    b = _mono(2, (3, 0))
    with pytest.raises(ValueError, match="disagree"):
        InverseSystemModule((a, b), MOD)
    c = _mono(3, (2, 0, 0))
    with pytest.raises(ValueError, match="disagree"):
        InverseSystemModule((a, c), MOD)


def test_module_rejects_dependent_generators():
    a = parse_form("y1^2 + y2^2", 2, 2, MOD)
    b = parse_form("2*y1^2 + 2*y2^2", 2, 2, MOD)
    with pytest.raises(DependentGeneratorsError):
        InverseSystemModule((a, b), MOD)
    z = Form(2, 2, MOD, {})
    with pytest.raises(DependentGeneratorsError):
        InverseSystemModule((z,), MOD)


def test_module_rejects_small_modulus():
    small = FieldSpec.modular(3)
    g = Form(1, 3, small, {(3,): 1})
    with pytest.raises(ValueError, match="exceed the socle degree"):
        InverseSystemModule((g,), small)
    ok = FieldSpec.modular(5)
    m = InverseSystemModule((Form(1, 3, ok, {(3,): 1}),), ok)
    assert m.type == 1 and m.socle_degree == 3 and m.num_vars == 1


# -------------------------------------------------------------- h-vectors


def test_h_vector_single_power():
    m = InverseSystemModule((_mono(2, (4, 0)),), MOD)
    assert h_vector(m) == (1, 1, 1, 1, 1)


def test_h_vector_three_quadric_generators():
    gens = tuple(
        _mono(4, exps)
        for exps in ((2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1))
    )
    m = InverseSystemModule(gens, MOD)
    assert h_vector(m) == (1, 4, 4, 3)


def test_h_vector_binary_cubic_against_minor_oracle():
    # first catalecticant rows (1,2,5) and (2,5,7): the 2x2 minor
    # 1*5 - 2*2 = 1 is nonzero, so both middle entries are 2
    f = parse_form("y1^3 + 2*y1^2*y2 + 5*y1*y2^2 + 7*y2^3", 2, 3, MOD)
    m = InverseSystemModule((f,), MOD)
    assert h_vector(m) == (1, 2, 2, 1)
    f_rat = parse_form("y1^3 + 2*y1^2*y2 + 5*y1*y2^2 + 7*y2^3", 2, 3, RAT)
    assert h_vector(InverseSystemModule((f_rat,), RAT)) == (1, 2, 2, 1)


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
    sub = InverseSystemModule(m.generators[:2], m.field)
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
    m = InverseSystemModule(
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
        tuple(random_coefficient(rng, m.field) for _ in range(m.type))
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


def test_known_and_mirrored_h_entries_equal_computed_ranks():
    # h_0, h_e and, for one form, h_u = h_(e-u) are not ranked; compare
    # every entry with the rank of the catalecticant of the combined forms
    def ranks(forms):
        e = forms[0].degree
        return tuple(rank(catalecticant(forms, e - u)) for u in range(e + 1))

    asymmetric = False
    for field in (MOD, RAT, BIG):
        for k in range(3):
            m = random_module(3, 5, 3, 0.5, k, field)
            single = InverseSystemModule(m.generators[:1], field)
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
    m = InverseSystemModule(gens, RAT)
    rows = m._coeffs
    assert rows is m._coeffs
    assert not rows.flags.writeable
    assert rows.tolist() == [[21, 0, -18, 0], [0, 70, 0, 42]]
    h_vector(m)
    sample_generic_quotient(m, 1, seed=3)
    remix_generators(m, seed=3)
    assert m._coeffs is rows
    assert rows.tolist() == [[21, 0, -18, 0], [0, 70, 0, 42]]


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


def test_remix_over_rationals_is_exactly_the_combination():
    gens = (
        Form(2, 3, RAT, {(3, 0): Fraction(1, 2), (1, 2): Fraction(-3, 7)}),
        Form(2, 3, RAT, {(2, 1): Fraction(5, 3), (0, 3): 1}),
        Form(2, 3, RAT, {(1, 2): Fraction(2, 9), (0, 3): Fraction(-1, 4)}),
    )
    m = InverseSystemModule(gens, RAT)
    for seed in range(3):
        assert remix_generators(m, seed).generators == oracle.remix_generators(m, seed)


def test_random_coefficient_never_zero_modulo_a_small_prime():
    rng = random.Random(5)
    draws = [random_coefficient(rng, FieldSpec.modular(97)) for _ in range(5000)]
    assert all(1 <= x <= 96 for x in draws)
    assert len(set(draws)) == 96
    assert {random_coefficient(rng, FieldSpec.modular(2)) for _ in range(50)} == {1}


def test_random_coefficient_default_prime_draws_unchanged():
    rng, ref = random.Random(11), random.Random(11)
    field = FieldSpec.modular(DEFAULT_PRIME)
    assert [random_coefficient(rng, field) for _ in range(1000)] == [
        ref.randint(1, 10**6) for _ in range(1000)
    ]


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
    a = _mono(2, (3, 0))
    b = _mono(2, (0, 3))
    assert intersection_dim([a, b], 1) == 0
    assert intersection_dim([a, b], 2) == 0


def test_intersection_dim_shared_derivatives():
    a = _mono(2, (2, 1))
    b = _mono(2, (1, 2))
    # degree-2 pieces are {y1y2, y1^2} and {y2^2, y1y2}: they share y1y2
    assert intersection_dim([a, b], 2) == 1
    # degree-1 pieces are both the full span {y1, y2}
    assert intersection_dim([a, b], 1) == 2


def test_intersection_dim_single_form_and_ranges():
    a = _mono(2, (2, 1))
    assert intersection_dim([a], 2) == 2
    with pytest.raises(ValueError):
        intersection_dim([a], 0)
    with pytest.raises(ValueError):
        intersection_dim([a], 3)
    with pytest.raises(ValueError):
        intersection_dim([], 1)


def test_inclusion_exclusion_pair_case():
    a = _mono(2, (3, 0))
    b = _mono(2, (0, 3))
    m = InverseSystemModule((a, b), MOD)
    for u in (1, 2):
        assert inclusion_exclusion_sum(m, u) == intersection_dim([a, b], u)
        assert inclusion_exclusion_sum(m, u) == 0


def test_inclusion_exclusion_sharp_remixed():
    # three re-mixed generators y1^2 * (generic linear): pairwise overlaps
    # have dimension 1 in both middle degrees, the triple overlap too,
    # so the signed sum is 3 - 1 = 2
    m = remix_generators(sharp_family(t=3, p=1, e=3, field=MOD), seed=14)
    assert inclusion_exclusion_sum(m, 1) == 2
    assert inclusion_exclusion_sum(m, 2) == 2


def test_inclusion_exclusion_needs_two_generators():
    single = InverseSystemModule((_mono(2, (3, 0)),), MOD)
    with pytest.raises(ValueError):
        inclusion_exclusion_sum(single, 1)
    pair = InverseSystemModule((_mono(2, (3, 0)), _mono(2, (0, 3))), MOD)
    with pytest.raises(ValueError):
        inclusion_exclusion_sum(pair, 0)
    with pytest.raises(ValueError):
        inclusion_exclusion_sum(pair, 3)


def test_relative_intersection_dim_cases():
    a = _mono(2, (3, 0))
    b = _mono(2, (0, 3))
    m = InverseSystemModule((a, b), MOD)
    # q = t: plain intersection, no complement to mod out
    assert relative_intersection_dim(m, 2, 1) == intersection_dim([a, b], 1)
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


OVERLAP_CASES = (
    lambda field: sharp_family(t=5, p=1, e=3, field=field),
    lambda field: remix_generators(sharp_family(t=6, p=1, e=3, field=field), seed=6),
    lambda field: remix_generators(sharp_family(t=7, p=1, e=3, field=field), seed=7),
    lambda field: remix_generators(random_module(2, 5, 5, 0.5, 5, field), seed=1),
)


@pytest.mark.parametrize("field", [MOD, RAT, BIG], ids=["gfp", "q", "bigp"])
def test_overlap_statistics_match_the_subset_oracle(field):
    for build in OVERLAP_CASES:
        m = build(field)
        for u in range(1, m.socle_degree):
            want = oracle.inclusion_exclusion_sum(m, u)
            assert inclusion_exclusion_sum(m, u) == want, (m.label, m.type, u)
            for q in range(1, m.type + 1):
                got = relative_intersection_dim(m, q, u)
                assert got == oracle.relative_intersection_dim(m, q, u), (m.type, u, q)
            # with q = t nothing is modded out: the plain t-fold intersection
            assert intersection_dim(m.generators, u) == got


def test_relative_intersection_dim_matches_the_oracle_on_every_subset():
    # monomial generators are far from generic, so the subset (and the order
    # in which its spaces are met) changes the value
    for field in (MOD, RAT, BIG):
        gens = tuple(
            _mono(3, exps, field)
            for exps in ((3, 0, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1), (0, 1, 2))
        )
        m = InverseSystemModule(gens, field)
        for u in (1, 2):
            for q in range(1, m.type + 1):
                for subset in combinations(range(m.type), q):
                    for order in (subset, subset[::-1]):
                        assert relative_intersection_dim(
                            m, q, u, subset=order
                        ) == oracle.relative_intersection_dim(m, q, u, subset=order)
    # the first two and the last two generators give different values
    assert {relative_intersection_dim(m, 2, 2, s) for s in ((0, 1), (1, 2))} == {0, 1}


def test_stacked_walk_meets_exactly_the_subsets_with_a_nonzero_parent(monkeypatch):
    # a subset is met only when its lexicographic parent (the subset less
    # its largest index) has a nonzero intersection
    met = []
    stacked = modules._meets

    def counting(pairs, field):
        met.extend(pairs)
        return stacked(pairs, field)

    monkeypatch.setattr(modules, "_meets", counting)
    cases = (
        # no intersection vanishes: all 247 subsets of two or more, per degree
        (remix_generators(sharp_family(t=8, p=1, e=3, field=MOD), seed=8), 494),
        # in degree 3 some pairs already meet in 0: 26 + 26 + 10 of 3 * 26
        (random_module(3, 4, 5, 0.8, 2, MOD), 62),
    )
    for m, count in cases:
        met.clear()
        expected = 0
        for u in range(1, m.socle_degree):
            inclusion_exclusion_sum(m, u)
            spaces = oracle._spaces(m, u)
            expected += sum(
                1
                for q in range(2, m.type + 1)
                for subset in combinations(range(m.type), q)
                if reduce(oracle.subspace_intersection, (spaces[j] for j in subset[:-1])).dim
            )
        assert len(met) == expected == count


def test_relative_intersection_validation():
    m = InverseSystemModule((_mono(2, (3, 0)), _mono(2, (0, 3))), MOD)
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
    with pytest.raises(ModuleFileError):
        parse_module_file(text, field_override=FieldSpec.rational())
    text = "vars: 2\ndegree: 2\nprime: 97\nF1: y1^2 - 3*y2^2\n"
    m = parse_module_file(text, field_override=FieldSpec.rational())
    assert m.generators[0].terms == {(2, 0): 1, (0, 2): Fraction(-3)}
    m97 = parse_module_file(text)
    assert m97.generators[0].terms == {(2, 0): 1, (0, 2): 94}


def test_parse_module_file_errors_carry_line_numbers():
    with pytest.raises(ModuleFileError) as err:
        parse_module_file("vars: 2\ndegree: 3\nnonsense\n")
    assert err.value.line == 3
    with pytest.raises(ModuleFileError) as err:
        parse_module_file("vars: 2\ndegree: 3\ncolor: blue\nF1: y1^3\n")
    assert err.value.line == 3
    with pytest.raises(ModuleFileError, match="missing"):
        parse_module_file("degree: 3\nF1: y1^3\n")
    with pytest.raises(ModuleFileError, match="no generator"):
        parse_module_file("vars: 2\ndegree: 3\n")
    with pytest.raises(ModuleFileError, match="F1..F2"):
        parse_module_file("vars: 2\ndegree: 3\nF1: y1^3\nF3: y2^3\n")
    with pytest.raises(ModuleFileError) as err:
        parse_module_file("vars: 2\ndegree: 3\nvars: x\n")
    assert err.value.line == 3
    with pytest.raises(ModuleFileError, match="positive"):
        parse_module_file("vars: 0\ndegree: 3\nF1: y1^3\n")
    with pytest.raises(ModuleFileError) as err:
        parse_module_file("vars: 2\ndegree: 3\nprime: 91\nF1: y1^3\n")
    assert err.value.line == 3


def test_parse_module_file_form_error_line():
    with pytest.raises(ModuleFileError) as err:
        parse_module_file("vars: 2\ndegree: 3\n\nF1: y1^3\nF2: y1^2\n")
    assert err.value.line == 5
    with pytest.raises(ModuleFileError) as err:
        parse_module_file("vars: 2\ndegree: 3\nF1: y1^3 - y1^3\n")
    assert err.value.line == 3


def test_parse_module_file_dependent_generators():
    text = "vars: 2\ndegree: 3\nF1: y1^3\nF2: 2*y1^3\n"
    with pytest.raises(ModuleFileError, match="smaller space"):
        parse_module_file(text)


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
            pair.append(InverseSystemModule(forms, field))
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
            h = tuple(rank(catalecticant([form], e - u)) for u in range(e + 1))
            assert s.h == h == h[::-1]
            assert is_o_sequence(h).ok
