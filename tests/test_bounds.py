"""Quotient bounds, feasibility, tightening, chaining, and reports.

Frozen vectors in here were recomputed by hand from the ceiling formula
bound_u = ceil(((t-c) h_{e-u} + (ct-1) h_u) / (t^2 - 1)).
"""

import random
from fractions import Fraction

import numpy as np
import oracle
import pytest

from levelalg import bounds, manifest
from levelalg.bounds import (
    CSV_COLUMNS,
    InfeasibleBoundError,
    VerificationReport,
    chained_bound,
    generic_quotient_bound,
    penultimate_bound_holds,
    quotient_feasible,
    report_csv_row,
    tighten_bound,
    verify_instance,
)
from levelalg.families import random_module, sharp_family
from levelalg.fields import FieldSpec
from levelalg.modules import (
    InverseSystemModule,
    derive_seed,
    empirical_generic_h,
    h_vector,
    inclusion_exclusion_sum,
    remix_generators,
)
from levelalg.polynomials import Form, parse_form

MOD = FieldSpec.modular()

H733 = (1, 3, 5, 7, 7, 5, 3)


# ------------------------------------------------------------ direct bound


def test_bound_type_three_reference_vectors():
    assert generic_quotient_bound(H733, 3, 2) == (1, 3, 4, 6, 5, 4, 2)
    assert generic_quotient_bound(H733, 3, 1) == (1, 2, 3, 4, 3, 2, 1)


def test_bound_last_entry_is_target_type():
    rng = random.Random(3001)
    for _ in range(50):
        e = rng.randint(2, 7)
        t = rng.randint(2, 5)
        h = (1,) + tuple(rng.randint(1, 12) for _ in range(e - 1)) + (t,)
        for c in range(1, t):
            b = generic_quotient_bound(h, t, c)
            assert b[0] == 1
            assert b[-1] == c
            assert len(b) == len(h)


def test_bound_is_exact_on_flat_profiles():
    # ((t-c) + (ct-1)) (t+1)p = (c+1)(t^2-1)p, so the ceiling never rounds
    for t in (2, 3, 4):
        for p in (1, 2, 3):
            for e in (2, 4, 5):
                h = (1,) + ((t + 1) * p,) * (e - 1) + (t,)
                for c in range(1, t):
                    want = (1,) + ((c + 1) * p,) * (e - 1) + (c,)
                    assert generic_quotient_bound(h, t, c) == want
                    num = ((t - c) + (c * t - 1)) * (t + 1) * p
                    assert Fraction(num, t * t - 1) == (c + 1) * p


def test_bound_validation():
    with pytest.raises(ValueError, match="at least"):
        generic_quotient_bound((1,), 2, 1)
    with pytest.raises(ValueError, match="h_0"):
        generic_quotient_bound((2, 3, 2), 2, 1)
    with pytest.raises(ValueError, match="negative"):
        generic_quotient_bound((1, -1, 2), 2, 1)
    with pytest.raises(ValueError, match="type must be at least 2"):
        generic_quotient_bound((1, 2, 1), 1, 1)
    with pytest.raises(ValueError, match="expected the type"):
        generic_quotient_bound((1, 3, 3), 2, 1)
    for c in (0, 3, 4):
        with pytest.raises(ValueError, match="out of range"):
            generic_quotient_bound((1, 3, 3), 3, c)


def test_bound_layer_reads_integers_exactly():
    # int() truncated 3.9 and 3.2, so this h gave the bound (1, 2, 2, 1), a
    # path entry 2.9 ran the path (2, 1), and types 2.0, 1.0 gave floats
    with pytest.raises(ValueError, match="h-vector entries must be integers, got 3.9"):
        generic_quotient_bound((1, 3.9, 3.2, 2), 2, 1)
    with pytest.raises(ValueError, match="path entries must be integers, got 2.9"):
        chained_bound((1, 3, 3, 2), 2, (2.9, 1))
    with pytest.raises(ValueError, match="types must be integers, got 2.0"):
        generic_quotient_bound((1, 3, 3, 2), 2.0, 1.0)
    with pytest.raises(ValueError, match="candidate entries must be integers, got 6.5"):
        tighten_bound(H733, (1, 3, 4, 6.5, 5, 4, 2), 2)
    with pytest.raises(ValueError, match="candidate entries must be integers"):
        quotient_feasible((1, 2, 2), (1, "1", 1), 1)
    # numpy integers are integers, read as Python ints
    got = generic_quotient_bound(np.array(H733), np.int64(3), np.int32(2))
    assert got == (1, 3, 4, 6, 5, 4, 2) and all(type(x) is int for x in got)
    got = chained_bound(np.array(H733), 3, np.arange(3, 0, -1), tighten=True)
    assert got == (1, 3, 4, 4, 4, 3, 1) and all(type(x) is int for x in got)


def test_bound_c1_collapses_to_average_formula():
    rng = random.Random(77)
    for _ in range(40):
        e = rng.randint(2, 6)
        t = rng.randint(2, 5)
        h = (1,) + tuple(rng.randint(1, 10) for _ in range(e - 1)) + (t,)
        b = generic_quotient_bound(h, t, 1)
        for u in range(1, e + 1):
            assert b[u] == -(-(h[e - u] + h[u]) // (t + 1))


# ------------------------------------------------------------ pencil bound


# the t = 2, c = 1 case of the general bound, against the formula written
# out on its own in oracle.pencil_bound


def test_pencil_reference_values():
    assert generic_quotient_bound((1, 2, 2, 2), 2, 1) == (1, 2, 2, 1)
    assert oracle.pencil_bound((1, 2, 2, 2)) == (1, 2, 2, 1)
    assert generic_quotient_bound((1, 2, 2, 2), 2, 1)[1] == 2


def test_pencil_requires_type_two():
    with pytest.raises(ValueError, match="expected the type 2"):
        generic_quotient_bound((1, 3, 3), 2, 1)


def test_pencil_agrees_with_general_formula():
    rng = random.Random(88)
    for _ in range(40):
        e = rng.randint(2, 7)
        h = (1,) + tuple(rng.randint(1, 9) for _ in range(e - 1)) + (2,)
        assert oracle.pencil_bound(h) == generic_quotient_bound(h, 2, 1)


def test_pencil_symmetry_and_deficiency_form():
    rng = random.Random(89)
    for _ in range(30):
        e = rng.randint(2, 7)
        h = (1,) + tuple(rng.randint(1, 9) for _ in range(e - 1)) + (2,)
        b = generic_quotient_bound(h, 2, 1)
        for u in range(1, e):
            assert b[u] == b[e - u]
        # the bound written as h_u minus a deficiency ceil((2h_u - h_i - 2)/3)
        for u in range(1, e + 1):
            delta = -(-(2 * h[u] - h[e - u] - 2) // 3)
            assert b[u] == h[u] - delta


# -------------------------------------------------------------- structural


# The two full-codimension conclusions: a generic quotient keeps all r =
# h_1 variables when h_{e-1} >= t (r - 1) (Gorenstein, c = 1) or when
# h_{e-1} >= -t^2 + r t + 2 (type drop, c = t - 1). The bound at u = 1
# implies both, so each is read as H_1 >= h_1 forced by the bound.


def _forces_h1(h, t, c):
    return generic_quotient_bound(h, t, c)[1] >= h[1]


def test_full_codim_gorenstein_predicate():
    assert _forces_h1((1, 2, 2, 2), 2, 1)
    assert _forces_h1((1, 3, 6, 2), 2, 1)
    # 4 < 3*3, and the bound leaves H_1 at 2
    assert generic_quotient_bound((1, 4, 4, 3), 3, 1)[1] == 2
    with pytest.raises(ValueError):
        _forces_h1((1, 4, 4, 3), 2, 1)


def test_full_codim_type_drop_predicate():
    # t=2, r=3: threshold -4 + 6 + 2 = 4
    assert _forces_h1((1, 3, 4, 2), 2, 1)
    assert not _forces_h1((1, 3, 3, 2), 2, 1)
    # t=3, r=8: threshold -9 + 24 + 2 = 17
    assert not _forces_h1((1, 8, 8, 8, 3), 3, 2)
    # r = t: threshold is always 2
    assert _forces_h1((1, 3, 2, 3), 3, 2)
    with pytest.raises(ValueError):
        _forces_h1((1, 3, 3, 2), 3, 2)


def test_full_codim_hypotheses_force_h1_through_the_bound():
    # at c = 1 the bound is at least h_1 - t/(t+1), at c = t - 1 at least
    # h_1 - (t^2-2)/(t^2-1): both above h_1 - 1, and the bound is a ceiling
    rng = random.Random(14)
    gor = drop = 0
    for _ in range(3000):
        e = rng.randint(2, 7)
        t = rng.randint(2, 6)
        h = (1,) + tuple(rng.randint(1, 15) for _ in range(e - 1)) + (t,)
        r = h[1]
        if h[-2] >= t * (r - 1):
            gor += 1
            assert _forces_h1(h, t, 1), h
        if h[-2] >= -t * t + r * t + 2:
            drop += 1
            assert _forces_h1(h, t, t - 1), h
    assert gor > 100 and drop > 100


def test_full_codim_conclusions_hold_empirically():
    # type 2 in two variables: h = (1,2,2,2) passes the Gorenstein
    # predicate, and the generic Gorenstein quotient keeps h_1 = 2
    gens = (
        Form(2, 3, MOD, {(3, 0): 1}),
        Form(2, 3, MOD, {(2, 1): 1}),
    )
    m = InverseSystemModule.from_forms(gens, MOD, label="pencil-one-point")
    h = h_vector(m)
    assert h == (1, 2, 2, 2)
    assert _forces_h1(h, 2, 1)
    assert empirical_generic_h(m, 1, trials=3, seed=2)[1] == h[1]

    # dense quartic pencil: h = (1,3,6,6,2) passes the type-drop
    # predicate and its generic Gorenstein quotient keeps h_1 = 3
    d = random_module(3, 4, 2, 1.0, 3, MOD)
    hd = h_vector(d)
    assert hd == (1, 3, 6, 6, 2)
    assert _forces_h1(hd, 2, 1)
    assert empirical_generic_h(d, 1, trials=3, seed=2)[1] == hd[1]


def test_penultimate_predicate():
    assert penultimate_bound_holds((1, 3, 4, 3), 3)
    assert penultimate_bound_holds((1, 8, 5, 2), 2)  # vacuous: h_1 > 7
    assert not penultimate_bound_holds((1, 4, 3, 2), 2)
    with pytest.raises(ValueError):
        penultimate_bound_holds((1, 3, 4, 3), 2)


# ------------------------------------------------------------- overlap ...


def _overlap_bound_failures(m, seed):
    """The overlap-bound failures `levelalg verify` records for m, which
    checks H_u >= h_{e-u} - (inclusion-exclusion sum) at every inner u."""
    passed, failures = manifest._identity_checks(m, seed)
    assert passed + len(failures) == 3 * (m.socle_degree - 1)
    return [f for f in failures if f.identity == "overlap-bound"]


def test_overlap_bound_two_cubes_equality():
    m = InverseSystemModule.from_forms(
        (Form(2, 3, MOD, {(3, 0): 1}), Form(2, 3, MOD, {(0, 3): 1})), MOD
    )
    assert inclusion_exclusion_sum(m, 1) == 0
    assert empirical_generic_h(m, 1, trials=3, seed=0)[1] == 2
    assert _overlap_bound_failures(m, seed=0) == []


def test_overlap_bound_sharp_equality_components():
    m = sharp_family(3, 1, 3, MOD)
    h = h_vector(m)
    seed = 0
    g = remix_generators(m, derive_seed(seed, "mix"))
    sigma = inclusion_exclusion_sum(g, 2)
    emp = empirical_generic_h(m, 1, trials=5, seed=derive_seed(seed, "emp"))
    assert sigma == 2
    assert emp[2] == h[1] - sigma  # 4 - 2 = 2, equality case
    assert _overlap_bound_failures(m, seed=seed) == []


def test_overlap_bound_random_corpus():
    for seed in range(4):
        m = random_module(3, 4, 3, 0.6, seed, MOD)
        assert _overlap_bound_failures(m, seed=seed) == []


# ------------------------------------------------------------- feasibility


def test_feasible_rejects_the_unrefined_bound():
    assert not quotient_feasible(H733, (1, 3, 4, 6, 5, 4, 2), 2)


def test_feasible_accepts_the_tightened_vector():
    assert quotient_feasible(H733, (1, 3, 5, 6, 6, 4, 2), 2)


def test_feasible_zero_difference():
    assert quotient_feasible((1, 3, 5, 3), (1, 3, 5, 3), 3)


def test_feasible_small_gorenstein_case():
    assert quotient_feasible((1, 2, 2), (1, 1, 1), 1)


def test_feasible_validation():
    with pytest.raises(ValueError, match="length"):
        quotient_feasible((1, 2, 2), (1, 1), 1)
    with pytest.raises(ValueError, match="ends in"):
        quotient_feasible((1, 2, 2), (1, 1, 2), 1)
    with pytest.raises(ValueError, match="exceeds"):
        quotient_feasible((1, 2, 2), (1, 3, 1), 1)
    with pytest.raises(ValueError, match="negative"):
        quotient_feasible((1, 2, 2), (1, -1, 1), 1)


# --------------------------------------------------------------- tightening


def test_tighten_reference_case():
    got = tighten_bound(H733, (1, 3, 4, 6, 5, 4, 2), 2)
    assert got == (1, 3, 5, 6, 6, 4, 2)
    assert quotient_feasible(H733, got, 2)
    assert all(a >= b for a, b in zip(got, (1, 3, 4, 6, 5, 4, 2)))


def test_tighten_reads_each_verdict_once_per_step(monkeypatch):
    # two raises, of L[2] and then of L[4]: L fails at degree 2, then L
    # passes and its reversed difference fails at degree 1, then both
    # pass; each sequence is tested once per step
    verdicts = []
    is_o_sequence = bounds.is_o_sequence

    def counting(h):
        verdicts.append(tuple(h))
        return is_o_sequence(h)

    monkeypatch.setattr(bounds, "is_o_sequence", counting)
    base = generic_quotient_bound(H733, 3, 2)
    assert tighten_bound(H733, base, 2) == (1, 3, 5, 6, 6, 4, 2)
    assert verdicts == [
        base,
        (1, 3, 5, 6, 5, 4, 2),
        (1, 1, 2, 1, 0, 0, 0),
        (1, 3, 5, 6, 6, 4, 2),
        (1, 1, 1, 1, 0, 0, 0),
    ]


def test_tighten_fixed_point():
    feasible = (1, 3, 5, 6, 6, 4, 2)
    assert tighten_bound(H733, feasible, 2) == feasible
    assert tighten_bound((1, 2, 2), (1, 1, 1), 1) == (1, 1, 1)


def test_tighten_repairs_leading_zero():
    assert tighten_bound((1, 2, 2), (0, 1, 1), 1) == (1, 1, 1)


def test_tighten_raises_at_parent_ceiling():
    with pytest.raises(InfeasibleBoundError, match="past the parent value"):
        tighten_bound((1, 2, 4, 2), (1, 1, 4, 1), 1)


def test_tighten_multi_drop_is_out_of_scope():
    with pytest.raises(InfeasibleBoundError, match="single type drops"):
        tighten_bound((1, 3, 3), (1, 1, 1), 1)


def test_tighten_output_dominates_input_on_computed_modules():
    # corpus of actual module h-vectors, where the bound is dominated by
    # the parent and single-drop tightening applies
    rng = random.Random(404)
    for seed in range(15):
        r = rng.randint(2, 4)
        e = rng.randint(3, 5)
        t = rng.randint(2, 4)
        m = random_module(r, e, t, 0.7, seed, MOD)
        h = h_vector(m)
        c = t - 1
        base = generic_quotient_bound(h, t, c)
        assert all(b <= hh for b, hh in zip(base, h))
        got = tighten_bound(h, base, c)
        assert quotient_feasible(h, got, c)
        assert all(a >= b for a, b in zip(got, base))
        assert all(a <= b for a, b in zip(got, h))


# ----------------------------------------------------------------- chaining


def test_chained_reference_case():
    got = chained_bound(H733, 3, [3, 2, 1], tighten=True)
    assert got == (1, 3, 4, 4, 4, 3, 1)
    direct = generic_quotient_bound(H733, 3, 1)
    assert all(a >= b for a, b in zip(got, direct))


def test_chained_two_step_path_equals_direct():
    for c in (1, 2):
        assert chained_bound(H733, 3, [3, c]) == generic_quotient_bound(
            H733, 3, c
        )


def test_chained_on_flat_profiles_matches_direct():
    for t, p, e in ((3, 1, 3), (4, 2, 4), (4, 1, 5)):
        h = (1,) + ((t + 1) * p,) * (e - 1) + (t,)
        direct = generic_quotient_bound(h, t, 1)
        path = list(range(t, 0, -1))
        assert chained_bound(h, t, path, tighten=True) == direct


def test_chained_path_validation():
    with pytest.raises(ValueError, match="at least two"):
        chained_bound(H733, 3, [3])
    with pytest.raises(ValueError, match="starts at"):
        chained_bound(H733, 3, [4, 2])
    with pytest.raises(ValueError, match="descend"):
        chained_bound(H733, 3, [3, 3])
    with pytest.raises(ValueError, match="descend"):
        chained_bound(H733, 3, [3, 1, 2])
    with pytest.raises(ValueError, match="end at type"):
        chained_bound(H733, 3, [3, 0])


# ------------------------------------------------------------------ reports


def test_verify_instance_sharp_is_tight_everywhere():
    m = sharp_family(3, 1, 3, MOD)
    rep = verify_instance(m, 1, trials=3, seed=0)
    assert rep.satisfied
    assert rep.bound == (1, 2, 2, 1)
    assert rep.empirical == (1, 2, 2, 1)
    assert rep.tight_degrees == (0, 1, 2, 3)
    assert rep.label == "sharp-t3-p1-e3"
    assert rep.prime == MOD.prime
    assert len(rep.per_trial) == 3


def test_verify_instance_rejects_c_equal_t():
    m = sharp_family(3, 1, 3, MOD)
    with pytest.raises(ValueError, match="out of range"):
        verify_instance(m, 3)


def test_verify_instance_deterministic():
    m = sharp_family(3, 1, 4, MOD)
    a = verify_instance(m, 2, trials=3, seed=5)
    b = verify_instance(m, 2, trials=3, seed=5)
    assert a == b


def test_report_json_shape():
    m = sharp_family(3, 1, 3, MOD)
    d = verify_instance(m, 1, trials=2, seed=1).to_json_dict()
    assert list(d) == [
        "label", "h", "c", "bound", "empirical", "satisfied",
        "tightDegrees", "trials", "seed", "prime", "perTrial",
    ]
    assert d["h"] == [1, 4, 4, 3]
    assert d["satisfied"] is True
    assert isinstance(d["perTrial"][0], list)


def test_report_csv_row_matches_columns():
    m = sharp_family(3, 1, 3, MOD)
    rep = verify_instance(m, 1, trials=2, seed=1)
    row = report_csv_row(rep)
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == "sharp-t3-p1-e3"
    assert row[1] == "1 4 4 3"
    assert row[5] == "true"
    assert row[9] == str(MOD.prime)


def test_report_csv_blank_prime_over_rationals():
    rep = VerificationReport(
        label="x", h=(1, 2), c=1, bound=(1, 1), empirical=(1, 1),
        satisfied=True, tight_degrees=(0,), trials=1, seed=0,
        prime=None, per_trial=((1, 1),),
    )
    assert report_csv_row(rep)[9] == ""
    assert rep.to_json_dict()["prime"] is None
