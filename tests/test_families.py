"""Constructors for the block family, conic truncations, random modules."""

import hashlib
from pathlib import Path

import pytest

from levelalg import cli, families
from levelalg.families import (
    FAMILY_NAMES,
    FamilySpec,
    build_family,
    monomial_module,
    random_module,
    sharp_family,
    truncated_gorenstein_conic,
)
from levelalg.fields import FieldSpec
from levelalg.modules import h_vector, module_to_text
from levelalg.polynomials import Form, space_dim

ROOT = Path(__file__).resolve().parents[1]
MOD = FieldSpec.modular()
RAT = FieldSpec.rational()
# a prime above isqrt(2**63 - 1): rows of Python ints in object arrays
BIG = FieldSpec.modular(4294967311)


# ------------------------------------------------------------ block family


def test_sharp_exact_generators_smallest_case():
    m = sharp_family(3, 1, 3, MOD)
    assert m.num_vars == 4
    assert m.label == "sharp-t3-p1-e3"
    want = [
        Form(4, 3, MOD, {(2, 1, 0, 0): 1}),
        Form(4, 3, MOD, {(2, 0, 1, 0): 1}),
        Form(4, 3, MOD, {(2, 0, 0, 1): 1}),
    ]
    assert list(m.generators) == want
    assert h_vector(m) == (1, 4, 4, 3)


def test_sharp_block_size_two():
    m = sharp_family(2, 2, 4, MOD)
    assert m.num_vars == 6
    assert h_vector(m) == (1, 6, 6, 6, 2)
    # generator 1 reads y3*y1^3 + y4*y2^3
    assert m.generators[0].terms == {
        (3, 0, 1, 0, 0, 0): 1,
        (0, 3, 0, 1, 0, 0): 1,
    }


def test_sharp_flat_profile_on_small_grid():
    for t in (2, 3):
        for p in (1, 2):
            for e in (2, 4):
                m = sharp_family(t, p, e, MOD)
                r = (t + 1) * p
                assert h_vector(m) == (1,) + (r,) * (e - 1) + (t,)


def test_sharp_parameter_errors():
    with pytest.raises(ValueError):
        sharp_family(1, 1, 3, MOD)
    with pytest.raises(ValueError):
        sharp_family(2, 0, 3, MOD)
    with pytest.raises(ValueError):
        sharp_family(2, 1, 1, MOD)


def test_sharp_checks_the_space_before_building_a_generator(monkeypatch):
    def refuse(*args):
        raise AssertionError("a generator built")

    monkeypatch.setattr(families, "monomial_rank", refuse)
    # 1,200 variables in degree 3: about 2.9e8 monomials
    with pytest.raises(ValueError, match="monomials"):
        sharp_family(5, 200, 3, MOD)


# ---------------------------------------------------------------- conic


def test_conic_paper_profile():
    m = truncated_gorenstein_conic(7, 6, MOD, seed=0)
    assert m.label == "conic-s7-e6"
    assert m.type == 3
    assert m.num_vars == 3
    assert h_vector(m) == (1, 3, 5, 7, 7, 5, 3)


def test_conic_three_points():
    m = truncated_gorenstein_conic(3, 3, MOD, seed=0)
    assert h_vector(m) == (1, 3, 3, 3)


def test_conic_profile_over_rationals():
    assert h_vector(truncated_gorenstein_conic(7, 6, RAT, seed=0)) == (
        1, 3, 5, 7, 7, 5, 3,
    )


def test_conic_seed_scan_hits_the_profile():
    hits = sum(
        h_vector(truncated_gorenstein_conic(7, 6, MOD, seed=s))
        == (1, 3, 5, 7, 7, 5, 3)
        for s in range(20)
    )
    assert hits >= 19  # at most one degenerate coincidence tolerated


def test_conic_draws_distinct_points_for_many_points():
    # 600 draws with replacement from [1, 10^4] would repeat a point with
    # probability about 1 - exp(-18), on every attempt
    m = truncated_gorenstein_conic(600, 3, MOD, seed=0)
    assert m.type == 3
    assert h_vector(m) == (1, 3, 5, 3)


def test_conic_determinism():
    a = truncated_gorenstein_conic(5, 4, MOD, seed=9)
    b = truncated_gorenstein_conic(5, 4, MOD, seed=9)
    assert a.generators == b.generators
    c = truncated_gorenstein_conic(5, 4, MOD, seed=10)
    assert c.generators != a.generators


def test_conic_parameter_errors():
    with pytest.raises(ValueError):
        truncated_gorenstein_conic(2, 6, MOD)
    with pytest.raises(ValueError):
        truncated_gorenstein_conic(3, 2, MOD)
    # the points are distinct draws from [1, 10^4]
    with pytest.raises(ValueError, match="between 3 and 10000 points"):
        truncated_gorenstein_conic(10**4 + 1, 3, MOD)


# -------------------------------------------------------------- random


def test_random_module_dense_is_compressed():
    m = random_module(3, 4, 2, 1.0, 0, MOD)
    # dense quartics in three variables: every graded piece as large as
    # the ambient space or the top piece allows
    assert h_vector(m) == tuple(
        min(space_dim(3, u), 2 * space_dim(3, 4 - u)) for u in range(5)
    )
    assert h_vector(m) == (1, 3, 6, 6, 2)


def test_random_module_determinism_bit_identical():
    a = random_module(4, 3, 3, 0.35, 123, MOD)
    b = random_module(4, 3, 3, 0.35, 123, MOD)
    assert a.generators == b.generators
    assert a.label == b.label == "random-r4-e3-t3-d0.35-s123"
    assert random_module(4, 3, 3, 0.35, 124, MOD).generators != a.generators


def test_random_module_type_is_attained():
    for seed in range(6):
        m = random_module(3, 5, 4, 0.5, seed, MOD)
        assert m.type == 4
        assert h_vector(m)[-1] == 4


def test_random_module_single_generator():
    m = random_module(2, 3, 1, 1.0, 7, MOD)
    assert m.type == 1
    assert h_vector(m)[-1] == 1


def test_random_module_parameter_errors():
    with pytest.raises(ValueError):
        random_module(2, 2, 1, 0.0, 0, MOD)
    with pytest.raises(ValueError):
        random_module(2, 2, 1, 1.5, 0, MOD)
    with pytest.raises(ValueError):
        random_module(2, 2, 99, 1.0, 0, MOD)  # type above the space dim
    with pytest.raises(ValueError, match="r, e, t must be positive"):
        random_module(0, 2, 1, 1.0, 0, MOD)
    with pytest.raises(ValueError):
        random_module(2, 0, 1, 1.0, 0, MOD)
    with pytest.raises(ValueError):
        random_module(2, 2, 0, 1.0, 0, MOD)


def test_monomial_module_basics():
    m = monomial_module(3, 4, 3, 17, MOD)
    assert m.type == 3
    assert all(len(g.terms) == 1 for g in m.generators)
    assert len({next(iter(g.terms)) for g in m.generators}) == 3
    assert monomial_module(3, 4, 3, 17, MOD).generators == m.generators
    with pytest.raises(ValueError):
        monomial_module(2, 2, 4, 0, MOD)
    with pytest.raises(ValueError, match="r, e, t must be positive"):
        monomial_module(0, 3, 1, 0, MOD)


# ------------------------------------------------------------- dispatch


def test_family_spec_accessors():
    spec = FamilySpec.of("sharp", t=3, e=4, p=2)
    assert dict(spec.params) == {"t": 3, "e": 4, "p": 2}
    # parameter order is canonical so specs compare by value
    assert spec == FamilySpec.of("sharp", p=2, e=4, t=3)


def test_build_family_dispatch():
    m = build_family(FamilySpec.of("sharp", t=2, e=3), MOD)
    assert m.label == "sharp-t2-p1-e3"  # p defaults to 1
    m = build_family(FamilySpec.of("truncated-gorenstein-conic", s=3, e=3), MOD)
    assert h_vector(m) == (1, 3, 3, 3)
    m = build_family(FamilySpec.of("random-dense", r=3, e=4, t=2, seed=5), MOD)
    assert m.label == "random-r3-e4-t2-d1-s5"
    m = build_family(FamilySpec.of("random-sparse", r=4, e=3, t=2), MOD, seed=8)
    assert m.label == "random-r4-e3-t2-d0.35-s8"
    m = build_family(
        FamilySpec.of("random-sparse", r=4, e=3, t=2, density=0.6), MOD, seed=8
    )
    assert m.label == "random-r4-e3-t2-d0.6-s8"
    m = build_family(FamilySpec.of("monomial", r=3, e=3, t=2), MOD, seed=4)
    assert m.label == "monomial-r3-e3-t2-s4"


def test_build_family_spec_seed_wins():
    spec = FamilySpec.of("monomial", r=3, e=3, t=2, seed=11)
    a = build_family(spec, MOD, seed=99)
    b = build_family(spec, MOD, seed=0)
    assert a.generators == b.generators


def test_build_family_errors():
    with pytest.raises(ValueError, match="unknown family"):
        build_family(FamilySpec.of("mystery", t=2), MOD)
    with pytest.raises(ValueError, match="requires parameter e"):
        build_family(FamilySpec.of("sharp", t=2), MOD)
    with pytest.raises(ValueError, match="requires parameter t"):
        build_family(FamilySpec.of("random-dense", r=3, e=3), MOD)
    assert "sharp" in FAMILY_NAMES


# --------------------------------------------------------- pinned draws

PINNED_SPECS = (
    FamilySpec.of("sharp", t=3, p=2, e=4),
    FamilySpec.of("truncated-gorenstein-conic", s=4, e=4),
    FamilySpec.of("random-dense", r=3, e=4, t=3),
    FamilySpec.of("random-sparse", r=4, e=4, t=3, density=0.4),
    FamilySpec.of("monomial", r=3, e=4, t=3),
)
# sha256 of module_to_text for each spec above at seed 7, as the families
# drew them when they still built each generator as a Form
PINNED_TEXT_SHA256 = {
    "gfp": (
        "3d3d963bb3097d9c74454ef06030b5fdcb848ad325685dcaf9f4eaa42ee40498",
        "e5aa906283bd120efe7752e3a4def352e48948ea67fbffbea0816695ed01136a",
        "74a62254fa7f01b0afe6370eeec159e45e80a26e825a0f648594e8c810551891",
        "b0390e73a08a45006caedf0bf6165798c01849c4c7929bc3e357215f89777d5f",
        "6094e73797926b58ec8511c6c54e4ba827bb91d40b4acf5b8453e2d93b077f3d",
    ),
    "bigp": (
        "2e7c46ffb06de0d12a135d8bca2781f5b29f98d522d624ddf61fdab2ebcb4d91",
        "b773ae7ed7167e91d61a4d89287194e6d428f2a91e76b91b8e424ce4b253f8f1",
        "0df9100c8fcf0f0f323b8dd04178d43afb9c53038fca5e72220b613774d9e028",
        "29b00fd9877af22c8cdd9bafc0f02d65979f51950b86275f60e0b16ed79e8dbb",
        "2c6f0f3459957704acb5d83a8561d8a93b122a533b25654931dccf4984347987",
    ),
    "q": (
        "8777119091a8345c67c250449dbdd25640a06b7b3dcb4f576ef6a8e11b80726f",
        "3e40fd249c97dc21d565816944abd06e4b6eb4faa7963a06d1a7e54a85cf6e39",
        "f976490dae7658590c8c795b0a3e1534bd2813fd536b4abb6848631669fc8319",
        "f1cd30271a03592a8a887247290a8f202c65bdc82ac5369887a04925aff742b1",
        "7c93f544993cb63c4c6ac50380149814f0fa3d0f7d6b4d43f7f641d2e4522894",
    ),
}


@pytest.mark.parametrize("name, field", [("gfp", MOD), ("bigp", BIG), ("q", RAT)])
def test_every_family_draws_the_recorded_modules(name, field):
    for spec, want in zip(PINNED_SPECS, PINNED_TEXT_SHA256[name]):
        text = module_to_text(build_family(spec, field, seed=7))
        assert hashlib.sha256(text.encode()).hexdigest() == want, spec.family


def test_no_form_is_built_on_the_benchmark_path(monkeypatch, capsys):
    # the families write rows, and verification reads only rows
    def refuse(*args):
        raise AssertionError("a Form built")

    monkeypatch.setattr(Form, "__init__", refuse)
    for field in (MOD, RAT):
        for spec in PINNED_SPECS:
            build_family(spec, field, seed=7)
    manifest = str(ROOT / "perfbench" / "manifest.txt")
    assert cli.main(["verify", manifest]) == 0
    assert cli.main(["verify", manifest, "--rational"]) == 0
    assert "identities=" in capsys.readouterr().out
