"""Manifest parsing and the batch verification loop."""

from fractions import Fraction
from pathlib import Path

import pytest

from levelalg import manifest, modules
from levelalg.combinatorics import binomial
from levelalg.families import (
    FAMILY_NAMES,
    FAMILY_PARAMS,
    FamilySpec,
    build_family,
    random_module,
    sharp_family,
)
from levelalg.fields import FieldSpec
from levelalg.manifest import (
    IdentityFailure,
    _identity_checks,
    parse_manifest,
    run_manifest,
)
from levelalg.modules import (
    InputError,
    InverseSystemModule,
    derive_seed,
    h_vector,
    inclusion_exclusion_sum,
    relative_intersection_dim,
    remix_generators,
)
from levelalg.polynomials import Form

ROOT = Path(__file__).resolve().parents[1]
MOD = FieldSpec.modular()
RAT = FieldSpec.rational()
BIG = FieldSpec.modular(4294967311)  # above linalg._INT64_PRIME_LIMIT

TEXT = """\
# block family, both quotient types
sharp t=3 p=1 e=3 c=1,2 trials=3 seed=11

random-sparse r=4 e=3 t=2 density=0.5 c=1 seed=7 identities=off
monomial r=3 e=4 t=3 label=cube-picks
"""


def test_parse_manifest_fields():
    man = parse_manifest(TEXT)
    assert len(man) == 3

    first = man[0]
    assert first.spec == FamilySpec.of("sharp", t=3, p=1, e=3)
    assert first.c_list == (1, 2)
    assert first.trials == 3
    assert first.seed == 11
    assert first.identities is True
    assert first.line == 2

    second = man[1]
    assert dict(second.spec.params)["density"] == 0.5
    assert second.c_list == (1,)
    assert second.identities is False

    third = man[2]
    assert third.c_list is None  # all admissible types
    assert third.trials == 5  # default
    assert third.seed is None  # derived at run time
    assert third.label == "cube-picks"
    assert third.line == 5


def test_parse_manifest_errors():
    with pytest.raises(InputError, match="no instances"):
        parse_manifest("# only a comment\n")
    with pytest.raises(InputError, match="unknown family") as err:
        parse_manifest("\nnonsense t=2\n")
    assert err.value.line == 2
    with pytest.raises(InputError, match="key=value"):
        parse_manifest("sharp t=3 oops\n")
    with pytest.raises(InputError, match="bad c list"):
        parse_manifest("sharp t=3 e=3 c=1;2\n")
    with pytest.raises(InputError, match="trials must be positive"):
        parse_manifest("sharp t=3 e=3 trials=0\n")
    with pytest.raises(InputError, match="must be an integer"):
        parse_manifest("sharp t=x e=3\n")
    with pytest.raises(InputError, match="on or off"):
        parse_manifest("sharp t=3 e=3 identities=maybe\n")
    with pytest.raises(InputError, match="bad density"):
        parse_manifest("random-sparse r=3 e=3 t=2 density=thin\n")
    with pytest.raises(InputError, match="unknown key 'bogus'") as err:
        parse_manifest("sharp t=3 e=3\nsharp t=3 e=3 bogus=4 c=1\n")
    assert err.value.line == 2
    with pytest.raises(InputError, match="unknown key 'density'"):
        parse_manifest("random-dense r=3 e=3 t=2 density=0.5\n")


def test_family_parameter_table_covers_every_family():
    assert set(FAMILY_PARAMS) == set(FAMILY_NAMES)
    for family, keys in FAMILY_PARAMS.items():
        line = family + " " + " ".join(f"{k}=1" for k in keys)
        assert parse_manifest(line)[0].spec.family == family


def test_run_manifest_family_errors_carry_the_line():
    man = parse_manifest("sharp t=3 e=3 c=1\n\nsharp t=1 p=1 e=3\n")
    with pytest.raises(InputError, match="need type") as err:
        run_manifest(man, MOD)
    assert err.value.line == 3


def test_run_manifest_reports_input_errors_before_verifying_any(monkeypatch):
    # a family that cannot be built and a c out of range, both on line 2:
    # the sharp instance on line 1 is not verified first
    calls = []
    verify = manifest.verify_instance

    def counting(*args, **kwargs):
        calls.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(manifest, "verify_instance", counting)
    for second in ("sharp t=1 e=3", "sharp t=2 e=3 c=2"):
        man = parse_manifest("sharp t=3 p=1 e=3 c=1,2\n" + second + "\n")
        with pytest.raises(InputError) as err:
            run_manifest(man, MOD)
        assert err.value.line == 2, second
    assert calls == []


def test_run_manifest_counts():
    man = parse_manifest(TEXT)
    summary, reports = run_manifest(man, MOD, seed=0)
    # 2 reports for the sharp line, 1 for random-sparse, 2 for monomial
    assert len(reports) == 5
    assert summary.instances == 3
    assert summary.satisfied + summary.violated == 5
    assert summary.satisfied == 5
    assert summary.violated == 0
    # tight counts (instance, c) reports: sharp is tight in every degree
    # for both c, random-sparse for its one c, and monomial for neither
    # (c=2 misses u=2 alone); identity checks ran for the two instances
    # with identities on (2 inner degrees and 3 inner degrees, 3 checks each)
    assert summary.tight_instances == 3
    assert summary.identity_checks_passed + summary.identity_checks_failed == 15
    assert summary.identity_checks_failed == 0
    assert summary.seed == 0
    assert summary.wall_time >= 0.0


def test_run_manifest_labels_and_order():
    man = parse_manifest(TEXT)
    _, reports = run_manifest(man, MOD, seed=0)
    assert reports[0].label == "sharp-t3-p1-e3"
    assert (reports[0].c, reports[1].c) == (1, 2)
    assert reports[2].label.startswith("random-r4-e3-t2")
    assert reports[3].label == "cube-picks"


def test_run_manifest_deterministic():
    man = parse_manifest(TEXT)
    s1, r1 = run_manifest(man, MOD, seed=42)
    s2, r2 = run_manifest(man, MOD, seed=42)
    assert r1 == r2
    assert s1.to_json_dict() | {"wallTime": 0} == s2.to_json_dict() | {
        "wallTime": 0
    }
    _, r3 = run_manifest(man, MOD, seed=43)
    # the explicitly seeded instances repeat; the derived-seed one moves
    assert [rep.h for rep in r1] == [rep.h for rep in r3]
    assert r1[:3] == r3[:3]
    assert r1[4] != r3[4]


def test_run_manifest_rejects_bad_c():
    man = parse_manifest("sharp t=3 e=3 c=3\n")
    with pytest.raises(InputError, match="out of range") as err:
        run_manifest(man, MOD)
    assert err.value.line == 1
    man = parse_manifest("sharp t=3 e=3 c=0\n")
    with pytest.raises(InputError, match="out of range"):
        run_manifest(man, MOD)


def test_run_manifest_summary_json_keys():
    man = parse_manifest("sharp t=2 e=3 c=1 trials=2\n")
    summary, _ = run_manifest(man, MOD, seed=1)
    d = summary.to_json_dict()
    assert list(d) == [
        "instances", "satisfied", "violated", "tightInstances",
        "identityChecksPassed", "identityChecksFailed", "wallTime", "seed",
    ]
    assert d["instances"] == 1
    assert isinstance(d["wallTime"], float)


def test_run_manifest_identities_sharp_exact():
    # t=2: one subset only, and the recount coefficient (j-1)C(2,2) = 1
    man = parse_manifest("sharp t=2 e=4 c=1 trials=3 seed=5\n")
    summary, _ = run_manifest(man, MOD, seed=5)
    assert summary.identity_checks_failed == 0
    assert summary.identity_checks_passed == 9  # 3 inner degrees x 3 checks


def _checks_on_the_remixed_module(m, seed):
    """`_identity_checks` on the module `remix_generators` builds, with the
    sum from `inclusion_exclusion_sum`, every D_u(j) from
    `relative_intersection_dim`, and H_u the entrywise maximum of the
    h-vectors of its generators, each a module of its own."""
    t, e = m.type, m.socle_degree
    g = remix_generators(m, derive_seed(seed, "identity-mix"))
    h = h_vector(m)
    emp = [
        max(col)
        for col in zip(*(
            h_vector(InverseSystemModule(g.num_vars, e, g.field, g.rows[k : k + 1]))
            for k in range(t)
        ))
    ]
    passed, failures = 0, []
    for u in range(1, e):
        sigma = inclusion_exclusion_sum(g, u)
        recount = sum(
            (j - 1) * binomial(t, j) * relative_intersection_dim(g, j, u)
            for j in range(2, t + 1)
        )
        for identity, lhs, rhs, ok in (
            ("type-count", sigma, t * emp[u] - h[u], sigma == t * emp[u] - h[u]),
            ("recount", sigma, recount, sigma == recount),
            ("overlap-bound", emp[u], h[e - u] - sigma, emp[u] >= h[e - u] - sigma),
        ):
            if ok:
                passed += 1
            else:
                failures.append(IdentityFailure(m.label, u, identity, lhs, rhs))
    return passed, failures


def _fractional_module():
    """Sharp generators over Q, two of them scaled by 1/6 and 5/4: the
    module's rows clear a denominator of 12, so its re-mix rows W are 12
    times those of the re-mixed forms, which `remix_generators` clears
    again; the spaces are the same."""
    gens = sharp_family(t=3, p=1, e=3, field=RAT).generators
    scaled = tuple(
        Form(g.num_vars, g.degree, RAT, {k: v * s for k, v in g.terms.items()})
        for g, s in zip(gens, (1, Fraction(1, 6), Fraction(5, 4)))
    )
    return InverseSystemModule.from_forms(scaled, RAT, label="fractional")


def _count_constructions(monkeypatch):
    built = []
    post_init = InverseSystemModule.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(InverseSystemModule, "__post_init__", counting)
    return built


@pytest.mark.parametrize(
    "field", [MOD, BIG, RAT, FieldSpec.modular(7)], ids=["gfp", "bigp", "q", "gf7"]
)
def test_identity_checks_on_remix_rows_match_the_remixed_module(monkeypatch, field):
    # the r=2 e=5 module fails the type-count identity at u=4 on every
    # field, and over GF(7), where draws are far from generic, another
    # fails the recount too: the failure records are compared as well
    cases = [
        sharp_family(t=4, p=1, e=3, field=field),
        random_module(3, 4, 3, 0.5, 1, field),
        random_module(2, 5, 3, 0.6, 2, field),
    ]
    if field is RAT:
        cases.append(_fractional_module())
    failed = 0
    for k, m in enumerate(cases):
        seed = 5 + k
        want = _checks_on_the_remixed_module(m, seed)
        built = _count_constructions(monkeypatch)
        got = _identity_checks(m, seed)
        monkeypatch.undo()
        assert not built, m.label
        assert got == want, m.label
        failed += len(got[1])
    assert failed


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_identity_checks_draw_the_remix_alone_and_rank_no_quotient(monkeypatch, field):
    # H_u is read off the re-mix rows: a second draw, or a graded rank of
    # its own, would change no integer, so only this count sees it
    drawn, graded = [], []
    draws, graded_ranks = modules._draws, modules._graded_ranks

    def drawing(m, c, seeds, label):
        drawn.append(label)
        return draws(m, c, seeds, label)

    monkeypatch.setattr(modules, "_draws", drawing)
    monkeypatch.setattr(manifest, "_draws", drawing)
    monkeypatch.setattr(
        modules, "_graded_ranks", lambda w, m: graded.append(w) or graded_ranks(w, m)
    )
    m = random_module(3, 4, 3, 0.5, 1, field)
    _identity_checks(m, 5)
    assert drawn == ["remix"] and graded == []


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_identity_checks_take_the_largest_remix_row(monkeypatch, field):
    # a re-mix A = I of y1^3 and y1*y2*y3, whose rows span spaces of
    # dimension 1 and 3 in degrees 1 and 2: H = (1, 3, 3, 1), neither the
    # smaller row nor the first one; h = (1, 3, 4, 2), and the two spaces
    # meet in the line of y1 in degree 1 and in 0 in degree 2
    m = InverseSystemModule.from_forms(
        (Form(3, 3, field, {(3, 0, 0): 1}), Form(3, 3, field, {(1, 1, 1): 1})),
        field,
        label="cube-and-product",
    )
    monkeypatch.setattr(manifest, "_draws", lambda m, c, seeds, label: [(None, m.rows)])
    assert _identity_checks(m, 0) == (
        4,
        [
            IdentityFailure("cube-and-product", 1, "type-count", 1, 3),
            IdentityFailure("cube-and-product", 2, "type-count", 0, 2),
        ],
    )


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_benchmark_manifest_builds_one_module_per_instance(monkeypatch, field):
    man = parse_manifest((ROOT / "perfbench" / "manifest.txt").read_text())
    built = _count_constructions(monkeypatch)
    summary, _ = run_manifest(man, field, seed=0)
    assert len(built) == len(man) == 7
    assert summary.identity_checks_failed == 0


@pytest.mark.parametrize("field", [MOD, RAT], ids=["gfp", "q"])
def test_type_two_benchmark_lines_are_settled_by_the_caps(monkeypatch, field):
    # in every inner degree of the type-2 lines, built as `run_manifest`
    # builds them, the two spaces are each all of it or add up to it: the
    # walk meets nothing, and the one prefix it hands on, {0, 1} of a full
    # degree, has no rest to rank against
    met, ranked, walking = [], [], [False]
    meets, ranks, overlap = modules._meets, modules._ranks, manifest._overlap

    def walk(degrees, f):
        walking[0] = True
        try:
            return overlap(degrees, f)
        finally:
            walking[0] = False

    def ranking(stack, f):
        if walking[0]:
            ranked.append(stack)
        return ranks(stack, f)

    monkeypatch.setattr(modules, "_meets", lambda pairs, f: met.extend(pairs) or meets(pairs, f))
    monkeypatch.setattr(modules, "_ranks", ranking)
    monkeypatch.setattr(manifest, "_overlap", walk)
    man = parse_manifest((ROOT / "perfbench" / "manifest.txt").read_text())
    lines = [(k, inst) for k, inst in enumerate(man) if dict(inst.spec.params)["t"] == 2]
    assert len(lines) == 4
    checks = 0
    for k, inst in lines:
        seed = derive_seed(0, k)
        m = build_family(inst.spec, field, seed=seed)
        passed, failures = _identity_checks(m, seed)
        assert failures == [], inst.line
        checks += passed
    assert checks == 3 * (4 + 3 + 3 + 5)
    assert met == [] and ranked == []
